"""Adversarial offspring model: a fresh generator/critic pair per call of
`init_networks`, critic pre-training on survivors vs eliminated individuals,
Wasserstein training with gradient penalty, and offspring sampling.

Decision vectors are trained in normalized [-1, 1] coordinates so the
generator's tanh output always lands inside the box. Latent draws are
standard normal. A run sets only the epochs per generation
(`GanConfig.epochs`); the rest of the trainer is the constants below.
`pretrain_discriminator` and `train` read the schedule, PRETRAIN_EPOCHS and
CRITIC_STEPS, themselves, and both take their critic steps through
`_critic_steps`.

The networks are float32, and the dtype follows their parameters: survivor
and eliminated rows are cast once to the critic's dtype. Each call makes its
draws up front, one call per array, in the networks' own dtype: latents in
the generator's, interpolation weights in the critic's. So the stream a call
consumes depends only on its shapes. Box coordinates stay float64 on both
sides: `normalize_to_net` maps in float64 and `denormalize_from_net` returns
float64.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigurationError, TrainingError
from .neuronet import (
    Mlp,
    _critic_seed,
    _forward_sweep,
    adam_step,
    critic_gradient,
    forward,
    generator_gradient,
    init_mlp,
)

# Fixed trainer settings: rows per batch (capped at the corpus size), the
# gradient-penalty weight of WGAN-GP (Gulrajani et al.), layer widths, critic
# steps per generator step, pre-training epochs and the one coarse Adam rate
# both networks share, which keeps the offspring of the benchmark protocol
# dispersed enough to explore.
BATCH_SIZE = 32
LAMBDA_GP = 10.0
LATENT_DIM = 16
HIDDEN = 64
CRITIC_STEPS = 5
PRETRAIN_EPOCHS = 10
LEARNING_RATE = 7e-3


@dataclass
class GanConfig:
    """Offspring-trainer setting: adversarial epochs per generation."""

    epochs: int = 40

    def validate(self) -> None:
        if self.epochs < 0:
            raise ConfigurationError(f"GAN epochs must be >= 0, got {self.epochs}")


@dataclass
class EpochStats:
    epoch: int
    critic_loss: float
    gen_loss: float
    wasserstein: float
    penalty: float


def normalize_to_net(x: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Affine map of box coordinates onto [-1, 1] per dimension."""
    return 2.0 * (np.asarray(x, dtype=float) - lower) / (upper - lower) - 1.0


def denormalize_from_net(y: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Inverse map back to the box, clamped to the bounds."""
    x = lower + (np.asarray(y, dtype=float) + 1.0) * 0.5 * (upper - lower)
    return np.clip(x, lower, upper)


def init_networks(n_var: int, rng: np.random.Generator) -> tuple[Mlp, Mlp]:
    """A freshly drawn (generator, critic), both HIDDEN wide, both with zeroed
    Adam moments and at LEARNING_RATE."""
    gen = init_mlp((LATENT_DIM, HIDDEN, HIDDEN, n_var), output_tanh=True, rng=rng, dtype=np.float32)
    critic = init_mlp((n_var, HIDDEN, HIDDEN, 1), output_tanh=False, rng=rng, dtype=np.float32)
    gen.learning_rate = critic.learning_rate = LEARNING_RATE
    return gen, critic


def _critic_steps(critic: Mlp, good: np.ndarray, bad: np.ndarray, eps: np.ndarray) -> tuple[float, float, float]:
    """One critic step per (b, n) block of the (steps, b, n) rows `good` and
    `bad`, each on loss mean D(bad) - mean D(good) + LAMBDA_GP * penalty with
    the penalty taken at the interpolates eps * good + (1 - eps) * bad, eps
    the (steps, b, 1) weights.

    The rows are cast to the critic's dtype and every step's mixed rows are
    made in one pass; each step's [good; bad; mixed] rows are then copied
    into one reused (3b, n) buffer, so only one step's stack is held. Returns
    the last step's (loss, penalty, mean D(good) - mean D(bad)), zeros
    without steps.
    """
    steps, b, n = good.shape
    good, bad = (np.asarray(a, dtype=critic.params.dtype) for a in (good, bad))
    mixed = eps * good
    mixed += (1.0 - eps) * bad
    x = np.empty((3 * b, n), dtype=good.dtype)
    top = _critic_seed(b, x.dtype)
    stats = (0.0, 0.0, 0.0)
    for rows in zip(good, bad, mixed):
        np.concatenate(rows, out=x)
        y_good, y_bad, penalty, grads = critic_gradient(critic, x, LAMBDA_GP, top)
        mean_good, mean_bad = (np.add.reduce(y, axis=None) / b for y in (y_good, y_bad))
        loss = float(mean_bad - mean_good + LAMBDA_GP * penalty)
        if not np.isfinite(loss):
            raise TrainingError(f"critic loss diverged: {loss}")
        adam_step(critic, grads)
        stats = (loss, penalty, float(mean_good - mean_bad))
    return stats


def pretrain_discriminator(critic: Mlp, real: np.ndarray, bad: np.ndarray, rng: np.random.Generator) -> None:
    """Push the critic up on survivor rows `real` and down on eliminated rows
    `bad`, both (rows, n) in normalized coordinates, in PRETRAIN_EPOCHS
    critic steps.

    Without eliminated rows the critic is left untouched. Otherwise the
    draws come first, in this stream order: the (PRETRAIN_EPOCHS, b)
    survivor row indices, the (PRETRAIN_EPOCHS, b) eliminated row indices
    and the (PRETRAIN_EPOCHS, b, 1) interpolation weights in the critic's
    dtype. The steps then go through `_critic_steps` one at a time, so only
    one step's rows are gathered at once: gathering all of them raised the
    peak memory of an n=300 run.
    """
    if bad.shape[0] == 0:
        return
    real, bad = (np.asarray(a, dtype=critic.params.dtype) for a in (real, bad))
    b = min(BATCH_SIZE, real.shape[0], bad.shape[0])
    good_idx = rng.integers(0, real.shape[0], size=(PRETRAIN_EPOCHS, b))
    bad_idx = rng.integers(0, bad.shape[0], size=(PRETRAIN_EPOCHS, b))
    eps = rng.random((PRETRAIN_EPOCHS, b, 1), dtype=real.dtype)
    for step in range(PRETRAIN_EPOCHS):
        one = slice(step, step + 1)
        _critic_steps(critic, real[good_idx[one]], bad[bad_idx[one]], eps[one])


def train(gen: Mlp, critic: Mlp, real: np.ndarray, epochs: int, rng: np.random.Generator) -> list[EpochStats]:
    """Adversarial training on the (rows, n) survivor matrix `real` for
    `epochs` epochs (a run passes its GanConfig.epochs).

    Per epoch: CRITIC_STEPS critic steps against generator samples (with
    the gradient penalty taken at uniform interpolates of real and generated
    rows), then one generator update on -mean D(G(z)).

    All draws come first, in this stream order: the (epochs, CRITIC_STEPS, b)
    real row indices, the (epochs, CRITIC_STEPS + 1, b, latent) latents in the
    generator's dtype, the last of each epoch's for its generator step, and
    the (epochs, CRITIC_STEPS, b, 1) interpolation weights in the critic's
    dtype. The generator stays fixed for the whole epoch, so one forward pass
    of the generator over the epoch's stacked latents serves every critic
    step and the generator step; a 3-D product multiplies each b-row slice on
    its own, so each slice gets the bits a forward pass on it alone would.
    """
    n_real = real.shape[0]
    if n_real == 0:
        raise TrainingError("cannot train on an empty survivor set")
    steps = CRITIC_STEPS
    b = min(BATCH_SIZE, n_real)
    real = np.asarray(real, dtype=critic.params.dtype)
    idx_all = rng.integers(0, n_real, size=(epochs, steps, b))
    z_all = rng.standard_normal((epochs, steps + 1, b, LATENT_DIM), dtype=gen.params.dtype)
    eps_all = rng.random((epochs, steps, b, 1), dtype=real.dtype)
    trace = []
    for epoch, (idx, z, eps) in enumerate(zip(idx_all, z_all, eps_all)):
        h1, h2, fake = _forward_sweep(gen, z)
        critic_loss, penalty, w_est = _critic_steps(critic, real[idx], fake[:steps], eps)
        scores, gen_grads = generator_gradient(gen, z[steps], (h1[steps], h2[steps], fake[steps]), critic)
        gen_loss = float(-np.mean(scores))
        if not np.isfinite(gen_loss):
            raise TrainingError(f"generator loss diverged at epoch {epoch}")
        adam_step(gen, gen_grads)
        trace.append(EpochStats(epoch, critic_loss, gen_loss, w_est, penalty))
    return trace


def sample_offspring(
    gen: Mlp,
    count: int,
    lower: np.ndarray,
    upper: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Decode `count` latent draws, made in the generator's dtype, into an
    in-bounds (count, n) decision matrix."""
    if count < 1:
        raise ValueError(f"offspring count must be >= 1, got {count}")
    z = rng.standard_normal((count, gen.in_dim), dtype=gen.params.dtype)
    return denormalize_from_net(forward(gen, z), lower, upper)

