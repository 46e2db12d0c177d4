"""Small fully-connected networks in plain numpy, cut to what a WGAN-GP
needs: a batched ``forward`` pass, one critic step (``critic_gradient``), one
generator step (``generator_gradient``) and Adam (``adam_step``). The critic
step differentiates its gradient penalty analytically: the critic's input
gradient is differentiated in the penalty's descent direction with a forward
(tangent) sweep, and that extended computation is then swept in reverse.
Hidden activations are tanh throughout, which keeps this second
differentiation smooth everywhere.

Parameters are flat: a network keeps all its weights and biases in one
contiguous ``params`` vector, layer by layer, the row-major weight matrix and
then the bias. ``weights`` and ``biases`` are views into it. Gradients and the
Adam moments are flat vectors in the same layout, and an Adam update is a few
whole-vector operations.

``critic_gradient`` does a whole critic step in one forward pass over the
stacked [good; bad; mixed] rows and one reverse sweep over all of them,
seeded with -1/b, +1/b and 1. Weight-gradient products are taken per b-row
block, bad rows first, so every sum is accumulated in the same order as
separate single-batch sweeps would (``tests/reference_nets.py`` keeps those
as the tests' oracle); the penalty's tangent and adjoint sweeps run on the
mixed block of the same pass. Whether a matrix product over the 3b stacked
rows gives each row the same bits as one over its b rows alone is up to the
BLAS: with OpenBLAS it does at b = 32, the training batch, but at some other
b the kernel chosen for the row count changes the last bits.
``generator_gradient`` takes the generator's forward pass from its caller
and the critic's input gradient from the forward pass that gives the scores.

A layer multiplies a batch by the transpose of its (out, in) weight matrix.
``critic_gradient`` copies each hidden layer's transpose into a contiguous
array once per call and uses the copies in its forward pass and tangent
sweep: with one OpenBLAS thread, float32 (96x300)@(300x64) takes about 39 us
against 47 us through the transposed view, and the copy 6 us. The products
keep their bits, which the fused-step tests and the result fingerprints
check. Every other pass multiplies by the transposed views. The
generator keeps them because a copy would change results: at width 12, its
(64 -> 12) output layer gets other bits from a contiguous copy than from the
view.

Arithmetic runs in the dtype of ``params``: batches, sweep seeds, gradients
and the Adam moments all take it. ``init_mlp`` draws in float64 and then
casts, so a random stream is consumed alike at every dtype. Runs train float32
networks (``wgan.init_networks``); ``init_mlp`` defaults to float64, which the
gradient tests use. The stacked-row caveat above holds at both dtypes. Weight
matrices are stored (out, in); batches are row-major (batch, features).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import RandomSource, TrainingError


def _layer_views(flat: np.ndarray, shapes) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer weight and bias views into a flat vector (weights then bias per layer)."""
    weights, biases, start = [], [], 0
    for out_dim, in_dim in shapes:
        end = start + out_dim * in_dim
        weights.append(flat[start:end].reshape(out_dim, in_dim))
        biases.append(flat[end:end + out_dim])
        start = end + out_dim
    return weights, biases


@dataclass
class Mlp:
    """A network whose layers are views into one flat ``params`` vector.

    The constructor copies the given layers into ``params``, so writing
    through ``weights[k]`` or ``biases[k]`` updates ``params`` and back.
    """

    weights: list[np.ndarray]  # each (out, in)
    biases: list[np.ndarray]   # each (out,)
    output_tanh: bool
    params: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        shapes = [np.shape(w) for w in self.weights]
        self.params = np.concatenate(
            [np.ravel(a) for w, b in zip(self.weights, self.biases) for a in (w, b)]
        )
        self.weights, self.biases = _layer_views(self.params, shapes)

    def __reduce__(self):
        # Pickle the layers: unpickling packs them into a fresh params vector
        # that the views alias again.
        return Mlp, (self.weights, self.biases, self.output_tanh)

    @property
    def shapes(self) -> list[tuple[int, int]]:
        return [w.shape for w in self.weights]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[0]

def save_params(net: Mlp, path) -> None:
    """Debug dump: little-endian float64, row-major, weights then bias per layer."""
    net.params.astype("<f8").tofile(path)


def init_mlp(layer_sizes: list[int], output_tanh: bool, rng: RandomSource, dtype=np.float64) -> Mlp:
    """Glorot-range uniform weights, zero biases, in the given dtype; the
    weights are drawn in float64 and then cast."""
    if len(layer_sizes) < 2:
        raise ValueError("need at least an input and an output size")
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)).astype(dtype))
        biases.append(np.zeros(fan_out, dtype=dtype))
    return Mlp(weights=weights, biases=biases, output_tanh=output_tanh)


def _as_batch(net: Mlp, x) -> np.ndarray:
    x = np.asarray(x, dtype=net.params.dtype)
    if x.ndim != 2 or x.shape[1] != net.in_dim:
        raise ValueError(f"expected batch of shape (b, {net.in_dim}), got {x.shape}")
    return x


def _forward_sweep(net: Mlp, x: np.ndarray, wts=None) -> list[np.ndarray]:
    """Post-activation output of every layer; the last entry is the network output.

    x may stack batches along leading axes, and each (b, in) slice then gets
    a BLAS product of its own. wts are the (in, out) matrices to multiply by,
    by default the transposed views of the weights.
    """
    if wts is None:
        wts = [w.T for w in net.weights]
    hs = []
    h = x
    last = net.n_layers - 1
    for k, (wt, b) in enumerate(zip(wts, net.biases)):
        h = h @ wt
        h += b
        if k < last or net.output_tanh:
            np.tanh(h, out=h)
        hs.append(h)
    return hs


def _reverse_sweep(net: Mlp, hs: list[np.ndarray], top: np.ndarray) -> tuple[list, list]:
    """Per row, the derivative of sum(top * output) with respect to each
    layer's pre-activation, and the tanh derivative 1 - h*h of each hidden layer."""
    y = hs[-1]
    sech2 = [h * h for h in hs[:-1]]
    for s in sech2:
        np.subtract(1.0, s, out=s)
    ds = [None] * net.n_layers
    ds[-1] = top * (1.0 - y * y) if net.output_tanh else top
    for k in range(net.n_layers - 1, 0, -1):
        w = net.weights[k]
        # A one-row weight (the critic's output layer) is a broadcast multiply,
        # the same products as the K=1 matrix product at a fraction of its cost.
        back = ds[k] * w[0] if w.shape[0] == 1 else ds[k] @ w
        back *= sech2[k - 1]
        ds[k - 1] = back
    return ds, sech2


def _add_param_grads(x, hs, ds, rows: slice, grad_w: list, grad_b: list) -> None:
    """Add the parameter gradient carried by the given rows of a reverse sweep
    to the per-layer gradient views grad_w and grad_b (see ``_layer_views``)."""
    for k, d in enumerate(ds):
        prev = x if k == 0 else hs[k - 1]
        grad_w[k] += d[rows].T @ prev[rows]
        grad_b[k] += np.add.reduce(d[rows], axis=0)


def _penalty_backward(net: Mlp, x, hs, sech2, ds, wts, grad_w: list, grad_b: list) -> float:
    """The gradient penalty at rows x, given their forward sweep and their
    reverse sweep seeded with 1; its parameter gradient is added to the
    per-layer gradient views grad_w and grad_b. The tangent sweep multiplies
    by wts, as ``_forward_sweep`` does. The output bias gets no gradient: the
    input gradient does not depend on it. A row whose input gradient is
    exactly zero contributes the subgradient 0 at the norm kink."""
    b = x.shape[0]
    L = net.n_layers
    g = ds[0] @ net.weights[0]  # (b, in), per-sample input gradient

    # np.linalg.norm and np.mean, spelled as the reductions they run.
    norms = np.sqrt(np.add.reduce(g * g, axis=1))
    penalty = float(np.add.reduce((norms - 1.0) ** 2) / b)

    # Descent direction of the penalty in input-gradient space, with the 1/b
    # of the mean folded in; zero-norm rows keep the zero subgradient.
    scale = np.divide(2.0 * (norms - 1.0), norms, out=np.zeros_like(norms), where=norms > 0.0)
    u = scale[:, None] * g / b

    # Tangent sweep: directional derivative of the forward pass along u.
    ta = [None] * L  # tangent pre-activations per hidden layer
    th = [None] * L  # tangent post-activations
    t_prev = u
    for k in range(L - 1):
        ta[k] = t_prev @ wts[k]
        th[k] = sech2[k] * ta[k]
        t_prev = th[k]
    # The scalar u.g per sample would be th[L-2] @ W_L^T; only its parameter
    # gradient is needed.

    hbar = [None] * (L - 1)

    # Reverse through the tangent chain.
    last_t = u if L == 1 else th[L - 2]
    grad_w[L - 1] += np.add.reduce(last_t, axis=0)[None, :]
    tbar = net.weights[L - 1][0]  # the same for every row until the first product below
    for k in range(L - 2, -1, -1):
        tabar = tbar * sech2[k]
        hbar[k] = tbar * (-2.0 * hs[k] * ta[k])
        prev_t = u if k == 0 else th[k - 1]
        grad_w[k] += tabar.T @ prev_t
        if k > 0:
            tbar = tabar @ net.weights[k]

    # Reverse through the primal chain for the activation dependencies.
    for k in range(L - 2, -1, -1):
        abar = hbar[k] * sech2[k]
        prev = x if k == 0 else hs[k - 1]
        grad_w[k] += abar.T @ prev
        grad_b[k] += np.add.reduce(abar, axis=0)
        if k > 0:
            hbar[k - 1] += abar @ net.weights[k]

    return penalty


def forward(net: Mlp, x: np.ndarray) -> np.ndarray:
    """The network's output on the (b, in) batch x."""
    return _forward_sweep(net, _as_batch(net, x))[-1]


def _require_scalar_critic(net: Mlp) -> None:
    if net.output_tanh or net.out_dim != 1:
        raise ValueError("input gradients require a linear scalar-output network")


def critic_gradient(
    net: Mlp, good: np.ndarray, bad: np.ndarray, mixed: np.ndarray, lambda_gp: float
) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """Scores and parameter gradient of one critic step of a WGAN-GP.

    The loss is mean D(bad) - mean D(good) + lambda_gp * penalty(mixed) over
    b rows each. Returns (D(good), D(bad), penalty, gradient); the gradient
    is the one from the bad rows, plus the one from the good rows, plus
    lambda_gp times the penalty's, summed in that order. Each term has the
    bits of a sweep over its b rows alone when the BLAS gives each row of the
    stacked batch the same product as it does in a batch of b rows (see the
    module docstring).
    """
    _require_scalar_critic(net)
    b = len(good)
    x = _as_batch(net, np.vstack([good, bad, mixed]))
    # Contiguous copies of the hidden layers' transposes serve the forward
    # pass and the tangent sweep; see the module docstring.
    wts = [np.ascontiguousarray(w.T) for w in net.weights[:-1]] + [net.weights[-1].T]
    hs = _forward_sweep(net, x, wts)
    good_rows, bad_rows, mixed_rows = slice(0, b), slice(b, 2 * b), slice(2 * b, 3 * b)
    top = np.ones((3 * b, 1), dtype=x.dtype)
    top[good_rows] = -1.0 / b
    top[bad_rows] = 1.0 / b
    ds, sech2 = _reverse_sweep(net, hs, top)
    grad, pen = np.zeros((2, net.params.size), dtype=x.dtype)
    grad_views = _layer_views(grad, net.shapes)
    _add_param_grads(x, hs, ds, bad_rows, *grad_views)
    _add_param_grads(x, hs, ds, good_rows, *grad_views)
    mixed_hs, mixed_sech2, mixed_ds = (
        [a[mixed_rows] for a in arrays] for arrays in (hs, sech2, ds)
    )
    penalty = _penalty_backward(
        net, x[mixed_rows], mixed_hs, mixed_sech2, mixed_ds, wts, *_layer_views(pen, net.shapes)
    )
    pen *= lambda_gp
    grad += pen
    y = hs[-1]
    return y[good_rows], y[bad_rows], penalty, grad


def generator_gradient(gen: Mlp, z: np.ndarray, hs: list, critic: Mlp) -> tuple[np.ndarray, np.ndarray]:
    """Critic scores of G(z) and the gradient of -mean D(G(z)) with respect to
    the generator's parameters, given the generator's input z in its dtype
    and the output of each of its layers, hs, as ``_forward_sweep`` gives
    them; one critic forward pass serves both."""
    _require_scalar_critic(critic)
    fake = _as_batch(critic, hs[-1])
    critic_hs = _forward_sweep(critic, fake)
    ds, _ = _reverse_sweep(critic, critic_hs, np.ones((len(fake), 1), dtype=fake.dtype))
    d_fake = -(ds[0] @ critic.weights[0]) / len(fake)
    gen_ds, _ = _reverse_sweep(gen, hs, d_fake)
    grad = np.zeros_like(gen.params)
    _add_param_grads(z, hs, gen_ds, slice(None), *_layer_views(grad, gen.shapes))
    return critic_hs[-1], grad


@dataclass
class AdamState:
    m: np.ndarray  # first moment, laid out like the network's params
    v: np.ndarray  # second moment
    step: int = 0
    learning_rate: float = 1e-3
    beta1: float = 0.5
    beta2: float = 0.9
    eps: float = 1e-8

    @classmethod
    def for_net(cls, net: Mlp, learning_rate=1e-3) -> "AdamState":
        return cls(m=np.zeros_like(net.params), v=np.zeros_like(net.params), learning_rate=learning_rate)


def adam_step(net: Mlp, g: np.ndarray, state: AdamState) -> tuple[Mlp, AdamState]:
    """Standard Adam update with bias correction by the flat gradient g,
    applied in place."""
    if not np.isfinite(g).all():
        raise TrainingError("non-finite gradient passed to the optimizer")
    state.step += 1
    c1 = 1.0 - state.beta1 ** state.step
    c2 = 1.0 - state.beta2 ** state.step
    # Two temporaries: t carries (1 - beta1) g, then (1 - beta2) g g, then
    # sqrt(v / c2) + eps; u carries lr (m / c1) / t.
    t = np.multiply(g, 1.0 - state.beta1)
    state.m *= state.beta1
    state.m += t
    np.multiply(g, 1.0 - state.beta2, out=t)
    t *= g
    state.v *= state.beta2
    state.v += t
    np.divide(state.v, c2, out=t)
    np.sqrt(t, out=t)
    t += state.eps
    u = np.divide(state.m, c1)
    u *= state.learning_rate
    u /= t
    net.params -= u
    return net, state
