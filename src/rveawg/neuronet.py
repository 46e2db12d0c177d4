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
seeded with -1/b, +1/b and 1. The penalty's tangent and adjoint sweeps then
run on the mixed block, with lambda_gp and the mean's 1/b folded into the
penalty direction u (its gradient is linear in u), and each layer's penalty
adjoint replaces the mixed rows of that layer's sweep. So each layer takes
one weight-gradient product over all 3b rows (the output layer over the 2b
good and bad rows), plus the penalty's tangent term. ``tests/reference_nets.py``
checks the step bit for bit against ``folded_critic_step``, the same
arithmetic one batch at a time, and to a few ulps against the separate
single-batch sweeps, which sum in another order. Bit equality with the
single-batch reference rests on the BLAS giving each row of the 3b stacked
rows the bits it gives that row in a batch of b: OpenBLAS does at b = 32, the
training batch, but at some other b its kernel for the row count changes the
last bits. ``generator_gradient`` takes the generator's forward pass from
its caller and the critic's input gradient from the forward pass that gives
the scores.

A layer multiplies a batch by the transpose of its (out, in) weight matrix,
copied into a contiguous array once per pass (``critic_gradient`` shares its
copies between the forward pass and the tangent sweep). With one OpenBLAS
thread, float32 (32x64)@(64x300) takes about 17 us against 36 us through the
transposed view, and the generator's stacked (6, 32)-row pass at width 12
takes 77 against 109 us.

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

from .core import TrainingError


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


def init_mlp(layer_sizes: list[int], output_tanh: bool, rng: np.random.Generator, dtype=np.float64) -> Mlp:
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
    by default contiguous copies of the weights' transposes.
    """
    if wts is None:
        wts = [np.ascontiguousarray(w.T) for w in net.weights]
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


def _add_param_grads(x, hs, ds, grad_w: list, grad_b: list) -> None:
    """Add the parameter gradient carried by a reverse sweep to the per-layer
    gradient views grad_w and grad_b (see ``_layer_views``)."""
    for k, d in enumerate(ds):
        prev = x if k == 0 else hs[k - 1]
        grad_w[k] += d.T @ prev
        grad_b[k] += np.add.reduce(d, axis=0)


def forward(net: Mlp, x: np.ndarray) -> np.ndarray:
    """The network's output on the (b, in) batch x."""
    return _forward_sweep(net, _as_batch(net, x))[-1]


def _require_scalar_critic(net: Mlp) -> None:
    if net.output_tanh or net.out_dim != 1:
        raise ValueError("input gradients require a linear scalar-output network")


def _critic_seed(b: int, dtype) -> np.ndarray:
    """The critic step's reverse-sweep seed: -1/b, +1/b and 1 down the good,
    bad and mixed blocks of b rows each."""
    top = np.ones((3 * b, 1), dtype=dtype)
    top[:b] = -1.0 / b
    top[b:2 * b] = 1.0 / b
    return top


def critic_gradient(
    net: Mlp, x: np.ndarray, lambda_gp: float, top: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """Scores and parameter gradient of one critic step of a WGAN-GP.

    x stacks three (b, n) batches as [good; bad; mixed]. The loss is
    mean D(bad) - mean D(good) + lambda_gp * penalty(mixed). Returns
    (D(good), D(bad), penalty, gradient). top is the reverse sweep's seed as
    ``_critic_seed`` builds it, in x's dtype; a caller taking many steps at
    one b passes it in, and it is only read. A mixed row whose input gradient
    is exactly zero contributes the penalty's subgradient 0.
    """
    _require_scalar_critic(net)
    x = _as_batch(net, x)
    b, extra = divmod(x.shape[0], 3)
    if extra or b == 0:
        raise ValueError(f"expected [good; bad; mixed] blocks of equal size, got {x.shape[0]} rows")
    if top is None:
        top = _critic_seed(b, x.dtype)
    L = net.n_layers
    wts = [np.ascontiguousarray(w.T) for w in net.weights]  # for the forward pass and the tangent sweep
    hs = _forward_sweep(net, x, wts)
    ds, sech2 = _reverse_sweep(net, hs, top)
    mixed = slice(2 * b, None)
    sech2_m = [s[mixed] for s in sech2]

    # The penalty: the mixed rows' sweep, seeded with 1, gives their input gradient.
    g = ds[0][mixed] @ net.weights[0]
    norms = np.sqrt(np.add.reduce(g * g, axis=1))
    penalty = float(np.add.reduce((norms - 1.0) ** 2) / b)
    # lambda_gp times the penalty's descent direction in input-gradient
    # space, the 1/b of the mean folded in; zero-norm rows keep the zero
    # subgradient. The penalty's gradient is linear in u.
    scale = np.divide(2.0 * (norms - 1.0), norms, out=np.zeros_like(norms), where=norms > 0.0)
    scale *= lambda_gp / b
    u = scale[:, None] * g

    # Tangent sweep along u: ta[k] is the tangent of layer k's pre-activation,
    # th[k] that of its input (th[0] = u). The scalar u.g per row would be
    # th[L-1] @ W_L^T; only its parameter gradient is needed.
    ta, th = [], [u]
    for k in range(L - 1):
        ta.append(th[k] @ wts[k])
        th.append(sech2_m[k] * ta[k])

    grad = np.empty_like(net.params)
    grad_w, grad_b = _layer_views(grad, net.shapes)
    # The output layer: the good and bad rows, and u.g through its weight.
    # The penalty does not depend on the output bias.
    prev = x if L == 1 else hs[-2]
    np.matmul(ds[-1][:2 * b].T, prev[:2 * b], out=grad_w[-1])
    grad_w[-1] += np.add.reduce(th[-1], axis=0)
    np.add.reduce(ds[-1][:2 * b], axis=0, out=grad_b[-1])

    # Reverse through the tangent chain (tbar, tabar) and the primal chain
    # (hbar, abar). Each layer's penalty adjoint abar replaces the mixed rows
    # of ds[k], whose seed-1 sweep has served its purpose, so one product
    # over all 3b rows takes the weight gradient; the tangent term is added.
    tbar = net.weights[-1][0]  # the same for every row until the first product below
    for k in range(L - 2, -1, -1):
        hbar = tbar * (-2.0 * hs[k][mixed] * ta[k])
        if k < L - 2:
            hbar += ds[k + 1][mixed] @ net.weights[k + 1]
        tabar = tbar * sech2_m[k]
        np.multiply(hbar, sech2_m[k], out=ds[k][mixed])
        prev = x if k == 0 else hs[k - 1]
        np.matmul(ds[k].T, prev, out=grad_w[k])
        grad_w[k] += tabar.T @ th[k]
        np.add.reduce(ds[k], axis=0, out=grad_b[k])
        if k > 0:
            tbar = tabar @ net.weights[k]
    y = hs[-1]
    return y[:b], y[b:2 * b], penalty, grad


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
    _add_param_grads(z, hs, gen_ds, *_layer_views(grad, gen.shapes))
    return critic_hs[-1], grad


# Adam's decay rates of the two moments and its denominator offset.
ADAM_BETA1 = 0.5
ADAM_BETA2 = 0.9
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Adam moments, step count and rate of one network. For long training
    on a fixed corpus give the generator a rate well below the critic's (two
    time scales); a shared rate orbits the target instead of settling."""

    m: np.ndarray  # first moment, laid out like the network's params
    v: np.ndarray  # second moment
    step: int = 0
    learning_rate: float = 1e-3

    @classmethod
    def for_net(cls, net: Mlp, learning_rate=1e-3) -> "AdamState":
        return cls(m=np.zeros_like(net.params), v=np.zeros_like(net.params), learning_rate=learning_rate)


def adam_step(net: Mlp, g: np.ndarray, state: AdamState) -> None:
    """Standard Adam update with bias correction by the flat gradient g,
    applied in place to net's params and state's moments and step."""
    if not np.isfinite(g).all():
        raise TrainingError("non-finite gradient passed to the optimizer")
    state.step += 1
    c1 = 1.0 - ADAM_BETA1 ** state.step
    c2 = 1.0 - ADAM_BETA2 ** state.step
    # Two temporaries: t carries (1 - beta1) g, then (1 - beta2) g g, then
    # sqrt(v / c2) + eps; u carries lr (m / c1) / t.
    t = np.multiply(g, 1.0 - ADAM_BETA1)
    state.m *= ADAM_BETA1
    state.m += t
    np.multiply(g, 1.0 - ADAM_BETA2, out=t)
    t *= g
    state.v *= ADAM_BETA2
    state.v += t
    np.divide(state.v, c2, out=t)
    np.sqrt(t, out=t)
    t += ADAM_EPS
    u = np.divide(state.m, c1)
    u *= state.learning_rate
    u /= t
    net.params -= u
