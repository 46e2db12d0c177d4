"""Small fully-connected networks in plain numpy, cut to what a WGAN-GP
needs: a batched ``forward`` pass, one critic step (``critic_gradient``), one
generator step (``generator_gradient``) and Adam (``adam_step``). An ``Mlp``
has one shape, two tanh hidden layers and a linear or tanh output layer, and
is built from its four sizes (n_in, h1, h2, n_out) and one flat parameter
vector, so no other depth can be built; the steps are written out for it.
The critic step differentiates its gradient penalty analytically: the
critic's input gradient is differentiated in the penalty's descent direction
with a forward (tangent) sweep, and that extended computation is then swept
in reverse; tanh keeps this second differentiation smooth everywhere.

Parameters are flat: a network keeps all its weights and biases in one
contiguous ``params`` vector, layer by layer, the row-major (out, in) weight
matrix and then the bias. ``weights`` and ``biases`` are views into it, made
once. Gradients and the Adam moments are flat vectors in the same layout.

``critic_gradient`` does a whole critic step in one forward pass over the
stacked [good; bad; mixed] rows and one reverse sweep over all of them,
seeded with -1/b, +1/b and 1. The penalty's tangent and adjoint sweeps then
run on the mixed block, with lambda_gp and the mean's 1/b folded into the
penalty direction u (its gradient is linear in u), and each hidden layer's
penalty adjoint replaces the mixed rows of that layer's sweep. So each layer
takes one weight-gradient product over all 3b rows (the output layer over
the 2b good and bad rows), plus the penalty's tangent term.

``tests/reference_nets.py`` holds the sweeps for any depth, as loops over the
layers, and builds its own one-layer networks: oracles that share no step
code with this module. The critic step equals its ``folded_critic_step``,
the same arithmetic one batch at a time, bit for bit, and its separate
single-batch sweeps, which sum in another order, to a few ulps. The bits
rest on the BLAS giving each of the 3b stacked rows the bits it gives that
row in a batch of b, as OpenBLAS does at b = 32, the training batch; at some
other b it changes the last bits.

A layer multiplies a batch by a contiguous copy of its transposed weight,
made once per pass and shared by ``critic_gradient``'s forward pass and
tangent sweep. With one OpenBLAS thread, float32 (32x64)@(64x300) takes
about 17 us against 36 us through the transposed view; the generator's
stacked (6, 32)-row pass at width 12 takes 77 us against 109 us.

Arithmetic runs in the dtype of ``params``: batches, sweep seeds, gradients
and the Adam moments all take it. ``init_mlp`` draws in float64 and then
casts, so a random stream is consumed alike at every dtype. Runs train
float32 networks; ``init_mlp`` defaults to float64, which the gradient tests
use. The stacked-row caveat above holds at both dtypes.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import TrainingError


def _unpack(flat: np.ndarray, sizes: tuple) -> tuple[np.ndarray, ...]:
    """The views (w1, b1, w2, b2, w3, b3) of a flat vector laid out like params."""
    n_in, h1, h2, n_out = sizes
    a = h1 * n_in
    b = a + h1
    c = b + h2 * h1
    d = c + h2
    e = d + n_out * h2
    return (
        flat[:a].reshape(h1, n_in), flat[a:b], flat[b:c].reshape(h2, h1), flat[c:d],
        flat[d:e].reshape(n_out, h2), flat[e:],
    )


@dataclass
class Mlp:
    """A network of sizes (n_in, h1, h2, n_out) and the Adam optimizer that
    trains it: moments ``m`` and ``v`` laid out like ``params``, zeroed at
    construction, a step count and a rate. The constructor copies
    ``params``; ``weights`` and ``biases`` are the three (out, in) weight
    views and the three bias views of the copy, so writing through them
    updates ``params`` and back. Pickling or copying an Mlp raises
    ``TypeError``, since the copy's views would part from its ``params``:
    send ``params``.
    For long training on a fixed corpus give the generator a rate well below
    the critic's (two time scales); a shared rate orbits the target instead
    of settling.
    """

    sizes: tuple[int, int, int, int]
    params: np.ndarray = field(repr=False)
    output_tanh: bool
    learning_rate: float = 1e-3
    weights: tuple[np.ndarray, ...] = field(init=False, repr=False)
    biases: tuple[np.ndarray, ...] = field(init=False, repr=False)
    m: np.ndarray = field(init=False, repr=False)  # Adam's first moment
    v: np.ndarray = field(init=False, repr=False)  # Adam's second moment
    step: int = field(init=False, default=0)

    def __post_init__(self):
        self.sizes, self.params = tuple(self.sizes), np.array(self.params)
        n_in, h1, h2, n_out = self.sizes  # a ValueError unless four sizes
        count = h1 * (n_in + 1) + h2 * (h1 + 1) + n_out * (h2 + 1)
        if self.params.shape != (count,):
            raise ValueError(f"sizes {self.sizes} take {count} params, got shape {self.params.shape}")
        views = _unpack(self.params, self.sizes)
        self.weights, self.biases = views[0::2], views[1::2]
        self.m, self.v = np.zeros_like(self.params), np.zeros_like(self.params)

    def __reduce__(self):
        raise TypeError("an Mlp's weights are views of its params, which a copy would part; send params")

    @property
    def in_dim(self) -> int:
        return self.sizes[0]

    @property
    def out_dim(self) -> int:
        return self.sizes[-1]


def init_mlp(sizes: tuple[int, int, int, int], output_tanh: bool, rng: np.random.Generator, dtype=np.float64) -> Mlp:
    """A network of sizes (n_in, h1, h2, n_out) with zero biases and
    Glorot-range uniform weights, drawn w1, w2, w3 in that order in float64
    and then cast to dtype."""
    n_in, h1, h2, n_out = sizes

    def glorot(fan_in: int, fan_out: int) -> np.ndarray:
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_out, fan_in)).ravel()

    w1, w2, w3 = glorot(n_in, h1), glorot(h1, h2), glorot(h2, n_out)
    params = np.concatenate([w1, np.zeros(h1), w2, np.zeros(h2), w3, np.zeros(n_out)])
    return Mlp(sizes, params.astype(dtype), output_tanh)


def _as_batch(net: Mlp, x) -> np.ndarray:
    x = np.asarray(x, dtype=net.params.dtype)
    if x.ndim != 2 or x.shape[1] != net.in_dim:
        raise ValueError(f"expected batch of shape (b, {net.in_dim}), got {x.shape}")
    return x


def _transposes(net: Mlp) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Contiguous (in, out) copies of the three weights' transposes."""
    w1, w2, w3 = net.weights
    return np.ascontiguousarray(w1.T), np.ascontiguousarray(w2.T), np.ascontiguousarray(w3.T)


def _forward_sweep(net: Mlp, x: np.ndarray, wts=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The hidden outputs h1, h2 and the output y on x, multiplying by wts
    (default ``_transposes(net)``). x may stack batches along leading axes;
    each (b, in) slice then gets a BLAS product of its own."""
    w1t, w2t, w3t = _transposes(net) if wts is None else wts
    b1, b2, b3 = net.biases
    h1 = x @ w1t
    h1 += b1
    np.tanh(h1, out=h1)
    h2 = h1 @ w2t
    h2 += b2
    np.tanh(h2, out=h2)
    y = h2 @ w3t
    y += b3
    if net.output_tanh:
        np.tanh(y, out=y)
    return h1, h2, y


def _reverse_sweep(net: Mlp, hs: tuple, top: np.ndarray) -> tuple[tuple, tuple]:
    """Per row, the derivatives (d1, d2, d3) of sum(top * y) with respect to
    each layer's pre-activation, and the hidden layers' tanh derivatives
    (s1, s2) = 1 - h*h."""
    h1, h2, y = hs
    _, w2, w3 = net.weights
    s1 = h1 * h1
    np.subtract(1.0, s1, out=s1)
    s2 = h2 * h2
    np.subtract(1.0, s2, out=s2)
    d3 = top * (1.0 - y * y) if net.output_tanh else top
    # A one-row weight (the critic's output layer) is a broadcast multiply,
    # the same products as the K=1 matrix product at a fraction of its cost.
    d2 = d3 * w3[0] if w3.shape[0] == 1 else d3 @ w3
    d2 *= s2
    d1 = d2 @ w2
    d1 *= s1
    return (d1, d2, d3), (s1, s2)


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
    w1, w2, w3 = net.weights
    wts = _transposes(net)  # for the forward pass and the tangent sweep
    h1, h2, y = _forward_sweep(net, x, wts)
    (d1, d2, d3), (s1, s2) = _reverse_sweep(net, (h1, h2, y), top)
    good_bad, mixed = slice(None, 2 * b), slice(2 * b, None)
    s1m, s2m = s1[mixed], s2[mixed]

    # The penalty: the mixed rows' sweep, seeded with 1, gives their input gradient.
    g = d1[mixed] @ w1
    norms = np.sqrt(np.add.reduce(g * g, axis=1))
    penalty = float(np.add.reduce((norms - 1.0) ** 2) / b)
    # lambda_gp times the penalty's descent direction in input-gradient
    # space, the 1/b of the mean folded in; zero-norm rows keep the zero
    # subgradient. The penalty's gradient is linear in u.
    scale = np.divide(2.0 * (norms - 1.0), norms, out=np.zeros_like(norms), where=norms > 0.0)
    scale *= lambda_gp / b
    u = scale[:, None] * g

    # Tangent sweep along u: ta1, ta2 of the hidden pre-activations, t1, t2 of
    # their outputs. u.g per row would be t2 @ w3^T; only its gradient is needed.
    ta1 = u @ wts[0]
    t1 = s1m * ta1
    ta2 = t1 @ wts[1]
    t2 = s2m * ta2

    grad = np.empty_like(net.params)
    gw1, gb1, gw2, gb2, gw3, gb3 = _unpack(grad, net.sizes)
    # The output layer: the good and bad rows, and u.g through its weight.
    # The penalty does not depend on the output bias.
    np.matmul(d3[good_bad].T, h2[good_bad], out=gw3)
    gw3 += np.add.reduce(t2, axis=0)
    np.add.reduce(d3[good_bad], axis=0, out=gb3)

    # Reverse through the tangent chain (tbar, tabar) and the primal chain
    # (hbar). Each hidden layer's penalty adjoint replaces the mixed rows of
    # its seed-1 sweep d, so one product over all 3b rows takes the weight
    # gradient; the tangent term is added.
    tbar = w3[0]  # the same for every row until the product with w2 below
    hbar = tbar * (-2.0 * h2[mixed] * ta2)
    tabar = tbar * s2m
    np.multiply(hbar, s2m, out=d2[mixed])
    np.matmul(d2.T, h1, out=gw2)
    gw2 += tabar.T @ t1
    np.add.reduce(d2, axis=0, out=gb2)

    tbar = tabar @ w2
    hbar = tbar * (-2.0 * h1[mixed] * ta1)
    hbar += d2[mixed] @ w2
    tabar = tbar * s1m
    np.multiply(hbar, s1m, out=d1[mixed])
    np.matmul(d1.T, x, out=gw1)
    gw1 += tabar.T @ u
    np.add.reduce(d1, axis=0, out=gb1)
    return y[:b], y[b:2 * b], penalty, grad


def generator_gradient(gen: Mlp, z: np.ndarray, hs: tuple, critic: Mlp) -> tuple[np.ndarray, np.ndarray]:
    """Critic scores of G(z) and the gradient of -mean D(G(z)) with respect to
    the generator's parameters, given the generator's input z in its dtype
    and its forward pass hs = (h1, h2, G(z)) as ``_forward_sweep`` gives it;
    one critic forward pass serves both."""
    _require_scalar_critic(critic)
    h1, h2, fake = hs
    fake = _as_batch(critic, fake)
    critic_hs = _forward_sweep(critic, fake)
    (c1, _, _), _ = _reverse_sweep(critic, critic_hs, np.ones((len(fake), 1), dtype=fake.dtype))
    d_fake = -(c1 @ critic.weights[0]) / len(fake)
    (d1, d2, d3), _ = _reverse_sweep(gen, hs, d_fake)
    grad = np.zeros_like(gen.params)
    gw1, gb1, gw2, gb2, gw3, gb3 = _unpack(grad, gen.sizes)
    gw1 += d1.T @ z
    gb1 += np.add.reduce(d1, axis=0)
    gw2 += d2.T @ h1
    gb2 += np.add.reduce(d2, axis=0)
    gw3 += d3.T @ h2
    gb3 += np.add.reduce(d3, axis=0)
    return critic_hs[-1], grad


# Adam's decay rates of the two moments and its denominator offset.
ADAM_BETA1 = 0.5
ADAM_BETA2 = 0.9
ADAM_EPS = 1e-8


def adam_step(net: Mlp, g: np.ndarray) -> None:
    """Standard Adam update with bias correction by the flat gradient g,
    applied in place to net's params, moments and step."""
    if not np.isfinite(g).all():
        raise TrainingError("non-finite gradient passed to the optimizer")
    net.step += 1
    c1 = 1.0 - ADAM_BETA1 ** net.step
    c2 = 1.0 - ADAM_BETA2 ** net.step
    # Two temporaries: t carries (1 - beta1) g, then (1 - beta2) g g, then
    # sqrt(v / c2) + eps; u carries lr (m / c1) / t.
    t = np.multiply(g, 1.0 - ADAM_BETA1)
    net.m *= ADAM_BETA1
    net.m += t
    np.multiply(g, 1.0 - ADAM_BETA2, out=t)
    t *= g
    net.v *= ADAM_BETA2
    net.v += t
    np.divide(net.v, c2, out=t)
    np.sqrt(t, out=t)
    t += ADAM_EPS
    u = np.divide(net.m, c1)
    u *= net.learning_rate
    u /= t
    net.params -= u
