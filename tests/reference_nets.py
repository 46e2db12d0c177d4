"""Single-batch network functions for any depth: the oracles for the fused steps.

``rveawg.neuronet`` writes its critic step and its generator step out for
the two hidden layers that ``wgan.init_networks`` builds, each as one fused
call. The functions here loop over the layers of a network of any depth, in
sweeps of their own that share no step code with ``rveawg.neuronet``, and
run one batch at a time: backpropagation to parameters, the critic's
per-sample input gradient and the gradient penalty's parameter gradient,
each in its own sweeps, and ``folded_critic_step``, the critic step in the
fused step's summation order. The tests compare the fused critic step with
``folded_critic_step`` bit for bit at the training batch and with the sum
of the separate sweeps to a few ulps, the generator step with ``backward``
bit for bit, and these functions with finite differences
(``fd_param_gradient``, on ``random_net`` networks).

The functions take an ``rveawg.neuronet.Mlp``, which always has two hidden
layers, or any object with the same ``params``, ``weights``, ``biases``,
``output_tanh``, ``in_dim`` and ``out_dim``, such as the one-layer critic
``linear_net`` builds.

A forward pass is kept as (x, hs): the batch as the network saw it and the
post-activation output of every layer, the last entry being the output.
Gradients are flat vectors laid out like the network's ``params``.
"""
from types import SimpleNamespace

import numpy as np

from rveawg.neuronet import Mlp, _as_batch, _require_scalar_critic, init_mlp

# Finite-difference step.
H = 1e-5


def layer_views(flat: np.ndarray, net) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer weight and bias views into a flat vector laid out like
    net's params: per layer the row-major (out, in) weight, then the bias."""
    weights, biases, start = [], [], 0
    for out_dim, in_dim in (w.shape for w in net.weights):
        end = start + out_dim * in_dim
        weights.append(flat[start:end].reshape(out_dim, in_dim))
        biases.append(flat[end:end + out_dim])
        start = end + out_dim
    return weights, biases


def linear_net(w) -> SimpleNamespace:
    """A scalar critic of one linear layer with the (1, in) weight w and a
    zero bias, its params laid out like an Mlp's."""
    params = np.append(np.ravel(w), 0.0)
    weight, bias = params[:-1].reshape(1, -1), params[-1:]
    return SimpleNamespace(
        params=params, weights=[weight], biases=[bias], output_tanh=False, in_dim=weight.shape[1], out_dim=1
    )


def zero_net(sizes, output_tanh=False) -> Mlp:
    """An Mlp of the given sizes whose parameters are all zero."""
    net = init_mlp(sizes, output_tanh, np.random.default_rng(0))
    net.params[...] = 0.0
    return net


def _forward_sweep(net: Mlp, x: np.ndarray, wts=None) -> list[np.ndarray]:
    """Post-activation output of every layer; the last entry is the network
    output. wts are the (in, out) matrices to multiply by, by default
    contiguous copies of the weights' transposes."""
    if wts is None:
        wts = [np.ascontiguousarray(w.T) for w in net.weights]
    hs = []
    h = x
    last = len(net.weights) - 1
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
    ds = [None] * len(net.weights)
    ds[-1] = top * (1.0 - y * y) if net.output_tanh else top
    for k in range(len(net.weights) - 1, 0, -1):
        w = net.weights[k]
        # A one-row weight (the critic's output layer) is a broadcast multiply,
        # the same products as the K=1 matrix product.
        back = ds[k] * w[0] if w.shape[0] == 1 else ds[k] @ w
        back *= sech2[k - 1]
        ds[k - 1] = back
    return ds, sech2


def _add_param_grads(x, hs, ds, grad_w: list, grad_b: list) -> None:
    """Add the parameter gradient carried by a reverse sweep to the per-layer
    gradient views grad_w and grad_b (see ``layer_views``)."""
    for k, d in enumerate(ds):
        prev = x if k == 0 else hs[k - 1]
        grad_w[k] += d.T @ prev
        grad_b[k] += np.add.reduce(d, axis=0)


def _penalty_backward(net: Mlp, x, hs, sech2, ds, wts, grad_w: list, grad_b: list) -> float:
    """The gradient penalty at rows x, given their forward sweep and their
    reverse sweep seeded with 1; its parameter gradient is added to the
    per-layer gradient views grad_w and grad_b. The tangent sweep multiplies
    by wts, as ``_forward_sweep`` does. The output bias gets no gradient: the
    input gradient does not depend on it. A row whose input gradient is
    exactly zero contributes the subgradient 0 at the norm kink."""
    b = x.shape[0]
    L = len(net.weights)
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


def forward_pass(net: Mlp, x) -> tuple[np.ndarray, list[np.ndarray]]:
    """The batch in the network's dtype and the output of every layer on it."""
    x = _as_batch(net, x)
    return x, _forward_sweep(net, x)


def backward(net: Mlp, x: np.ndarray, hs: list[np.ndarray], loss_grad) -> np.ndarray:
    """Gradient of sum(loss_grad * output) with respect to all weights and biases."""
    loss_grad = np.asarray(loss_grad, dtype=net.params.dtype)
    y = hs[-1]
    if loss_grad.shape != y.shape:
        raise ValueError(f"loss_grad shape {loss_grad.shape} does not match output {y.shape}")
    ds, _ = _reverse_sweep(net, hs, loss_grad)
    grad = np.zeros_like(net.params)
    _add_param_grads(x, hs, ds, *layer_views(grad, net))
    return grad


def _ones_sweep(net: Mlp, x: np.ndarray, hs: list[np.ndarray]) -> tuple[list, list]:
    return _reverse_sweep(net, hs, np.ones((x.shape[0], 1), dtype=x.dtype))


def input_gradient(net: Mlp, x) -> np.ndarray:
    """Per-sample gradient of the critic's scalar output with respect to its input."""
    _require_scalar_critic(net)
    x, hs = forward_pass(net, x)
    ds, _ = _ones_sweep(net, x, hs)
    return ds[0] @ net.weights[0]


def gradient_penalty_backward(net: Mlp, interpolated) -> tuple[float, np.ndarray]:
    """Mean squared deviation of the input-gradient norm from 1, and its parameter gradient.

    The parameter gradient never touches the output bias (the input gradient
    does not depend on it). A sample whose input gradient is exactly zero
    contributes the subgradient 0 at the norm kink.
    """
    _require_scalar_critic(net)
    x, hs = forward_pass(net, interpolated)
    ds, sech2 = _ones_sweep(net, x, hs)
    grad = np.zeros_like(net.params)
    wts = [w.T for w in net.weights]
    penalty = _penalty_backward(net, x, hs, sech2, ds, wts, *layer_views(grad, net))
    return penalty, grad


def folded_critic_step(net: Mlp, good, bad, mixed, lambda_gp: float) -> tuple:
    """``critic_gradient`` in its summation order, one batch at a time: a
    forward pass and a reverse sweep per batch, seeded with -1/b, +1/b and 1,
    the penalty's tangent and adjoint sweeps on the mixed batch with lambda_gp
    folded into its direction, then per layer one weight-gradient product
    over the stacked [good; bad; penalty adjoint] rows plus the tangent term.
    The output layer's product takes the good and bad rows only. Returns
    (D(good), D(bad), penalty, gradient)."""
    _require_scalar_critic(net)
    b, L = len(good), len(net.weights)
    passes = [forward_pass(net, rows) for rows in (good, bad, mixed)]
    dss = []
    for (x, hs), seed in zip(passes, (-1.0 / b, 1.0 / b, 1.0)):
        ds, sech2 = _reverse_sweep(net, hs, np.full((b, 1), seed, dtype=x.dtype))
        dss.append(ds)
    # x, hs, ds and sech2 now belong to the mixed batch.

    g = ds[0] @ net.weights[0]
    norms = np.sqrt(np.add.reduce(g * g, axis=1))
    penalty = float(np.add.reduce((norms - 1.0) ** 2) / b)
    scale = np.divide(2.0 * (norms - 1.0), norms, out=np.zeros_like(norms), where=norms > 0.0)
    scale *= lambda_gp / b
    u = scale[:, None] * g
    wts = [np.ascontiguousarray(w.T) for w in net.weights]
    ta, th = [], [u]
    for k in range(L - 1):
        ta.append(th[k] @ wts[k])
        th.append(sech2[k] * ta[k])

    # Reverse through both chains: abar[k] is the penalty's adjoint of layer
    # k's pre-activation, tangent[k] the weight gradient of u.g's tangent path.
    abar, tangent = [None] * L, [None] * L
    tangent[L - 1] = np.add.reduce(th[L - 1], axis=0)
    tbar = net.weights[L - 1][0]
    for k in range(L - 2, -1, -1):
        hbar = tbar * (-2.0 * hs[k] * ta[k])
        if k < L - 2:
            hbar += abar[k + 1] @ net.weights[k + 1]
        tabar = tbar * sech2[k]
        abar[k] = hbar * sech2[k]
        tangent[k] = tabar.T @ th[k]
        tbar = tabar @ net.weights[k]

    grad = np.empty_like(net.params)
    grad_w, grad_b = layer_views(grad, net)
    for k in range(L):
        blocks = [dss[0][k], dss[1][k]] + ([abar[k]] if k < L - 1 else [])
        d = np.vstack(blocks)
        prev = np.vstack([x if k == 0 else hs[k - 1] for x, hs in passes[:len(blocks)]])
        grad_w[k][...] = d.T @ prev
        grad_w[k] += tangent[k]
        grad_b[k][...] = np.add.reduce(d, axis=0)
    return passes[0][1][-1], passes[1][1][-1], penalty, grad


def fd_param_gradient(net, scalar_fn):
    """Central finite differences of scalar_fn over every parameter, laid out like params."""
    grad = np.zeros_like(net.params)
    for i, old in enumerate(net.params.copy()):
        net.params[i] = old + H
        up = scalar_fn()
        net.params[i] = old - H
        down = scalar_fn()
        net.params[i] = old
        grad[i] = (up - down) / (2 * H)
    return grad


def assert_grads_close(got, want, rtol):
    denom = np.maximum(np.maximum(np.abs(got), np.abs(want)), 1e-3)
    assert np.max(np.abs(got - want) / denom) < rtol


def random_net(rng, out_dim=1, output_tanh=False):
    sizes = [int(rng.integers(2, 6)), int(rng.integers(3, 8)), int(rng.integers(3, 8)), out_dim]
    net = init_mlp(sizes, output_tanh=output_tanh, rng=rng)
    # Non-zero biases so their gradients are exercised off the origin.
    for b in net.biases:
        b += 0.1 * rng.standard_normal(b.shape)
    return net
