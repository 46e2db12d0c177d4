"""Single-batch network functions: the oracles for the fused steps.

``rveawg.neuronet`` runs a critic step and a generator step each as one fused
call. The functions here run the same sweeps on one batch at a time:
backpropagation to parameters, the critic's per-sample input gradient and the
gradient penalty's parameter gradient. The tests compare the fused steps
against sums of these, bit for bit at the training batch, and check these
against finite differences.

A forward pass is kept as (x, hs): the batch as the network saw it and the
post-activation output of every layer, the last entry being the output.
Gradients are flat vectors laid out like the network's ``params``.
"""
import numpy as np

from rveawg.neuronet import (
    Mlp,
    _add_param_grads,
    _as_batch,
    _forward_sweep,
    _layer_views,
    _penalty_backward,
    _require_scalar_critic,
    _reverse_sweep,
)


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
    _add_param_grads(x, hs, ds, slice(None), *_layer_views(grad, net.shapes))
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
    penalty = _penalty_backward(net, x, hs, sech2, ds, wts, *_layer_views(grad, net.shapes))
    return penalty, grad
