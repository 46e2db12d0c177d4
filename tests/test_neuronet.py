import pickle

import numpy as np
import pytest

from rveawg.core import TrainingError
from rveawg.neuronet import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    Mlp,
    _layer_views,
    adam_step,
    critic_gradient,
    forward,
    generator_gradient,
    init_mlp,
)

from reference_nets import (
    H,
    assert_grads_close,
    backward,
    fd_param_gradient,
    folded_critic_step,
    forward_pass,
    gradient_penalty_backward,
    input_gradient,
    random_net,
)


def test_forward_zero_net_tanh_outputs_zero():
    net = Mlp(
        weights=[np.zeros((3, 2)), np.zeros((3, 3)), np.zeros((2, 3))],
        biases=[np.zeros(3), np.zeros(3), np.zeros(2)],
        output_tanh=True,
    )
    y = forward(net, np.array([[0.3, -0.8], [1.0, 2.0]]))
    assert np.array_equal(y, np.zeros((2, 2)))


def test_forward_identity_path_linear():
    net = Mlp(
        weights=[np.eye(2) * 1e-8, np.eye(2), np.eye(2) * 1e8],
        biases=[np.zeros(2), np.zeros(2), np.zeros(2)],
        output_tanh=False,
    )
    x = np.array([[0.25, -0.5]])
    y = forward(net, x)
    # tanh is identity to first order at tiny pre-activations.
    assert np.allclose(y, x, atol=1e-6)


def test_forward_matches_per_sample_loop():
    rng = np.random.default_rng(31)
    net = random_net(rng, out_dim=3, output_tanh=True)
    x = rng.standard_normal((4, net.in_dim))
    batch = forward(net, x)
    for s in range(4):
        h = x[s]
        for k, (w, b) in enumerate(zip(net.weights, net.biases)):
            a = w @ h + b
            h = np.tanh(a) if (k < len(net.weights) - 1 or net.output_tanh) else a
        assert np.allclose(batch[s], h, atol=1e-12)


def test_forward_rejects_wrong_width():
    net = init_mlp([3, 4, 4, 1], output_tanh=False, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        forward(net, np.zeros((2, 5)))


def test_backward_zero_loss_grad_gives_zero():
    rng = np.random.default_rng(5)
    net = random_net(rng, out_dim=2)
    x = rng.standard_normal((3, net.in_dim))
    grad = backward(net, *forward_pass(net, x), np.zeros((3, 2)))
    assert np.all(grad == 0.0)


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(17)
    for _ in range(5):
        net = random_net(rng, out_dim=int(rng.integers(1, 4)), output_tanh=bool(rng.integers(0, 2)))
        x = rng.standard_normal((3, net.in_dim))
        lg = rng.standard_normal((3, net.out_dim))
        got = backward(net, *forward_pass(net, x), lg)

        def scalar():
            return float(np.sum(lg * forward(net, x)))

        assert_grads_close(got, fd_param_gradient(net, scalar), rtol=1e-4)


def test_backward_linear_in_loss_grad():
    rng = np.random.default_rng(23)
    net = random_net(rng, out_dim=2)
    x = rng.standard_normal((4, net.in_dim))
    lg = rng.standard_normal((4, 2))
    x, hs = forward_pass(net, x)
    one = backward(net, x, hs, lg)
    three = backward(net, x, hs, 3.0 * lg)
    assert np.allclose(3.0 * one, three, atol=1e-12)


def test_input_gradient_zero_critic():
    net = Mlp(
        weights=[np.zeros((3, 4)), np.zeros((3, 3)), np.zeros((1, 3))],
        biases=[np.zeros(3), np.zeros(3), np.zeros(1)],
        output_tanh=False,
    )
    assert np.array_equal(input_gradient(net, np.ones((2, 4))), np.zeros((2, 4)))


def test_input_gradient_single_linear_layer_returns_weights():
    w = np.array([[0.3, -0.7, 2.0]])
    net = Mlp(weights=[w.copy()], biases=[np.zeros(1)], output_tanh=False)
    g = input_gradient(net, np.random.default_rng(0).normal(size=(5, 3)))
    assert np.allclose(g, np.tile(w, (5, 1)), atol=1e-12)


def test_input_gradient_matches_finite_differences():
    rng = np.random.default_rng(41)
    net = random_net(rng)
    x = rng.standard_normal((3, net.in_dim))
    got = input_gradient(net, x)
    for s in range(x.shape[0]):
        for j in range(x.shape[1]):
            xp, xm = x.copy(), x.copy()
            xp[s, j] += H
            xm[s, j] -= H
            num = (forward(net, xp)[s, 0] - forward(net, xm)[s, 0]) / (2 * H)
            denom = max(abs(num), abs(got[s, j]), 1e-3)
            assert abs(got[s, j] - num) / denom < 1e-4


def test_input_gradient_requires_scalar_linear_output():
    rng = np.random.default_rng(2)
    wide = random_net(rng, out_dim=2)
    with pytest.raises(ValueError):
        input_gradient(wide, np.zeros((1, wide.in_dim)))
    tanh_out = random_net(rng, out_dim=1, output_tanh=True)
    with pytest.raises(ValueError):
        input_gradient(tanh_out, np.zeros((1, tanh_out.in_dim)))


def test_penalty_unit_norm_linear_critic_is_minimum():
    w = np.array([[0.6, 0.8]])  # unit row
    net = Mlp(weights=[w.copy()], biases=[np.zeros(1)], output_tanh=False)
    penalty, grad = gradient_penalty_backward(net, np.random.default_rng(1).normal(size=(4, 2)))
    assert abs(penalty) < 1e-15
    assert np.allclose(grad, 0.0, atol=1e-12)


def test_penalty_zero_critic_is_one_with_zero_subgradient():
    net = Mlp(
        weights=[np.zeros((3, 2)), np.zeros((3, 3)), np.zeros((1, 3))],
        biases=[np.zeros(3), np.zeros(3), np.zeros(1)],
        output_tanh=False,
    )
    penalty, grad = gradient_penalty_backward(net, np.ones((4, 2)))
    assert penalty == 1.0
    assert np.all(grad == 0.0)


def test_penalty_gradient_matches_finite_differences():
    rng = np.random.default_rng(59)
    for _ in range(5):
        net = random_net(rng)
        x = rng.standard_normal((4, net.in_dim))
        _, got = gradient_penalty_backward(net, x)

        def scalar():
            return gradient_penalty_backward(net, x)[0]

        assert_grads_close(got, fd_param_gradient(net, scalar), rtol=1e-3)


def test_adam_zero_gradient_keeps_parameters():
    rng = np.random.default_rng(8)
    net = random_net(rng)
    before = [w.copy() for w in net.weights]
    adam_step(net, np.zeros_like(net.params))
    assert all(np.array_equal(a, b) for a, b in zip(before, net.weights))


def test_adam_first_step_is_signed_learning_rate():
    rng = np.random.default_rng(12)
    net = random_net(rng)
    grad = rng.standard_normal(net.params.shape)
    before = net.params.copy()
    adam_step(net, grad)
    # First bias-corrected step is -lr * g / (|g| + eps) = -lr * sign(g).
    nz = np.abs(grad) > 1e-12
    assert net.learning_rate == 1e-3
    assert np.allclose((net.params - before)[nz], -1e-3 * np.sign(grad[nz]), atol=1e-9)


def test_adam_replay_is_deterministic():
    rng = np.random.default_rng(77)
    net_a = random_net(rng)
    net_b = Mlp(net_a.weights, net_a.biases, net_a.output_tanh)
    seq_rng = np.random.default_rng(78)
    seq = [seq_rng.standard_normal(net_a.params.shape) for _ in range(3)]
    for g in seq:
        adam_step(net_a, g)
    for g in seq:
        adam_step(net_b, g)
    assert all(np.array_equal(a, b) for a, b in zip(net_a.weights, net_b.weights))
    assert all(np.array_equal(a, b) for a, b in zip(net_a.biases, net_b.biases))


def test_adam_rejects_nonfinite_gradient():
    rng = np.random.default_rng(4)
    net = random_net(rng)
    grad = np.zeros_like(net.params)
    grad[0] = np.nan
    with pytest.raises(TrainingError):
        adam_step(net, grad)


def test_gradient_checks_across_twenty_random_nets():
    rng = np.random.default_rng(99)
    for _ in range(20):
        net = random_net(rng)
        x = rng.standard_normal((2, net.in_dim))
        lg = rng.standard_normal((2, 1))
        got = backward(net, *forward_pass(net, x), lg)

        def scalar():
            return float(np.sum(lg * forward(net, x)))

        assert_grads_close(got, fd_param_gradient(net, scalar), rtol=1e-4)


def test_layers_are_views_of_params():
    rng = np.random.default_rng(21)
    net = random_net(rng, out_dim=2, output_tanh=True)
    assert net.params.dtype == np.float64 and net.params.flags.c_contiguous
    for w, b in zip(net.weights, net.biases):
        assert np.shares_memory(w, net.params) and np.shares_memory(b, net.params)
    before = net.params.copy()
    net.weights[-1] *= 50.0
    net.biases[0] += 1.0
    assert not np.array_equal(net.params, before)
    layout = [a.ravel() for w, b in zip(net.weights, net.biases) for a in (w, b)]
    assert np.array_equal(net.params, np.concatenate(layout))
    net.params[:] = 0.0
    assert all(np.all(w == 0.0) for w in net.weights) and all(np.all(b == 0.0) for b in net.biases)


def test_constructor_shares_no_memory():
    net = random_net(np.random.default_rng(22))
    twin = Mlp(net.weights, net.biases, net.output_tanh)
    assert np.array_equal(twin.params, net.params) and twin.output_tanh == net.output_tanh
    for a in [twin.params] + twin.weights + twin.biases:
        for b in [net.params] + net.weights + net.biases:
            assert not np.shares_memory(a, b)
    twin.weights[0] += 1.0
    assert not np.array_equal(twin.params, net.params)


def test_pickle_round_trip_keeps_views():
    """The layers and the rate survive a pickle; the Adam moments and step
    come back zeroed."""
    rng = np.random.default_rng(23)
    net = random_net(rng)
    net.learning_rate = 7e-3
    adam_step(net, rng.standard_normal(net.params.shape))
    back = pickle.loads(pickle.dumps(net))
    assert np.array_equal(back.params, net.params)
    assert back.output_tanh == net.output_tanh and back.learning_rate == 7e-3
    assert net.step == 1 and net.m.any() and net.v.any()
    assert back.step == 0 and back.m.shape == back.v.shape == back.params.shape
    assert not back.m.any() and not back.v.any()
    back.weights[1] *= 2.0
    back.biases[-1] += 3.0
    assert np.array_equal(back.params[: net.weights[0].size], net.weights[0].ravel())
    for w, b in zip(back.weights, back.biases):
        assert np.shares_memory(w, back.params) and np.shares_memory(b, back.params)
    assert not np.array_equal(back.params, net.params)


def test_flat_adam_matches_per_array_loop():
    rng = np.random.default_rng(24)
    net = random_net(rng)
    ref_params = [a.copy() for a in net.weights + net.biases]
    ref_m = [np.zeros_like(a) for a in ref_params]
    ref_v = [np.zeros_like(a) for a in ref_params]
    net.learning_rate = 7e-3
    for step in range(1, 4):
        grad = np.zeros_like(net.params)
        grad_w, grad_b = _layer_views(grad, net.shapes)
        for g in grad_w + grad_b:
            g += rng.standard_normal(g.shape)
        adam_step(net, grad)
        c1, c2 = 1.0 - ADAM_BETA1 ** step, 1.0 - ADAM_BETA2 ** step
        for p, g, m, v in zip(ref_params, grad_w + grad_b, ref_m, ref_v):
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            p -= net.learning_rate * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
        assert all(np.array_equal(a, b) for a, b in zip(net.weights + net.biases, ref_params))
    L = len(net.weights)
    for flat, ref in ((net.m, ref_m), (net.v, ref_v)):
        layout = [a.ravel() for k in range(L) for a in (ref[k], ref[L + k])]
        assert np.array_equal(flat, np.concatenate(layout))


def test_init_mlp_casts_float64_draws():
    sizes = [5, 7, 1]
    rng64, rng32 = np.random.default_rng(27), np.random.default_rng(27)
    net64 = init_mlp(sizes, output_tanh=False, rng=rng64)
    net32 = init_mlp(sizes, output_tanh=False, rng=rng32, dtype=np.float32)
    assert net32.params.dtype == np.float32
    assert all(a.dtype == np.float32 for a in net32.weights + net32.biases)
    assert net32.params.tobytes() == net64.params.astype(np.float32).tobytes()
    # Both draws consumed the stream alike.
    assert rng64.random() == rng32.random()
    for same in (Mlp(net32.weights, net32.biases, net32.output_tanh), pickle.loads(pickle.dumps(net32))):
        assert same.params.dtype == np.float32 and np.array_equal(same.params, net32.params)
    assert net32.m.dtype == net32.v.dtype == np.float32


def test_float32_critic_step_tracks_float64():
    """The float32 step computes the float64 one, to float32 rounding: the
    tolerance is 1e-5 of the largest entry, about 84 float32 ulps."""
    rng = np.random.default_rng(28)
    net64 = init_mlp([12, 64, 64, 1], output_tanh=False, rng=rng)
    net64.params += 0.05 * rng.standard_normal(net64.params.shape)
    net32 = Mlp(
        [w.astype(np.float32) for w in net64.weights], [b.astype(np.float32) for b in net64.biases], False
    )
    good, bad = rng.uniform(-1.0, 1.0, size=(2, 32, 12))
    eps = rng.random((32, 1))
    mixed = eps * good + (1.0 - eps) * bad
    want = critic_gradient(net64, np.vstack([good, bad, mixed]), 10.0)
    got = critic_gradient(net32, np.vstack([good, bad, mixed]), 10.0)
    assert got[3].dtype == np.float32
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=0.0, atol=1e-5 * np.max(np.abs(w)))


def unfused_critic_step(net, good, bad, mixed, lam):
    b = len(good)
    good_x, good_hs = forward_pass(net, good)
    bad_x, bad_hs = forward_pass(net, bad)
    y_good, y_bad = good_hs[-1], bad_hs[-1]
    flat = backward(net, bad_x, bad_hs, np.full_like(y_bad, 1.0 / b))
    flat = flat + backward(net, good_x, good_hs, np.full_like(y_good, -1.0 / b))
    penalty, pen_grad = gradient_penalty_backward(net, mixed)
    return y_good, y_bad, penalty, flat + lam * pen_grad


@pytest.mark.parametrize("n", [12, 300])
@pytest.mark.parametrize("b", [32, 7])
@pytest.mark.parametrize("depth", [3])
def test_fused_critic_step_equals_unfused(n, b, depth):
    """Bit for bit against the folded-order reference at the training batch
    of 32 rows; for other batch sizes OpenBLAS may pick another kernel for
    the 3b stacked rows than for b rows, which moves the last bits. Against
    the separate sweeps the scores and the penalty keep their bits at 32
    rows, and the gradient, summed in another order, is compared with a
    tolerance of 45 float64 ulps of the largest entry, as is everything at
    other batch sizes."""
    rng = np.random.default_rng(1000 * n + 10 * b + depth)
    net = init_mlp([n] + [64] * (depth - 1) + [1], output_tanh=False, rng=rng)
    net.params += 0.05 * rng.standard_normal(net.params.shape)
    good = rng.uniform(-1.0, 1.0, size=(b, n))
    bad = rng.uniform(-1.0, 1.0, size=(b, n))
    eps = rng.random((b, 1))
    mixed = eps * good + (1.0 - eps) * bad
    y_good, y_bad, penalty, grads = critic_gradient(net, np.vstack([good, bad, mixed]), 10.0)
    got = (y_good, y_bad, np.array(penalty), grads)
    folded = folded_critic_step(net, good, bad, mixed, 10.0)
    unfused = unfused_critic_step(net, good, bad, mixed, 10.0)
    for k, (g, f, w) in enumerate(zip(got, folded, unfused)):
        for want, exact in ((f, b == 32), (w, b == 32 and k < 3)):
            if exact:
                assert np.array_equal(g, want)
            else:
                np.testing.assert_allclose(g, want, rtol=0.0, atol=1e-14 * np.max(np.abs(want)))


def test_fused_critic_step_zero_input_gradient():
    """A critic with zero first-layer weights has a zero input gradient
    everywhere: the penalty is exactly 1, and every mixed row takes the
    zero subgradient, so the gradient is the one at lambda_gp = 0 bit for
    bit; the lambda_gp folded into the penalty direction reaches no row."""
    rng = np.random.default_rng(64)
    for dtype in (np.float64, np.float32):
        net = init_mlp([12, 64, 64, 1], output_tanh=False, rng=rng, dtype=dtype)
        net.weights[0][...] = 0.0
        for bias in net.biases:
            bias += (0.1 * rng.standard_normal(bias.shape)).astype(dtype)
        x = rng.uniform(-1.0, 1.0, size=(96, 12))
        _, _, penalty, grads = critic_gradient(net, x, 10.0)
        _, _, penalty_off, grads_off = critic_gradient(net, x, 0.0)
        assert penalty == penalty_off == 1.0
        assert grads.dtype == dtype and np.isfinite(grads).all() and np.any(grads != 0.0)
        assert grads.tobytes() == grads_off.tobytes()


def test_critic_gradient_rejects_unequal_blocks():
    net = random_net(np.random.default_rng(3))
    for rows in (0, 1, 2, 4, 8):
        with pytest.raises(ValueError, match=f"blocks of equal size, got {rows} rows"):
            critic_gradient(net, np.zeros((rows, net.in_dim)), 10.0)


def test_fused_critic_gradient_matches_finite_differences():
    rng = np.random.default_rng(61)
    net = random_net(rng)
    x = np.vstack([rng.standard_normal((3, net.in_dim)) for _ in range(3)])  # [good; bad; mixed]
    _, _, _, got = critic_gradient(net, x, 10.0)

    def scalar():
        y_good, y_bad, penalty, _ = critic_gradient(net, x, 10.0)
        return float(np.mean(y_bad) - np.mean(y_good) + 10.0 * penalty)

    assert_grads_close(got, fd_param_gradient(net, scalar), rtol=1e-3)


@pytest.mark.parametrize("hidden", [1, 3])
def test_steps_reject_other_depths(hidden):
    """The steps are written for two hidden layers; a network of another
    depth fails where its weights are unpacked."""
    rng = np.random.default_rng(65 + hidden)
    net = init_mlp([4] + [5] * hidden + [1], output_tanh=False, rng=rng)
    two = init_mlp([4, 5, 5, 1], output_tanh=False, rng=rng)
    gen = init_mlp([3] + [5] * hidden + [4], output_tanh=True, rng=rng)
    z, hs = forward_pass(gen, rng.standard_normal((2, 3)))
    two_gen = init_mlp([3, 5, 5, 4], output_tanh=True, rng=rng)
    z2, hs2 = forward_pass(two_gen, z)
    for call in (
        lambda: forward(net, np.zeros((2, 4))),
        lambda: critic_gradient(net, np.zeros((6, 4)), 10.0),
        lambda: generator_gradient(gen, z, hs, two),
        lambda: generator_gradient(two_gen, z2, hs2, net),
    ):
        with pytest.raises(ValueError, match="values to unpack"):
            call()


def random_pair(rng, rows):
    """A random scalar critic, a tanh generator into its input space, and the
    generator's forward pass on `rows` latent draws."""
    critic = random_net(rng)
    gen = random_net(rng, out_dim=critic.in_dim, output_tanh=True)
    z, hs = forward_pass(gen, rng.standard_normal((rows, gen.in_dim)))
    return gen, critic, z, hs


def test_generator_gradient_equals_unfused():
    """The scores are the critic's forward pass on G(z), and the gradient is
    backward through the generator seeded with -1/b times the critic's input
    gradient, bit for bit."""
    rng = np.random.default_rng(62)
    for rows in (1, 6):
        gen, critic, z, hs = random_pair(rng, rows)
        scores, got = generator_gradient(gen, z, hs, critic)
        assert np.array_equal(scores, forward(critic, hs[-1]))
        want = backward(gen, z, hs, -input_gradient(critic, hs[-1]) / rows)
        assert np.array_equal(got, want)


def test_generator_gradient_matches_finite_differences():
    rng = np.random.default_rng(63)
    for _ in range(5):
        gen, critic, z, hs = random_pair(rng, 4)
        _, got = generator_gradient(gen, z, hs, critic)

        def scalar():
            return float(-np.mean(forward(critic, forward(gen, z))))

        assert_grads_close(got, fd_param_gradient(gen, scalar), rtol=1e-4)
