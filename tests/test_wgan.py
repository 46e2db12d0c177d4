import numpy as np
import pytest

from rveawg import GanConfig, neuronet, wgan
from rveawg.core import ConfigurationError, TrainingError, child
from rveawg.neuronet import adam_step, forward, generator_gradient, init_mlp
from rveawg.wgan import (
    BATCH_SIZE,
    CRITIC_STEPS,
    HIDDEN,
    LAMBDA_GP,
    LATENT_DIM,
    LEARNING_RATE,
    PRETRAIN_EPOCHS,
    EpochStats,
    denormalize_from_net,
    init_networks,
    normalize_to_net,
    pretrain_discriminator,
    sample_offspring,
    train,
)

from reference_nets import forward_pass, input_gradient, zero_net

LOWER4 = np.array([0.0, -1.0, 2.0, 10.0])
UPPER4 = np.array([1.0, 3.0, 4.0, 30.0])


def fresh_pair(n_var, seed, rate=LEARNING_RATE, gen_rate=None, dtype=np.float64):
    rng = np.random.default_rng(seed)
    gen = init_mlp([LATENT_DIM, HIDDEN, HIDDEN, n_var], output_tanh=True, rng=child(rng, "g"), dtype=dtype)
    critic = init_mlp([n_var, HIDDEN, HIDDEN, 1], output_tanh=False, rng=child(rng, "c"), dtype=dtype)
    gen.learning_rate = rate if gen_rate is None else gen_rate
    critic.learning_rate = rate
    return gen, critic, child(rng, "train")


def layer_sizes(net):
    return [net.weights[0].shape[1]] + [w.shape[0] for w in net.weights]


def params_of(net):
    return [w.copy() for w in net.weights] + [b.copy() for b in net.biases]


def test_normalize_maps_bounds_to_unit_box():
    assert np.allclose(normalize_to_net(LOWER4, LOWER4, UPPER4), -np.ones(4), atol=1e-12)
    assert np.allclose(normalize_to_net(UPPER4, LOWER4, UPPER4), np.ones(4), atol=1e-12)
    mid = (LOWER4 + UPPER4) / 2
    assert np.allclose(normalize_to_net(mid, LOWER4, UPPER4), np.zeros(4), atol=1e-12)


def test_normalize_round_trip():
    rng = np.random.default_rng(6)
    x = rng.uniform(LOWER4, UPPER4, size=(20, 4))
    back = denormalize_from_net(normalize_to_net(x, LOWER4, UPPER4), LOWER4, UPPER4)
    assert np.max(np.abs(back - x)) < 1e-12


def test_pretrain_skips_without_bad_data():
    _, critic, rng = fresh_pair(4, 1)
    before = params_of(critic)
    pretrain_discriminator(critic, np.zeros((10, 4)), np.zeros((0, 4)), rng)
    assert all(np.array_equal(a, b) for a, b in zip(before, params_of(critic)))


def test_pretrain_zero_epochs_is_noop(monkeypatch):
    monkeypatch.setattr(wgan, "PRETRAIN_EPOCHS", 0)
    _, critic, rng = fresh_pair(4, 2)
    before = params_of(critic)
    pretrain_discriminator(critic, np.zeros((10, 4)), np.ones((10, 4)), rng)
    assert all(np.array_equal(a, b) for a, b in zip(before, params_of(critic)))


def test_pretrain_separates_clusters(monkeypatch):
    monkeypatch.setattr(wgan, "PRETRAIN_EPOCHS", 200)
    _, critic, rng = fresh_pair(4, 3)
    data_rng = np.random.default_rng(30)
    good = 0.5 + 0.05 * child(data_rng, "g").standard_normal((40, 4))
    bad = -0.5 + 0.05 * child(data_rng, "b").standard_normal((40, 4))
    pretrain_discriminator(critic, good, bad, rng)
    assert forward(critic, good).mean() > forward(critic, bad).mean()


def test_critic_divergence_leaves_critic_untouched():
    for dtype in (np.float64, np.float32):
        _, critic, rng = fresh_pair(4, 6, dtype=dtype)
        before = [p.tobytes() for p in params_of(critic)]
        bad = np.ones((10, 4))
        bad[:, 1] = np.nan  # every batch, so the first step diverges
        with pytest.raises(TrainingError, match="critic loss diverged"):
            pretrain_discriminator(critic, np.zeros((10, 4)), bad, rng)
        assert [p.tobytes() for p in params_of(critic)] == before
        assert critic.step == 0


def test_generator_divergence_leaves_generator_untouched(monkeypatch):
    # No critic steps, and a NaN critic scores every generated row NaN, so
    # the first generator step diverges before its Adam update.
    monkeypatch.setattr(wgan, "CRITIC_STEPS", 0)
    for dtype in (np.float64, np.float32):
        gen, critic, rng = fresh_pair(4, 6, dtype=dtype)
        critic.params[:] = np.nan
        before = gen.params.tobytes()
        with pytest.raises(TrainingError, match="^generator loss diverged at epoch 0$"):
            train(gen, critic, np.zeros((8, 4)), 2, rng)
        assert gen.params.tobytes() == before
        assert gen.step == 0


def test_train_zero_epochs_is_noop():
    gen, critic, rng = fresh_pair(4, 4)
    before = params_of(gen) + params_of(critic)
    state = rng.bit_generator.state
    trace = train(gen, critic, np.zeros((8, 4)), 0, rng)
    assert trace == []
    assert rng.bit_generator.state == state
    assert all(np.array_equal(a, b) for a, b in zip(before, params_of(gen) + params_of(critic)))


def test_train_rejects_empty_corpus():
    gen, critic, rng = fresh_pair(4, 5)
    with pytest.raises(TrainingError):
        train(gen, critic, np.zeros((0, 4)), 1, rng)


def test_train_collapses_to_repeated_point():
    # Degenerate-distribution run in the two-time-scale regime; the benchmark
    # default rates are deliberately coarser and would orbit the target.
    point = np.array([0.5, -0.25, 0.1, 0.75])
    gen, critic, rng = fresh_pair(4, 100, rate=1e-3, gen_rate=2e-4)
    trace = train(gen, critic, np.tile(point, (64, 1)), 300, rng)
    assert len(trace) == 300
    assert all(np.isfinite([s.critic_loss, s.gen_loss, s.wasserstein, s.penalty]).all() for s in trace)
    samples = forward(gen, np.random.default_rng(1000).standard_normal((256, LATENT_DIM)))
    assert np.max(np.abs(samples.mean(axis=0) - point)) < 0.15


def test_train_covers_two_clusters():
    centers = np.array([[0.6, 0.6, 0.6, 0.6], [-0.6, -0.6, -0.6, -0.6]])
    data_rng = np.random.default_rng(55)
    real = np.vstack(
        [c + 0.03 * child(data_rng, i).standard_normal((32, 4)) for i, c in enumerate(centers)]
    )
    gen, critic, rng = fresh_pair(4, 200, rate=1e-3, gen_rate=2e-4)
    train(gen, critic, real, 300, rng)
    samples = forward(gen, np.random.default_rng(2000).standard_normal((256, LATENT_DIM)))
    inter = np.linalg.norm(centers[0] - centers[1])
    nearest = np.minimum(
        np.linalg.norm(samples - centers[0], axis=1), np.linalg.norm(samples - centers[1], axis=1)
    )
    assert np.median(nearest) < inter / 2


def reference_critic_update(critic, good, bad, eps, lambda_gp):
    """One critic step on its own [good; bad; mixed] rows."""
    mixed = eps * good + (1.0 - eps) * bad
    y_good, y_bad, penalty, grads = neuronet.critic_gradient(critic, np.vstack([good, bad, mixed]), lambda_gp)
    mean_good, mean_bad = np.mean(y_good), np.mean(y_bad)
    loss = float(mean_bad - mean_good + lambda_gp * penalty)
    if not np.isfinite(loss):
        raise TrainingError(f"critic loss diverged: {loss}")
    adam_step(critic, grads)
    return loss, penalty, float(mean_good - mean_bad)


def reference_pretrain(critic, real, bad, epochs, rng):
    """`pretrain_discriminator` as a per-epoch loop that stacks each step's
    rows with np.vstack, on the same up-front draws."""
    real, bad = (np.asarray(a, dtype=critic.params.dtype) for a in (real, bad))
    b = min(BATCH_SIZE, len(real), len(bad))
    good_idx = rng.integers(0, len(real), size=(epochs, b))
    bad_idx = rng.integers(0, len(bad), size=(epochs, b))
    eps = rng.random((epochs, b, 1), dtype=real.dtype)
    for e in range(epochs):
        reference_critic_update(critic, real[good_idx[e]], bad[bad_idx[e]], eps[e], LAMBDA_GP)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n_bad", [40, 7])
def test_pretrain_equals_per_epoch_loop(n_bad, dtype, monkeypatch):
    """The [good; bad; mixed] rows filled up front give the per-epoch loop's
    critic, Adam moments and random stream state bit for bit."""
    epochs = 6
    monkeypatch.setattr(wgan, "PRETRAIN_EPOCHS", epochs)
    data_rng = np.random.default_rng(92)
    real = data_rng.uniform(-0.8, 0.8, size=(40, 12))
    bad = data_rng.uniform(-1.0, 1.0, size=(n_bad, 12))
    _, want, want_rng = fresh_pair(12, 93, dtype=dtype)
    _, got, got_rng = fresh_pair(12, 93, dtype=dtype)
    reference_pretrain(want, real, bad, epochs, want_rng)
    pretrain_discriminator(got, real, bad, got_rng)
    assert got.params.dtype == dtype
    assert got.params.tobytes() == want.params.tobytes()
    assert got.step == want.step == epochs
    assert got.m.tobytes() == want.m.tobytes() and got.v.tobytes() == want.v.tobytes()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def reference_train(gen, critic, real, epochs, steps, rng):
    """`train` as a per-step loop on the same up-front draws: each critic
    step runs the generator on its own latents, and the generator step runs
    it once more."""
    n_real = real.shape[0]
    b = min(BATCH_SIZE, n_real)
    real = np.asarray(real, dtype=critic.params.dtype)
    idx = rng.integers(0, n_real, size=(epochs, steps, b))
    z = rng.standard_normal((epochs, steps + 1, b, LATENT_DIM), dtype=gen.params.dtype)
    eps = rng.random((epochs, steps, b, 1), dtype=real.dtype)
    trace = []
    for epoch in range(epochs):
        critic_loss = penalty = w_est = 0.0
        for s in range(steps):
            fake = forward(gen, z[epoch, s])
            critic_loss, penalty, w_est = reference_critic_update(
                critic, real[idx[epoch, s]], fake, eps[epoch, s], LAMBDA_GP
            )
        gen_z, gen_hs = forward_pass(gen, z[epoch, steps])
        scores, gen_grads = generator_gradient(gen, gen_z, gen_hs, critic)
        gen_loss = float(-np.mean(scores))
        if not np.isfinite(gen_loss):
            raise TrainingError(f"generator loss diverged at epoch {epoch}")
        adam_step(gen, gen_grads)
        trace.append(EpochStats(epoch, critic_loss, gen_loss, w_est, penalty))
    return trace


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("critic_steps", [0, 1, 5])
@pytest.mark.parametrize("n_rows", [40, 7])
def test_train_equals_per_step_loop(n_rows, critic_steps, dtype, monkeypatch):
    """One generator pass per epoch over the stacked latents gives the
    per-step loop's results bit for bit: the same trace, networks, Adam moments and
    random stream state, at the full batch of 32 rows and at a 7-row corpus."""
    monkeypatch.setattr(wgan, "CRITIC_STEPS", critic_steps)
    real = np.random.default_rng(90).uniform(-0.8, 0.8, size=(n_rows, 12))
    want = fresh_pair(12, 91, dtype=dtype)
    got = fresh_pair(12, 91, dtype=dtype)
    want_trace = reference_train(*want[:2], real, 4, critic_steps, want[2])
    got_trace = train(*got[:2], real, 4, got[2])
    assert got_trace == want_trace and len(got_trace) == 4
    for net_w, net_g in zip(want[:2], got[:2]):
        assert net_g.params.dtype == dtype
        assert net_g.params.tobytes() == net_w.params.tobytes()
        assert net_g.step == net_w.step
        assert net_g.m.tobytes() == net_w.m.tobytes() and net_g.v.tobytes() == net_w.v.tobytes()
    assert got[2].bit_generator.state == want[2].bit_generator.state


def test_sample_offspring_zero_generator_hits_midpoint():
    gen = zero_net((LATENT_DIM, 4, 4, 4), output_tanh=True)
    xs = sample_offspring(gen, 5, LOWER4, UPPER4, np.random.default_rng(1))
    mid = (LOWER4 + UPPER4) / 2
    assert xs.shape == (5, 4)
    assert np.allclose(xs, mid, atol=1e-12)


def test_sample_offspring_count_and_bounds():
    rng = np.random.default_rng(9)
    gen = init_mlp([LATENT_DIM, 8, 8, 4], output_tanh=True, rng=rng)
    # Saturate the outputs to check clamping stays inside the box.
    gen.weights[-1][...] *= 50.0
    xs = sample_offspring(gen, 37, LOWER4, UPPER4, rng)
    assert xs.shape == (37, 4)
    assert np.all(xs >= LOWER4) and np.all(xs <= UPPER4)


def test_sample_offspring_seed_replay():
    gen = init_mlp([LATENT_DIM, 8, 8, 4], output_tanh=True, rng=np.random.default_rng(77))
    a = sample_offspring(gen, 10, LOWER4, UPPER4, np.random.default_rng(5))
    b = sample_offspring(gen, 10, LOWER4, UPPER4, np.random.default_rng(5))
    assert np.array_equal(a, b)


def test_generation_step_is_reproducible():
    data_rng = np.random.default_rng(70)
    real = data_rng.uniform(-0.5, 0.5, size=(30, 4))
    bad = data_rng.uniform(-1.0, 1.0, size=(20, 4))

    def one(seed):
        rng = np.random.default_rng(seed)
        gen, critic = init_networks(4, child(rng, "init"))
        pretrain_discriminator(critic, real, bad, rng)
        train(gen, critic, real, 3, rng)
        return sample_offspring(gen, 8, LOWER4, UPPER4, rng)

    assert np.array_equal(one(3), one(3))
    assert not np.array_equal(one(3), one(4))


def test_init_networks_draws_fresh_pair_with_zeroed_adam():
    rng = np.random.default_rng(8)
    first, second = init_networks(4, rng), init_networks(4, rng)
    for gen, critic in (first, second):
        assert layer_sizes(gen) == [LATENT_DIM, HIDDEN, HIDDEN, 4]
        assert layer_sizes(critic) == [4, HIDDEN, HIDDEN, 1]
        assert gen.output_tanh and not critic.output_tanh
        for net in (gen, critic):
            assert net.step == 0 and net.learning_rate == LEARNING_RATE
            assert net.m.shape == net.v.shape == net.params.shape
            assert not net.m.any() and not net.v.any()
    # Each call draws new weights from the stream and shares no memory.
    for k in (0, 1):
        assert not np.array_equal(first[k].params, second[k].params)
        assert not np.shares_memory(first[k].params, second[k].params)
        assert not np.shares_memory(first[k].m, second[k].m)


def test_run_networks_stay_float32(monkeypatch):
    """float64 survivors in, float32 arithmetic throughout, float64 offspring
    out. A silent upcast would cost the speed of float32 while every result
    still looked right."""
    # dtypes of every stacked critic-step batch, its seed, scores and
    # gradient, and of every array a reverse sweep takes or gives, the
    # generator step's and its critic pass's among them
    seen = []

    def spy(module, name, arrays_of):
        real = getattr(module, name)

        def recording(*args):
            result = real(*args)
            seen.extend(a.dtype for a in arrays_of(args, result))
            return result

        monkeypatch.setattr(module, name, recording)

    spy(wgan, "critic_gradient", lambda args, result: [args[1], args[3], *result[:2], result[3]])
    spy(neuronet, "_reverse_sweep", lambda args, result: [*args[1], args[2], *result[0], *result[1]])
    data_rng = np.random.default_rng(71)
    real = data_rng.uniform(-0.5, 0.5, size=(30, 4))
    bad = data_rng.uniform(-1.0, 1.0, size=(20, 4))
    rng = np.random.default_rng(7)
    gen, critic = init_networks(4, child(rng, "init"))
    pretrain_discriminator(critic, real, bad, rng)
    train(gen, critic, real, 3, rng)
    assert critic.step == PRETRAIN_EPOCHS + 3 * CRITIC_STEPS and gen.step == 3
    for array in (gen.params, critic.params, gen.m, gen.v, critic.m, critic.v):
        assert array.dtype == np.float32

    # float64 batches are cast on entry: scores and gradients come out float32.
    x = np.vstack([real[:8], bad[:8], 0.5 * (real[:8] + bad[:8])])
    y_good, y_bad, _, grads = neuronet.critic_gradient(critic, x, 10.0)
    scores, gen_grads = generator_gradient(gen, *forward_pass(gen, rng.standard_normal((8, LATENT_DIM))), critic)
    slopes = input_gradient(critic, real)
    for array in (y_good, y_bad, grads, scores, gen_grads, slopes):
        assert array.dtype == np.float32
    assert seen and set(seen) == {np.dtype(np.float32)}

    xs = sample_offspring(gen, 12, LOWER4, UPPER4, rng)
    assert xs.dtype == np.float64 and xs.shape == (12, 4)
    assert np.all(xs >= LOWER4) and np.all(xs <= UPPER4)


def test_gan_config_validation():
    """A negative epoch count is a configuration error up front."""
    GanConfig().validate()
    GanConfig(epochs=0).validate()
    with pytest.raises(ConfigurationError, match="GAN epochs must be >= 0, got -1"):
        GanConfig(epochs=-1).validate()
