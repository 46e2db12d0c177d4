"""Acceptance suite: one test per release criterion, each printing a PASS line
with its runtime. Criterion 9 runs the full benchmark protocol and takes
about 23 s; everything else is seconds.

Run with: pytest tests/test_acceptance.py -v -s
"""
import json
import time

import numpy as np

from rveawg import (
    dtlz,
    igd,
    lattice_for,
    run_experiment,
    sample_front,
    to_unit_vectors,
    wgan,
)
from rveawg.baselines import dominance, fast_nondominated_sort
from rveawg.cli import main
from rveawg.core import child
from rveawg.neuronet import critic_gradient, forward, generator_gradient, init_mlp
from rveawg.selection import elitism_select
from rveawg.wgan import HIDDEN, LATENT_DIM, LEARNING_RATE, pretrain_discriminator, train

from fingerprints import PATH, criterion_9_configs, environment, environment_difference
from oracles import brute_force_fronts, naive_igd, oracle_select
from reference_nets import assert_grads_close, fd_param_gradient, forward_pass, random_net


def report(number, name, started, limit):
    elapsed = time.perf_counter() - started
    print(f"criterion {number} ({name}): PASS [{elapsed:.2f}s, limit {limit}]")
    assert elapsed < limit


def test_criterion_1_reference_vector_counts():
    started = time.perf_counter()
    for m, expected in [(3, 105), (6, 132), (8, 156), (10, 275)]:
        vectors = to_unit_vectors(lattice_for(m))
        assert vectors.shape == (expected, m)
        assert np.all(np.abs(np.linalg.norm(vectors, axis=1) - 1.0) < 1e-12)
    report(1, "reference-vector counts 105/132/156/275", started, limit=1.0)


def test_criterion_2_selection_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(42)
    for _ in range(200):
        m = int(rng.integers(2, 4))
        n_vec = int(rng.integers(2, 11))
        p = int(rng.integers(1, 31))
        vectors = to_unit_vectors(np.abs(rng.standard_normal((n_vec, m))) + 1e-3)
        objs = rng.uniform(0.0, 10.0, size=(p, m))
        t_max = int(rng.integers(1, 30))
        t = int(rng.integers(0, t_max + 1))
        got = elitism_select(objs, vectors, t=t, t_max=t_max)
        assert list(got.selected_indices) == oracle_select(objs.tolist(), vectors.tolist(), t, t_max, 2.0)
    report(2, "selection equals naive loop oracle on 200 instances", started, limit=10.0)


def test_criterion_3_gradient_checks():
    """Finite differences of the two training steps runs take: the critic
    step, gradient penalty included, and the generator step."""
    started = time.perf_counter()
    rng = np.random.default_rng(314)
    for _ in range(20):
        critic = random_net(rng)
        x = np.vstack([rng.standard_normal((3, critic.in_dim)) for _ in range(3)])  # [good; bad; mixed]
        _, _, _, got = critic_gradient(critic, x, 10.0)

        def critic_loss():
            y_good, y_bad, penalty, _ = critic_gradient(critic, x, 10.0)
            return float(np.mean(y_bad) - np.mean(y_good) + 10.0 * penalty)

        assert_grads_close(got, fd_param_gradient(critic, critic_loss), rtol=1e-3)

        gen = random_net(rng, out_dim=critic.in_dim, output_tanh=True)
        z = rng.standard_normal((2, gen.in_dim))
        _, got = generator_gradient(gen, *forward_pass(gen, z), critic)

        def gen_loss():
            return float(-np.mean(forward(critic, forward(gen, z))))

        assert_grads_close(got, fd_param_gradient(gen, gen_loss), rtol=1e-4)
    report(3, "critic and generator step gradient checks on 20 random nets", started, limit=30.0)


def test_criterion_4_gan_single_point_collapse():
    started = time.perf_counter()
    # Stable two-time-scale training regime; the coarse benchmark default
    # rate orbits the target instead of settling (see the Mlp docstring).
    point = np.array([0.5, -0.25, 0.1, 0.75])
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        gen = init_mlp([LATENT_DIM, HIDDEN, HIDDEN, 4], output_tanh=True, rng=child(rng, "g"))
        critic = init_mlp([4, HIDDEN, HIDDEN, 1], output_tanh=False, rng=child(rng, "c"))
        gen.learning_rate = 2e-4  # two time scales: the generator learns slower
        critic.learning_rate = 1e-3
        train(gen, critic, np.tile(point, (64, 1)), 300, child(rng, "t"))
        samples = forward(gen, child(rng, "s").standard_normal((256, LATENT_DIM)))
        deviation = np.max(np.abs(samples.mean(axis=0) - point))
        assert deviation < 0.15, f"seed {seed}: worst coordinate deviation {deviation:.3f}"
    report(4, "single-point GAN collapse within 0.15, 5/5 seeds", started, limit=60.0)


def test_criterion_5_pretrain_separation(monkeypatch):
    monkeypatch.setattr(wgan, "PRETRAIN_EPOCHS", 200)
    started = time.perf_counter()
    for seed in range(5):
        rng = np.random.default_rng(500 + seed)
        critic = init_mlp([4, HIDDEN, HIDDEN, 1], output_tanh=False, rng=child(rng, "c"))
        critic.learning_rate = LEARNING_RATE
        good = 0.5 + 0.05 * child(rng, "good").standard_normal((40, 4))
        bad = -0.5 + 0.05 * child(rng, "bad").standard_normal((40, 4))
        pretrain_discriminator(critic, good, bad, child(rng, "t"))
        assert forward(critic, good).mean() > forward(critic, bad).mean(), f"seed {seed}"
    report(5, "critic pre-training separates clusters, 5/5 seeds", started, limit=30.0)


def test_criterion_6_igd_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(606)
    for _ in range(100):
        ref = rng.uniform(-5, 5, size=(int(rng.integers(1, 40)), int(rng.integers(2, 6))))
        sol = rng.uniform(-5, 5, size=(int(rng.integers(1, 30)), ref.shape[1]))
        assert igd(ref, sol).value == naive_igd(ref.tolist(), sol.tolist())
    same = rng.uniform(0, 1, size=(25, 3))
    assert igd(same, same).value == 0.0
    report(6, "IGD bit-exact vs naive double loop, 100 instances", started, limit=5.0)


def test_criterion_7_dtlz_analytic_identities():
    started = time.perf_counter()
    rng = np.random.default_rng(707)
    pos = rng.uniform(0, 1, size=(100, 2))
    f1 = dtlz(1, 3).evaluate(np.hstack([pos, np.full((100, 5), 0.5)]))
    assert np.max(np.abs(f1.sum(axis=1) - 0.5)) < 1e-12
    for k in (2, 3, 4):
        fk = dtlz(k, 3).evaluate(np.hstack([pos, np.full((100, 10), 0.5)]))
        assert np.max(np.abs(np.sum(fk * fk, axis=1) - 1.0)) < 1e-12
    assert np.max(np.abs(sample_front(dtlz(1, 3), 500).sum(axis=1) - 0.5)) < 1e-12
    front2 = sample_front(dtlz(2, 3), 500)
    assert np.max(np.abs(np.linalg.norm(front2, axis=1) - 1.0)) < 1e-12
    report(7, "DTLZ front identities at 1e-12", started, limit=5.0)


def test_criterion_8_sorting_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(808)
    for _ in range(100):
        n = int(rng.integers(2, 51))
        m = int(rng.integers(2, 6))
        objs = np.round(rng.uniform(0, 1, size=(n, m)), 2)
        _, fronts = fast_nondominated_sort(dominance(objs))
        assert [sorted(f) for f in fronts] == brute_force_fronts(objs)
    report(8, "non-dominated sorting equals brute force, 100 populations", started, limit=10.0)


def test_criterion_9_published_orderings():
    started = time.perf_counter()
    recorded = json.loads(PATH.read_text())
    # In the build and BLAS thread count the fingerprints were recorded in,
    # every per-seed IGD must also repeat bit for bit.
    same_build = environment_difference(recorded["environment"], environment()) is None
    outcomes = {}
    for problem, better in [("lsmop1", "rvea-wg"), ("dtlz2", "nsga2")]:
        rows = {row.algorithm: row for row in run_experiment(criterion_9_configs(problem))}
        rvea, nsga = rows["rvea-wg"], rows["nsga2"]
        if same_build:
            for alg, row in rows.items():
                assert row.per_run == recorded["criterion_9"][f"{problem} {alg}"], f"{problem} {alg}"
        pairs = list(zip(rvea.per_run, nsga.per_run))
        if better == "rvea-wg":
            wins = sum(r < n for r, n in pairs)
            assert rvea.mean_igd < nsga.mean_igd
        else:
            wins = sum(n < r for r, n in pairs)
            assert nsga.mean_igd < rvea.mean_igd
        outcomes[problem] = (wins, rvea.mean_igd, nsga.mean_igd)
        assert wins >= 8, f"{problem}: expected {better} to win >= 8/10 paired seeds, got {wins}"
    for problem, (wins, rvea_mean, nsga_mean) in outcomes.items():
        print(
            f"  {problem}: mean IGD rvea-wg {rvea_mean:.4e} vs nsga2 {nsga_mean:.4e}, "
            f"expected winner takes {wins}/10 paired seeds"
        )
    report(9, "published orderings on LSMOP1 and DTLZ2, >= 8/10 paired seeds", started, limit=1800.0)


def test_criterion_10_run_determinism(tmp_path):
    started = time.perf_counter()
    args = [
        "run",
        "--problem", "dtlz2",
        "--objectives", "3",
        "--pop-size", "15",
        "--generations", "5",
        "--epochs", "5",
        "--runs", "2",
        "--seed", "17",
    ]
    assert main(args + ["--out", str(tmp_path / "first")]) == 0
    single_cost = time.perf_counter() - started
    assert main(args + ["--out", str(tmp_path / "second")]) == 0
    first = (tmp_path / "first" / "results.csv").read_bytes()
    second = (tmp_path / "second" / "results.csv").read_bytes()
    assert first == second
    elapsed = time.perf_counter() - started
    print(
        f"criterion 10 (byte-identical rerun): PASS [{elapsed:.2f}s, "
        f"two invocations vs single {single_cost:.2f}s]"
    )
    assert elapsed < 2.0 * single_cost + 5.0
