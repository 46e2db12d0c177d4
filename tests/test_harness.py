import csv
import os
import re
import subprocess
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from rveawg import ConfigurationError, RunConfig, cli, harness, run_experiment, run_single
from rveawg.cli import SWEEP_KEYS, build_configs, build_parser, main, parse_config_file, sweep_settings
from rveawg.cli import write_experiment_csv
from rveawg.core import child
from rveawg.harness import resolve_setup
from rveawg.refvec import lattice_for, to_unit_vectors
from rveawg.wgan import CRITIC_STEPS, PRETRAIN_EPOCHS, GanConfig, init_networks


def config_from_snapshot(snapshot: dict) -> RunConfig:
    """Rebuild the exact RunConfig a record was produced with."""
    data = dict(snapshot)
    data.pop("resolved_pop_size", None)
    return RunConfig(gan=GanConfig(**data.pop("gan")), **data)


def small_cfg(algorithm="rvea-wg", **kw):
    cfg = RunConfig(
        algorithm=algorithm,
        problem=kw.pop("problem", "dtlz2"),
        objectives=3,
        pop_size=15,
        generations=kw.pop("generations", 3),
    )
    cfg.gan.epochs = 4
    for k, v in kw.items():
        setattr(cfg, k, v)
    return cfg


def test_single_generation_run():
    cfg = small_cfg(generations=1)
    record = run_single(cfg, 3)
    assert len(record.igd_trace) == 1
    assert record.final_f.shape[1] == 3
    assert record.evaluations == 15 + 15  # init + one offspring batch
    assert record.gan_trace, "adversarial loss trace missing"
    for s in record.gan_trace:
        assert np.isfinite([s.critic_loss, s.gen_loss, s.wasserstein, s.penalty]).all()


def test_trace_length_matches_generations():
    for alg in ("rvea-wg", "nsga2"):
        record = run_single(small_cfg(alg, generations=4), 1)
        assert len(record.igd_trace) == 4


def test_evaluations_count_rows_evaluated():
    # N initial rows plus N offspring per generation, for both algorithms.
    for alg in ("rvea-wg", "nsga2"):
        record = run_single(small_cfg(alg, generations=3), 5)
        assert record.evaluations == 15 * (3 + 1)


def test_population_never_exceeds_lattice_size():
    cfg = small_cfg(generations=5)
    record = run_single(cfg, 9)
    assert record.final_f.shape[0] <= 15


def test_algorithms_start_from_the_same_population(monkeypatch):
    # The paired comparison rests on this: at one seed both algorithms
    # evaluate the same initial population.
    starts = []
    original = harness.init_population

    def spy(*args):
        starts.append(original(*args))
        return starts[-1]

    monkeypatch.setattr(harness, "init_population", spy)
    for alg in ("rvea-wg", "nsga2"):
        run_single(small_cfg(alg, generations=1), 4)
    assert len(starts) == 2
    assert starts[0].shape == (15, 12) and np.array_equal(starts[0], starts[1])


def test_run_determinism_replay():
    cfg = small_cfg(generations=3)
    a = run_single(cfg, 7)
    b = run_single(cfg, 7)
    assert a.igd_trace == b.igd_trace
    assert np.array_equal(a.final_x, b.final_x)
    assert np.array_equal(a.final_f, b.final_f)


def test_generation_zero_trains_first_init_draw():
    # Without training, the final generator is the init stream's first draw.
    cfg = small_cfg(generations=1)
    cfg.gan.epochs = 0
    record = run_single(cfg, 12)
    n_var = record.final_x.shape[1]
    init_rng = child(child(np.random.default_rng(12), "gan"), "init")
    gen, critic = init_networks(n_var, init_rng)
    for name, net in (("generator", gen), ("critic", critic)):
        params = record.networks[name]
        assert params.dtype == np.float32 and params.ndim == 1
        assert params.tobytes() == net.params.tobytes()


def test_adam_steps_follow_the_trainer_schedule(monkeypatch):
    """The trainer reads its schedule itself: each generation's generator
    takes one step per epoch, and its critic CRITIC_STEPS per epoch plus
    PRETRAIN_EPOCHS of pre-training once an earlier selection has eliminated
    rows, that is, from generation 1 on."""
    pairs = []
    original = harness.init_networks

    def spy(*args):
        pairs.append(original(*args))
        return pairs[-1]

    monkeypatch.setattr(harness, "init_networks", spy)
    cfg = small_cfg(generations=3)
    run_single(cfg, 6)
    epochs = cfg.gan.epochs
    assert [gen.step for gen, _ in pairs] == [epochs] * 3
    pretrain = [0, PRETRAIN_EPOCHS, PRETRAIN_EPOCHS]
    assert [critic.step for _, critic in pairs] == [p + epochs * CRITIC_STEPS for p in pretrain]


def test_vectors_adapt_to_the_union_range_every_generation(monkeypatch):
    """After each selection the initial unit vectors are adapted to the
    column max and min of the union that selection saw, and the next
    selection uses them."""
    selections, adaptations = [], []
    real_select, real_adapt = harness.elitism_select, harness.adapt

    def select(objectives, vectors, *args):
        selections.append((objectives.copy(), vectors))
        return real_select(objectives, vectors, *args)

    def adapting(initial, z_max, z_min):
        adaptations.append((initial, z_max, z_min, real_adapt(initial, z_max, z_min)))
        return adaptations[-1][-1]

    monkeypatch.setattr(harness, "elitism_select", select)
    monkeypatch.setattr(harness, "adapt", adapting)
    cfg = small_cfg(generations=3)
    run_single(cfg, 8)
    initial = resolve_setup(cfg)[1]
    assert len(selections) == len(adaptations) == 3
    used = initial
    for (union, vectors), (start, z_max, z_min, adapted) in zip(selections, adaptations):
        assert np.array_equal(vectors, used) and np.array_equal(start, initial)
        assert np.array_equal(z_max, union.max(axis=0)) and np.array_equal(z_min, union.min(axis=0))
        used = adapted


def test_config_validation():
    with pytest.raises(ConfigurationError):
        RunConfig(algorithm="spea2").validate()
    with pytest.raises(ConfigurationError):
        RunConfig(generations=0).validate()
    with pytest.raises(ConfigurationError):
        resolve_setup(RunConfig(problem="nope"))
    for size in (0, -7):
        with pytest.raises(ConfigurationError):
            resolve_setup(RunConfig(pop_size=size))
    with pytest.raises(ConfigurationError):
        run_experiment([small_cfg("nsga2")], jobs=-3)


def test_resolved_pop_size_snaps_to_lattice():
    vectors = resolve_setup(RunConfig(problem="dtlz2", objectives=3, pop_size=16))[1]
    assert vectors.shape[0] == 21  # smallest 3-objective lattice count >= 16


def test_setup_is_built_once_per_problem_size_and_pop(monkeypatch):
    # A second run with the same (problem, M, pop_size) samples no front and
    # builds no lattice, also when the problem name differs only by case; a
    # new pop_size or M builds its own.
    monkeypatch.setattr(harness, "_SETUPS", {})
    calls = {"sample_front": 0, "lattice_for": 0}

    def counted(fn):
        def wrapper(*args):
            calls[fn.__name__] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(harness, "sample_front", counted(harness.sample_front))
    monkeypatch.setattr(harness, "lattice_for", counted(harness.lattice_for))
    run_single(small_cfg("nsga2", generations=1), 0)
    assert calls == {"sample_front": 1, "lattice_for": 1}
    run_single(small_cfg("nsga2", generations=1), 1)
    run_single(small_cfg("rvea-wg", generations=1, problem="DTLZ2"), 0)
    assert calls == {"sample_front": 1, "lattice_for": 1}
    assert list(harness._SETUPS) == [("dtlz2", 3, 15)]
    resolve_setup(small_cfg(pop_size=16))
    resolve_setup(RunConfig(objectives=5, pop_size=15))
    assert calls == {"sample_front": 3, "lattice_for": 3}


def test_setup_arrays_are_read_only():
    problem, vectors, front = resolve_setup(small_cfg())
    for array in (vectors, front, problem.lower, problem.upper):
        with pytest.raises(ValueError):
            array[0] = 0.5
    again = resolve_setup(small_cfg(problem="Dtlz2"))
    assert again[1] is vectors and again[2] is front


def test_cold_and_warm_setup_give_identical_records(monkeypatch):
    for alg in ("rvea-wg", "nsga2"):
        cfg = small_cfg(alg, generations=2)
        monkeypatch.setattr(harness, "_SETUPS", {})
        cold = run_single(cfg, 6)
        warm = run_single(cfg, 6)
        assert harness._SETUPS
        assert warm.config == cold.config and warm.evaluations == cold.evaluations
        assert warm.igd_trace == cold.igd_trace
        assert warm.final_x.tobytes() == cold.final_x.tobytes()
        assert warm.final_f.tobytes() == cold.final_f.tobytes()
        assert warm.gan_trace == cold.gan_trace


def test_both_algorithms_snap_pop_size_alike():
    for alg in ("rvea-wg", "nsga2"):
        record = run_single(small_cfg(alg, generations=1, pop_size=16), 0)
        assert record.config["resolved_pop_size"] == 21
    assert record.final_x.shape[0] == 21  # NSGA-II keeps exactly N


def test_failed_run_reported_on_stderr(monkeypatch, capsys):
    def broken(cfg, seed):
        raise RuntimeError("boom")

    monkeypatch.setattr(harness, "run_single", broken)
    row = run_experiment([small_cfg("nsga2")], runs=2)[0]
    assert all(np.isnan(v) for v in row.per_run)
    out, err = capsys.readouterr()
    assert "run failed" not in out
    assert err.count("run failed (nsga2, dtlz2, seed") == 2
    assert "boom" in err


def test_experiment_rows_paired_seeds_and_best_flag(tmp_path):
    cfgs = [small_cfg("rvea-wg"), small_cfg("nsga2")]
    rows = run_experiment(cfgs, runs=2)
    assert len(rows) == 2
    assert {row.algorithm for row in rows} == {"rvea-wg", "nsga2"}
    assert sum(row.best for row in rows) == 1
    # Paired seeds: rerunning either algorithm alone reproduces its row values.
    again = run_experiment([small_cfg("nsga2")], runs=2)[0]
    nsga_row = next(r for r in rows if r.algorithm == "nsga2")
    assert again.per_run == nsga_row.per_run

    out = tmp_path / "results.csv"
    write_experiment_csv(rows, out)
    with out.open() as fh:
        table = list(csv.reader(fh))
    assert table[0][:6] == ["problem", "M", "algorithm", "runs", "mean_igd", "std_igd"]
    assert table[0][6:] == ["run_0", "run_1", "best"]
    assert len(table) == 3


def test_experiment_cardinality_for_sweep_shape():
    # A table-shaped sweep is problems x objectives x algorithms rows.
    values = {"problems": "dtlz1,dtlz2,dtlz3,dtlz4", "objectives": "3,6,8,10"}
    configs, _ = build_configs(*sweep_settings(values))
    assert len(configs) == 4 * 4 * 2


def test_run_files_round_trip(tmp_path, monkeypatch, capsys):
    """Every file `rveawg run` writes for its base-seed run reads back as the
    record's values and the unit reference vectors, exactly."""
    records = []
    real_run_single = harness.run_single

    def keeping(cfg, seed):
        records.append(real_run_single(cfg, seed))
        return records[-1]

    monkeypatch.setattr(harness, "run_single", keeping)
    args = ["run", "--pop-size", "15", "--generations", "3", "--epochs", "4", "--runs", "1", "--seed", "2"]
    assert main(args + ["--out", str(tmp_path)]) == 0
    (record,) = records
    printed = capsys.readouterr().out.splitlines()
    names = ["results.csv", "refvecs.csv", "igd_trace.csv", "objectives.csv", "gan_trace.csv"]
    names += ["generator_params.bin", "critic_params.bin"]
    assert printed[:-1] == [f"wrote {tmp_path / name}" for name in names]

    def table(name):
        with (tmp_path / name).open() as fh:
            return list(csv.reader(fh))

    rows = table("igd_trace.csv")[1:]
    assert len(rows) == 3
    assert [float(v) for _, v in rows] == record.igd_trace
    parsed = np.array([[float(v) for v in row] for row in table("objectives.csv")[1:]])
    assert np.array_equal(parsed, record.final_f)
    gan_rows = table("gan_trace.csv")[1:]
    assert len(gan_rows) == 3 * 4
    assert [[int(row[0]), *map(float, row[1:])] for row in gan_rows] == [list(astuple(s)) for s in record.gan_trace]
    vectors = np.array([[float(v) for v in row] for row in table("refvecs.csv")])
    assert np.array_equal(vectors, to_unit_vectors(lattice_for(3, 15)))
    # Each network's flat float32 params, widened to little-endian float64;
    # they narrow back bit for bit.
    assert list(record.networks) == ["generator", "critic"]
    for name, params in record.networks.items():
        assert params.dtype == np.float32 and params.ndim == 1
        raw = (tmp_path / f"{name}_params.bin").read_bytes()
        assert raw == params.astype("<f8").tobytes()
        assert np.frombuffer(raw, "<f8").astype(np.float32).tobytes() == params.tobytes()


def test_record_rerunnable_from_snapshot():
    cfg = small_cfg(generations=2)
    record = run_single(cfg, 4)
    rebuilt = config_from_snapshot(record.config)
    again = run_single(rebuilt, record.seed)
    assert again.igd_trace == record.igd_trace
    assert np.array_equal(again.final_x, record.final_x)


def test_cli_dump_gan_params(tmp_path):
    code = main(
        [
            "run",
            "--problem", "dtlz2",
            "--pop-size", "15",
            "--generations", "2",
            "--epochs", "2",
            "--runs", "1",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    raw = np.fromfile(tmp_path / "generator_params.bin", dtype="<f8")
    # latent 16 -> 64 -> 64 -> 12 variables, weights plus biases per layer.
    expected = (16 * 64 + 64) + (64 * 64 + 64) + (64 * 12 + 12)
    assert raw.shape == (expected,)
    assert np.all(np.isfinite(raw))
    assert (tmp_path / "critic_params.bin").exists()


def test_cli_plots_and_dump_reuse_base_seed_run(tmp_path, monkeypatch):
    calls = []
    real_run_single = harness.run_single

    def counting(cfg, seed):
        calls.append(seed)
        return real_run_single(cfg, seed)

    monkeypatch.setattr(harness, "run_single", counting)
    args = ["run", "--pop-size", "15", "--generations", "2", "--epochs", "2", "--runs", "2", "--seed", "5"]
    assert main(args + ["--out", str(tmp_path)]) == 0
    assert sorted(calls) == [5, 6]  # each seed runs once; the run files reuse seed 5's record
    with (tmp_path / "igd_trace.csv").open() as fh:
        last = float(list(csv.reader(fh))[-1][1])
    with (tmp_path / "results.csv").open() as fh:
        table = list(csv.DictReader(fh))
    assert table[0]["run_0"] == f"{last:.5e}"
    assert (tmp_path / "generator_params.bin").exists() and (tmp_path / "critic_params.bin").exists()


def test_out_that_is_not_a_directory_is_rejected_before_any_run(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(harness, "run_single", lambda cfg, seed: calls.append(seed))
    taken = tmp_path / "taken"
    taken.write_text("")
    for out in (taken, taken / "sub"):
        capsys.readouterr()
        assert main(["run", "--generations", "1", "--runs", "2", "--out", str(out)]) == 1, out
        assert "configuration error: --out" in capsys.readouterr().err
    assert calls == []
    assert taken.read_text() == ""


def test_config_file_parsing(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text("# comment\nproblems = lsmop1, dtlz2\n\nobjectives= 3\nruns =2\n")
    values = parse_config_file(path)
    assert values == {"problems": "lsmop1, dtlz2", "objectives": "3", "runs": "2"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("no separator here\n")
    with pytest.raises(ConfigurationError):
        parse_config_file(bad)


RUN_FILES = {"results.csv", "refvecs.csv", "igd_trace.csv", "objectives.csv"}
GAN_FILES = {"gan_trace.csv", "generator_params.bin", "critic_params.bin"}


def test_cli_run_writes_outputs(tmp_path, capsys):
    args = ["run", "--problem", "dtlz2", "--objectives", "3", "--pop-size", "15", "--generations", "2", "--epochs", "2"]
    args += ["--runs", "1", "--seed", "3"]
    assert main(args + ["--algorithm", "nsga2", "--out", str(tmp_path / "nsga2")]) == 0
    assert {p.name for p in (tmp_path / "nsga2").iterdir()} == RUN_FILES  # no GAN files, and no word of them
    assert capsys.readouterr().err == ""
    assert main(args + ["--out", str(tmp_path / "rvea-wg")]) == 0
    assert {p.name for p in (tmp_path / "rvea-wg").iterdir()} == RUN_FILES | GAN_FILES
    with (tmp_path / "rvea-wg" / "refvecs.csv").open() as fh:
        vecs = np.array([[float(v) for v in row] for row in csv.reader(fh)])
    assert vecs.shape == (15, 3)
    assert np.allclose(np.linalg.norm(vecs, axis=1), 1.0, atol=1e-12)
    # Without epochs the trace has only its header, but it is still written.
    epochs0 = ["--epochs", "0", "--out", str(tmp_path / "epochs0")]
    assert main(args + epochs0) == 0
    assert {p.name for p in (tmp_path / "epochs0").iterdir()} == RUN_FILES | GAN_FILES
    assert (tmp_path / "epochs0" / "gan_trace.csv").read_text().count("\n") == 1


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["sweep", "--config", str(tmp_path / "missing.cfg")]) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("objectives = 1\n")  # lattice needs M >= 2
    assert main(["sweep", "--config", str(bad)]) == 1
    for line, message in (
        ("runs = two", "runs = "),
        ("objectives = 3, ten", "objectives = "),
        ("seed = -1", "seed must be >= 0, got -1"),
        ("problems = ,", "problems lists nothing to run"),
        ("objectives =", "objectives lists nothing to run"),
        ("algorithms = , ,", "algorithms lists nothing to run"),
        ("objectives = 3, 3", "objectives lists 3 more than once"),
        ("objectives = 3, 4, 03", "objectives lists 3 more than once"),
        ("algorithms = nsga2, nsga2", "algorithms lists nsga2 more than once"),
        ("problems = dtlz2, lsmop1, dtlz2", "problems lists dtlz2 more than once"),
        ("problems = dtlz2, DTLZ2", "problems lists DTLZ2 more than once"),
    ):
        bad.write_text(line + "\n")
        capsys.readouterr()
        assert main(["sweep", "--config", str(bad), "--out", str(tmp_path / "out")]) == 1, line
        assert f"configuration error: {message}" in capsys.readouterr().err
    bad.write_text("problems = dtlz2\ngeneration = 2\n")  # a typo must not fall back to 15 generations
    capsys.readouterr()
    assert main(["sweep", "--config", str(bad), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "unknown key 'generation'" in err and "generations" in err
    assert main(["run", "--epochs", "-1", "--out", str(tmp_path / "out")]) == 1
    small = ["--generations", "2", "--epochs", "2", "--runs", "1", "--out", str(tmp_path / "out")]
    for bad_input in (["--pop-size", "0"], ["--pop-size", "-7"], ["--jobs", "-3"], ["--seed", "-1"]):
        assert main(["run", *bad_input, *small]) == 1, bad_input
    assert not (tmp_path / "out").exists()  # rejected before writing anything
    # Runs, seed and the output directory each have one source: the file sets
    # runs and seed, and only flags set the directory and the worker count.
    good = tmp_path / "good.cfg"
    good.write_text("problems = dtlz2\nobjectives = 3\nalgorithms = nsga2\ngenerations = 1\nruns = 1\n")
    for flag in (["--runs", "2"], ["--seed", "3"]):
        assert main(["sweep", "--config", str(good), "--out", str(tmp_path / "out"), *flag]) == 1, flag
    for line in ("out = x", "jobs = 2"):
        bad.write_text(f"problems = dtlz2\n{line}\n")
        capsys.readouterr()
        assert main(["sweep", "--config", str(bad), "--out", str(tmp_path / "out")]) == 1, line
        assert f"unknown key '{line.split()[0]}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # A file that cannot be read or that sets a key twice is a configuration
    # error too, named on stderr: a directory, bytes that are not UTF-8, and
    # a repeated key, which must not silently keep its last value.
    bad.write_bytes(b"problems = dtlz2\nalgorithms = nsga2\xff\n")
    for path, message in (
        (tmp_path, "config file not found or not a file"),
        (bad, "cannot read config file"),
    ):
        capsys.readouterr()
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 1, path
        assert f"configuration error: {message}" in capsys.readouterr().err
    bad.write_text("problems = dtlz2\nruns = 3\n\nruns = 1\n")
    capsys.readouterr()
    assert main(["sweep", "--config", str(bad), "--out", str(tmp_path / "out")]) == 1
    assert f"{bad}:4: key 'runs' already set on line 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_alpha_is_not_a_setting(tmp_path, capsys):
    """RVEA's alpha is the constant selection.ALPHA: a flag or a file key that
    sets it is a configuration error, like any unknown one."""
    out = ["--out", str(tmp_path / "out")]
    assert main(["run", "--alpha", "2.0", *out]) == 1
    cfgfile = tmp_path / "alpha.cfg"
    cfgfile.write_text("problems = dtlz2\nalpha = 2.0\n")
    capsys.readouterr()
    assert main(["sweep", "--config", str(cfgfile), *out]) == 1
    assert "unknown key 'alpha'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_pool_capped_at_run_count(monkeypatch):
    """A fork pool starts all its workers up front, so run_experiment asks
    for no more workers than it has runs, and a single run needs no pool."""
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
    rows = run_experiment([small_cfg("nsga2")], runs=2, jobs=64)
    assert sizes == [2]
    assert rows[0].per_run == run_experiment([small_cfg("nsga2")], runs=2)[0].per_run
    run_experiment([small_cfg("nsga2"), small_cfg("nsga2")], runs=2, jobs=2)
    run_experiment([small_cfg("nsga2")], runs=1, jobs=64)
    assert sizes == [2, 2]



def _child(code: str, **env) -> str:
    """Stdout of `code` run by a fresh interpreter on this checkout's src."""
    src = Path(__file__).resolve().parents[1] / "src"
    pythonpath = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=pythonpath, **env),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_serial_runs_load_no_process_pool():
    """The CLI's import and a serial experiment leave multiprocessing out:
    only run_experiment's pool branch imports it."""
    code = (
        "import sys, rveawg.cli\n"
        "from rveawg import RunConfig, run_experiment\n"
        "run_experiment([RunConfig(algorithm='nsga2', pop_size=15, generations=1)], runs=2)\n"
        "print(sorted(m for m in sys.modules if m.startswith(('concurrent', 'multiprocessing'))))\n"
    )
    assert _child(code).strip() == "[]"


def test_run_single_pins_one_blas_thread_and_restores():
    """A process started with two BLAS threads runs run_single on one (seen
    from a spy on its evaluations) and has two again after it returns."""
    code = (
        "import ctypes\n"
        "from rveawg import RunConfig, harness\n"
        "from rveawg._blas import openblas\n"
        "get = openblas('get_num_threads', ctypes.c_int)\n"
        "if get is None:\n"
        "    print('no OpenBLAS'); raise SystemExit\n"
        "seen, real = [], harness.evaluate\n"
        "def spy(xs, problem):\n"
        "    seen.append(get())\n"
        "    return real(xs, problem)\n"
        "harness.evaluate = spy\n"
        "before = get()\n"
        "harness.run_single(RunConfig(algorithm='rvea-wg', pop_size=15, generations=2), 0)\n"
        "print(before, sorted(set(seen)), len(seen), get())\n"
    )
    out = _child(code, OPENBLAS_NUM_THREADS="2").strip()
    if out == "no OpenBLAS" or out.startswith("1 "):
        pytest.skip(f"no second BLAS thread to pin away here: {out}")
    assert out == "2 [1] 3 2"


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_blocks() -> list[str]:
    return re.findall(r"^```[a-z]*\n(.*?)^```", README.read_text(), re.S | re.M)


def test_cli_matches_readme():
    """README's `rveawg run` and `rveawg sweep` lines show exactly the options
    each subcommand takes, and its example sweep file sets exactly SWEEP_KEYS."""
    commands = build_parser()._subparsers._group_actions[0].choices
    for name, sub in commands.items():
        lines = [b for b in _readme_blocks() if b.startswith(f"rveawg {name} ")]
        assert len(lines) == 1, name
        shown = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", lines[0]))
        options = {opt for action in sub._actions for opt in action.option_strings if opt.startswith("--")}
        assert shown == options - {"--help"}, name
    example = next(b for b in _readme_blocks() if b.startswith("# sweep.cfg"))
    keys = [line.split("=")[0].strip() for line in example.splitlines()[1:]]
    assert sorted(keys) == sorted(SWEEP_KEYS)


def test_cli_failed_runs_exit_2(tmp_path, monkeypatch, capsys):
    def broken(cfg, seed):
        raise RuntimeError("boom")

    monkeypatch.setattr(harness, "run_single", broken)
    cfgfile = tmp_path / "sweep.cfg"
    cfgfile.write_text("problems = dtlz2\nobjectives = 3\nalgorithms = nsga2\ngenerations = 2\nruns = 2\n")
    assert main(["sweep", "--config", str(cfgfile), "--out", str(tmp_path / "out")]) == 2
    with (tmp_path / "out" / "results.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[1][6:8] == ["nan", "nan"]  # the table is still written
    assert "2 of 2 runs failed" in capsys.readouterr().err


def test_row_mean_and_std_of_finite_runs(monkeypatch):
    # A failed run is a NaN cell that its row's mean and std leave out; a row
    # whose runs all failed reads NaN and is never flagged best.
    real = harness.run_single

    def flaky(cfg, seed):
        if seed == 1 or cfg.problem == "dtlz1":
            raise RuntimeError("boom")
        return real(cfg, seed)

    monkeypatch.setattr(harness, "run_single", flaky)
    row, dead = run_experiment([small_cfg("nsga2"), small_cfg("nsga2", problem="dtlz1")], runs=4)
    assert np.isnan(row.per_run[1])
    finite = [row.per_run[i] for i in (0, 2, 3)]
    assert np.isfinite(finite).all()
    assert row.mean_igd == np.mean(finite) and row.std_igd == np.std(finite)
    assert np.isnan(dead.mean_igd) and np.isnan(dead.std_igd)
    assert row.best and not dead.best


def test_cli_sweep_small(tmp_path):
    cfgfile = tmp_path / "sweep.cfg"
    cfgfile.write_text(
        "problems = dtlz2\nobjectives = 3\nalgorithms = nsga2\n"
        "generations = 2\nruns = 2\nseed = 1\nepochs = 2\n"
    )
    code = main(["sweep", "--config", str(cfgfile), "--out", str(tmp_path / "out")])
    assert code == 0
    with (tmp_path / "out" / "results.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2  # header + one row


def test_cli_run_byte_identical_repeat(tmp_path):
    args = [
        "run",
        "--problem", "dtlz2",
        "--pop-size", "15",
        "--generations", "2",
        "--epochs", "2",
        "--runs", "2",
        "--seed", "11",
    ]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "results.csv").read_bytes()
    b = (tmp_path / "b" / "results.csv").read_bytes()
    assert a == b


def test_cli_run_is_the_one_row_sweep(tmp_path, capsys):
    """`rveawg run` and a one-row `rveawg sweep` with the same settings write
    the same results.csv, byte for byte."""
    settings = {"generations": "2", "epochs": "2", "runs": "2", "seed": "3"}
    flags = [f"--{key}={value}" for key, value in settings.items()]
    assert main(["run", "--problem", "lsmop1", "--objectives", "3", "--algorithm", "rvea-wg", *flags,
                 "--out", str(tmp_path / "run")]) == 0
    cfgfile = tmp_path / "sweep.cfg"
    lines = ["problems = lsmop1", "objectives = 3", "algorithms = rvea-wg"]
    cfgfile.write_text("\n".join(lines + [f"{key} = {value}" for key, value in settings.items()]) + "\n")
    assert main(["sweep", "--config", str(cfgfile), "--jobs", "2", "--out", str(tmp_path / "sweep")]) == 0
    assert (tmp_path / "run" / "results.csv").read_bytes() == (tmp_path / "sweep" / "results.csv").read_bytes()


def test_omitted_settings_keep_library_defaults(tmp_path, monkeypatch):
    """A flag or key that is not given reaches run_experiment as the default
    of RunConfig, GanConfig or run_experiment: the CLI holds none of its own."""
    calls = []

    def spy(configs, **kwargs):
        calls.append((configs, kwargs))
        raise RuntimeError("stop before running")

    monkeypatch.setattr(cli, "run_experiment", spy)
    monkeypatch.chdir(tmp_path)
    assert main(["run"]) == 2
    assert calls.pop() == ([RunConfig()], {})
    cfgfile = tmp_path / "sweep.cfg"
    cfgfile.write_text("problems = dtlz2\nobjectives = 3\nalgorithms = rvea-wg\n")
    assert main(["sweep", "--config", str(cfgfile)]) == 2
    assert calls.pop() == ([RunConfig()], {})
    # Given ones reach the field they name, and only they do.
    assert main(["run", "--epochs", "7", "--seed", "4", "--jobs", "2", "--pop-size", "9"]) == 2
    assert calls.pop() == ([RunConfig(pop_size=9, gan=GanConfig(epochs=7))], {"seed": 4, "jobs": 2})
    cfgfile.write_text("objectives = 4\nruns = 3\ngenerations = 5\n")
    assert main(["sweep", "--config", str(cfgfile)]) == 2
    configs, kwargs = calls.pop()
    assert kwargs == {"runs": 3}
    assert configs == [
        RunConfig(problem=p, objectives=4, algorithm=a, generations=5)
        for p in ("dtlz1", "dtlz2", "dtlz3", "dtlz4")
        for a in ("rvea-wg", "nsga2")
    ]
    assert not (tmp_path / "results").exists()


def test_results_independent_of_blas_threads_and_jobs(tmp_path):
    """A short LSMOP1 rvea-wg job writes the same files, byte for byte, on 1
    and 2 BLAS threads, each with 1 and 2 worker processes: results.csv, the
    plot data and the networks, which come back from a pool worker pickled."""
    src = Path(__file__).resolve().parents[1] / "src"
    pythonpath = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    args = ["run", "--algorithm", "rvea-wg", "--problem", "lsmop1", "--runs", "2", "--generations", "2", "--epochs", "5"]
    tables = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=pythonpath)
        for jobs in ("1", "2"):
            out = tmp_path / f"t{threads}j{jobs}"
            proc = subprocess.run(
                [sys.executable, "-m", "rveawg.cli", *args, "--jobs", jobs, "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            tables[threads, jobs] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    first = tables["1", "1"]
    assert set(first) == RUN_FILES | GAN_FILES
    for key, files in tables.items():
        assert files == first, (key, [name for name in first if files.get(name) != first[name]])
