"""Benchmark worker. The entry point starts it in a fresh interpreter with
BLAS pinned to one thread and the checkout's ``src`` on the path.

    worker.py setup SPEC        print the monotonic clock as the first generation starts
    worker.py measure SPEC      run units for the time budget, write a JSON result
    worker.py cli SINK ARGS...  run the rveawg CLI with layer spans written to SINK

SPEC is a JSON file written by ``run.py``.
"""
from __future__ import annotations

import csv
import ctypes
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import rveawg.cli
from rveawg import harness
from rveawg.metrics import igd
from rveawg.problems import make_problem, sample_front

import spans
from workloads import EPOCHS, GENERATIONS, WORKLOADS, program_seeds, run_child

# The first call of any of these starts generation 1.
FIRST_GENERATION = [
    ("rveawg.wgan", "pretrain_discriminator"),
    ("rveawg.wgan", "train"),
    ("rveawg.baselines", "nsga2_generation"),
]


def run_config(w: dict) -> harness.RunConfig:
    cfg = harness.RunConfig(
        algorithm=w["algorithm"], problem=w["problem"], objectives=w["objectives"], generations=GENERATIONS
    )
    cfg.gan.epochs = EPOCHS
    return cfg


def setup_probe(spec: dict) -> None:
    def first_generation(*args, **kwargs):
        print(time.monotonic(), flush=True)
        os._exit(0)

    for module, name in FIRST_GENERATION:
        spans.replace_everywhere(getattr(importlib.import_module(module), name), first_generation)
    w = WORKLOADS[spec["workload"]]
    if w["kind"] == "run":
        harness.run_single(run_config(w), program_seeds(spec["seed"], 1)[0])
    else:
        out = str(Path(spec["scratch"]) / "probe")
        rveawg.cli.main(["sweep", "--config", spec["config"], "--out", out, "--jobs", "1"])
    sys.exit("perfbench: the first generation never started")


# --- environment -------------------------------------------------------------

def _openblas_call(restype, *symbols):
    """Call the first exported no-argument function of a loaded OpenBLAS."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in symbols:
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.argtypes = []
                fn.restype = restype
                return fn()
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    threads = _openblas_call(
        ctypes.c_int, "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"
    )
    config = _openblas_call(ctypes.c_char_p, "scipy_openblas_get_config64_", "openblas_get_config64_", "openblas_get_config")
    cpu_model = None
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": config.decode() if config else None,
        "blas_threads": threads,
        "pinned": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
    }


# --- run workloads ------------------------------------------------------------

def check_record(record, front, expected_evaluations: int) -> list[str]:
    problems = []
    value = record.final_igd
    if not math.isfinite(value):
        problems.append(f"final IGD {value} is not finite")
    if record.evaluations != expected_evaluations:
        problems.append(f"{record.evaluations} evaluations, expected {expected_evaluations}")
    recomputed = igd(front, record.final_f).value
    if recomputed != value:
        problems.append(f"final IGD {value!r} but the final population scores {recomputed!r}")
    return problems


def measure_runs(spec: dict, w: dict) -> dict:
    cfg = run_config(w)
    seeds = program_seeds(spec["seed"], w["seeds"])
    front = sample_front(make_problem(w["problem"], w["objectives"]), w["front_size"])
    expected = w["pop_size"] * (GENERATIONS + 1)
    tracer = spans.Tracer() if spec["trace"] else None
    igd_by_seed: dict[int, float] = {}
    units: list[dict] = []

    def unit(seed: int, traced: bool) -> None:
        if traced:
            tracer.install()
        start, cpu = time.perf_counter(), time.process_time()
        try:
            record = harness.run_single(cfg, seed)
        except Exception as exc:  # noqa: BLE001 - a raising run is a failed unit
            traceback.print_exc()
            record, problems = None, [f"seed {seed} raised {exc!r}"]
        finally:
            wall, cpu = time.perf_counter() - start, time.process_time() - cpu
            if traced:
                tracer.uninstall()
        if record is not None:
            problems = [f"seed {seed}: {p}" for p in check_record(record, front, expected)]
            value = record.final_igd
            if igd_by_seed.setdefault(seed, value) != value:
                problems.append(f"seed {seed}: final IGD {value!r} differs from an earlier run's {igd_by_seed[seed]!r}")
        units.append({
            "traced": traced, "timed": record is not None, "wall": wall, "cpu": cpu,
            "runs": 1, "failed": int(bool(problems)), "problems": problems,
        })

    run_units(spec, seeds, unit, minimum=1 if spec["trace"] else len(seeds))
    distinct = [igd_by_seed[s] for s in seeds if s in igd_by_seed]
    metrics = {
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "final_igd": (statistics.fmean(distinct) if distinct else math.nan, "igd"),
    }
    return finish(spec, units, tracer and tracer.profile, 1, metrics)


def run_units(spec: dict, seeds: list[int], unit, minimum: int) -> None:
    """Call `unit(seed, traced)` until the next step would overrun the budget.

    An untraced run cycles through `seeds`, one unit per step. A traced run
    makes one traced and one untraced unit on the same seed per step, in
    alternating order. Either makes at least `minimum` steps.
    """
    started = time.perf_counter()
    steps: list[float] = []
    while True:
        index = len(steps)
        if index >= minimum:
            cost = statistics.median(steps)
            if time.perf_counter() - started + cost > spec["seconds"] or time.monotonic() + cost > spec["deadline"]:
                return
        seed = seeds[index % len(seeds)]
        order = [False] if not spec["trace"] else ([False, True] if index % 2 == 0 else [True, False])
        step_start = time.perf_counter()
        for traced in order:
            unit(seed, traced)
        steps.append(time.perf_counter() - step_start)


def finish(spec: dict, units: list[dict], profile: spans.Profile | None, jobs: int, metrics: dict) -> dict:
    """The worker's result. Untraced: the end-to-end metrics measured here.
    Traced: the per-layer metrics and the tracing overhead.

    A unit's time is its fastest in the run. Other tenants of a shared
    machine slow it by up to 2x in phases of seconds to minutes, and only
    ever slow it, so the fastest unit is the steadiest estimate of the
    program's own cost. Times count every unit that ran to the end, also one
    whose output failed a check.
    """
    env = environment()
    problems = [p for u in units for p in u["problems"]]
    if env["blas_threads"] not in (None, 1):
        problems.append(f"BLAS runs {env['blas_threads']} threads; the pin to 1 did not take effect")
    timed = [u for u in units if u["timed"]]
    plain = [u["wall"] for u in timed if not u["traced"]]
    if spec["trace"]:
        traced = [u["wall"] for u in timed if u["traced"]]
        metrics = spans.layer_metrics(profile, max(len(traced), 1), jobs)
        if not profile.transparent():
            problems.append("traced child spans outlast their parent span")
        if traced and plain:
            overhead = min(traced) - min(plain)
            metrics["trace.overhead_s"] = (overhead, "s")
            metrics["trace.overhead_share"] = (overhead / min(plain), "ratio")
    elif plain:
        metrics["wall_s"] = (min(plain), "s")
        metrics["cpu_s"] = (min(u["cpu"] for u in timed if not u["traced"]), "s")
    return {
        "unit_walls": plain,
        "attempted": sum(u["runs"] for u in units),
        "failed": sum(u["failed"] for u in units),
        "problems": problems,
        "env": env,
        "metrics": metrics,
    }


# --- the CLI sweep ------------------------------------------------------------

def _number(text) -> float:
    try:
        return float(text)
    except (TypeError, ValueError):
        return math.nan


def check_sweep(table: Path, code: int | None, output: str, w: dict, attempted: int) -> tuple[int, list[str], list[float]]:
    """(failed runs, problems, finite per-run IGD cells) for one sweep.

    A run fails when its cell is NaN or the CLI printed "run failed" for it;
    a wrong exit code, row set, mean or best flag fails every run.
    """
    problems = [] if code == 0 else [f"CLI exit code {code}"]
    try:
        with table.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        rows = []
        problems.append(f"no results.csv: {exc}")
    found = sorted((row.get("problem"), row.get("algorithm")) for row in rows)
    expected = sorted((p, a) for p in w["problems"] for a in w["algorithms"])
    if found != expected:
        problems.append(f"results.csv rows {found}, expected {expected}")
    nan_cells, cells = 0, []
    for row in rows:
        values = [_number(row.get(f"run_{i}")) for i in range(w["runs"])]
        finite = [v for v in values if math.isfinite(v)]
        nan_cells += len(values) - len(finite)
        cells += finite
        if finite and not math.isclose(_number(row.get("mean_igd")), statistics.fmean(finite), rel_tol=1e-4):
            problems.append(f"{row['problem']} {row['algorithm']}: mean_igd {row.get('mean_igd')} is not the mean of its runs")
    for problem, winner in w["best"].items():
        flagged = [row["algorithm"] for row in rows if row.get("problem") == problem and row.get("best") == "1"]
        if flagged != [winner]:
            problems.append(f"{problem}: best flag on {flagged}, the paper's ordering puts {winner} first")
    if problems:
        return attempted, problems, cells
    failed = max(nan_cells, output.count("run failed"))
    if failed:
        problems.append(f"{failed} of {attempted} runs failed (NaN cells or 'run failed' lines)")
    return failed, problems, cells


def measure_sweep(spec: dict, w: dict) -> dict:
    scratch = Path(spec["scratch"])
    runs = len(w["problems"]) * len(w["algorithms"]) * w["runs"]
    profile = spans.Profile()
    units: list[dict] = []
    first: dict = {}

    def unit(seed: int, traced: bool) -> None:
        index = len(units)
        out = scratch / f"sweep-{index}"
        argv = ["sweep", "--config", spec["config"], "--out", str(out), "--jobs", str(w["jobs"])]
        if traced:
            sink = scratch / f"spans-{index}"
            sink.mkdir()
            cmd = [sys.executable, __file__, "cli", str(sink), *argv]
        else:
            cmd = [sys.executable, "-m", "rveawg.cli", *argv]
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        code, stdout, stderr = run_child(cmd, spec["deadline"] - time.monotonic())
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
        table = out / "results.csv"
        failed, problems, cells = check_sweep(table, code, stdout + stderr, w, runs)
        data = table.read_bytes() if table.exists() else b""
        first.setdefault("table", data)
        first.setdefault("cells", cells)
        if data != first["table"]:
            problems.append(f"sweep {index}: results.csv differs from the first sweep's")
            failed = runs
        if problems:
            sys.stderr.write(stdout + stderr)
        if traced:
            profile.merge(spans.load_profiles(sink))
        units.append({
            "traced": traced, "timed": code is not None, "wall": wall, "cpu": cpu,
            "runs": runs, "failed": failed, "problems": problems,
        })

    # Untraced, at least two sweeps, so that the rerun's table can be compared.
    run_units(spec, [0], unit, minimum=1 if spec["trace"] else 2)
    cells = first.get("cells")
    metrics = {
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MiB"),
        "final_igd": (statistics.fmean(cells) if cells else math.nan, "igd"),
    }
    return finish(spec, units, profile, w["jobs"], metrics)


def main(argv: list[str]) -> int:
    src = Path(__file__).resolve().parent.parent / "src"
    if not Path(rveawg.cli.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: rveawg was imported from {rveawg.cli.__file__}, not from {src}")
    mode = argv[1]
    if mode == "cli":
        spans.Tracer(sink=Path(argv[2])).install()
        return rveawg.cli.main(argv[3:])
    spec = json.loads(Path(argv[2]).read_text())
    if mode == "setup":
        setup_probe(spec)
    w = WORKLOADS[spec["workload"]]
    result = measure_runs(spec, w) if w["kind"] == "run" else measure_sweep(spec, w)
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
