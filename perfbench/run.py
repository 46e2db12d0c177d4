"""rveawg benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It measures the checkout's own ``src``
(no install needed), with OPENBLAS_NUM_THREADS=1 and OMP_NUM_THREADS=1 set
for every process it starts, and prints the metrics by name with their
units. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

--trace 0 gives the end-to-end metrics of an untraced run: wall_s, cpu_s,
setup_s, peak_rss_mb and final_igd. --trace 1 gives the per-layer metrics
of a traced run (see spans.py), and the tracing overhead. The error rate
is failed / attempted.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, run_child, sweep_config_text

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 6  # before the measured units, and as many again after them
TIME_LIMIT_S = 170  # the whole run, set-up probes included

END_TO_END = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb", "final_igd")
# The traced run's layer metrics are always all present; the overhead needs
# a traced and an untraced unit that both ran to the end.
TRACE_OVERHEAD = ("trace.overhead_s", "trace.overhead_share")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    return env


def setup_times(spec_path: Path, deadline: float, count: int, warm_up: int = 0) -> list[float]:
    """Seconds from starting a fresh interpreter to the first generation.

    Warm-up probes fill the bytecode cache and are not counted.
    """
    times = []
    for probe in range(warm_up + count):
        start = time.monotonic()
        code, out, err = run_child([sys.executable, str(WORKER), "setup", str(spec_path)], deadline - start, child_env())
        if code != 0 or not out.strip():
            raise BenchError(f"set-up probe failed (exit {code}):\n{err[-4000:]}")
        if probe >= warm_up:
            times.append(float(out.split()[-1]) - start)
    return times


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    scratch = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        spec = {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "scratch": str(scratch), "result": str(scratch / "result.json"),
            "config": str(scratch / "sweep.cfg"),
        }
        w = WORKLOADS[workload]
        if w["kind"] == "sweep":
            Path(spec["config"]).write_text(sweep_config_text(w, seed))
        spec_path = scratch / "spec.json"
        # The worker stops early enough to report before the deadline.
        spec_path.write_text(json.dumps({**spec, "deadline": deadline - 10}))
        setup = [] if trace else setup_times(spec_path, deadline, SETUP_PROBES, warm_up=1)
        code, out, err = run_child([sys.executable, str(WORKER), "measure", str(spec_path)], deadline - time.monotonic(), child_env())
        sys.stderr.write(err)
        if code != 0:
            raise BenchError(f"worker failed (exit {code})")
        result = json.loads(Path(spec["result"]).read_text())
        if not trace:
            setup += setup_times(spec_path, deadline, SETUP_PROBES)
            result["metrics"]["setup_s"] = (statistics.median(setup), "s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds like an interrupt: children killed, scratch removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "rveawg" / "__init__.py").is_file():
        print(f"perfbench: no rveawg source under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    missing = [name for name in (TRACE_OVERHEAD if args.trace else END_TO_END) if name not in metrics]
    if missing or any(value != value for value, _ in metrics.values()):
        print(f"perfbench: no valid measurement of {missing or 'some metric'}; problems: {result['problems']}", file=sys.stderr)
        return 1
    attempted, failed = result["attempted"], result["failed"]
    correct = failed == 0 and not result["problems"]

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    walls = result["unit_walls"]
    if walls:
        print(f"unit wall times (s), median {statistics.median(walls):.4f} of {len(walls)}: " + " ".join(f"{t:.3f}" for t in walls))
    for problem in result["problems"]:
        print(f"check failed: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(f"error_rate {failed / attempted!r} ratio ({failed} of {attempted} runs failed)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
