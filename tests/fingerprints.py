"""Result fingerprints: digests of five seeded runs and the 40 per-seed final
IGDs of acceptance criterion 9, with the numpy/BLAS build and CPU kernels
they were made with.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/fingerprints.py          # print digests as JSON
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/fingerprints.py --write  # regenerate fingerprints.json

Results repeat bit for bit only within one numpy/BLAS build at a fixed BLAS
thread count, so --write refuses to run on more than one thread. A change
that alters results on purpose commits the diff of fingerprints.json.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from rveawg import RunConfig, run_experiment, run_single
from rveawg._blas import openblas

PATH = Path(__file__).with_name("fingerprints.json")

# (algorithm, problem, objectives, seed); every other setting is the default.
RUNS = [
    ("rvea-wg", "dtlz2", 3, 0),
    ("rvea-wg", "dtlz2", 3, 1),
    ("rvea-wg", "lsmop1", 3, 0),
    ("rvea-wg", "dtlz1", 6, 0),
    ("nsga2", "dtlz2", 10, 0),
]


def fingerprint(record) -> str:
    """First 16 hex digits of a sha256 over the IGD trace, the final decision
    and objective matrices, every GAN epoch row as float64, and the final
    generator and critic parameters in their own dtype."""
    digest = hashlib.sha256()
    digest.update(np.asarray(record.igd_trace, dtype=np.float64).tobytes())
    digest.update(np.ascontiguousarray(record.final_x, dtype=np.float64).tobytes())
    digest.update(np.ascontiguousarray(record.final_f, dtype=np.float64).tobytes())
    for s in record.gan_trace:
        row = [s.epoch, s.critic_loss, s.gen_loss, s.wasserstein, s.penalty]
        digest.update(np.array(row, dtype=np.float64).tobytes())
    for params in (record.networks or {}).values():
        digest.update(params.tobytes())
    return digest.hexdigest()[:16]


def _openblas(restype, name: str):
    """What OpenBLAS's no-argument function `name` returns; None without OpenBLAS."""
    fn = openblas(name, restype)
    return None if fn is None else fn()


def environment() -> dict:
    """The numpy version and the SIMD extensions its kernels dispatch to, the
    OpenBLAS config string and core name, and the BLAS thread count."""
    try:
        simd = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
    except (TypeError, KeyError):  # numpy before 1.25 prints its config only
        simd = None
    config = _openblas(ctypes.c_char_p, "get_config")
    core = _openblas(ctypes.c_char_p, "get_corename")
    return {
        "numpy": np.__version__,
        "numpy_simd": simd,
        "openblas_config": config.decode() if config else None,
        "openblas_core": core.decode() if core else None,
        "blas_threads": _openblas(ctypes.c_int, "get_num_threads"),
    }


def environment_difference(recorded: dict, current: dict) -> str | None:
    """A readable list of the environment entries that differ, or None."""
    diffs = [
        f"{key} recorded {value!r}, here {current.get(key)!r}"
        for key, value in recorded.items()
        if current.get(key) != value
    ]
    return "; ".join(diffs) or None


def run_fingerprints() -> dict[str, str]:
    out = {}
    for algorithm, problem, m, seed in RUNS:
        cfg = RunConfig(algorithm=algorithm, problem=problem, objectives=m)
        out[f"{algorithm} {problem} M={m} seed {seed}"] = fingerprint(run_single(cfg, seed))
    return out


def criterion_9_configs(problem: str) -> list[RunConfig]:
    """The paired rvea-wg and NSGA-II configs acceptance criterion 9 runs on a
    problem, over run_experiment's default 10 runs from seed 0."""
    return [
        RunConfig(algorithm=alg, problem=problem, objectives=3, generations=15)
        for alg in ("rvea-wg", "nsga2")
    ]


def criterion_9_igds() -> dict[str, list[float]]:
    out = {}
    for problem in ("lsmop1", "dtlz2"):
        for row in run_experiment(criterion_9_configs(problem)):
            out[f"{problem} {row.algorithm}"] = row.per_run
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="also run criterion 9 and rewrite fingerprints.json")
    args = parser.parse_args(argv)
    env = environment()
    if args.write and env["blas_threads"] != 1:
        print(f"BLAS runs on {env['blas_threads']} threads; set OPENBLAS_NUM_THREADS=1", file=sys.stderr)
        return 1
    data = {"environment": env, "runs": run_fingerprints()}
    if args.write:
        data["criterion_9"] = criterion_9_igds()
        PATH.write_text(json.dumps(data, indent=2) + "\n")
        print(f"wrote {PATH}", file=sys.stderr)
    print(json.dumps(data))
    return 0


if __name__ == "__main__":
    sys.exit(main())
