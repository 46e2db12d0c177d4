"""Command-line entry points for single runs and table-style sweeps."""
from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

from .core import ConfigurationError
from .harness import (
    ALGORITHMS,
    ExperimentRow,
    RunConfig,
    emit_plot_data,
    resolve_setup,
    run_experiment,
    write_experiment_csv,
)
from .neuronet import save_params
from .problems import PROBLEM_NAMES
from .refvec import to_unit_vectors

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def _add_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", type=str, default="results", help="output directory")
    parser.add_argument("--jobs", type=int, default=1, help="parallel worker processes")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rveawg",
        description="Many-objective optimization benchmark runner "
        "(reference-vector selection with GAN offspring, NSGA-II baseline).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one (problem, M, algorithm) configuration")
    run_p.add_argument("--algorithm", choices=ALGORITHMS, default="rvea-wg")
    run_p.add_argument("--problem", choices=PROBLEM_NAMES, default="dtlz2")
    run_p.add_argument("--objectives", type=int, default=3)
    run_p.add_argument(
        "--pop-size",
        type=int,
        default=None,
        help="requested population size; snapped up to the nearest lattice count",
    )
    run_p.add_argument("--generations", type=int, default=15, help="generations per run")
    run_p.add_argument("--epochs", type=int, default=40, help="GAN epochs per generation")
    run_p.add_argument("--runs", type=int, default=10, help="repeated runs per configuration")
    run_p.add_argument("--seed", type=int, default=0, help="base seed; run i uses seed+i")
    run_p.add_argument("--alpha", type=float, default=2.0, help="angle-penalty rate exponent")
    _add_output(run_p)

    sweep_p = sub.add_parser("sweep", help="run a multi-row experiment from a config file")
    sweep_p.add_argument("--config", type=str, required=True, help="flat key = value file")
    _add_output(sweep_p)
    return parser


def parse_config_file(path: Path) -> dict[str, str]:
    """Flat UTF-8 `key = value` lines, each key at most once; blank lines and
    # comments ignored."""
    if not path.is_file():
        raise ConfigurationError(f"config file not found or not a file: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from None
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value', got '{raw}'")
        key, value = line.split("=", 1)
        key = key.strip().lower()
        if key in first_line:
            raise ConfigurationError(f"{path}:{lineno}: key '{key}' already set on line {first_line[key]}")
        first_line[key] = lineno
        values[key] = value.strip()
    return values


def _csv_list(raw: str) -> list[str]:
    return [item.strip() for item in raw.split(",") if item.strip()]


SWEEP_KEYS = ("problems", "objectives", "algorithms", "runs", "seed", "generations", "epochs", "alpha")


def sweep_configs(values: dict[str, str]) -> list[RunConfig]:
    unknown = [key for key in values if key not in SWEEP_KEYS]
    if unknown:
        raise ConfigurationError(
            f"unknown key {', '.join(map(repr, unknown))}; known keys: {', '.join(sorted(SWEEP_KEYS))}"
        )

    def number(key, raw, kind=int):
        try:
            return kind(raw)
        except ValueError:
            raise ConfigurationError(f"{key} = {raw!r} is not a valid {kind.__name__}") from None

    def axis(key, default):
        items = _csv_list(values.get(key, default))
        if not items:
            raise ConfigurationError(f"{key} lists nothing to run")
        return items

    problems = axis("problems", "dtlz1,dtlz2,dtlz3,dtlz4")
    objectives = [number("objectives", v) for v in axis("objectives", "3,6,8,10")]
    algorithms = axis("algorithms", "rvea-wg,nsga2")
    runs = number("runs", values.get("runs", 10))
    seed = number("seed", values.get("seed", 0))
    generations = number("generations", values.get("generations", 15))
    epochs = number("epochs", values.get("epochs", 40))
    alpha = number("alpha", values.get("alpha", 2.0), float)

    configs = []
    for problem in problems:
        for m in objectives:
            for algorithm in algorithms:
                cfg = RunConfig(
                    algorithm=algorithm,
                    problem=problem,
                    objectives=m,
                    generations=generations,
                    alpha=alpha,
                    runs=runs,
                    seed=seed,
                )
                cfg.gan.epochs = epochs
                configs.append(cfg)
    return configs


def _exit_status(rows: list[ExperimentRow]) -> int:
    """EXIT_RUNTIME when any run of the table failed (a NaN cell), else EXIT_OK."""
    values = [v for row in rows for v in row.per_run]
    failed = sum(not math.isfinite(v) for v in values)
    if failed:
        print(f"{failed} of {len(values)} runs failed", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = RunConfig(
        algorithm=args.algorithm,
        problem=args.problem,
        objectives=args.objectives,
        pop_size=args.pop_size,
        generations=args.generations,
        alpha=args.alpha,
        runs=args.runs,
        seed=args.seed,
    )
    cfg.gan.epochs = args.epochs
    problem, weights = resolve_setup(cfg)
    rows = run_experiment([cfg], jobs=args.jobs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    with (out / "refvecs.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        for row in to_unit_vectors(weights):
            writer.writerow([repr(float(v)) for v in row])

    rows_path = out / "results.csv"
    write_experiment_csv(rows, rows_path)
    print(f"wrote {rows_path}")

    # None when the base-seed run failed; that failure is on stderr and exits 2.
    record = rows[0].base_record
    if record is not None:
        for path in emit_plot_data(record, out):
            print(f"wrote {path}")
        for name, net in (record.networks or {}).items():  # rvea-wg runs only
            target = out / f"{name}_params.bin"
            save_params(net, target)
            print(f"wrote {target}")
    mean = rows[0].mean_igd
    print(f"{cfg.problem} M={cfg.objectives} {cfg.algorithm}: mean IGD {mean:.5e} over {cfg.runs} runs")
    return _exit_status(rows)


def cmd_sweep(args) -> int:
    configs = sweep_configs(parse_config_file(Path(args.config)))
    rows = run_experiment(configs, jobs=args.jobs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_experiment_csv(rows, out / "results.csv")
    print(f"wrote {out / 'results.csv'} ({len(rows)} rows)")
    return _exit_status(rows)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; those are config errors here.
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "run":
            return cmd_run(args)
        return cmd_sweep(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
