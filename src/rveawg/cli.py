"""Command-line entry points: `run` for one configuration and `sweep` for
the (problem, M, algorithm) product a config file lists. `run` is the
product's one-row case: both build their configs with `build_configs`, keep
the library default (`RunConfig`, `GanConfig`, `run_experiment`) of each
setting not given, and share one tail that runs, writes results.csv and
maps failed runs to exit status 2. This module writes every output file;
the library only computes."""
from __future__ import annotations

import argparse
import csv
import itertools
import math
import sys
from dataclasses import astuple, fields
from pathlib import Path

from .core import ConfigurationError
from .harness import ALGORITHMS, ExperimentRow, RunConfig, resolve_setup, run_experiment
from .problems import PROBLEM_NAMES
from .wgan import GanConfig

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2

# The run settings that `run` takes as flags and `sweep` as keys: name ->
# (type, help).
SETTINGS = {
    "generations": (int, "generations per run"),
    "epochs": (int, "GAN epochs per generation"),
    "runs": (int, "repeated runs per configuration"),
    "seed": (int, "base seed; run i uses seed+i"),
}
# The sweep's axes, each a comma-separated list: key -> (RunConfig field,
# item type, the list a file without the key runs).
SWEEP_AXES = {
    "problems": ("problem", str, "dtlz1,dtlz2,dtlz3,dtlz4"),
    "objectives": ("objectives", int, "3,6,8,10"),
    "algorithms": ("algorithm", str, "rvea-wg,nsga2"),
}
SWEEP_KEYS = (*SWEEP_AXES, *SETTINGS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rveawg",
        description="Many-objective optimization benchmark runner "
        "(reference-vector selection with GAN offspring, NSGA-II baseline).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    unset = argparse.SUPPRESS  # a flag not given stays out of the namespace and keeps the library default
    run_p = sub.add_parser("run", help="run one (problem, M, algorithm) configuration", argument_default=unset)
    run_p.add_argument("--algorithm", choices=ALGORITHMS)
    run_p.add_argument("--problem", choices=PROBLEM_NAMES)
    run_p.add_argument("--objectives", type=int)
    run_p.add_argument(
        "--pop-size",
        type=int,
        help="requested population size; snapped up to the nearest lattice count",
    )
    for name, (kind, text) in SETTINGS.items():
        run_p.add_argument(f"--{name}", type=kind, help=text)

    sweep_p = sub.add_parser("sweep", help="run a multi-row experiment from a config file", argument_default=unset)
    sweep_p.add_argument("--config", type=str, required=True, help="flat key = value file")
    for command in (run_p, sweep_p):
        command.add_argument("--out", type=str, default="results", help="output directory")
        command.add_argument("--jobs", type=int, help="parallel worker processes")
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


def _parse(key: str, raw: str, kind: type):
    try:
        return kind(raw)
    except ValueError:
        raise ConfigurationError(f"{key} = {raw!r} is not a valid {kind.__name__}") from None


def sweep_settings(values: dict[str, str]) -> tuple[dict[str, list], dict]:
    """The axes (RunConfig field -> values) and the settings of a parsed sweep
    file. A key that is not set keeps its default: an axis its default list,
    a setting the library's default."""
    unknown = [key for key in values if key not in SWEEP_KEYS]
    if unknown:
        raise ConfigurationError(
            f"unknown key {', '.join(map(repr, unknown))}; known keys: {', '.join(sorted(SWEEP_KEYS))}"
        )
    axes = {}
    for key, (name, kind, default) in SWEEP_AXES.items():
        items = [_parse(key, item.strip(), kind) for item in values.get(key, default).split(",") if item.strip()]
        if not items:
            raise ConfigurationError(f"{key} lists nothing to run")
        same = [item.lower() for item in items] if key == "problems" else items  # make_problem ignores case
        for i, item in enumerate(items):
            if same[i] in same[:i]:
                raise ConfigurationError(f"{key} lists {item} more than once")
        axes[name] = items
    settings = {key: _parse(key, values[key], kind) for key, (kind, _) in SETTINGS.items() if key in values}
    return axes, settings


def build_configs(axes: dict[str, list], settings: dict) -> tuple[list[RunConfig], dict]:
    """One RunConfig per combination of the `axes` values (RunConfig field ->
    values, the first axis outermost) under the RunConfig and GanConfig
    fields among `settings`, and the rest of `settings`: run_experiment's."""
    gan = {k: settings[k] for k in settings.keys() & {f.name for f in fields(GanConfig)}}
    own = {k: settings[k] for k in settings.keys() & {f.name for f in fields(RunConfig)}}
    experiment = {k: v for k, v in settings.items() if k not in own and k not in gan}
    combos = itertools.product(*axes.values())
    return [RunConfig(**dict(zip(axes, c)), **own, gan=GanConfig(**gan)) for c in combos], experiment


def write_csv(path: Path, header: list[str], rows) -> Path:
    """Write `rows` under `header` (no header row when it is empty). Python
    floats are written as their repr, which round-trips exactly."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        if header:
            writer.writerow(header)
        writer.writerows(rows)
    return path


def write_experiment_csv(rows: list[ExperimentRow], path: Path) -> Path:
    runs = len(rows[0].per_run) if rows else 0
    header = ["problem", "M", "algorithm", "runs", "mean_igd", "std_igd"]
    header += [f"run_{i}" for i in range(runs)]
    header.append("best")
    table = []
    for row in rows:
        cells = [row.problem, row.objectives, row.algorithm, runs]
        cells += [f"{row.mean_igd:.5e}", f"{row.std_igd:.5e}"]
        cells += [f"{v:.5e}" for v in row.per_run]
        cells.append(int(row.best))
        table.append(cells)
    return write_csv(path, header, table)


def _run_table(args, axes: dict[str, list], settings: dict) -> tuple[list[RunConfig], list[ExperimentRow], Path]:
    """The steps `run` and `sweep` share: the configs of `axes` under
    `settings` and the flags given, their runs, and results.csv in --out."""
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "config", "out")}
    configs, experiment = build_configs(axes, {**settings, **flags})
    out = Path(args.out)
    if blocker := next((p for p in (out, *out.parents) if p.exists() and not p.is_dir()), None):
        raise ConfigurationError(f"--out {out}: {blocker} is not a directory")
    rows = run_experiment(configs, **experiment)
    out.mkdir(parents=True, exist_ok=True)
    return configs, rows, write_experiment_csv(rows, out / "results.csv")


def _exit_status(rows: list[ExperimentRow]) -> int:
    """EXIT_RUNTIME when any run of the table failed (a NaN cell), else EXIT_OK."""
    values = [v for row in rows for v in row.per_run]
    failed = sum(not math.isfinite(v) for v in values)
    if failed:
        print(f"{failed} of {len(values)} runs failed", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_run(args) -> list[ExperimentRow]:
    (cfg,), rows, path = _run_table(args, {}, {})
    print(f"wrote {path}")
    out = path.parent
    tables = {"refvecs.csv": ([], resolve_setup(cfg)[1].tolist())}
    # None when the base-seed run failed; that failure is on stderr and exits 2.
    record = rows[0].base_record
    networks = {}
    if record is not None:
        tables["igd_trace.csv"] = (["generation", "igd"], enumerate(record.igd_trace))
        tables["objectives.csv"] = ([f"f{i + 1}" for i in range(cfg.objectives)], record.final_f.tolist())
        if record.networks is not None:  # rvea-wg runs only; only the header at 0 epochs
            header = ["epoch", "critic_loss", "gen_loss", "wasserstein_estimate", "penalty"]
            tables["gan_trace.csv"] = (header, map(astuple, record.gan_trace))
            networks = record.networks
    for name, (header, table) in tables.items():  # full precision, round-trippable
        print(f"wrote {write_csv(out / name, header, table)}")
    for name, params in networks.items():
        target = out / f"{name}_params.bin"
        params.astype("<f8").tofile(target)  # per layer the row-major weights, then the bias
        print(f"wrote {target}")
    mean, runs = rows[0].mean_igd, len(rows[0].per_run)
    print(f"{cfg.problem} M={cfg.objectives} {cfg.algorithm}: mean IGD {mean:.5e} over {runs} runs")
    return rows


def cmd_sweep(args) -> list[ExperimentRow]:
    _, rows, path = _run_table(args, *sweep_settings(parse_config_file(Path(args.config))))
    print(f"wrote {path} ({len(rows)} rows)")
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; those are config errors here.
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return _exit_status(cmd_run(args) if args.command == "run" else cmd_sweep(args))
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
