"""Layer spans for the benchmark's traced runs.

The tracer replaces the public functions of each rveawg module at every place
a module looks them up (``rveawg.wgan.forward``, ``rveawg.harness.igd``, ...)
with a wrapper that times the call. Nothing under ``src/`` is edited, and
``uninstall`` puts the original functions back.

Spans are folded into per-label totals as they close, so memory stays flat
however many calls a run makes:

- ``calls``: every call;
- ``s``: busy time, counted on calls not nested in a call of the same label;
- ``self_s``: duration minus the time covered by traced child calls;
- counters from the call's arguments and result (matmul flop, IGD pairs,
  evaluated rows, selection outcomes, GAN health).

A layer is the module prefix of a label; ``layer_s`` is the time covered by
calls not nested in another call of the same layer.
"""
from __future__ import annotations

import dataclasses
import importlib
import json
import os
import sys
from pathlib import Path
from time import perf_counter


def _layer_flops(net, batch: int) -> list[int]:
    return [2 * batch * w.shape[0] * w.shape[1] for w in net.weights]


def _forward_flop(args, result):
    return {"flop": sum(_layer_flops(args[0], len(args[1])))}


def _backward_flop(args, result):
    f = _layer_flops(args[0], len(args[2]))
    return {"flop": sum(f) + sum(f[1:])}


def _input_gradient_flop(args, result):
    return {"flop": 2 * sum(_layer_flops(args[0], len(args[1])))}


def _penalty_flop(args, result):
    # Forward, reverse sweep to the input gradient, tangent sweep, then the
    # reverse sweeps through the tangent and primal chains (hidden layers).
    f = _layer_flops(args[0], len(args[1]))
    return {"flop": 2 * sum(f) + 3 * sum(f[:-1]) + 2 * sum(f[1:-1])}


def _igd_pairs(args, result):
    return {"pairs": len(args[0]) * len(args[1])}


def _rows(args, result):
    return {"rows": len(args[0])}


def _selection(args, result):
    # The harness merges parents first and then one offspring per reference
    # vector, so the last len(refs) rows of the union are the offspring.
    union, refs = len(args[0]), len(args[1])
    kept = [int(i) for i in result.selected_indices]
    return {
        "survivors": len(kept),
        "offspring_survivors": sum(i >= union - refs for i in kept),
        "empty_partitions": refs - len(kept),
    }


def _gan_health(args, result):
    if not result.gan_trace:
        return None
    last = result.gan_trace[-1]
    return {"gan_runs": 1, "wasserstein_last": last.wasserstein, "penalty_last": last.penalty}


# (label, module, function, counters); two functions may share a label.
TARGETS = [
    ("neuronet.forward", "rveawg.neuronet", "forward", _forward_flop),
    ("neuronet.backward", "rveawg.neuronet", "backward", _backward_flop),
    ("neuronet.input_gradient", "rveawg.neuronet", "input_gradient", _input_gradient_flop),
    ("neuronet.gradient_penalty_backward", "rveawg.neuronet", "gradient_penalty_backward", _penalty_flop),
    ("neuronet.adam_step", "rveawg.neuronet", "adam_step", None),
    ("wgan.pretrain_discriminator", "rveawg.wgan", "pretrain_discriminator", None),
    ("wgan.train", "rveawg.wgan", "train", None),
    ("wgan.sample_offspring", "rveawg.wgan", "sample_offspring", None),
    ("selection.elitism_select", "rveawg.selection", "elitism_select", _selection),
    ("refvec.adapt", "rveawg.refvec", "adapt", None),
    ("metrics.igd", "rveawg.metrics", "igd", _igd_pairs),
    ("baselines.fast_nondominated_sort", "rveawg.baselines", "fast_nondominated_sort", None),
    ("baselines.crowding_distance", "rveawg.baselines", "crowding_distance", None),
    ("baselines.environmental_select", "rveawg.baselines", "environmental_select", None),
    ("baselines.nsga2_generation", "rveawg.baselines", "nsga2_generation", None),
    ("variation.sbx_crossover", "rveawg.variation", "sbx_crossover", None),
    ("variation.mutate", "rveawg.variation", "mutate_population", None),
    ("variation.mutate", "rveawg.variation", "mutate_matrix", None),
    ("core.evaluate", "rveawg.core", "evaluate", _rows),
    ("harness.run_single", "rveawg.harness", "run_single", _gan_health),
    ("harness.run_experiment", "rveawg.harness", "run_experiment", None),
]
# Methods patched on their class, counted as one label.
METHODS = [("core.population", "rveawg.core", "Population", ("decision_matrix", "objective_matrix"))]


def rveawg_modules() -> list:
    importlib.import_module("rveawg")
    importlib.import_module("rveawg.cli")
    return [m for name, m in list(sys.modules.items()) if name == "rveawg" or name.startswith("rveawg.")]


def replace_everywhere(original, replacement) -> list[tuple]:
    """Rebind every rveawg module global that is `original`; returns what to restore."""
    saved = []
    for module in rveawg_modules():
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)
                saved.append((module, name, original))
    return saved


def restore(saved: list[tuple]) -> None:
    for owner, name, original in reversed(saved):
        setattr(owner, name, original)


class Profile:
    """Per-label totals of closed spans; merges by addition."""

    def __init__(self, data: dict | None = None):
        data = data or {}
        self.labels: dict[str, dict] = data.get("labels", {})
        self.layer_s: dict[str, float] = data.get("layer_s", {})
        self.root_s: float = data.get("root_s", 0.0)
        self.violations: int = data.get("violations", 0)

    def label(self, name: str) -> dict:
        entry = self.labels.get(name)
        if entry is None:
            entry = self.labels[name] = {"calls": 0, "s": 0.0, "self_s": 0.0, "counts": {}}
        return entry

    def merge(self, other: "Profile") -> None:
        for name, entry in other.labels.items():
            mine = self.label(name)
            for key in ("calls", "s", "self_s"):
                mine[key] += entry[key]
            for key, value in entry["counts"].items():
                mine["counts"][key] = mine["counts"].get(key, 0) + value
        for layer, value in other.layer_s.items():
            self.layer_s[layer] = self.layer_s.get(layer, 0.0) + value
        self.root_s += other.root_s
        self.violations += other.violations

    def to_json(self) -> dict:
        return {"labels": self.labels, "layer_s": self.layer_s, "root_s": self.root_s, "violations": self.violations}

    def transparent(self) -> bool:
        """No span's children outlast it, and all self time fits in the root spans."""
        total_self = sum(entry["self_s"] for entry in self.labels.values())
        return self.violations == 0 and total_self <= self.root_s * (1 + 1e-9) + 1e-9


class Tracer:
    """Installs the span wrappers and folds closed spans into a Profile.

    With a `sink` directory, each process (forked pool workers included)
    writes its own totals to ``<sink>/<pid>.json`` whenever a root span
    closes, because pool workers exit without running exit handlers.
    """

    def __init__(self, sink: Path | None = None):
        self.profile = Profile()
        self.sink = sink
        self._stack: list[list] = []  # open spans: [label, layer, child_s]
        self._saved: list[tuple] = []
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # A forked pool worker starts with no open spans and no totals of its own.
        self.profile = Profile()
        self._stack.clear()

    def install(self) -> None:
        wrappers = {}
        for label, module, name, counters in TARGETS:
            fn = getattr(importlib.import_module(module), name, None)
            if fn is not None and fn not in wrappers:
                wrappers[fn] = self._wrap(label, fn, counters)
        for fn, wrapper in wrappers.items():
            self._saved += replace_everywhere(fn, wrapper)
        for label, module, cls_name, names in METHODS:
            cls = getattr(importlib.import_module(module), cls_name, None)
            for name in names:
                fn = getattr(cls, name, None)
                if fn is not None:
                    setattr(cls, name, self._wrap(label, fn, None))
                    self._saved.append((cls, name, fn))
        make_problem = importlib.import_module("rveawg.problems").make_problem
        self._saved += replace_everywhere(make_problem, self._traced_problems(make_problem))

    def uninstall(self) -> None:
        restore(self._saved)
        self._saved = []

    def _traced_problems(self, make_problem):
        def traced_make_problem(*args, **kwargs):
            problem = make_problem(*args, **kwargs)
            evaluate = self._wrap("problems.evaluate", problem.evaluate, None)
            return dataclasses.replace(problem, evaluate=evaluate)

        return traced_make_problem

    def _wrap(self, label: str, fn, counters):
        layer = label.split(".", 1)[0]
        open_spans = self._stack

        def traced(*args, **kwargs):
            outer_label = all(span[0] != label for span in open_spans)
            outer_layer = all(span[1] != layer for span in open_spans)
            span = [label, layer, 0.0]
            open_spans.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(span, perf_counter() - start, outer_label, outer_layer)
                raise
            duration = perf_counter() - start
            if counters is not None:
                self._count(label, counters(args, result), outer_layer)
            self._close(span, duration, outer_label, outer_layer)
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, span, duration, outer_label, outer_layer) -> None:
        open_spans = self._stack
        open_spans.pop()
        label, layer, child_s = span
        entry = self.profile.label(label)
        entry["calls"] += 1
        entry["self_s"] += duration - child_s
        if child_s > duration + 1e-9:
            self.profile.violations += 1
        if outer_label:
            entry["s"] += duration
        if outer_layer:
            self.profile.layer_s[layer] = self.profile.layer_s.get(layer, 0.0) + duration
        if open_spans:
            open_spans[-1][2] += duration
            return
        self.profile.root_s += duration
        if self.sink is not None:
            self.flush()

    def _count(self, label: str, values: dict | None, outer_layer: bool) -> None:
        if not values:
            return
        counts = self.profile.label(label)["counts"]
        for key, value in values.items():
            # An outer neuronet call's flop already covers the calls it makes.
            if key == "flop" and not outer_layer:
                continue
            counts[key] = counts.get(key, 0) + value

    def flush(self) -> None:
        target = self.sink / f"{os.getpid()}.json"
        tmp = target.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.profile.to_json()))
        os.replace(tmp, target)


def load_profiles(sink: Path) -> Profile:
    total = Profile()
    for path in sorted(sink.glob("*.json")):
        total.merge(Profile(json.loads(path.read_text())))
    return total


def _per_call_us(seconds: float, calls: int) -> float:
    return 1e6 * seconds / calls if calls else 0.0


def layer_metrics(profile: Profile, units: int, jobs: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, each per workload unit: {name: (value, unit)}."""

    def entry(label):
        return profile.labels.get(label, {"calls": 0, "s": 0.0, "self_s": 0.0, "counts": {}})

    def count(label, key):
        return entry(label)["counts"].get(key, 0)

    out: dict[str, tuple[float, str]] = {}
    for name in ("forward", "backward", "input_gradient", "gradient_penalty_backward", "adam_step"):
        e = entry(f"neuronet.{name}")
        out[f"neuronet.{name}.calls"] = (e["calls"] / units, "count")
        out[f"neuronet.{name}.s"] = (e["s"] / units, "s")
        out[f"neuronet.{name}.us_per_call"] = (_per_call_us(e["s"], e["calls"]), "us")
    flop = sum(count(f"neuronet.{n}", "flop") for n in ("forward", "backward", "input_gradient", "gradient_penalty_backward"))
    neuronet_s = profile.layer_s.get("neuronet", 0.0)
    out["neuronet.flop"] = (flop / units, "flop")
    out["neuronet.gflop_per_s"] = (flop / neuronet_s / 1e9 if neuronet_s else 0.0, "GFLOP/s")

    out["wgan.pretrain_discriminator.s"] = (entry("wgan.pretrain_discriminator")["s"] / units, "s")
    out["wgan.train.s"] = (entry("wgan.train")["s"] / units, "s")
    out["wgan.train.self_s"] = (entry("wgan.train")["self_s"] / units, "s")
    out["wgan.sample_offspring.s"] = (entry("wgan.sample_offspring")["s"] / units, "s")
    gan_runs = count("harness.run_single", "gan_runs")
    for key in ("wasserstein_last", "penalty_last"):
        value = count("harness.run_single", key) / gan_runs if gan_runs else 0.0
        out[f"wgan.{key}"] = (value, "score")

    sel = entry("selection.elitism_select")
    survivors = count("selection.elitism_select", "survivors")
    out["selection.elitism_select.calls"] = (sel["calls"] / units, "count")
    out["selection.elitism_select.s"] = (sel["s"] / units, "s")
    offspring = count("selection.elitism_select", "offspring_survivors")
    out["selection.offspring_survival"] = (offspring / survivors if survivors else 0.0, "ratio")
    out["selection.empty_partitions"] = (count("selection.elitism_select", "empty_partitions") / units, "count")
    out["refvec.adapt.s"] = (entry("refvec.adapt")["s"] / units, "s")

    out["metrics.igd.calls"] = (entry("metrics.igd")["calls"] / units, "count")
    out["metrics.igd.s"] = (entry("metrics.igd")["s"] / units, "s")
    out["metrics.igd.pairs"] = (count("metrics.igd", "pairs") / units, "count")

    out["baselines.fast_nondominated_sort.calls"] = (entry("baselines.fast_nondominated_sort")["calls"] / units, "count")
    out["baselines.fast_nondominated_sort.s"] = (entry("baselines.fast_nondominated_sort")["s"] / units, "s")
    out["baselines.crowding_distance.s"] = (entry("baselines.crowding_distance")["s"] / units, "s")
    out["baselines.environmental_select.s"] = (entry("baselines.environmental_select")["s"] / units, "s")
    out["baselines.nsga2_generation.self_s"] = (entry("baselines.nsga2_generation")["self_s"] / units, "s")

    out["variation.sbx_crossover.calls"] = (entry("variation.sbx_crossover")["calls"] / units, "count")
    out["variation.sbx_crossover.s"] = (entry("variation.sbx_crossover")["s"] / units, "s")
    out["variation.mutate.s"] = (entry("variation.mutate")["s"] / units, "s")

    out["core.evaluate.calls"] = (entry("core.evaluate")["calls"] / units, "count")
    out["core.evaluate.rows"] = (count("core.evaluate", "rows") / units, "count")
    out["core.evaluate.s"] = (entry("core.evaluate")["s"] / units, "s")
    out["problems.evaluate.s"] = (entry("problems.evaluate")["s"] / units, "s")
    out["core.population.matrix_calls"] = (entry("core.population")["calls"] / units, "count")

    run_single = entry("harness.run_single")
    run_experiment = entry("harness.run_experiment")
    out["harness.run_single.self_s"] = (run_single["self_s"] / units, "s")
    out["harness.run_experiment.s"] = (run_experiment["s"] / units, "s")
    pool_capacity = jobs * run_experiment["s"]
    out["harness.pool_busy_share"] = (run_single["s"] / pool_capacity if pool_capacity else 0.0, "ratio")
    return out
