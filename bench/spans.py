"""Per-layer spans for the iqcontrol benchmark, recorded from outside the package.

``Tracer.install`` replaces every public function of the layer modules with a
wrapper that records a span, in every namespace that holds it: a name that
another module re-imports with ``from .x import y`` (``cli.make_plan``,
``algorithms.measurement_histogram``, ...) is wrapped there too, or calls
through it would go untimed.  ``UnitaryOperator`` constructions, whose O(N^3)
unitarity check is a cost of its own, are spans named ``core.UnitaryOperator``.
``restore`` puts every original back.

A span is named ``<module>.<function>`` after the module that defines the
function; its parent is the innermost open span, or the run itself.  Spans are
kept in flat in-memory lists while a run is open and nowhere else, so the
output checks between runs add none, and are written out once at the end.
Counters are taken at the same boundaries from the arguments and results.
"""

from __future__ import annotations

import inspect
import json
import statistics
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

import iqcontrol
import iqcontrol.algorithms
import iqcontrol.amplification
import iqcontrol.cli
import iqcontrol.controllability
import iqcontrol.core
import iqcontrol.hydrogen
import iqcontrol.measurement

LAYERS = {
    "cli": iqcontrol.cli,
    "algorithms": iqcontrol.algorithms,
    "amplification": iqcontrol.amplification,
    "measurement": iqcontrol.measurement,
    "controllability": iqcontrol.controllability,
    "core": iqcontrol.core,
    "hydrogen": iqcontrol.hydrogen,
}


def _arg(args, kwargs, position, name, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


def _count_amplified_state(counters, args, kwargs, result):
    plan = _arg(args, kwargs, 0, "plan")
    n = plan.preparation.dim
    counters["amplification.iterations"] += plan.iterations
    counters["amplification.matvec_flops"] += 8 * plan.iterations * n * n


def _count_histogram(counters, args, kwargs, result):
    counters["measurement.shots"] += _arg(args, kwargs, 3, "shots")


def _count_ratio_checks(counters, args, kwargs, result):
    n = len(set(_arg(args, kwargs, 1, "vertex_set")))
    pairs = n * (n - 1) // 2
    counters["controllability.ratio_checks"] += pairs * (pairs - 1)


def _count_witnesses(counters, args, kwargs, result):
    counters["controllability.witnesses"] += len(result.irrational_witnesses)


def _count_report_bytes(counters, args, kwargs, result):
    counters["cli.report_bytes"] += len(result.encode())


def _count_attempt(counters, args, kwargs, result):
    if result.success is not None:
        counters["algorithms.attempts"] += 1
        counters["algorithms.successes"] += int(result.success)


def _count_time_units(counters, args, kwargs, result):
    duration = _arg(args, kwargs, 3, "duration")
    if duration is None:
        duration = _arg(args, kwargs, 1, "field").duration
    counters["hydrogen.time_units"] += duration


HOOKS = {
    "amplification.amplified_state": _count_amplified_state,
    "measurement.measurement_histogram": _count_histogram,
    "controllability.check_rational_ratios": _count_ratio_checks,
    "controllability.assess": _count_witnesses,
    "cli.render_report": _count_report_bytes,
    "algorithms.run_algorithm1": _count_attempt,
    "algorithms.run_algorithm2": _count_attempt,
    "hydrogen.propagate_interaction_picture": _count_time_units,
}


def installed_wrappers() -> list[str]:
    """Names in the package and layer namespaces that are still wrappers."""
    found = []
    for label, ns in [("iqcontrol", iqcontrol), *LAYERS.items()]:
        for attr, obj in vars(ns).items():
            if hasattr(obj, "__bench_span__"):
                found.append(f"{label}.{attr}")
    if hasattr(iqcontrol.core.UnitaryOperator.__init__, "__bench_span__"):
        found.append("core.UnitaryOperator.__init__")
    return found


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.run_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        self.run = -1            # open run, or -1 between runs
        self.run_is_cli: list[bool] = []
        self.run_latencies: list[float] = []
        self.counters: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for ns in (iqcontrol, *LAYERS.values()):
            for attr, obj in list(vars(ns).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                package, _, layer = obj.__module__.partition(".")
                if package != "iqcontrol" or layer not in LAYERS:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, f"{layer}.{obj.__name__}")
                self._patch(ns, attr, wrappers[obj])
        unitary = iqcontrol.core.UnitaryOperator
        self._patch(unitary, "__init__", self._wrap(unitary.__init__, "core.UnitaryOperator"))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, name):
        tracer = self
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        hook = HOOKS.get(name)

        def wrapper(*args, **kwargs):
            if tracer.run < 0:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(tracer.counters, args, kwargs, result)
                return result
            finally:
                tracer.ends[idx] = perf_counter()
                tracer._stack.pop()

        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        wrapper.__bench_span__ = name
        return wrapper

    def _open(self, nid: int) -> int:
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.run_ids.append(self.run)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    # -- runs -----------------------------------------------------------------

    def begin_run(self, is_cli: bool) -> None:
        self.run = len(self.run_is_cli)
        self.run_is_cli.append(is_cli)

    def end_run(self, latency: float) -> None:
        self.run = -1
        self.run_latencies.append(latency)

    # -- results --------------------------------------------------------------

    def _span_arrays(self):
        names = np.array(self.name_ids, dtype=np.int64)
        parents = np.array(self.parents, dtype=np.int64)
        runs = np.array(self.run_ids, dtype=np.int64)
        dur = np.array(self.ends, dtype=float) - np.array(self.starts, dtype=float)
        return names, parents, runs, dur

    def layer_metrics(self, traced: list[float], untraced: list[float], factors) -> dict[str, float]:
        """Per-layer metrics from the spans and the per-run latencies.

        ``factors`` rescales each traced execution's times to the reference
        speed, as the end-to-end latencies are.  Self time is a span's time
        minus its child spans'.  Times and counts are per traced execution;
        ``cli.*`` and ``plans_per_run`` are per traced CLI execution.
        ``trace.overhead`` compares the median latencies of the runs both
        halves completed, whose inputs differ but share one cost schedule.
        """
        runs = len(self.run_is_cli)
        cli_runs = sum(self.run_is_cli) or 1
        names, parents, run_ids, dur = self._span_arrays()
        scale = np.asarray(factors, dtype=float)
        dur = dur * scale[run_ids]
        own = dur.copy()
        child = parents >= 0
        np.subtract.at(own, parents[child], dur[child])
        self_s = dict(zip(self.names, np.bincount(names, weights=own, minlength=len(self.names))))
        calls = dict(zip(self.names, np.bincount(names, minlength=len(self.names))))
        cli_run = np.asarray(self.run_is_cli, dtype=bool)
        plans_in_cli = int(np.sum((names == self._name_ids["amplification.make_plan"]) & cli_run[run_ids]))
        common = min(len(traced), len(untraced))
        c = self.counters
        metrics = {f"{n}.self_ms": 1e3 * float(t) / runs for n, t in self_s.items()}
        metrics.update({
            "amplification.iterations": c["amplification.iterations"] / runs,
            "amplification.matvec_flops": c["amplification.matvec_flops"] / runs,
            "core.unitary_checks": calls["core.UnitaryOperator"] / runs,
            "measurement.shots": c["measurement.shots"] / runs,
            "measurement.ns_per_shot": (
                1e9 * self_s["measurement.measurement_histogram"] / c["measurement.shots"]
                if c["measurement.shots"] else 0.0
            ),
            "measurement.sample_collapse.calls": calls["measurement.sample_collapse"] / runs,
            "controllability.ratio_checks": c["controllability.ratio_checks"] / runs,
            "controllability.witnesses": c["controllability.witnesses"] / runs,
            "cli.report_bytes": c["cli.report_bytes"] / cli_runs,
            "algorithms.plans_per_run": plans_in_cli / cli_runs,
            "algorithms.attempts_per_success": (
                c["algorithms.attempts"] / c["algorithms.successes"] if c["algorithms.successes"] else 0.0
            ),
            "hydrogen.us_per_time_unit": (
                1e6 * self_s["hydrogen.propagate_interaction_picture"] / c["hydrogen.time_units"]
                if c["hydrogen.time_units"] else 0.0
            ),
            "trace.coverage": float(np.sum(dur[parents < 0])) / float(np.dot(self.run_latencies, scale)),
            "trace.overhead": statistics.median(traced[:common]) / statistics.median(untraced[:common]),
        })
        return {k: float(v) for k, v in metrics.items()}

    def write(self, path) -> None:
        """Write every span as [name, run, parent, start_s, end_s] rows."""
        names, parents, runs, _ = self._span_arrays()
        doc = {
            "names": self.names,
            "columns": ["name", "run", "parent", "start_s", "end_s"],
            "runs_cli": self.run_is_cli,
            "counters": dict(self.counters),
            "spans": [list(row) for row in zip(names.tolist(), runs.tolist(), parents.tolist(),
                                               self.starts.tolist(), self.ends.tolist())],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")))
