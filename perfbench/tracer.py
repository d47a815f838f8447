"""Span tracing around the calls into frcodes' public functions.

Every module-level binding of a traced function is replaced, not only
the one in the defining module: sweep imports reconstruction_degree by
name, cli calls through `analysis.` and `constructions.`, and the
package namespace re-exports everything. Spans stay in memory as
(layer, start, end, parent) and are reduced to per-layer counts and
times once a pass ends. Nothing inside the program changes.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

#: Layer name -> (module, function names) whose calls are one layer.
LAYERS = {
    "cli.main": ("frcodes.cli", ("main",)),
    "constructions.build": ("frcodes.constructions", ("build_prg", "build_ring", "build_t_code")),
    "constructions.io": ("frcodes.constructions", ("import_code", "export_code")),
    "core.make_code": ("frcodes.core", ("make_code",)),
    "core.profile": ("frcodes.core", ("profile", "check_identities")),
    "analysis.min_coverage": ("frcodes.analysis", ("min_coverage",)),
    "analysis.reconstruction_degree": ("frcodes.analysis", ("reconstruction_degree",)),
    "analysis.coverage_profile": ("frcodes.analysis", ("coverage_profile",)),
    "analysis.goodness_structural": ("frcodes.analysis", ("goodness_structural",)),
    "repair.plan_repair": ("frcodes.repair", ("plan_repair",)),
    "repair.plan_repair_greedy": ("frcodes.repair", ("plan_repair_greedy",)),
    "sweep.sweep_ring": ("frcodes.sweep", ("sweep_ring",)),
    "sweep.conjecture_harness": ("frcodes.sweep", ("conjecture_harness",)),
    "sweep.audit": ("frcodes.sweep", ("audit_table", "load_bundled_table", "read_rows_csv")),
}

#: Per-layer metrics reported in a traced run: (name, layer, statistic, unit).
#: "calls" counts every span, "total" sums the outermost spans of the
#: layer, "self" subtracts the time of the spans each span caused.
LAYER_METRICS = (
    ("cli.main.calls", "cli.main", "calls", "count"),
    ("cli.self_s", "cli.main", "self", "s"),
    ("constructions.build.calls", "constructions.build", "calls", "count"),
    ("constructions.build.total_s", "constructions.build", "total", "s"),
    ("constructions.io.calls", "constructions.io", "calls", "count"),
    ("constructions.io.total_s", "constructions.io", "total", "s"),
    ("core.make_code.calls", "core.make_code", "calls", "count"),
    ("core.make_code.total_s", "core.make_code", "total", "s"),
    ("core.profile.calls", "core.profile", "calls", "count"),
    ("core.profile.total_s", "core.profile", "total", "s"),
    ("analysis.min_coverage.calls", "analysis.min_coverage", "calls", "count"),
    ("analysis.min_coverage.self_s", "analysis.min_coverage", "self", "s"),
    ("analysis.reconstruction_degree.calls", "analysis.reconstruction_degree", "calls", "count"),
    ("analysis.reconstruction_degree.total_s", "analysis.reconstruction_degree", "total", "s"),
    ("analysis.coverage_profile.calls", "analysis.coverage_profile", "calls", "count"),
    ("analysis.coverage_profile.total_s", "analysis.coverage_profile", "total", "s"),
    ("analysis.goodness_structural.calls", "analysis.goodness_structural", "calls", "count"),
    ("analysis.goodness_structural.total_s", "analysis.goodness_structural", "total", "s"),
    ("repair.plan_repair.calls", "repair.plan_repair", "calls", "count"),
    ("repair.plan_repair.total_s", "repair.plan_repair", "total", "s"),
    ("repair.plan_repair_greedy.calls", "repair.plan_repair_greedy", "calls", "count"),
    ("repair.plan_repair_greedy.total_s", "repair.plan_repair_greedy", "total", "s"),
    ("sweep.sweep_ring.calls", "sweep.sweep_ring", "calls", "count"),
    ("sweep.sweep_ring.self_s", "sweep.sweep_ring", "self", "s"),
    ("sweep.conjecture_harness.calls", "sweep.conjecture_harness", "calls", "count"),
    ("sweep.conjecture_harness.self_s", "sweep.conjecture_harness", "self", "s"),
    ("sweep.audit.calls", "sweep.audit", "calls", "count"),
    ("sweep.audit.total_s", "sweep.audit", "total", "s"),
)

LAYER_UNITS = {name: unit for name, _layer, _stat, unit in LAYER_METRICS}
LAYER_UNITS["analysis.probes_per_degree"] = "ratio"
LAYER_UNITS["analysis.budget_exceeded"] = "count"


class Tracer:
    """Records one span per call into a traced function while installed."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.budget_errors: list[BaseException] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._budget_error: type = Exception

    def _wrap(self, layer: str, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(self.layers)
            self.layers.append(layer)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0.0)
            self._stack.append(index)
            self.starts.append(time.perf_counter())
            try:
                return func(*args, **kwargs)
            except BaseException as exc:
                if isinstance(exc, self._budget_error) and not any(
                    exc is seen for seen in self.budget_errors
                ):
                    self.budget_errors.append(exc)
                raise
            finally:
                self.ends[index] = time.perf_counter()
                self._stack.pop()

        return traced

    def install(self) -> None:
        """Replace every binding of each traced function in every loaded
        frcodes module."""
        self._budget_error = sys.modules["frcodes.errors"].BudgetExceeded
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "frcodes" or name.startswith("frcodes."))]
        for layer, (module_name, names) in LAYERS.items():
            for name in names:
                func = getattr(sys.modules[module_name], name)
                wrapper = self._wrap(layer, func)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is func:
                            self._saved.append((module, attr, func))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, func in reversed(self._saved):
            setattr(module, attr, func)
        self._saved.clear()

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded so far."""
        count = len(self.layers)
        durations = [self.ends[i] - self.starts[i] for i in range(count)]
        child_time = [0.0] * count
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += durations[i]
        calls: Counter = Counter(self.layers)
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        probes = 0
        for i, layer in enumerate(self.layers):
            self_s[layer] += durations[i] - child_time[i]
            ancestors = set()
            parent = self.parents[i]
            while parent >= 0:
                ancestors.add(self.layers[parent])
                parent = self.parents[parent]
            if layer not in ancestors:
                total_s[layer] += durations[i]
            if layer == "analysis.min_coverage" and "analysis.reconstruction_degree" in ancestors:
                probes += 1
        stats = {"calls": calls, "self": self_s, "total": total_s}
        out = {name: stats[stat][layer] for name, layer, stat, _unit in LAYER_METRICS}
        degrees = calls["analysis.reconstruction_degree"]
        out["analysis.probes_per_degree"] = probes / degrees if degrees else 0.0
        out["analysis.budget_exceeded"] = len(self.budget_errors)
        return out
