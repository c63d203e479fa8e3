"""Outside-in tracer for the benchmark's traced runs.

Each traced name is a public function of a coinwalk module.  Entering a
:class:`Tracer` wraps the function and rebinds the wrapper in every
``coinwalk`` module namespace that holds the original, so calls made from
inside the package are seen as well as the benchmark's own.  Leaving the
context restores every binding.  A name that no longer exists is skipped
and reads as never called, so a rewrite of the package does not break the
benchmark.

A span's self time is its duration minus the durations of the traced spans
it directly contains.  Spans are aggregated per function as they close
instead of being kept one by one: a wide walk makes tens of thousands of
``step`` calls per repetition.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable

#: Traced functions, as ``<module>.<name>`` below the ``coinwalk`` package.
TRACED = (
    "disorder.sample_schedule",
    "core.build_coin_matrix",
    "core.step",
    "core.build_initial_state",
    "core.evolve_ordered",
    "disorder.evolve_disordered",
    "analysis.run_ensemble",
    "analysis.distribution_from_state",
    "analysis.variance",
    "analysis.classical_rw_distribution",
    "cli.parse_config",
    "cli.run_experiment",
)

#: Per-layer counts the workloads take from final states and output files.
WORKLOAD_COUNTS = {
    "core.subnormal_amplitudes": "count",
    "cli.bytes_written": "B",
}


@dataclass
class Totals:
    """Spans of one traced function, summed."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def count_step_sites(counts: dict, args: tuple, kwargs: dict) -> None:
    """Count the sites one ``core.step`` call works on, from its state argument.

    ``useful_sites`` are the sites that can hold amplitude after the step:
    inside the light cone |x| <= k + 1 and of the parity of k + 1, where k
    is ``steps_taken`` before the step.  ``array_bytes`` is computed from
    array sizes (one read of the input amplitudes, one write of the output),
    not measured memory traffic.
    """
    state = args[0] if args else kwargs.get("state")
    amplitudes = getattr(state, "amplitudes", None)
    taken = getattr(state, "steps_taken", None)
    if amplitudes is None or taken is None:
        return
    sites = amplitudes.shape[-1]
    counts["sites"] = counts.get("sites", 0) + sites
    counts["useful_sites"] = counts.get("useful_sites", 0) + min(taken + 2, sites)
    counts["array_bytes"] = counts.get("array_bytes", 0) + 2 * amplitudes.nbytes


class Tracer:
    """Context manager that traces :data:`TRACED` while it is entered."""

    def __init__(self, names=TRACED):
        self.totals = {name: Totals() for name in names}
        self.counts: dict[str, int] = {}
        self._open_children: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = [
            module
            for key, module in list(sys.modules.items())
            if key == "coinwalk" or key.startswith("coinwalk.")
        ]
        for name in self.totals:
            module_name, _, attr = name.rpartition(".")
            original = getattr(sys.modules.get("coinwalk." + module_name), attr, None)
            if not callable(original):
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))
        return self

    def __exit__(self, *exc_info) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        totals = self.totals[name]
        count_sites = name == "core.step"
        counts = self.counts
        open_children = self._open_children
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_sites:
                count_step_sites(counts, args, kwargs)
            open_children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = open_children.pop()
                if open_children:
                    open_children[-1] += duration
                totals.calls += 1
                totals.total_s += duration
                totals.self_s += duration - children

        return traced


def metric_units() -> dict[str, str]:
    """Name and unit of every per-layer metric, in report order."""
    units: dict[str, str] = {}
    for name in TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.us_per_call"] = "us"
    units.update(
        {
            "core.step.ns_per_site": "ns",
            "core.step.sites": "count",
            "core.step.useful_site_frac": "ratio",
            "core.step.array_bytes": "B",
        }
    )
    units.update(WORKLOAD_COUNTS)
    units["trace.overhead_frac"] = "ratio"
    return units


def layer_metrics(
    tracers: list[Tracer],
    workload_counts: dict[str, int],
    traced_walls: list[float],
    plain_walls: list[float],
) -> dict[str, float]:
    """Per-layer metrics of one traced run: medians over its traced repetitions.

    Call and site counts are the same in every repetition; the caller checks
    that.  ``us_per_call`` is a span's whole duration per call, children
    included; ``self_s`` excludes the children.
    """
    median = statistics.median
    out: dict[str, float] = {}
    first = tracers[0]
    for name in TRACED:
        calls = first.totals[name].calls
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = median([t.totals[name].self_s for t in tracers])
        out[f"{name}.us_per_call"] = (
            median([t.totals[name].total_s / calls * 1e6 for t in tracers]) if calls else 0.0
        )
    sites = first.counts.get("sites", 0)
    out["core.step.ns_per_site"] = (
        median([t.totals["core.step"].self_s / sites * 1e9 for t in tracers]) if sites else 0.0
    )
    out["core.step.sites"] = sites
    useful = first.counts.get("useful_sites", 0)
    out["core.step.useful_site_frac"] = useful / sites if sites else 0.0
    out["core.step.array_bytes"] = first.counts.get("array_bytes", 0)
    for name in WORKLOAD_COUNTS:
        out[name] = workload_counts.get(name, 0)
    out["trace.overhead_frac"] = median(traced_walls) / median(plain_walls) - 1.0
    return out
