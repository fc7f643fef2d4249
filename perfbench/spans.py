"""Span tracing from outside the package.

The tracer wraps public functions (and a few private helpers) of
``tracetwist`` at every module attribute a caller looks them up through,
for example both ``tracetwist.twists.apply_generator`` and
``tracetwist.orbits.apply_generator``.  Nothing inside the package changes;
:meth:`Tracer.restore` puts the original objects back.

Every wrapped call updates a statistics row keyed by (task, span name,
parent span name): calls, inclusive time, self time (inclusive time minus
the time of wrapped children) and a per-call tally taken from the result.
Calls of functions that are not marked hot are also kept as individual
spans ``(id, name, start_ns, end_ns, parent_id, run_id)``.  Hot functions
run hundreds of thousands of times per pass, so they are aggregated into
their rows only; their time still counts as child time of their parent.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

# (span name, hot, tally).  A span name is "<module>.<attribute path>"
# inside the tracetwist package; its first part is the layer it belongs to.
# A tally turns a call's result into a number summed per statistics row.
TARGETS = (
    ("twists.apply_generator", True, None),
    ("surface.kappa", True, None),
    ("surface.level_set", True, None),
    ("surface.surface_sample", False, None),
    ("orbits.enumerate_orbit", False, lambda r: r.cardinality),
    ("orbits.density_scan", False, None),
    ("orbits.exceptional_family", False, None),
    ("orbits.N_of_epsilon", False, lambda r: r),
    ("orbits.epsilon_density_on_level", False, None),
    ("orbits._BoxIndex.add", True, None),
    ("orbits._BoxIndex.any_within", True, None),
    ("trigdioph.bounded_search", False, len),
    ("trigdioph._nearest_rational", True, None),
    ("trigdioph._confirm_rational", True, lambda r: int(bool(r))),
    ("trigdioph.is_rational_relation", True, lambda r: int(r is not None)),
    ("trigdioph._has_rational_proper_subset", True, lambda r: int(not r)),
    ("trigdioph.match_family", False, None),
    ("trigdioph.eqcos_residual", False, None),
    ("trigdioph.eval_exact", True, None),
    ("trigdioph.CycloElement.__add__", True, None),
    ("trigdioph.CycloElement.__sub__", True, None),
    ("trigdioph.CycloElement.__mul__", True, None),
    ("trigdioph.CycloElement.promote", True, None),
    ("trigdioph.CycloElement.scale", True, None),
    ("cli.main", False, None),
)

LAYERS = ("twists", "orbits", "surface", "trigdioph", "cli")

ROOT = "bench"


def _resolve(name: str):
    """(home object, attribute) of a span name, or None if it is gone."""
    module_name, _, path = name.partition(".")
    owner = sys.modules.get(f"tracetwist.{module_name}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, attr):
        return None
    return owner, attr


class Tracer:
    """Wraps the targets while installed and collects spans and statistics."""

    def __init__(self):
        self.active = False
        self.task = ""
        self.run_id = ""
        self.stats: dict[tuple[str, str, str], list[int]] = {}
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every tracetwist namespace that holds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "tracetwist" or n.startswith("tracetwist.")]
        self.missing = []
        for name, hot, tally in TARGETS:
            found = _resolve(name)
            if found is None:
                self.missing.append(name)
                continue
            owner, attr = found
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, hot, tally)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._patch(module, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, fn, name: str, hot: bool, tally):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1]
            tracer._next_id += 1
            frame = [name, 0, tracer._next_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            duration = end - start
            parent[1] += duration
            key = (tracer.task, name, parent[0])
            row = tracer.stats.get(key)
            if row is None:
                row = tracer.stats[key] = [0, 0, 0, 0]
            row[0] += 1
            row[1] += duration
            row[2] += duration - frame[1]
            if tally is not None:
                row[3] += tally(result)
            if not hot:
                tracer.spans.append((frame[2], name, start, end, parent[2], tracer.run_id))
            return result

        return traced

    # -- recording ----------------------------------------------------------

    @contextmanager
    def root(self, task: str, run_id: str):
        """Open the benchmark's root span for one timed call into the package."""
        self.task, self.run_id = task, run_id
        self._next_id += 1
        frame = [ROOT, 0, self._next_id]
        self._stack = [frame]
        self.active = True
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self.active = False
            self._stack = []
            duration = end - start
            row = self.stats.setdefault((task, ROOT, ""), [0, 0, 0, 0])
            row[0] += 1
            row[1] += duration
            row[2] += duration - frame[1]
            self.spans.append((frame[2], ROOT, start, end, None, run_id))

    def reset(self) -> None:
        self.stats = {}
        self.spans = []

    # -- queries ------------------------------------------------------------

    def select(self, name: str, parent: str | None = None, task: str | None = None):
        """Summed [calls, inclusive ns, self ns, tally] over matching rows."""
        out = [0, 0, 0, 0]
        for (t, n, p), row in self.stats.items():
            if n == name and (parent is None or p == parent) and (task is None or t == task):
                for i in range(4):
                    out[i] += row[i]
        return out

    def durations_ns(self, name: str) -> list[int]:
        return [end - start for _, n, start, end, _, _ in self.spans if n == name]

    def layer_self_ns(self) -> dict[str, int]:
        totals = {layer: 0 for layer in LAYERS}
        for (_, name, _), row in self.stats.items():
            layer = name.partition(".")[0]
            if layer in totals:
                totals[layer] += row[2]
        return totals

    def call_counts(self) -> dict[str, list[int]]:
        """Calls and tallies per row: the work counts that must repeat exactly."""
        return {
            "|".join(key): [row[0], row[3]]
            for key, row in sorted(self.stats.items())
            if key[1] != ROOT
        }
