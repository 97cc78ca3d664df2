"""Spans around calls into crosscap's public functions, recorded from outside.

A traced run replaces each public stage function, looked up by name, with a
wrapper that records a span (name, start, end, parent, case id).  The
wrapper is installed in every crosscap module that binds the function, so
calls made inside the library (``verify_mesh`` calling
``euler_characteristic``) nest under their caller.  A call made while a
span of the same stage is already open adds no span: the parity machinery
calls itself hundreds of thousands of times inside ``audit`` and only the
outermost call is a stage boundary.

Spans stay in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable, Optional

# stage name -> (module, public functions).  A function that a later change
# moves or renames is reported as not measured instead of failing the run.
STAGES: dict[str, tuple[str, tuple[str, ...]]] = {
    "mobius.build": ("mobius", ("build_mobius",)),
    "mobius.euler": ("mobius", ("euler_characteristic",)),
    "mobius.boundary_cycles": ("mobius", ("boundary_cycles",)),
    "mobius.orientable": ("mobius", ("is_orientable",)),
    "mobius.max_edge": ("mobius", ("max_edge_length",)),
    "mobius.winding": ("mobius", ("boundary_winding_angles",)),
    "mobius.intersect": ("mobius", ("self_intersection_points",)),
    "mobius.core_distance": ("mobius", ("distance_to_core_circle",)),
    "mobius.verify": ("mobius", ("verify_mesh",)),
    "mobius.export": ("mobius", ("export_mesh",)),
    "mobius.parse": ("mobius", ("parse_mesh_text",)),
    "mobius.rebuild": ("mobius", ("rebuild_for_file",)),
    "knots.parse": ("knots", ("parse_knot", "format_knot")),
    "invariants.report": ("invariants", ("invariant_report", "gap_table")),
    "words.parity": ("words", (
        "parse_word", "power", "relator", "insert_relator",
        "algebraic_length_parity", "cancellable_positions", "cancel_pair",
        "free_reduce", "random_word", "square_conjugate_obstruction",
    )),
    "words.strand_counts": ("words", ("transitive_strand_counts",)),
    "homology.twist": ("homology", ("minimal_twist_contradiction",)),
    "homology.bound": ("homology", ("embedded_component_bound",)),
    "audit.run": ("audit", ("run_audit",)),
}

# Counts taken from return values, at the boundary where the work happens.
OBSERVERS: dict[str, Callable] = {
    "mobius.build_mobius": lambda mesh: [len(mesh.vertices), len(mesh.triangles)],
    "mobius.boundary_cycles": len,
    "mobius.self_intersection_points": len,
    "mobius.export_mesh": len,
    "homology.minimal_twist_contradiction": int,
    "audit.run_audit": lambda results: sum(1 for r in results if not r.ok),
}


class Tracer:
    """In-memory span recorder.

    ``spans`` holds ``[name, start, end, parent, case]`` lists, where
    ``parent`` is the index of the enclosing span or -1.  ``calls`` counts
    every call of a wrapped function by its qualified name, nested or not.
    ``results`` keeps, per qualified name, the values ``observe`` extracted
    from return values (counts measured where the work happens).
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.calls: dict[str, int] = {}
        self.results: dict[str, list] = {}
        self.case: object = None
        self.not_measured: list[str] = []
        self._open: list[int] = []
        self._active: dict[str, int] = {}  # stage -> open spans of that stage
        self._installed: list[tuple[object, str, Callable]] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.case])
        index = len(self.spans) - 1
        self._open.append(index)
        self._active[name] = self._active.get(name, 0) + 1
        return index

    def end(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        self._open.pop()
        self._active[span[0]] -= 1

    def _wrapper(self, stage: str, qualname: str, fn: Callable,
                 observe: Optional[Callable]) -> Callable:
        tracer = self
        calls, active = self.calls, self._active
        calls.setdefault(qualname, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[qualname] += 1
            if active.get(stage):
                result = fn(*args, **kwargs)
            else:
                index = tracer.begin(stage)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.end(index)
            if observe is not None:
                try:
                    seen = observe(result)
                except Exception:  # a changed return type must not fail the call
                    seen = None
                tracer.results.setdefault(qualname, []).append(seen)
            return result

        return traced

    def install(self, package: str = "crosscap") -> None:
        """Wrap every function in STAGES wherever ``package`` binds it."""
        self.not_measured = []
        homes = {}
        for module_name in {m for m, _ in STAGES.values()}:
            try:
                homes[module_name] = importlib.import_module(f"{package}.{module_name}")
            except ImportError:
                pass
        modules = [m for n, m in list(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        for stage, (module_name, functions) in STAGES.items():
            for func in functions:
                qualname = f"{module_name}.{func}"
                original = getattr(homes.get(module_name), func, None)
                if not callable(original):
                    self.not_measured.append(qualname)
                    continue
                wrapped = self._wrapper(stage, qualname, original,
                                        OBSERVERS.get(qualname))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)
                            self._installed.append((module, attr, original))

    @property
    def installed(self) -> bool:
        return bool(self._installed)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()


def stage_missing(stage: str, not_measured) -> bool:
    """True when every function of ``stage`` was missing at install time."""
    module_name, functions = STAGES[stage]
    return all(f"{module_name}.{f}" in not_measured for f in functions)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time covered by its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def sum_by_case(spans: list[list]) -> dict[object, dict[str, float]]:
    """Per case id, the self time of each stage summed over its spans, and
    the inclusive time of each stage under the key ``<stage>@total``."""
    out: dict[object, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        bucket = out.setdefault(span[4], {})
        bucket[span[0]] = bucket.get(span[0], 0.0) + own
        total = span[0] + "@total"
        bucket[total] = bucket.get(total, 0.0) + span[2] - span[1]
    return out
