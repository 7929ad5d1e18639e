"""Outside-in spans around the public functions of each coxfact module.

install() rebinds each traced function, in every coxfact module namespace
that holds it, to a wrapper that records one span per call; uninstall()
puts the originals back.  Spans stay in memory until the caller writes them
out.  Element-level functions (compose, conjugate, flat_of, move_tuple,
poly_* and the like) run millions of times per report and are left alone:
wrapping them would measure the wrapper.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

# module -> {function: span name within the module}
TRACED = {
    "groups": {"build_group": "build_group"},
    "absolute": {"length_table": "length_table", "nc_elements": "nc_elements"},
    "flats": {"intersection_lattice": "intersection_lattice", "cz_report": "cz_report"},
    "factorizations": {
        "enumerate_red": "enumerate_red",
        "enumerate_block": "enumerate_block",
        "primitive_factorizations": "primitive_factorizations",
        "primitive_count": "primitive_count",
        "kreweras_numbers": "kreweras",
        "kreweras_table": "kreweras",
        "kreweras_polynomial_sum": "kreweras",
        "passport_census": "passport_census",
    },
    "hurwitz": {
        "hurwitz_orbit": "hurwitz_orbit",
        "primitive_type_transitivity": "primitive_type_transitivity",
    },
    "reports": {"group_report": "group_report"},
    "monodromy": {
        "critical_points": "critical_points",
        "critical_values": "critical_values",
        "coxeter_loop": "coxeter_loop",
        "rlbl": "rlbl",
        "lift_path": "lift_path",
        "explore_fiber": "explore_fiber",
        "equivariance_check": "equivariance_check",
    },
    "cli": {"entrypoint": "entrypoint"},
}

# Sizes read off a traced call's result, kept on its span.
SIZES = {
    "flats.intersection_lattice": lambda lat: (id(lat), len(lat.flats), len(lat.orbits)),
    "hurwitz.hurwitz_orbit": len,
    "monodromy.explore_fiber": lambda res: res["size"],
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    op: int
    error: str | None = None
    size: object = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    op: int = 0
    _stack: list = field(default_factory=list)
    _restore: list = field(default_factory=list)

    def wrap(self, name, fn):
        stack, size_of = self._stack, SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans  # looked up per call: the caller swaps lists per pass
            index = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.op)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if size_of is not None:
                span.size = size_of(result)
            return result

        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "coxfact" or key.startswith("coxfact."))
        ]
        for module_name, functions in TRACED.items():
            home = importlib.import_module(f"coxfact.{module_name}")
            for fn_name, span_name in functions.items():
                original = getattr(home, fn_name)
                wrapper = self.wrap(f"{module_name}.{span_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0  # outermost calls only, so recursion is not counted twice
    self_s: float = 0.0   # duration minus the time covered by child spans
    errors: Counter = field(default_factory=Counter)


def aggregate(spans) -> dict[str, LayerStats]:
    child_cover = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_cover[span.parent] += span.seconds
    stats: dict[str, LayerStats] = {}
    for i, span in enumerate(spans):
        st = stats.setdefault(span.name, LayerStats())
        st.calls += 1
        st.self_s += span.seconds - child_cover[i]
        if span.error:
            st.errors[span.error] += 1
        if not _under(spans, span, span.name):
            st.total_s += span.seconds
    return stats


def _under(spans, span, name) -> bool:
    """Whether some ancestor of span is named name."""
    p = span.parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


LAYER_METRICS = (
    "groups.build_group_s",
    "absolute.length_table_s",
    "absolute.nc_elements_s",
    "flats.intersection_lattice_s",
    "flats.cz_report_s",
    "flats.flat_count",
    "flats.orbit_count",
    "factorizations.enumerate_red_s",
    "factorizations.enumerate_block_s",
    "factorizations.primitive_count_s",
    "factorizations.kreweras_s",
    "factorizations.passport_census_s",
    "factorizations.primitive_factorizations_s",
    "factorizations.primitive_factorizations_calls",
    "hurwitz.hurwitz_orbit_s",
    "hurwitz.hurwitz_orbit_calls",
    "hurwitz.orbit_tuples",
    "hurwitz.primitive_type_transitivity_s",
    "reports.group_report_self_s",
    "monodromy.rlbl_self_s",
    "monodromy.rlbl_calls",
    "monodromy.rlbl_failed",
    "monodromy.coxeter_loop_calls",
    "monodromy.critical_points_s",
    "monodromy.critical_points_calls",
    "monodromy.critical_values_s",
    "monodromy.lift_path_self_s",
    "monodromy.lift_path_calls",
    "monodromy.explore_fiber_self_s",
    "monodromy.fiber_members",
    "monodromy.lift_yield",
    "monodromy.equivariance_check_self_s",
    "cli.entrypoint_self_s",
)


def layer_metrics(spans) -> dict[str, float]:
    """Every LAYER_METRICS value for one traced pass (0 where a layer is idle).

    A metric ending in _self_s is self time; one ending in _s is the time of
    the outermost calls including their children; _calls counts spans.
    """
    stats = aggregate(spans)
    out = {}
    for name in LAYER_METRICS:
        for suffix, attr in (("_self_s", "self_s"), ("_s", "total_s"), ("_calls", "calls")):
            if name.endswith(suffix):
                st = stats.get(name[: -len(suffix)])
                out[name] = getattr(st, attr) if st else 0
                break
    lattices = {
        (s.op, s.size[0]): s.size[1:]
        for s in spans if s.name == "flats.intersection_lattice" and s.size
    }
    out["flats.flat_count"] = sum(f for f, _ in lattices.values())
    out["flats.orbit_count"] = sum(o for _, o in lattices.values())
    out["hurwitz.orbit_tuples"] = sum(
        s.size for s in spans if s.name == "hurwitz.hurwitz_orbit" and s.size
    )
    rlbl = stats.get("monodromy.rlbl")
    out["monodromy.rlbl_failed"] = sum(rlbl.errors.values()) if rlbl else 0
    fibers = [s.size for s in spans if s.name == "monodromy.explore_fiber" and s.size]
    fiber_lifts = sum(
        1 for s in spans
        if s.name == "monodromy.lift_path" and _under(spans, s, "monodromy.explore_fiber")
    )
    out["monodromy.fiber_members"] = sum(fibers)
    out["monodromy.lift_yield"] = (
        (sum(fibers) - len(fibers)) / fiber_lifts if fiber_lifts else 0.0
    )
    return {name: out[name] for name in LAYER_METRICS}
