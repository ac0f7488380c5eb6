"""Outside-in span tracer for the anisograph layers.

The tracer replaces functions where their callers look them up (``cli``,
``geometry`` and ``solver`` bind their callees with ``from ... import``), so
nothing inside the package changes.  Each call of a wrapped function records
a span: name, start, end, parent span and thread.  The span stack is
thread-local, and every span below a ``cli.run_scenario`` span carries that
span's id as its group, so the spans of one sweep variant can be told apart.

``summarize`` turns the spans into the per-layer metrics of the benchmark.
A wrapped name that the package no longer has is skipped, and a span that
never fires is reported as absent rather than as an error.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional

INTEGRAND_METHODS = ("eval_F", "grad_F", "hess_F", "eval_f", "grad_f", "hess_f")

# (cli attribute, span name): the calls ``cli`` makes into the other layers.
CLI_CALLEES = (
    ("load_scenario", "cli.load_scenario"),
    ("run_scenario", "cli.run_scenario"),
    ("build_mesh", "domain.build_mesh"),
    ("evaluate_data_spec", "boundary_data.evaluate_data_spec"),
    ("solve", "solver.solve"),
    ("compute_geometry", "geometry.compute_geometry"),
)

VERIFY_PROBES = {
    "verify.functional_inequalities_s": "verify.functional_inequality_diagnostics",
    "verify.gradient_estimate_s": "verify.gradient_estimate_probe",
    "verify.area_growth_s": "verify.area_growth_check",
    "verify.first_variation_s": "verify.check_first_variation",
}


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    group: Optional[int]
    thread: int
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans of wrapped calls and restores the originals on ``uninstall``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, on_return: Optional[Callable] = None) -> Callable:
        """Return ``fn`` wrapped so each call records a span called ``name``.

        ``on_return(span, args, result)`` may attach counts to ``span.info``.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            sid = next(self._ids)
            group = sid if name == "cli.run_scenario" else (parent.group if parent else None)
            span = Span(sid, name, parent.id if parent else None, group, threading.get_ident())
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if on_return is not None:
                on_return(span, args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, on_return: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a traced wrapper; skip names the package lacks."""
        original = _lookup(owner, attr)
        if original is None:
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_return))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every patched name holds its original object again."""
        return all(_lookup(owner, attr) is original for owner, attr, original in self._patches)


def _lookup(owner, attr: str):
    # a class attribute is read from __dict__ so methods stay unbound functions
    return owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)


# -- hooks that read counts off a call's arguments and result -----------------


def _count_points(span: Span, args: tuple, result) -> None:
    shape = getattr(args[1], "shape", ())
    span.info["points"] = math.prod(shape[:-1]) if len(shape) > 1 else 1


def _count_nnz(span: Span, args: tuple, result) -> None:
    span.info["nnz"] = int(getattr(args[0], "nnz", 0))


def _count_vertices(span: Span, args: tuple, result) -> None:
    span.info["vertices"] = int(result.num_vertices)


def _count_fits(span: Span, args: tuple, result) -> None:
    span.info["fit_ok"] = int(result.fit_ok.sum())
    span.info["vertices"] = int(result.fit_ok.size)


def _count_newton(span: Span, args: tuple, result) -> None:
    report = result[1]
    trace = report.energy_trace
    span.info["iterations"] = int(report.iterations)
    span.info["stalled"] = sum(1 for a, b in zip(trace, trace[1:]) if a == b)


_HOOKS = {
    "domain.build_mesh": _count_vertices,
    "geometry.compute_geometry": _count_fits,
    "solver.solve": _count_newton,
}


def install(tracer: Tracer) -> None:
    """Wrap the calls between the package's modules, from the outside."""
    from anisograph import cli, geometry, solver, verify
    from anisograph.integrand import EllipticIntegrand

    for attr, name in CLI_CALLEES:
        tracer.patch(cli, attr, name, _HOOKS.get(name))
    tracer.patch(geometry, "vertex_stencils", "domain.vertex_stencils")
    tracer.patch(solver, "spsolve", "solver.spsolve", _count_nnz)
    for method in INTEGRAND_METHODS:
        tracer.patch(EllipticIntegrand, method, f"integrand.{method}", _count_points)
    for name in getattr(verify, "__all__", ()):
        if inspect.isfunction(getattr(verify, name, None)):
            tracer.patch(verify, name, f"verify.{name}")


def stencil_cache_size() -> int:
    """Meshes held by ``domain.vertex_stencils``'s cache, or 0 without one."""
    from anisograph import domain

    cached = getattr(domain, "vertex_stencils", None)
    info = getattr(cached, "cache_info", None)
    return int(info().currsize) if info is not None else 0


# -- per-layer metrics ---------------------------------------------------------

# Spans the per-layer metrics are read from; one that never fires is absent.
METRIC_SPANS = (
    "cli.main",
    "cli.run_scenario",
    "domain.build_mesh",
    "domain.vertex_stencils",
    "boundary_data.evaluate_data_spec",
    "solver.solve",
    "solver.spsolve",
    "integrand.eval_f",
    "geometry.compute_geometry",
    *VERIFY_PROBES.values(),
)


def summarize(spans: list[Span], workers: Optional[int]) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced run, and the metric spans that never fired.

    ``workers`` is the sweep's thread count, or None outside a sweep.  It is
    the denominator of ``cli.sweep_parallel_eff``, which is reported only on
    a sweep: elsewhere there is no parallel work to measure.
    """
    by_id = {s.id: s for s in spans}
    children: dict[Optional[int], list[Span]] = defaultdict(list)
    named: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
        named[s.name].append(s)

    def self_time(s: Span) -> float:
        return s.seconds - sum(c.seconds for c in children[s.id])

    def ancestors(s: Span):
        while s.parent is not None:
            s = by_id[s.parent]
            yield s

    def total(name: str) -> float:
        return sum(s.seconds for s in named[name])

    def info(name: str, key: str) -> int:
        return sum(s.info.get(key, 0) for s in named[name])

    integrand = [s for s in spans if s.name.startswith("integrand.")]
    outer_integrand = [
        s for s in integrand
        if s.parent is None or not by_id[s.parent].name.startswith("integrand.")
    ]
    outer_verify = [
        s for s in spans
        if s.name.startswith("verify.") and not any(a.name.startswith("verify.") for a in ancestors(s))
    ]
    solves = named["solver.solve"]
    energy_evals = sum(
        1 for s in named["integrand.eval_f"] if any(a.name == "solver.solve" for a in ancestors(s))
    )
    newton_iters = info("solver.solve", "iterations")
    mains = named["cli.main"]
    main_s = total("cli.main")
    cli_children = sum(
        c.seconds for m in mains for c in children[m.id] if c.name != "cli.load_scenario"
    )
    geom_vertices = info("geometry.compute_geometry", "vertices")
    line_search_evals = energy_evals - len(solves)

    metrics = {
        "geometry.compute_s": total("geometry.compute_geometry"),
        "geometry.self_s": sum(self_time(s) for s in named["geometry.compute_geometry"]),
        "geometry.fit_ok_frac": (
            info("geometry.compute_geometry", "fit_ok") / geom_vertices if geom_vertices else 0.0
        ),
        "domain.build_mesh_s": total("domain.build_mesh"),
        "domain.vertex_stencils_s": total("domain.vertex_stencils"),
        "domain.stencil_cache_size": stencil_cache_size(),
        "domain.vertices": info("domain.build_mesh", "vertices"),
        "solver.solve_s": total("solver.solve"),
        "solver.self_s": sum(self_time(s) for s in solves),
        "solver.spsolve_s": total("solver.spsolve"),
        "solver.spsolve_calls": len(named["solver.spsolve"]),
        "solver.hess_nnz": info("solver.spsolve", "nnz"),
        "solver.newton_iters": newton_iters,
        "solver.stalled_iters": info("solver.solve", "stalled"),
        "solver.energy_evals": energy_evals,
        "solver.ls_accept_ratio": newton_iters / line_search_evals if line_search_evals > 0 else 0.0,
        "integrand.s": sum(self_time(s) for s in integrand),
        "integrand.calls": len(outer_integrand),
        "integrand.points": sum(s.info.get("points", 0) for s in outer_integrand),
        "verify.total_s": sum(s.seconds for s in outer_verify),
        **{metric: total(span) for metric, span in VERIFY_PROBES.items()},
        "boundary_data.evaluate_s": total("boundary_data.evaluate_data_spec"),
        "cli.main_s": main_s,
        "cli.self_s": main_s - cli_children,
    }
    if workers is not None:
        metrics["cli.sweep_parallel_eff"] = (
            total("cli.run_scenario") / (workers * main_s) if main_s > 0 else 0.0
        )
    absent = [span for span in METRIC_SPANS if not named[span]]
    return metrics, absent
