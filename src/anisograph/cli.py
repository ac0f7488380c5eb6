"""Batch front-end: scenario configs in, solved graphs and check reports out.

Usage:
    aniso solve  --config scenario.json --out outdir
    aniso verify --config scenario.json --out outdir
    aniso sweep  --config scenario.json --axis theta --values 0.5,1.0,1.5 --out outdir

Scenario files are plain JSON: an integrand descriptor, a domain descriptor,
a Dirichlet-data spec, solver settings, and a list of checks with optional
parameter overrides.  Reports are JSON lines plus tidy CSV; all numbers are
written with 17 significant digits and no timestamps, so repeated runs of
the same scenario and seed are byte-identical (timestamps go to a sidecar
log).  Exit codes: 0 all pass/fail checks passed; 1 a check failed; 2 a
malformed config or an ``--out`` that cannot be created, both found before
any solve, or an output file that cannot be written; 3 solver
non-convergence (a failed linear solve included).  A sweep returns its
worst row's.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import inspect
import json
import math
import os
import sys
import time
import warnings
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import verify
from .boundary_data import check_finite, evaluate_data_spec, parse_data_spec
from .domain import HalfDomain, Mesh, build_mesh
from .geometry import GraphGeometry, compute_geometry
from .integrand import EllipticIntegrand
from .schema import (ConfigError, _any, _instance, _integer, _list, _named, _point, _positive,
                     _real, _section, _variant)
from .solver import GraphFunction, SolveConfig, SolveReport, solve
from .verify import CheckReport

__all__ = [
    "ConfigError",
    "Scenario",
    "load_scenario",
    "scenario_from_dict",
    "run_scenario",
    "run",
    "sweep",
    "bundled_scenario_path",
    "main",
]

# sweep axis -> the scenario section and the keys it sets (a 1-d domain ignores its width)
_SWEEP_AXES = {"theta": ("integrand", ("theta",)), "resolution": ("domain", ("resolution",)),
               "domain_size": ("domain", ("depth", "width"))}


@dataclass(frozen=True)
class Scenario:
    """A parsed scenario.  Its ``dirichlet`` is resolved against the integrand it was loaded
    with, and each check holds its probe's keyword arguments: the keys the scenario sets and
    the scenario's own ``seed``, integrand and solver settings where the probe takes them.
    To vary one, edit the JSON and parse again, not ``replace``."""

    integrand: EllipticIntegrand
    domain: HalfDomain
    name: str = "scenario"
    dirichlet: dict = field(default_factory=lambda: {"type": "affine"})  # zero data
    solver: SolveConfig = SolveConfig()
    checks: tuple = ()
    seed: int = 0


# -- the scenario's sections (the integrand's and the Dirichlet data's are in their modules) --

_DOMAIN = {"n": _integer, "depth": _real, "width": _real, "resolution": _real}
_SOLVER = {"tol_residual": _real, "max_iter": _integer}
_SCENARIO = {
    "name": partial(_instance, of=str),
    "seed": partial(_real, low=0.0, integer=True),
    "integrand": _any,  # parsed once the domain is, which fixes its dim
    "domain": lambda value, n: _section(value, _DOMAIN, "domain",
                                        required=("depth", "resolution"),
                                        make=lambda n=2, **keys: HalfDomain(n, **keys)),
    "solver": lambda value, n: _section(value, _SOLVER, "solver", make=SolveConfig),
    "dirichlet": _any,  # parsed once the domain and the integrand are
    "checks": partial(_list, item=_any),
}


def scenario_from_dict(raw: dict, solve_only: bool = False) -> Scenario:
    """Parse and validate a whole scenario; a malformed one is a ConfigError, raised before
    any mesh is built.  Each check name appears once, the mesh needs two cells per axis,
    three where the checks (unless ``solve_only``) compute the geometry, and the Dirichlet
    data must stay finite on it."""
    sc = _section(raw, _SCENARIO, "scenario", required=("integrand", "domain"), make=Scenario)
    n = sc.domain.n
    sc = replace(sc, integrand=EllipticIntegrand.from_descriptor(sc.integrand, dim=n + 1))
    checks = tuple(_parse_check(item, sc) for item in sc.checks)
    names = [check["name"] for check in checks]
    for i, name in enumerate(names):  # reports, sweep columns and gates key by name
        if name in names[:i]:
            raise ConfigError(f"check {name!r}: named more than once; a name may appear once")
    with _named("domain:"):
        sc.domain.divisions(2 if solve_only or not _needs_geometry(checks) else 3)
    dirichlet = parse_data_spec(sc.dirichlet, n, sc.integrand.flat_slope)
    with _named("dirichlet:"):
        check_finite(dirichlet, sc.domain.half())
    return replace(sc, checks=checks, dirichlet=dirichlet)


def _read_json(path) -> dict:
    """Parse a scenario file; an unreadable file, or one that is not JSON text (malformed,
    not in the locale's encoding, or nested too deeply for the parser), is a ConfigError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc


def load_scenario(path, solve_only: bool = False) -> Scenario:
    return scenario_from_dict(_read_json(path), solve_only)


def bundled_scenario_path(name: str) -> Path:
    """Path of a scenario shipped with the package (e.g. 'capillary_flat')."""
    here = Path(__file__).parent / "scenarios" / f"{name}.json"
    if not here.exists():
        raise ConfigError(f"no bundled scenario named {name!r}")
    return here


@dataclass
class RunResult:
    solution: GraphFunction
    solve_report: SolveReport
    geometry: Optional[GraphGeometry]
    reports: list = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        """3 if the solve did not converge, 1 if a check failed, else 0."""
        if not self.solve_report.converged:
            return 3
        return 1 if any(r.status == "fail" for r in self.reports) else 0


# -- checks: a check's scenario keys are the parameters of its ``verify`` probe that
# ``_KEYS`` names.  A parser takes a scenario value and the graph dimension n, and
# returns the value its probe gets or raises ValueError -----------------------------

_RADII = partial(_list, item=_positive)
_KEYS = {"x0": _point, "radii": _RADII, "r": _positive, "x0_list": partial(_list, item=_point),
         "r_list": _RADII, "beta": partial(_real, low=0.0), "sizes": _RADII,
         "bump_height": _real, "resolution": _positive}
# probe parameter -> the ``Scenario`` field it is given; every other parameter takes the key
# the scenario sets, or the probe's own default
_DERIVED = {"seed": "seed", "integrand": "integrand", "config": "solver"}
# check name -> its ``verify`` probe, looked up per run, so a wrapper set on ``verify`` runs
_CHECKS = {
    "boundary_tangency": "check_boundary_tangency", "wall_condition": "check_wall_condition",
    "interior_minimality": "check_interior_minimality",
    "wall_principal_direction": "check_wall_principal_direction",
    "first_variation": "check_first_variation",
    "area_element_identity": "check_area_element_identity",
    "subharmonicity": "check_subharmonicity", "area_growth": "area_growth_check",
    "mean_value": "mean_value_probe",
    "functional_inequalities": "functional_inequality_diagnostics",
    "gradient_estimate": "gradient_estimate_probe", "liouville": "liouville_probe",
}


# check name -> its probe's own parameters, read once: a wrapper set on ``verify`` later
# keeps the probe's keys and geometry whatever its own signature
_PARAMS = {name: inspect.signature(getattr(verify, probe)).parameters
           for name, probe in _CHECKS.items()}


def _reads_geometry(name: str) -> bool:
    """Whether a check's probe takes the geometry: its first parameter is ``geom``."""
    return next(iter(_PARAMS[name])) == "geom"


def _parse_check(item, sc: Scenario) -> dict:
    """A scenario check item (a name, or an object with one) as its name and the keyword
    arguments of its probe: the keys it sets and the scenario fields of ``_DERIVED``.  A
    Liouville check's boxes are checked here, before any mesh is built."""
    item = {"name": item} if isinstance(item, str) else item
    name, _ = _variant(item, "name", _CHECKS, "check")
    params = _PARAMS[name]
    keys = {k: _KEYS[k] for k in params if k in _KEYS}
    check = _section(item, {"name": _any, **keys}, f"check {name!r}", sc.domain.n)
    check.update((p, getattr(sc, field)) for p, field in _DERIVED.items() if p in params)
    if name == "liouville":
        args = {**{k: p.default for k, p in params.items()}, **check}
        with _named(f"check {name!r}:"):
            verify._liouville_boxes(args["integrand"], args["sizes"], args["bump_height"],
                                    args["resolution"])
    return check


def _needs_geometry(checks) -> bool:
    """Whether running the checks computes the geometry (it does for no checks)."""
    return not checks or any(_reads_geometry(c["name"]) for c in checks)


def _run_check(check: dict, geom: Optional[GraphGeometry]) -> CheckReport:
    probe = getattr(verify, _CHECKS[check["name"]])
    params = {k: v for k, v in check.items() if k != "name"}
    return probe(geom, **params) if _reads_geometry(check["name"]) else probe(**params)


def run_scenario(scenario: Scenario, solve_only: bool = False) -> RunResult:
    """Solve a scenario and, unless ``solve_only``, run its checks in memory."""
    mesh = build_mesh(scenario.domain)
    data = evaluate_data_spec(scenario.dirichlet, mesh.vertices)
    solution, solve_report = solve(scenario.integrand, mesh, data, scenario.solver)
    result = RunResult(solution, solve_report, None)
    if solve_only or not solve_report.converged:
        return result
    if _needs_geometry(scenario.checks):
        result.geometry = compute_geometry(scenario.integrand, solution)
    for check in scenario.checks:
        result.reports.append(_run_check(check, result.geometry))
    return result


# -- output writers -------------------------------------------------------------


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _write_tables(tables: list, rows: int, prefix: Callable) -> None:
    """CSVs whose rows share their leading text, written in step a block of rows at a time.

    ``tables`` holds each file's path, header and float columns, and
    ``prefix(lo, hi)`` the shared text of rows ``lo`` to ``hi - 1``.  A row is
    its prefix, then its columns, each '%.17g' (the same C formatting as
    ``_fmt``, NaN and -0.0 included), and ends in CRLF, as csv.writer's rows
    do.  Each block is written as one string, and no whole-column list or
    whole-file string is built.
    """
    block = 1024
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open(path, "w", newline="")) for path, _, _ in tables]
        for fh, (_, header, _) in zip(files, tables):
            fh.write(",".join(header) + "\r\n")
        formats = ["%s" + ",%.17g" * len(columns) + "\r\n" for _, _, columns in tables]
        for lo in range(0, rows, block):
            hi = min(lo + block, rows)
            head = prefix(lo, hi)
            for fh, row, (_, _, columns) in zip(files, formats, tables):
                values = (c[lo:hi].tolist() for c in columns)
                fh.write("".join(map(row.__mod__, zip(head, *values))))


def _vertex_prefix(mesh: Mesh, u: np.ndarray) -> Callable:
    """``prefix`` of the vertex tables: each vertex's id, coordinates and u.  Every
    coordinate is a grid line's, so each line is formatted once."""
    counts = tuple(d + 1 for d in mesh.divisions)
    lines = [np.array(["%.17g" % x for x in line.tolist()], dtype=object)
             for line in mesh.grid_lines()]
    row = "%d" + ",%s" * mesh.n + ",%.17g"

    def prefix(lo: int, hi: int) -> list:
        at = np.unravel_index(np.arange(lo, hi), counts)
        coords = (line[i].tolist() for line, i in zip(lines, at))
        return list(map(row.__mod__, zip(range(lo, hi), *coords, u[lo:hi].tolist())))
    return prefix


def _write_csvs(out_dir: Path, result: RunResult) -> None:
    """``solution.csv``; with a geometry also ``geometry.csv``, whose rows start with the
    same id, coordinates and u and are written in step with it, and ``geometry_wall.csv``."""
    mesh, geom = result.solution.mesh, result.geometry
    header = ["id", *(f"x{i + 1}" for i in range(mesh.n)), "u"]
    tables = [(out_dir / "solution.csv", header, [])]
    if geom is not None:
        tables.append((out_dir / "geometry.csv", header + ["W", "W_f", "H_F", "h_sq"],
                       [geom.vertex_W, geom.vertex_Wf, geom.mean_curvature_aniso, geom.h_sq]))
    _write_tables(tables, mesh.num_vertices, _vertex_prefix(mesh, result.solution.values))
    if geom is not None:
        _write_tables([(out_dir / "geometry_wall.csv", ["facet", "nuF_e1", "muF_e1", "measure"],
                        [geom.wall_nuF_e1, geom.wall_muF_e1, geom.wall_measure])],
                      len(mesh.wall_cells), range)


def _write_reports(out_dir: Path, result: RunResult) -> None:
    with open(out_dir / "report.jsonl", "w") as fh:
        for rep in result.reports:
            fh.write(json.dumps(rep.to_json_dict(), sort_keys=True) + "\n")
    prefixes = [f"{rep.check_name},{rep.status}" for rep in result.reports]
    residuals = np.array([rep.worst_residual for rep in result.reports], dtype=float)
    _write_tables([(out_dir / "summary.csv", ["check", "status", "residual"], [residuals])],
                  len(prefixes), lambda lo, hi: prefixes[lo:hi])


def run(scenario_path, out_dir, solve_only: bool = False) -> int:
    """Solve a scenario and write its outputs; unless ``solve_only``, also its
    geometry and check reports.  Returns the exit code."""
    t0 = time.perf_counter()
    try:
        scenario = load_scenario(scenario_path, solve_only)
        out = _output_dir(out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_scenario(scenario, solve_only)
    log = [f"warning: {w.message}" for w in caught]
    try:
        _write_csvs(out, result)
        with open(out / "solve_report.json", "w") as fh:
            fh.write(json.dumps(asdict(result.solve_report), sort_keys=True, indent=1) + "\n")
        if not solve_only:
            _write_reports(out, result)
        if result.solve_report.converged:
            log.append(f"scenario={scenario.name} elapsed={time.perf_counter() - t0:.3f}s "
                       f"iters={result.solve_report.iterations}")
        else:
            failure = result.solve_report.failure
            suffix = f": {failure}" if failure else ""
            log.append(f"non-convergence after {result.solve_report.iterations} iterations"
                       f"{suffix}")
            print(f"solver failed to converge{suffix}", file=sys.stderr)
        _append_log(out / "run.log", log)
    except OSError as exc:
        return _unwritable(exc)
    return result.exit_code


def _unwritable(exc: OSError) -> int:
    """Report an output file that cannot be written; its exit code is a config error's."""
    print(f"cannot write output: {exc}", file=sys.stderr)
    return 2


def _output_dir(path) -> Path:
    """The output directory, created if missing; one that cannot be is a ConfigError."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from exc
    return Path(path)


def _append_log(path: Path, lines: list) -> None:
    """Append the lines to a run log, each stamped with the local time."""
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S")
    with open(path, "a") as fh:
        fh.writelines(f"{stamp} {line}\n" for line in lines)


# -- parameter sweeps -------------------------------------------------------------


def _apply_axis(raw, axis: str, value: float) -> dict:
    section, keys = _SWEEP_AXES[axis]
    out = json.loads(json.dumps(raw))
    if not isinstance(out, dict) or not isinstance(out.get(section), dict):
        raise ConfigError(f"a {axis} sweep needs a scenario object with a {section!r} object")
    out[section].update(dict.fromkeys(keys, value))
    return out


def _max_workers(n_jobs: int) -> int:
    cap = os.environ.get("ANISO_THREADS")
    if cap is None:
        return min(n_jobs, os.cpu_count() or 1, 4)
    try:
        return min(n_jobs, max(1, int(cap)))
    except ValueError as exc:
        raise ConfigError("ANISO_THREADS must be an integer") from exc


def sweep(scenario_path, axis: str, values, out_dir) -> int:
    """Run the base scenario once per axis value; one CSV row per value."""
    import concurrent.futures  # only a sweep needs it, and it imports logging

    try:
        if not values:
            raise ConfigError("empty sweep value list")
        if axis not in _SWEEP_AXES:
            raise ConfigError(f"unknown sweep axis {axis!r}; use one of {', '.join(_SWEEP_AXES)}")
        raw = _read_json(scenario_path)
        variants = [scenario_from_dict(_apply_axis(raw, axis, v)) for v in values]
        workers = _max_workers(len(variants))
        out = _output_dir(out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    results: list[Optional[RunResult]] = [None] * len(variants)
    # catch_warnings swaps the process-wide filter list and warning hook, so it is
    # entered once here: entered in each worker, one thread's exit would unhook the others
    with warnings.catch_warnings(record=True) as caught, \
            concurrent.futures.ThreadPoolExecutor(workers) as pool:
        warnings.simplefilter("always")
        futures = {pool.submit(run_scenario, sc): i for i, sc in enumerate(variants)}
        for fut in concurrent.futures.as_completed(futures):
            results[futures[fut]] = fut.result()

    check_names = sorted({rep.check_name for res in results for rep in res.reports})
    header = [axis, "h", "converged", "iterations", "free_bc_residual"]
    for name in check_names:
        header += [f"{name}_residual", f"{name}_status"]
        if axis == "resolution":
            header.append(f"{name}_rate")
    header += ["gradient_c1", "gradient_c2"]
    rows = []
    prev_res: dict[str, float] = {}  # each check's residual in the previous row, if reported
    for value, res in zip(values, results):
        row: dict = {
            axis: _fmt(value),
            "h": _fmt(res.solution.mesh.h),
            "converged": res.solve_report.converged,
            "iterations": res.solve_report.iterations,
            "free_bc_residual": _fmt(res.solve_report.free_bc_residual),
        }
        by_name = {rep.check_name: rep for rep in res.reports}
        for name in check_names:
            rep = by_name.get(name)
            prev = prev_res.pop(name, 0.0)
            if rep is None:  # DictWriter leaves absent cells empty
                continue
            row[f"{name}_residual"] = _fmt(rep.worst_residual)
            row[f"{name}_status"] = rep.status
            if axis == "resolution":
                if prev > 0.0 and rep.worst_residual > 0.0:
                    row[f"{name}_rate"] = _fmt(math.log2(prev / rep.worst_residual))
                prev_res[name] = rep.worst_residual
        grad = by_name.get("gradient_estimate")
        if grad and "c1" in grad.metadata:
            row["gradient_c1"] = _fmt(grad.metadata["c1"])
            row["gradient_c2"] = _fmt(grad.metadata["c2"])
        rows.append(row)
    # the workers' warnings interleave in no fixed order, so they are logged sorted
    log = sorted(f"warning: {w.message}" for w in caught)
    log += [f"{axis}={_fmt(value)} exit={res.exit_code}" for value, res in zip(values, results)]
    try:
        with open(out / "sweep.csv", "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=header)
            w.writeheader()
            w.writerows(rows)
        _append_log(out / "run.log", log)
    except OSError as exc:
        return _unwritable(exc)
    return max(res.exit_code for res in results)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="aniso", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    for command, text in (("solve", "solve a scenario and dump the solution"),
                          ("verify", "solve a scenario and run its checks"),
                          ("sweep", "re-run a scenario along one parameter axis")):
        cmd = sub.add_parser(command, help=text)
        cmd.add_argument("--config", required=True)
        if command == "sweep":
            cmd.add_argument("--axis", required=True)
            cmd.add_argument("--values", required=True, help="comma-separated numbers")
        cmd.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    if args.command == "sweep":
        try:
            values = [float(v) for v in args.values.split(",") if v.strip()]
        except ValueError:
            print("config error: sweep values must be numbers", file=sys.stderr)
            return 2
        return sweep(args.config, args.axis, values, args.out)
    return run(args.config, args.out, solve_only=args.command == "solve")


if __name__ == "__main__":
    sys.exit(main())
