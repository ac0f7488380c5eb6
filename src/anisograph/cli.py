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
log).  Exit codes: 0 all pass/fail checks passed, 2 malformed config,
3 solver non-convergence (a failed linear solve included), 1 check failures;
a sweep returns its worst row's.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import inspect
import json
import math
import os
import sys
import time
import warnings
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from . import verify
from .boundary_data import evaluate_data_spec
from .domain import HalfDomain, Mesh, build_mesh
from .geometry import GraphGeometry, compute_geometry
from .integrand import EllipticIntegrand
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

_SWEEP_AXES = ("theta", "resolution", "domain_size")


class ConfigError(ValueError):
    """Malformed scenario or sweep configuration."""


@dataclass(frozen=True)
class Scenario:
    name: str
    integrand: EllipticIntegrand
    domain: HalfDomain
    dirichlet: dict
    solver: SolveConfig
    checks: tuple = ()
    seed: int = 0


def scenario_from_dict(raw: dict, solve_only: bool = False) -> Scenario:
    """Build and validate a Scenario from parsed JSON.  The mesh needs two cells per
    axis, three where the checks (unless ``solve_only``) compute the geometry."""
    try:
        if not isinstance(raw, dict):
            raise ValueError("scenario must be a JSON object")
        integrand = EllipticIntegrand.from_descriptor(raw["integrand"])
        dom_raw = dict(raw["domain"])
        domain = HalfDomain(
            n=int(dom_raw.get("n", 2)),
            depth=float(dom_raw["depth"]),
            width=float(dom_raw["width"]) if "width" in dom_raw else None,
            resolution=float(dom_raw["resolution"]),
        )
        if integrand.dim != domain.n + 1:
            raise ValueError(
                f"integrand dim {integrand.dim} does not match domain n+1={domain.n + 1}"
            )
        dirichlet = raw.get("dirichlet", {"type": "affine", "a": [0.0] * domain.n, "b": 0.0})
        solver_raw = dict(raw.get("solver", {}))
        solver = SolveConfig(
            tol_residual=float(solver_raw.get("tol_residual", 1e-10)),
            max_iter=int(solver_raw.get("max_iter", 50)),
            ls_shrink=float(solver_raw.get("ls_shrink", 0.5)),
            ls_decrease=float(solver_raw.get("ls_decrease", 1e-4)),
            linear_solver_tol=float(solver_raw.get("linear_solver_tol", 1e-8)),
        )
        checks = tuple(_parse_check(item, domain.n) for item in raw.get("checks", []))
        domain.divisions(2 if solve_only or not _needs_geometry(checks) else 3)
        return Scenario(
            name=str(raw.get("name", "scenario")),
            integrand=integrand,
            domain=domain,
            dirichlet=dirichlet,
            solver=solver,
            checks=checks,
            seed=int(raw.get("seed", 0)),
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _read_json(path) -> dict:
    """Parse a scenario file; an unreadable or malformed file is a ConfigError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario: {exc}") from exc
    except json.JSONDecodeError as exc:
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
    scenario: Scenario
    mesh: Mesh
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


# -- the check table: a parser takes a scenario value and the graph dimension n,
# and returns the value its probe gets or raises ValueError -----------------------


def _real(value, n=None, low=-math.inf, strict=False, integer=False) -> float:
    if (isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value)
            or value < low or (strict and value == low) or (integer and value != int(value))):
        bound = f" {'>' if strict else '>='} {low:g}" if low > -math.inf else ""
        raise ValueError(f"must be a finite {'integer' if integer else 'number'}{bound}, "
                         f"got {value!r}")
    return int(value) if integer else float(value)


_positive = partial(_real, low=0.0, strict=True)


def _list(value, n, item=_real, length=None) -> list:
    if not isinstance(value, list) or length not in (None, len(value)):
        raise ValueError(f"must be a list{f' of {length}' if length else ''}, got {value!r}")
    return [item(v, n) for v in value]


def _point(value, n: int) -> list[float]:
    return _list(value, n, length=n)


def _liouville_sizes(check: dict) -> None:
    """Increasing ``sizes``, at least two, the smallest meshed with two cells per axis."""
    defaults = inspect.signature(verify.liouville_probe).parameters
    sizes = check.get("sizes", defaults["r_sizes"].default)
    resolution = check.get("resolution", defaults["resolution"].default)
    try:
        if sorted(sizes) != list(sizes) or len(sizes) < 2:
            raise ValueError(f"'sizes' must be increasing, with at least two entries: {sizes}")
        HalfDomain(2, depth=sizes[0], width=sizes[0], resolution=resolution).divisions()
    except ValueError as exc:
        raise ValueError(f"check 'liouville': {exc}") from exc


class _Check(NamedTuple):
    """A check's ``verify`` probe (looked up per run, so a wrapper set on ``verify`` runs), the
    parsers of its scenario keys, the probe parameters ``_scenario_default`` fills (others
    keep the probe's defaults), renamed keys, a validator, and whether it reads the geometry."""

    probe: str
    keys: dict = {}
    derived: tuple = ()
    rename: dict = {}
    validate: Optional[Callable[[dict], None]] = None
    geometry: bool = True


_COEF = {"coef": _positive}
_RADII = partial(_list, item=_positive)
_CHECKS = {
    "boundary_tangency": _Check("check_boundary_tangency", _COEF),
    "wall_condition": _Check("check_wall_condition", _COEF),
    "interior_minimality": _Check("check_interior_minimality", _COEF),
    "wall_principal_direction": _Check("check_wall_principal_direction", _COEF),
    "first_variation": _Check("check_first_variation", {**_COEF, "margin": _positive}),
    "area_element_identity": _Check("check_area_element_identity"),
    "subharmonicity": _Check("check_subharmonicity", _COEF),
    "area_growth": _Check("area_growth_check",
                          {"x0": _point, "radii": _RADII, "slope_tol": _positive},
                          ("x0", "r_list"), {"radii": "r_list"}),
    "mean_value": _Check("mean_value_probe", {"x0": _point, "r": _positive}, ("x0", "r")),
    "functional_inequalities": _Check("functional_inequality_diagnostics",
                                      {"bank_size": partial(_real, low=1.0, integer=True)},
                                      ("seed",)),
    "gradient_estimate": _Check("gradient_estimate_probe",
                                {"x0_list": partial(_list, item=_point), "r_list": _RADII},
                                ("x0_list", "r_list")),
    "liouville": _Check(
        "liouville_probe",
        {"beta": partial(_real, low=0.0), "sizes": _RADII, "slope": partial(_list, length=2),
         "bump_height": _real, "bump_radius": _positive, "resolution": _positive,
         "tol_flat": _real},
        ("integrand", "config", "slope"), {"sizes": "r_sizes"},
        validate=_liouville_sizes, geometry=False),
}


def _parse_check(item, n: int) -> dict:
    """A scenario check item with its values parsed; a null value means the default."""
    item = {"name": item} if isinstance(item, str) else item
    if not isinstance(item, dict) or item.get("name") not in _CHECKS:
        raise ValueError(f"unknown check {item!r}: give a check name or an object with one")
    name, spec = item["name"], _CHECKS[item["name"]]
    check = {"name": name}
    for key, value in item.items():
        if key == "name" or value is None:
            continue
        try:
            if key not in spec.keys:
                raise ValueError(f"is not a key of this check ({', '.join(spec.keys) or 'none'})")
            check[key] = spec.keys[key](value, n)
        except ValueError as exc:
            raise ValueError(f"check {name!r}: {key!r} {exc}") from exc
    if spec.validate is not None:
        spec.validate(check)
    return check


def _scenario_default(param: str, sc: Scenario):
    """Default of a probe parameter that the scenario determines."""
    if param == "slope":  # the integrand's wall-compatible flat profile
        return [sc.integrand.flat_slope(), 0.0]
    dom = sc.domain
    point = [0.25 * dom.depth, 0.0][: dom.n]
    scale = min(dom.extents())
    return {"x0": point, "x0_list": [point, [0.0] * dom.n], "r": 0.5 * scale,
            "r_list": [f * scale for f in (0.15, 0.25, 0.35, 0.5)],
            "seed": sc.seed, "integrand": sc.integrand, "config": sc.solver}[param]


def _needs_geometry(checks) -> bool:
    """Whether running the checks computes the geometry (it does for no checks)."""
    return not checks or any(_CHECKS[c["name"]].geometry for c in checks)


def _run_check(check: dict, sc: Scenario, geom: Optional[GraphGeometry]) -> CheckReport:
    spec = _CHECKS[check["name"]]
    params = {spec.rename.get(k, k): v for k, v in check.items() if k != "name"}
    params.update((p, _scenario_default(p, sc)) for p in spec.derived if p not in params)
    probe = getattr(verify, spec.probe)
    return probe(geom, **params) if spec.geometry else probe(**params)


def _resolve_dirichlet(spec: dict, scenario: Scenario) -> dict:
    """Expand 'flat_profile' terms into the integrand's wall-compatible affine."""
    if not isinstance(spec, dict):
        return spec
    if spec.get("type") == "flat_profile":
        a = [0.0] * scenario.domain.n
        a[0] = scenario.integrand.flat_slope()
        return {"type": "affine", "a": a, "b": float(spec.get("b", 0.0))}
    if spec.get("type") == "sum":
        return {"type": "sum",
                "terms": [_resolve_dirichlet(t, scenario) for t in spec.get("terms", [])]}
    return spec


def _dirichlet_data(scenario: Scenario, mesh: Mesh):
    """The scenario's Dirichlet data at the mesh vertices; a bad spec is a ConfigError."""
    try:
        return evaluate_data_spec(_resolve_dirichlet(scenario.dirichlet, scenario),
                                  mesh.vertices)
    except ValueError as exc:
        raise ConfigError(f"dirichlet: {exc}") from exc


def run_scenario(scenario: Scenario, solve_only: bool = False) -> RunResult:
    """Solve a scenario and, unless ``solve_only``, run its checks in memory."""
    mesh = build_mesh(scenario.domain)
    data = _dirichlet_data(scenario, mesh)
    solution, solve_report = solve(scenario.integrand, mesh, data, scenario.solver)
    result = RunResult(scenario, mesh, solution, solve_report, None)
    if solve_only or not solve_report.converged:
        return result
    if _needs_geometry(scenario.checks):
        result.geometry = compute_geometry(scenario.integrand, solution)
    for check in scenario.checks:
        result.reports.append(_run_check(check, scenario, result.geometry))
    return result


# -- output writers -------------------------------------------------------------


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _write_table(path, header: list, ids, columns: list) -> None:
    """CSV of an integer id column then float array columns, one row per id.

    Rows end in CRLF, as csv.writer's do, and '%.17g' is the same C
    formatting as ``_fmt`` (NaN and -0.0 included).  Rows are formatted a
    block at a time, so no whole-column list or whole-file string is built.
    """
    row = "%d" + ",%.17g" * len(columns) + "\r\n"
    block = 1024
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, len(ids), block):
            cols = (c[lo:lo + block].tolist() for c in columns)
            fh.writelines(map(row.__mod__, zip(ids[lo:lo + block], *cols)))


def _write_solution_csv(path, result: RunResult) -> None:
    mesh = result.mesh
    coords = [f"x{i + 1}" for i in range(mesh.n)]
    _write_table(path, ["id", *coords, "u"], range(mesh.num_vertices),
                 [*mesh.vertices.T, result.solution.values])


def _write_geometry_csv(path, wall_path, result: RunResult) -> None:
    geom = result.geometry
    if geom is None:
        return
    mesh = result.mesh
    coords = [f"x{i + 1}" for i in range(mesh.n)]
    _write_table(path, ["id", *coords, "u", "W", "W_f", "H_F", "h_sq"], range(mesh.num_vertices),
                 [*mesh.vertices.T, result.solution.values, geom.vertex_W, geom.vertex_Wf,
                  geom.mean_curvature_aniso, geom.h_sq])
    _write_table(wall_path, ["facet", "nuF_e1", "muF_e1", "measure"], geom.wall_facets,
                 [geom.wall_nuF_e1, geom.wall_muF_e1, geom.wall_measure])


def _write_reports(out_dir: Path, result: RunResult) -> None:
    with open(out_dir / "report.jsonl", "w") as fh:
        for rep in result.reports:
            fh.write(json.dumps(rep.to_json_dict(), sort_keys=True) + "\n")
    with open(out_dir / "summary.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["check", "status", "residual"])
        for rep in result.reports:
            w.writerow([rep.check_name, rep.status, _fmt(rep.worst_residual)])


def _write_solve_report(path, report: SolveReport) -> None:
    with open(path, "w") as fh:
        json.dump(asdict(report), fh, sort_keys=True, indent=1)
        fh.write("\n")


def run(scenario_path, out_dir, solve_only: bool = False) -> int:
    """Solve a scenario and write its outputs; unless ``solve_only``, also its
    geometry and check reports.  Returns the exit code."""
    t0 = time.perf_counter()
    try:
        scenario = load_scenario(scenario_path, solve_only)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_scenario(scenario, solve_only)
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    log = [f"warning: {w.message}" for w in caught]
    _write_solution_csv(out / "solution.csv", result)
    _write_solve_report(out / "solve_report.json", result.solve_report)
    if not solve_only:
        _write_geometry_csv(out / "geometry.csv", out / "geometry_wall.csv", result)
        _write_reports(out, result)
    if result.solve_report.converged:
        log.append(f"scenario={scenario.name} elapsed={time.perf_counter() - t0:.3f}s "
                   f"iters={result.solve_report.iterations}")
    else:
        failure = result.solve_report.failure
        suffix = f": {failure}" if failure else ""
        log.append(f"non-convergence after {result.solve_report.iterations} iterations{suffix}")
        print(f"solver failed to converge{suffix}", file=sys.stderr)
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S")
    with open(out / "run.log", "a") as fh:
        fh.writelines(f"{stamp} {line}\n" for line in log)
    return result.exit_code


# -- parameter sweeps -------------------------------------------------------------


def _apply_axis(raw: dict, axis: str, value: float) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError("scenario must be a JSON object")
    out = json.loads(json.dumps(raw))
    part = out.get("integrand" if axis == "theta" else "domain")
    if axis == "theta":
        if not isinstance(part, dict) or part.get("kind") != "capillary":
            raise ConfigError("theta sweep needs a capillary integrand")
        part["theta"] = value
    elif not isinstance(part, dict):
        raise ConfigError(f"{axis} sweep needs a 'domain' object")
    elif axis == "resolution":
        part["resolution"] = value
    else:
        part["depth"] = value
        if part.get("n", 2) == 2:
            part["width"] = value
    out["name"] = f"{out.get('name', 'scenario')}_{axis}={value:.6g}"
    return out


def _max_workers(n_jobs: int) -> int:
    cap = os.environ.get("ANISO_THREADS")
    if cap is not None:
        try:
            cap_val = max(1, int(cap))
        except ValueError as exc:
            raise ConfigError("ANISO_THREADS must be an integer") from exc
        return min(n_jobs, cap_val)
    return min(n_jobs, os.cpu_count() or 1, 4)


def sweep(scenario_path, axis: str, values, out_dir) -> int:
    """Run the base scenario once per axis value; one CSV row per value."""
    try:
        if axis not in _SWEEP_AXES:
            raise ConfigError(f"unknown sweep axis {axis!r}; use one of {_SWEEP_AXES}")
        raw = _read_json(scenario_path)
        variants = [scenario_from_dict(_apply_axis(raw, axis, v)) for v in values]
        workers = _max_workers(len(variants))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    results: list[Optional[RunResult]] = [None] * len(variants)
    try:
        # catch_warnings swaps the process-wide filter list, so it is entered
        # once here: entered in each worker, one thread's exit unmutes the others
        with warnings.catch_warnings(), concurrent.futures.ThreadPoolExecutor(workers) as pool:
            warnings.simplefilter("ignore")
            futures = {pool.submit(run_scenario, sc): i for i, sc in enumerate(variants)}
            for fut in concurrent.futures.as_completed(futures):
                results[futures[fut]] = fut.result()
    except ConfigError as exc:  # e.g. a malformed Dirichlet spec, found per mesh
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    check_names = sorted({rep.check_name for res in results for rep in res.reports})
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    header = [axis, "h", "converged", "iterations", "free_bc_residual"]
    for name in check_names:
        header += [f"{name}_residual", f"{name}_status"]
        if axis == "resolution":
            header.append(f"{name}_rate")
    header += ["gradient_c1", "gradient_c2"]
    rows = []
    prev_res: dict[str, float] = {}
    for value, res in zip(values, results):
        row: dict = {
            axis: _fmt(value),
            "h": _fmt(res.mesh.h),
            "converged": res.solve_report.converged,
            "iterations": res.solve_report.iterations,
            "free_bc_residual": _fmt(res.solve_report.free_bc_residual),
        }
        by_name = {rep.check_name: rep for rep in res.reports}
        for name in check_names:
            rep = by_name.get(name)
            if rep is None:  # DictWriter leaves absent cells empty
                continue
            row[f"{name}_residual"] = _fmt(rep.worst_residual)
            row[f"{name}_status"] = rep.status
            if axis == "resolution":
                if prev_res.get(name, 0.0) > 0.0 and rep.worst_residual > 0.0:
                    row[f"{name}_rate"] = _fmt(math.log2(prev_res[name] / rep.worst_residual))
                prev_res[name] = rep.worst_residual
        grad = by_name.get("gradient_estimate")
        if grad and "c1" in grad.metadata:
            row["gradient_c1"] = _fmt(grad.metadata["c1"])
            row["gradient_c2"] = _fmt(grad.metadata["c2"])
        rows.append(row)
    with open(out / "sweep.csv", "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=header)
        w.writeheader()
        w.writerows(rows)
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
            if not values:
                raise ConfigError("empty sweep value list")
        except ValueError:
            print("config error: sweep values must be numbers", file=sys.stderr)
            return 2
        return sweep(args.config, args.axis, values, args.out)
    return run(args.config, args.out, solve_only=args.command == "solve")


if __name__ == "__main__":
    sys.exit(main())
