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
import functools
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


# -- output writers: each value as '%.17g', its text laid out in a fixed-width slot of
# bytes with zero padding, a block of rows at a time, and written as the block's nonzero
# bytes --------------------------------------------------------------------------------

_BLOCK_ROWS = 4096  # rows laid out at a time, which bounds the writers' temporaries
# a value's slot: ',', the sign and the '0.000' before a small fixed-form value's digits;
# the 17 digits with room for the point; 'e', the exponent's sign and 3 digits
_SLOT = 30
_CRLF = np.frombuffer(b"\r\n", dtype=np.uint8)
_ASCII = np.frombuffer(b"0123456789", dtype=np.uint8)  # each digit's byte
_FAST = (1e-280, 1e280)  # the |x| whose digits the double-double product below certifies
_EXPONENTS = 300  # the |X| that the exponent tables cover: all of _FAST's
# a rounding is certified when the scaled value's fraction is this far from 1/2; the
# product's error is under 5e-15 (see ``_decimal``)
_TIE_BAND = 1e-9


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _split(x: np.ndarray) -> tuple:
    """Dekker's split of doubles into two halves of at most 26 significant bits each."""
    c = 134217729.0 * x  # 2^27 + 1
    hi = c - (c - x)
    return hi, x - hi


@functools.cache
def _power(k: int) -> tuple:
    """10^k = H + L, H and L each correctly rounded from Python integers."""
    num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
    h = num / den  # int / int rounds correctly
    p, q = h.as_integer_ratio()
    return h, (num * q - p * den) / (den * q)


@functools.cache
def _tables() -> tuple:
    """The text of ``_slots``: ``quads[r, g]``, digit r of the four digits of g = 0 to
    9999; by sign s and exponent X, the word ``starts[s, X]`` whose bytes begin a slot;
    by X, the word ``ends[X]`` whose bytes end it."""
    quads = _ASCII.take(np.arange(10000) // np.array([[1000], [100], [10], [1]]) % 10)
    zero = _EXPONENTS  # the row of X = 0
    ends = np.zeros((2 * zero + 1, 8), dtype=np.uint8)
    ends[:, 0], ends[:, 1], ends[:zero, 1] = ord("e"), ord("+"), ord("-")
    e = np.concatenate([np.arange(zero, 0, -1), np.arange(zero + 1)])  # |X|
    ends[:, 2:5] = _ASCII.take(e[:, None] // np.array([100, 10, 1]) % 10)
    ends[zero - 99:zero + 100, 2] = 0  # two exponent digits under 100
    ends[zero - 4:zero + 17] = 0  # fixed notation for X = -4 to 16
    starts = np.zeros((2, 2 * zero + 1, 8), dtype=np.uint8)
    starts[:, :, 0], starts[1, :, 1] = ord(","), ord("-")
    for k in range(1, 5):  # X = -k: '0.' and k - 1 zeros before the digits
        starts[:, zero - k, 2:3 + k] = np.frombuffer(b"0.000"[:k + 1], dtype=np.uint8)
    return quads, starts.view(np.uint64)[..., 0], ends.view(np.uint64)[:, 0]


def _decimal(v: np.ndarray) -> tuple:
    """|v| rounded half-even to 17 significant digits, as the integer N in [10^16, 10^17)
    and the exponent X with |v| ~ N 10^(X - 16), and where that rounding is certified.

    N is |v| 10^(16 - X) rounded: the product with 10^k = H + L (``_power``) is |v| H
    exactly, by Dekker's product, plus |v| L in floating point, and its error is under
    5e-15.  A fraction within ``_TIE_BAND`` of 1/2 is not certified unless L = 0, where
    the product is exact and an exact tie rounds to even; nor are 0, nan, inf and |v|
    outside ``_FAST``, whose N and X are 10^16 and 0."""
    a = np.abs(v)
    ok = (a >= _FAST[0]) & (a <= _FAST[1])
    a = np.where(ok, a, 1.0)
    a_hi, a_lo = _split(a)
    x = np.floor(np.log10(a)).astype(np.int64)
    first = 15 - int(x.max(initial=0))  # the k of the table's first power
    h, low = np.array([_power(k) for k in range(first, 18 - int(x.min(initial=0)))]).T
    h_hi, h_lo = _split(h)
    for _ in range(2):  # log10 can be one off next to a power of ten
        k = 16 - first - x
        hh, hl, lo = h_hi.take(k), h_lo.take(k), low.take(k)
        p = a * (hh + hl)
        t = ((a_hi * hh - p) + a_hi * hl + a_lo * hh) + a_lo * hl + a * lo
        whole = np.floor(t)
        n = p.astype(np.int64) + whole.astype(np.int64)  # p is an integer above 2^53
        small, big = n < 10 ** 16, n >= 10 ** 17
        if not (small.any() or big.any()):
            break
        x += big.astype(np.int64) - small
    frac = t - whole
    ok &= ~(small | big) & ((lo == 0) | (np.abs(frac - 0.5) > _TIE_BAND))
    n += (frac > 0.5) | ((frac == 0.5) & (n % 2 == 1))
    carry = n == 10 ** 17
    return np.where(carry, 10 ** 16, n), x + carry, ok


def _slots(values: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Each value's ',' and '%.17g' text in ``_SLOT`` bytes, zero padded, written into
    ``out`` (of shape ``values.shape + (_SLOT,)``) and returned.

    The text is %g's: fixed notation for exponents -4 to 16, else d.ddd e±XX, with the
    zeros that end a fraction dropped; 0 is '0' or '-0'.  A slot is 7 bytes of
    ``starts``, the digits with room for the point, and 5 bytes of ``ends``.  The digits
    are laid out a byte position at a time, each over every value, as uint8 arithmetic.
    A value whose digits ``_decimal`` does not certify is formatted by '%.17g' itself."""
    quads, starts, ends = _tables()
    v = np.asarray(values, dtype=float)
    out = np.empty(v.shape + (_SLOT,), dtype=np.uint8) if out is None else out
    n, x, ok = _decimal(v)
    zero = v == 0
    high, low = np.divmod(n, 10 ** 8)
    digits = np.zeros((19,) + v.shape, dtype=np.uint8)  # the 17 digits between zero bytes
    digits[1] = _ASCII.take(np.where(zero, 0, high // 10 ** 8))
    for at, group in zip(range(2, 18, 4), (high // 10 ** 4 % 10 ** 4, high % 10 ** 4,
                                         low // 10 ** 4, low % 10 ** 4)):
        digits[at:at + 4] = np.take(quads, group, axis=1)
    index = np.arange(19, dtype=np.uint8).reshape((19,) + (1,) * v.ndim)  # digit index + 1
    last = ((digits[2:18] != ord("0")) * index[1:17]).max(axis=0)  # the last nonzero digit
    fixed = (x >= -4) & (x <= 16)
    keep = np.where(fixed, np.maximum(last, x), last)  # the last digit written
    digits *= index <= keep.astype(np.uint8) + np.uint8(1)
    # the point's byte: after digit ``point`` where a kept digit follows it, else none (18)
    point = np.where(fixed, x, 0)
    point = np.where((point >= 0) & (point < keep), point + 1, 18).astype(np.uint8)
    j = index[:18]
    dot = (j == point) * np.uint8(ord("."))
    text = digits[1:] * (j < point) + digits[:-1] * (j > point) + dot
    out[..., 7:25] = np.moveaxis(text, 0, -1)
    sign = np.signbit(v).view(np.uint8)
    out[..., :7] = starts[sign, x + _EXPONENTS][..., None].view(np.uint8)[..., :7]
    out[..., 25:] = ends[x + _EXPONENTS][..., None].view(np.uint8)[..., :5]
    for i in zip(*np.nonzero(~ok & ~zero)):
        line = b"%.17g" % v[i]
        out[i][1:] = 0
        out[i][1:1 + len(line)] = np.frombuffer(line, dtype=np.uint8)
    return out


def _integers(lo: int, hi: int) -> np.ndarray:
    """The decimal text of lo, ..., hi - 1 as zero-padded uint8 rows."""
    i = np.arange(lo, hi)
    powers = np.array([10 ** k for k in range(len(str(max(hi - 1, 0))) - 1, -1, -1)])[:, None]
    return (_ASCII.take(i // powers % 10) * ((i >= powers) | (powers == 1))).T


def _write_tables(tables: list, rows: int, prefix: Callable) -> None:
    """CSVs whose rows run on from one another, written in step ``_BLOCK_ROWS`` rows at a
    time.

    ``tables`` holds each file's path, header and float columns, and ``prefix(lo, hi)``
    the leading text of rows ``lo`` to ``hi - 1`` as zero-padded uint8 rows.  The first
    file's row is that text, then its columns, each ',' and '%.17g' (``_slots``), and
    ends in CRLF, as csv.writer's rows do; each later file's row is the one before it
    without its CRLF, then its own columns and CRLF.  A block's rows are laid out once,
    and each file writes the nonzero bytes of its leading columns, so no whole-column or
    whole-file text is built.
    """
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open(path, "wb")) for path, _, _ in tables]
        for fh, (_, header, _) in zip(files, tables):
            fh.write(",".join(header).encode() + b"\r\n")
        for lo in range(0, rows, _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, rows)
            head = prefix(lo, hi)
            ends = np.cumsum([head.shape[1]] + [_SLOT * len(c) + 2 for _, _, c in tables])
            block = np.empty((hi - lo, ends[-1]), dtype=np.uint8)
            block[:, :ends[0]] = head
            for at, end, (_, _, columns) in zip(ends, ends[1:], tables):
                _slots(np.stack([c[lo:hi] for c in columns]),
                       block[:, at:end - 2].reshape(hi - lo, len(columns), _SLOT).swapaxes(0, 1))
                block[:, end - 2:end] = _CRLF
            for fh, end in zip(files, ends[1:]):
                fh.write(block[:, :end].tobytes().translate(None, b"\0"))
                block[:, end - 2:end] = 0  # the next file's row runs on


def _vertex_prefix(mesh: Mesh) -> Callable:
    """``prefix`` of the vertex tables: each vertex's id and coordinates.  Every
    coordinate is a grid line's, so each line is formatted once."""
    counts = tuple(d + 1 for d in mesh.divisions)
    lines = [_slots(line) for line in mesh.grid_lines()]

    def prefix(lo: int, hi: int) -> np.ndarray:
        at = np.unravel_index(np.arange(lo, hi), counts)
        return np.concatenate([_integers(lo, hi),
                               *(np.take(line, i, axis=0) for line, i in zip(lines, at))], axis=1)
    return prefix


def _write_csvs(out_dir: Path, result: RunResult) -> None:
    """``solution.csv``; with a geometry also ``geometry.csv``, whose rows run on from
    ``solution.csv``'s and are written in step with them, and ``geometry_wall.csv``."""
    mesh, geom = result.solution.mesh, result.geometry
    header = ["id", *(f"x{i + 1}" for i in range(mesh.n)), "u"]
    tables = [(out_dir / "solution.csv", header, [result.solution.values])]
    if geom is not None:
        tables.append((out_dir / "geometry.csv", header + ["W", "W_f", "H_F", "h_sq"],
                       [geom.vertex_W, geom.vertex_Wf, geom.mean_curvature_aniso, geom.h_sq]))
    _write_tables(tables, mesh.num_vertices, _vertex_prefix(mesh))
    if geom is not None:
        _write_tables([(out_dir / "geometry_wall.csv", ["facet", "nuF_e1", "muF_e1", "measure"],
                        [geom.wall_nuF_e1, geom.wall_muF_e1, geom.wall_measure])],
                      len(mesh.wall_cells), _integers)


def _write_reports(out_dir: Path, result: RunResult) -> None:
    with open(out_dir / "report.jsonl", "w") as fh:
        for rep in result.reports:
            fh.write(json.dumps(rep.to_json_dict(), sort_keys=True) + "\n")
    prefixes = np.array([f"{rep.check_name},{rep.status}".encode() for rep in result.reports],
                        dtype=bytes)  # zero padded to the longest
    residuals = np.array([rep.worst_residual for rep in result.reports], dtype=float)
    _write_tables([(out_dir / "summary.csv", ["check", "status", "residual"], [residuals])],
                  prefixes.size, lambda lo, hi: prefixes[lo:hi, None].view(np.uint8))


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
