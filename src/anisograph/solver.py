"""Damped-Newton minimization of the discrete anisotropic graph area.

The discrete energy of a piecewise-linear graph is

    E(u) = sum_cells |cell| * f(Du|_cell),

which is exact quadrature because Du is constant per cell.  Dirichlet values
are imposed on the truncation boundary only; the wall ``{x1 = 0}`` is left
unconstrained, so stationarity of E encodes the natural boundary condition
``<Df(Du), e1> = 0`` weakly with no boundary assembly at all.  Since the
Lagrangian Hessian is SPD for bounded gradients, the energy is convex and a
backtracking Newton iteration converges globally with a nonincreasing energy
trace.  Once the energy change of a trial step is at rounding level, the
line search judges the step by the decrease of the residual norm instead, so
Newton stops at its rounding floor rather than stalling there.

Every kernel of the Newton loop works on the ``(divisions + 1)`` vertex grid
of the structured box mesh, through the split of a grid box into cells that
``Mesh.split`` records: per-cell gradients are shifted differences of the
grid values, the energy gradient (and the Hessian applied to a vector) is a
flux summed back by the mesh's one scatter (``Mesh.scatter_flux``), and each
iterate's cell gradients are computed and lifted (``EllipticIntegrand.lift``)
once and feed its energy, residual and Hessian; the accepted line-search
trial's lift is the next iterate's.  The free vertices, numbered row by row,
fill a box of the grid.
Each nonzero diagonal of the Hessian's ``(kd + 1, nfree)`` lower band holds
the vertex pairs of one edge offset of the split, in the row that
``domain.band_rows`` gives it (``kd`` for ``(1, ..., 1)``: 1 in one dimension,
128 at h = 1/128 on the unit box), as a shifted sum over the cells sharing
those edges; what of that does not depend on the iterate is planned once per
level (``_band_plan``).  The band is factored in place with LAPACK's banded
Cholesky, so at most one band is alive at a time.  That is ``dpbtrf`` and ``dpbtrs``
of the ILP64 scipy-openblas that numpy's wheels bundle and numpy has already
loaded, called through ``ctypes`` (which releases the GIL); a numpy without
it ends every solve with a ``failure``.
A Hessian that is not numerically positive definite, a non-finite step or a
step that misses ``linear_solver_tol`` (checked against ``D^2 f`` and the
step's own gradients, not the band) ends the solve with ``converged=False``
and a ``failure`` reason.  Solves on different meshes are independent.

Every solve is a nested iteration over the levels that ``_ladder`` lists: a
level whose divisions are all even and at least 32 is halved, unless the
half-resolution boundary misses its Dirichlet data by more than
``_DATA_DEFECT`` of the data's range (the coarse problem would then not
approximate the fine one).  Each level starts from the P1 interpolant of the
solution one level down, or cold from zero after a level that did not converge.
"""

from __future__ import annotations

import ctypes
import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.linalg import LinAlgError

from .domain import Mesh, Tag, _build, band_rows
from .integrand import EllipticIntegrand

__all__ = [
    "GraphFunction",
    "SolveConfig",
    "SolveReport",
    "solve",
    "wall_flux_residuals",
]


@dataclass(frozen=True, eq=False)
class GraphFunction:
    """Per-vertex heights of a graph over a mesh."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.mesh.num_vertices,):
            raise ValueError("value vector length must match the vertex count")
        if not np.all(np.isfinite(vals)):
            raise ValueError("graph values must be finite")
        object.__setattr__(self, "values", vals)

    def cell_gradients(self) -> np.ndarray:
        return self.mesh.cell_gradients(self.values)


@dataclass(frozen=True)
class SolveConfig:
    tol_residual: float = 1e-10
    max_iter: int = 50
    ls_shrink: float = 0.5
    ls_decrease: float = 1e-4
    linear_solver_tol: float = 1e-8

    def __post_init__(self) -> None:
        if not self.tol_residual > 0.0:
            raise ValueError("tol_residual must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not (0.0 < self.ls_shrink < 1.0):
            raise ValueError("ls_shrink must lie in (0, 1)")
        if not (0.0 < self.ls_decrease < 1.0):
            raise ValueError("ls_decrease must lie in (0, 1)")
        if not self.linear_solver_tol > 0.0:
            raise ValueError("linear_solver_tol must be positive")


@dataclass
class SolveReport:
    iterations: int
    final_residual_norm: float
    energy_trace: list[float] = field(default_factory=list)
    free_bc_residual: float = 0.0
    converged: bool = False
    level_iterations: list[int] = field(default_factory=list)  # coarsest first
    failure: str = ""  # why a linear solve ended the Newton loop, if one did


def _energy(integrand: EllipticIntegrand, mesh: Mesh, lifted: tuple) -> float:
    """Discrete energy from the lifted per-cell gradients (``integrand.lift``)."""
    return mesh.split.measure * float(np.sum(integrand.F(lifted)))


def _gradient(integrand: EllipticIntegrand, mesh: Mesh, lifted: tuple) -> np.ndarray:
    """Energy gradient at every vertex from the lifted per-cell gradients."""
    return mesh.scatter_flux(integrand.Df(lifted))


def _band_plan(mesh: Mesh, free: tuple[slice, ...]) -> tuple:
    """What ``_hessian_band`` needs of ``mesh`` and its free box ``free``, whatever the
    iterate: ``coef``, the divisions, the free box's shape, ``kd`` and ``adds``.

    ``coef[t, p]`` is the flattened ``|c| grad lambda_a (x) grad lambda_b`` of the
    ``p``-th vertex pair ``(a, b)`` of a type-``t`` cell.  ``adds`` lists, per
    ``(t, p)``, the band row of the pair's edge offset ``d``, the free-vertex slices
    it adds to and the box slices it reads: the free vertices whose neighbour at ``d``
    is free too and whose box has the pair's lower-numbered vertex there.
    """
    split = mesh.split
    ntypes, m, n = split.offsets.shape
    pairs = list(itertools.combinations_with_replacement(range(m), 2))
    first, second = np.array(pairs).T
    coef = split.measure * np.einsum("tpk,tpl->tpkl", split.grad_lambda[:, first],
                                     split.grad_lambda[:, second])
    shape = tuple(s.stop - s.start for s in free)
    rows = band_rows(split, shape)
    adds = []
    for t, offsets in enumerate(split.offsets):
        for p, (a, b) in enumerate(pairs):
            lo, hi = sorted((offsets[a].tolist(), offsets[b].tolist()))  # row by row: lo first
            d = tuple(h - low for h, low in zip(hi, lo))
            at, box = [], []
            for dk, size, f, low, div in zip(d, shape, free, lo, mesh.divisions):
                # free vertex i is grid vertex f.start + i, the corner-lo vertex of box
                # f.start + i - low
                start = max(0, -dk, low - f.start)
                stop = max(start, min(size - max(0, dk), div + low - f.start))
                at.append(slice(start, stop))
                box.append(slice(start + f.start - low, stop + f.start - low))
            adds.append((t, p, rows[d], tuple(at), tuple(box)))
    return (coef.reshape(ntypes, len(pairs), n * n), mesh.divisions, shape, max(rows.values()),
            adds)


def _hessian_band(plan: tuple, d2f: np.ndarray) -> np.ndarray:
    """Lower band ``(kd + 1, nfree)``, Fortran-ordered, of the free-free Hessian.

    The free vertices fill a box of the vertex grid, numbered row by row.  The
    vertex pairs of each edge offset ``d`` of the split form one band row,
    ``band_rows(split, free shape)[d]``, and the largest is ``kd``.  That
    diagonal is summed over the grid from ``|c| grad lambda_a . D^2 f . grad
    lambda_b`` of every cell with vertex ``a`` at the lower-numbered end and
    ``b`` at the other, cell type by cell type and pair by pair (``plan``);
    entries whose neighbour is Dirichlet stay zero.
    """
    coef, divisions, shape, kd, adds = plan
    ntypes, npairs, nn = coef.shape
    # weights[t, p] = |c| grad lambda_a . D^2 f . grad lambda_b over the type-t cells
    weights = coef @ d2f.reshape(-1, ntypes, nn).transpose(1, 2, 0)
    weights = weights.reshape((ntypes, npairs) + divisions)
    band = np.zeros((kd + 1, math.prod(shape)), order="F")
    by_vertex = band.T.reshape(shape + (-1,))  # a view: free vertex grid x band row
    for t, p, row, at, box in adds:
        by_vertex[at + (row,)] += weights[t, p][box]
    return band


def _free_box(mesh: Mesh, is_dir: np.ndarray) -> tuple[slice, ...]:
    """The vertex-grid box the free vertices fill (the Dirichlet ones frame it)."""
    where = np.nonzero(~is_dir.reshape(tuple(d + 1 for d in mesh.divisions)))
    return tuple(slice(int(w.min()), int(w.max()) + 1) for w in where)


def _newton_step(band: np.ndarray, res: np.ndarray) -> np.ndarray:
    """Solve ``H step = -res``, factoring the band in place (its contents are lost).

    Raises ``LinAlgError`` when the band is not numerically positive definite,
    or when this numpy has no banded Cholesky to offer (``_NO_LAPACK``).
    """
    if _lapack is None:
        raise LinAlgError(_NO_LAPACK)
    dpbtrf, dpbtrs = _lapack
    step = -res
    kd, n = band.shape[0] - 1, band.shape[1]
    if step.shape != (n,):
        raise ValueError("the residual must have one entry per band column")
    n_, kd_, nrhs, ldab, ldb = (ctypes.byref(ctypes.c_int64(v))
                                for v in (n, kd, 1, kd + 1, max(n, 1)))
    info = ctypes.c_int64()
    dpbtrf(b"L", n_, kd_, band, ldab, ctypes.byref(info), 1)
    if info.value == 0:
        dpbtrs(b"L", n_, kd_, nrhs, band, ldab, step, ldb, ctypes.byref(info), 1)
    if info.value > 0:
        raise LinAlgError(f"{info.value}-th leading minor not positive definite")
    if info.value < 0:
        raise ValueError(f"illegal value in argument {-info.value} of the banded Cholesky")
    return step


def wall_flux_residuals(integrand: EllipticIntegrand, u: GraphFunction) -> np.ndarray:
    """Per-wall-facet average of <Df(Du), e1> (the pointwise flux residual).

    The natural boundary condition holds only weakly, so this is O(h) at
    convergence on curved solutions and exactly zero for flat ones.
    """
    mesh = u.mesh
    grads = u.cell_gradients()[mesh.wall_cells]
    return integrand.grad_f(grads)[:, 0]


# largest P1 interpolation defect of the injected Dirichlet data, relative to
# the data's range, for which a coarse level still warm-starts the fine one:
# smooth bundled data leaves 5e-3 or less at 32 divisions, a bump spanning a few
# boundary cells 0.1
_DATA_DEFECT = 1e-2

try:  # glibc only: return freed heap memory to the system
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):
    _malloc_trim = None

_NO_LAPACK = ("the banded Cholesky needs LAPACK dpbtrf/dpbtrs from the scipy-openblas "
              "that numpy's PyPI wheels bundle, and this numpy build has none")
_INT = ctypes.POINTER(ctypes.c_int64)
_BAND = np.ctypeslib.ndpointer(np.float64, 2, flags=("F_CONTIGUOUS", "WRITEABLE"))
_VECTOR = np.ctypeslib.ndpointer(np.float64, 1, flags=("C_CONTIGUOUS", "WRITEABLE"))
try:  # numpy has loaded its ILP64 OpenBLAS; dlsym on its extension finds the symbols
    _openblas = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    _lapack = (_openblas.scipy_dpbtrf_64_, _openblas.scipy_dpbtrs_64_)
except (AttributeError, OSError, TypeError):
    _lapack = None
else:  # Fortran arguments by reference, then the hidden length of the UPLO string
    _lapack[0].argtypes = [ctypes.c_char_p, _INT, _INT, _BAND, _INT, _INT, ctypes.c_size_t]
    _lapack[1].argtypes = [ctypes.c_char_p, _INT, _INT, _INT, _BAND, _INT, _VECTOR, _INT, _INT,
                           ctypes.c_size_t]
    _lapack[0].restype = _lapack[1].restype = None


def _prolong(coarse: np.ndarray, counts: tuple[int, ...]) -> np.ndarray:
    """P1 interpolant of coarse values on the nested mesh with ``counts`` vertices per axis.

    Every level cuts its boxes by the Kuhn split, which nests under halving and
    has every 0/1 offset as an edge, so a fine vertex is either a coarse vertex
    (even indices) or the midpoint of a halved coarse edge.
    """
    coarse = coarse.reshape(tuple(c // 2 + 1 for c in counts))
    fine = np.empty(counts)
    for odd in itertools.product((0, 1), repeat=len(counts)):
        lo = tuple(slice(0, -1 if o else None) for o in odd)
        hi = tuple(slice(o, None) for o in odd)
        fine[tuple(slice(o, None, 2) for o in odd)] = 0.5 * (coarse[lo] + coarse[hi])
    return fine.ravel()


def _ladder(mesh: Mesh, dirichlet: np.ndarray) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """The levels of the nested iteration as ``(divisions, data)``, coarsest first and ``mesh``'s
    last (module notes).  A halved level's data and Dirichlet mask are the even-vertex injection
    of the finer level's, so no coarse mesh is built to decide the ladder."""
    divisions, data, is_dir = mesh.divisions, dirichlet, mesh.vertex_tags == Tag.DIRICHLET
    levels = [(divisions, data)]
    while all(d % 2 == 0 and d >= 32 for d in divisions):
        counts = tuple(d + 1 for d in divisions)
        even = (slice(None, None, 2),) * mesh.n
        coarse_data = data.reshape(counts)[even].ravel()
        defect = np.abs(_prolong(coarse_data, counts) - data)[is_dir].max()
        if defect > _DATA_DEFECT * np.ptp(data[is_dir]):
            break
        divisions, data = tuple(d // 2 for d in divisions), coarse_data
        is_dir = is_dir.reshape(counts)[even].ravel()
        levels.append((divisions, data))
    return levels[::-1]


def _newton(integrand: EllipticIntegrand, mesh: Mesh, dirichlet: np.ndarray, config: SolveConfig,
            start: Optional[np.ndarray]) -> tuple[np.ndarray, SolveReport]:
    """Newton on one mesh from ``start`` (zero if None), without the wall flux or level record."""
    is_dir = mesh.vertex_tags == Tag.DIRICHLET
    free_idx = np.flatnonzero(~is_dir)
    plan = _band_plan(mesh, _free_box(mesh, is_dir))  # once per level

    values = np.zeros(mesh.num_vertices) if start is None else start.copy()
    values[is_dir] = dirichlet[is_dir]
    # the current iterate's lifted cell gradients, one lift per iterate
    lifted = integrand.lift(mesh.cell_gradients(values))
    e_cur = _energy(integrand, mesh, lifted)
    # an energy change this small is rounding: it cannot rank two trials
    e_floor = 16.0 * np.finfo(float).eps
    trace = [e_cur]
    converged = False
    res_norm = np.inf
    iterations = 0
    failure = ""

    for _ in range(config.max_iter):
        res = _gradient(integrand, mesh, lifted)[free_idx]
        res_norm = float(np.linalg.norm(res))
        if res_norm <= config.tol_residual * integrand.scale:  # the residual scales with it
            converged = True
            break
        d2f = integrand.D2f(lifted)
        del lifted  # the line search lifts the next iterate: this one's lift is used up
        try:
            step = _newton_step(_hessian_band(plan, d2f), res)
        except LinAlgError as exc:
            failure = (str(exc) if _lapack is None
                       else f"Newton Hessian is not numerically positive definite ({exc})")
            break
        if not np.all(np.isfinite(step)):
            failure = "Newton step is not finite"
            break
        full_step = np.zeros(mesh.num_vertices)
        full_step[free_idx] = step
        # H step from D^2 f and the step's gradients, independent of the band
        h_step = mesh.scatter_flux(np.einsum("cij,cj->ci", d2f, mesh.cell_gradients(full_step)))
        del d2f  # so is D^2 f, which holds as much as a lift
        lin_res = np.linalg.norm(h_step[free_idx] + res) / max(res_norm, 1e-300)
        if lin_res > config.linear_solver_tol:
            failure = f"linear solve missed its tolerance ({lin_res:.3e})"
            break
        slope = float(res @ step)  # negative: step is a descent direction
        t = 1.0
        accepted = False
        for _bt in range(60):
            trial = values.copy()
            trial[free_idx] += t * step
            trial_lifted = integrand.lift(mesh.cell_gradients(trial))
            e_trial = _energy(integrand, mesh, trial_lifted)
            if e_trial <= e_cur + config.ls_decrease * t * slope:
                accepted = True
                break
            if abs(e_trial - e_cur) <= e_floor * abs(e_cur):
                # energy stalled: accept on a sufficient decrease of the residual norm
                res_trial = float(np.linalg.norm(
                    _gradient(integrand, mesh, trial_lifted)[free_idx]))
                if res_trial <= (1.0 - config.ls_decrease * t) * res_norm:
                    accepted = True
                    break
            t *= config.ls_shrink
        if not accepted and e_trial >= e_cur:
            # rounding floor: no step can lower the energy any further
            break
        values, lifted = trial, trial_lifted
        e_cur = e_trial
        trace.append(e_cur)
        iterations += 1
    else:
        res_norm = float(np.linalg.norm(_gradient(integrand, mesh, lifted)[free_idx]))
        converged = res_norm <= config.tol_residual * integrand.scale

    return values, SolveReport(iterations, res_norm, trace, converged=converged, failure=failure)


def solve(
    integrand: EllipticIntegrand,
    mesh: Mesh,
    dirichlet: np.ndarray,
    config: SolveConfig = SolveConfig(),
) -> tuple[GraphFunction, SolveReport]:
    """Minimize the discrete graph area subject to Dirichlet data.

    ``dirichlet`` is a full-length vertex vector; only its entries at
    DIRICHLET vertices are used.  Returns the solution and a report; running
    out of iterations or a failed linear solve yields ``converged=False``
    rather than an exception, the latter with its reason in ``failure``.  Each
    level of ``_ladder`` gets its mesh when its turn comes (module notes).
    """
    if integrand.dim != mesh.n + 1:
        raise ValueError("integrand ambient dimension must be mesh dimension + 1")
    dirichlet = np.asarray(dirichlet, dtype=float)
    if dirichlet.shape != (mesh.num_vertices,):
        raise ValueError("dirichlet data must be a full vertex vector")
    if not np.all(np.isfinite(dirichlet[mesh.vertex_tags == Tag.DIRICHLET])):
        raise ValueError("dirichlet data must be finite")

    coarse, record = None, []  # a converged level's values; the levels since the last cold start
    for divisions, data in _ladder(mesh, dirichlet):
        level = mesh if divisions == mesh.divisions else _build(mesh.domain, divisions)
        start = None if coarse is None else _prolong(coarse, tuple(d + 1 for d in divisions))
        coarse = values = None  # the coarser level's values go before this level's Newton loop
        values, report = _newton(integrand, level, data, config, start)
        record = (record if start is not None else []) + [report.iterations]
        coarse = values if report.converged else None  # otherwise the next level starts cold
        del level, start
        if _malloc_trim is not None:  # the freed heap of this level's Newton loop and mesh
            _malloc_trim(0)

    solution = GraphFunction(mesh, values)
    # divided by the scale, as the Newton stop is relative to it
    report.free_bc_residual = (float(np.abs(wall_flux_residuals(integrand, solution)).max())
                               / integrand.scale)
    report.level_iterations = record
    return solution, report
