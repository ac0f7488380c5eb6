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
trial's lift is the next iterate's, and no name holds a lift once its ``D^2 f``
is formed.  The free vertices, numbered row by row, fill a box of the grid.
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
A level whose float64 band would exceed ``_MIXED_BAND_BYTES`` (1/128 on the unit
box, not 1/64) first tries each step with half the memory: the band is built and
factored in float32 (``spbtrf``), and its solve (``spbtrs``) preconditions
conjugate gradients in float64 on the matrix-free ``H v`` of ``_hessian_times``
(Carson and Higham, SIAM J. Sci. Comput. 40, 2018).  A float32 factor that is
not positive definite, conjugate gradients that miss ``_LINEAR_TOL / 10`` within
``_CG_CAP`` iterations, or a step the check below rejects, has that step redone by
the float64 band, built once the float32 one is freed; so the float64 path
alone decides which solves fail and why.
A Hessian that is not numerically positive definite, a non-finite step or a
step whose relative linear residual exceeds 1e-8 (checked against ``D^2 f`` and
the step's own gradients by ``_hessian_times``, not the band) ends the solve
with ``converged=False`` and a ``failure`` reason.  Solves on different meshes
are independent.

Every solve is a nested iteration over the levels that ``_ladder`` lists: a
level whose divisions are all even and at least 32 is halved, unless the
half-resolution boundary misses its Dirichlet data by more than
``_DATA_DEFECT`` of the data's range (the coarse problem would then not
approximate the fine one).  Each level starts from the P1 interpolant of the
solution one level down, or cold from zero after a level that did not converge.

A 2d warm start is first corrected at the wall corners by nonlinear elimination
(Lanzkron, Rose and Wilkes, SIAM J. Sci. Comput. 17, 1996; Cai and Li, SIAM
J. Sci. Comput. 33, 2011).  Where the wall meets the sides ``x_2 = +-width``,
data that miss the contact angle make the solution singular, and the start is
wrong near those two points alone, which global Newton would fix with a full
factorization per step.  A corner box spans ``ceil(_CORNER_BOX * divisions)``
cells along each axis (at least 2, at most half the divisions) from the wall and
from its side.  When the start has not converged and more than ``_CORNER_GATE``
of its residual norm lies at the boxes' free vertices, each box's local problem
(its wall side free, the rest of its boundary fixed to the current values) is
solved to ``tol_residual`` by ``_newton`` on its own small mesh, one box after
the other, and the global loop starts from the result.  The share is read off
the first residual the global loop needs anyway, so a start the gate leaves
alone costs nothing more.  A 1d wall is one vertex and has no corner, and in 3d
the singular set is the wall's four edges, which a corner box does not cover:
neither eliminates.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from numpy.linalg import LinAlgError

from .domain import HalfDomain, Mesh, Tag, _build, band_rows
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

    def __post_init__(self) -> None:
        if not self.tol_residual > 0.0:
            raise ValueError("tol_residual must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


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


def _hessian_band(plan: tuple, d2f: np.ndarray, dtype: type = np.float64) -> np.ndarray:
    """Lower band ``(kd + 1, nfree)``, Fortran-ordered and of ``dtype``, of the free-free
    Hessian.

    The free vertices fill a box of the vertex grid, numbered row by row.  The
    vertex pairs of each edge offset ``d`` of the split form one band row,
    ``band_rows(split, free shape)[d]``, and the largest is ``kd``.  That
    diagonal is summed over the grid from ``|c| grad lambda_a . D^2 f . grad
    lambda_b`` of every cell with vertex ``a`` at the lower-numbered end and
    ``b`` at the other, cell type by cell type and pair by pair (``plan``);
    entries whose neighbour is Dirichlet stay zero.  A float32 band adds the float64
    weights into its float32 entries, so no float64 band is ever held.
    """
    coef, divisions, shape, kd, adds = plan
    ntypes, npairs, nn = coef.shape
    # weights[t, p] = |c| grad lambda_a . D^2 f . grad lambda_b over the type-t cells
    weights = coef @ d2f.reshape(-1, ntypes, nn).transpose(1, 2, 0)
    weights = weights.reshape((ntypes, npairs) + divisions)
    band = np.zeros((kd + 1, math.prod(shape)), dtype, order="F")
    by_vertex = band.T.reshape(shape + (-1,))  # a view: free vertex grid x band row
    for t, p, row, at, box in adds:
        by_vertex[at + (row,)] += weights[t, p][box]
    return band


def _free_box(mesh: Mesh, is_dir: np.ndarray) -> tuple[slice, ...]:
    """The vertex-grid box the free vertices fill (the Dirichlet ones frame it)."""
    where = np.nonzero(~is_dir.reshape(tuple(d + 1 for d in mesh.divisions)))
    return tuple(slice(int(w.min()), int(w.max()) + 1) for w in where)


def _hessian_times(mesh: Mesh, d2f: np.ndarray, free_idx: np.ndarray,
                   v: np.ndarray) -> np.ndarray:
    """``H v`` at the free vertices ``free_idx``, for ``v`` on them: the flux of ``D^2 f``
    times ``v``'s own cell gradients (zero at the Dirichlet vertices), not the band."""
    full = np.zeros(mesh.num_vertices)
    full[free_idx] = v
    return mesh.scatter_flux(np.einsum("cij,cj->ci", d2f, mesh.cell_gradients(full)))[free_idx]


def _newton_step(band: np.ndarray, res: np.ndarray,
                 times: Optional[Callable[[np.ndarray], np.ndarray]] = None) -> np.ndarray:
    """Solve ``H step = -res``, factoring the band in place (its contents are lost).

    A float64 band's factor gives the step.  A float32 band's factor preconditions
    conjugate gradients in float64 on ``times`` (``v -> H v``), which must reach a
    relative residual of ``_LINEAR_TOL / 10`` within ``_CG_CAP`` iterations.

    Raises ``LinAlgError`` when the band is not numerically positive definite, when
    conjugate gradients miss their tolerance, or when this numpy has no banded
    Cholesky to offer (``_NO_LAPACK``).
    """
    if _lapack is None:
        raise LinAlgError(_NO_LAPACK)
    factor, substitute = _lapack[band.dtype.type]
    kd, n = band.shape[0] - 1, band.shape[1]
    if res.shape != (n,):
        raise ValueError("the residual must have one entry per band column")
    n_, kd_, nrhs, ldab, ldb = (ctypes.byref(ctypes.c_int64(v))
                                for v in (n, kd, 1, kd + 1, max(n, 1)))
    info = ctypes.c_int64()

    def solve(rhs: np.ndarray) -> np.ndarray:  # in place, in the band's dtype
        if info.value == 0:
            substitute(b"L", n_, kd_, nrhs, band, ldab, rhs, ldb, ctypes.byref(info), 1)
        if info.value > 0:
            raise LinAlgError(f"{info.value}-th leading minor not positive definite")
        if info.value < 0:
            raise ValueError(f"illegal value in argument {-info.value} of the banded Cholesky")
        return rhs

    factor(b"L", n_, kd_, band, ldab, ctypes.byref(info), 1)
    if band.dtype == np.float64:
        return solve(-res)
    return _conjugate_gradients(times, res, lambda r: solve(r.astype(band.dtype)).astype(float))


def _conjugate_gradients(times: Callable[[np.ndarray], np.ndarray], res: np.ndarray,
                         precondition: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Solve ``H step = -res`` by preconditioned conjugate gradients from zero, stopping
    when the recurrence residual is at most ``_LINEAR_TOL / 10`` of ``res``.

    Inner products and norms are ``np.sum`` of products, not BLAS ``ddot``: OpenBLAS
    splits a long ``ddot`` over its threads, so its rounding, and every output after
    it, would depend on the thread count.
    """
    step = np.zeros_like(res)
    r = -res
    tol = _LINEAR_TOL / 10 * math.sqrt(np.sum(res * res))
    p = z = precondition(r)
    rz = np.sum(r * z)
    for _ in range(_CG_CAP):
        hp = times(p)
        alpha = rz / np.sum(p * hp)
        step += alpha * p
        r -= alpha * hp
        if math.sqrt(np.sum(r * r)) <= tol:
            return step
        z = precondition(r)
        rz, rz_old = np.sum(r * z), rz
        p = z + (rz / rz_old) * p
    raise LinAlgError(f"conjugate gradients missed {_LINEAR_TOL / 10:g} in {_CG_CAP} iterations")


def wall_flux_residuals(integrand: EllipticIntegrand, u: GraphFunction) -> np.ndarray:
    """Per-wall-facet average of <Df(Du), e1> (the pointwise flux residual).

    The natural boundary condition holds only weakly, so this is O(h) at
    convergence on curved solutions and exactly zero for flat ones.
    """
    mesh = u.mesh
    grads = u.cell_gradients()[mesh.wall_cells]
    return integrand.Df(integrand.lift(grads))[:, 0]


# largest P1 interpolation defect of the injected Dirichlet data, relative to
# the data's range, for which a coarse level still warm-starts the fine one:
# smooth bundled data leaves 5e-3 or less at 32 divisions, a bump spanning a few
# boundary cells 0.1
_DATA_DEFECT = 1e-2
# the backtracking factor and the Armijo fraction of the line search, and the relative
# residual a Newton step's linear solve must reach
_LS_SHRINK, _LS_DECREASE, _LINEAR_TOL = 0.5, 1e-4, 1e-8
# a wall corner's box spans this share of each axis's divisions, and a warm start has its
# corner problems solved first when more than this share of its residual norm lies in the
# two boxes (module notes): corner-incompatible data read 0.62 to 0.66, the bundled
# scenarios 0.1 or less
_CORNER_BOX, _CORNER_GATE = 0.1, 0.25
# a level whose float64 band would hold more bytes than this tries each step with a float32
# band preconditioning conjugate gradients, capped at this many iterations (module notes):
# that way one Newton step takes about as long at 1/128 (a 16 MiB float64 band) and 8% less
# at 1/256, but 25% more at 1/64 (2 MiB) for a 1 MiB saving
_MIXED_BAND_BYTES, _CG_CAP = 8 << 20, 10

try:  # glibc only: return freed heap memory to the system
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):
    _malloc_trim = None

_NO_LAPACK = ("the banded Cholesky needs LAPACK dpbtrf/dpbtrs from the scipy-openblas "
              "that numpy's PyPI wheels bundle, and this numpy build has none")
_INT = ctypes.POINTER(ctypes.c_int64)


def _bind(lib: ctypes.CDLL, prefix: str, dtype: type) -> tuple:
    """The banded Cholesky factor and solve of ``lib`` for ``dtype`` (LAPACK's ``?pbtrf`` and
    ``?pbtrs``): Fortran arguments by reference, then the hidden length of the UPLO string."""
    band = np.ctypeslib.ndpointer(dtype, 2, flags=("F_CONTIGUOUS", "WRITEABLE"))
    vector = np.ctypeslib.ndpointer(dtype, 1, flags=("C_CONTIGUOUS", "WRITEABLE"))
    factor, solve = (getattr(lib, f"scipy_{prefix}pbtr{op}_64_") for op in "fs")
    factor.argtypes = [ctypes.c_char_p, _INT, _INT, band, _INT, _INT, ctypes.c_size_t]
    solve.argtypes = [ctypes.c_char_p, _INT, _INT, _INT, band, _INT, vector, _INT, _INT,
                      ctypes.c_size_t]
    factor.restype = solve.restype = None
    return factor, solve


try:  # numpy has loaded its ILP64 OpenBLAS; dlsym on its extension finds the symbols
    _openblas = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    _lapack = {np.float64: _bind(_openblas, "d", np.float64),
               np.float32: _bind(_openblas, "s", np.float32)}
except (AttributeError, OSError, TypeError):
    _lapack = None


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


def _corner_boxes(divisions: tuple[int, ...]) -> list[tuple[slice, ...]]:
    """The vertex-grid boxes of a 2d mesh's two wall corners, ``k`` cells along each axis
    from the wall and from the side: ``ceil(_CORNER_BOX * divisions)``, but at least 2 and at
    most half the divisions."""
    k0, k1 = (min(max(2, math.ceil(_CORNER_BOX * d)), d // 2) for d in divisions)
    d1 = divisions[1]
    return [(slice(0, k0 + 1), slice(0, k1 + 1)), (slice(0, k0 + 1), slice(d1 - k1, d1 + 1))]


def _corner_share(res: np.ndarray, free: tuple[slice, ...], divisions: tuple[int, ...]) -> float:
    """The share of the residual norm (``res`` on the free box ``free``, row by row) that lies
    at the free vertices of the two corner boxes."""
    grid = res.reshape(tuple(f.stop - f.start for f in free))
    at = [grid[tuple(slice(max(b.start - f.start, 0), b.stop - f.start) for b, f in zip(box, free))]
          for box in _corner_boxes(divisions)]
    return math.sqrt(sum(float(np.sum(a * a)) for a in at)) / float(np.linalg.norm(res))


def _eliminate_corners(integrand: EllipticIntegrand, mesh: Mesh, values: np.ndarray,
                       config: SolveConfig) -> None:
    """Solve the local problem of each wall corner's box in turn, in place in ``values``.

    A corner box is a ``HalfDomain`` of its own: its wall side is free and the rest of its
    boundary is Dirichlet, fixed to ``values``; the Kuhn split is the same in every grid box,
    and both numberings go row by row, so the box's slice of the vertex grid is its vertex
    vector.  The cells at a box's free vertices are the box's own, so a local Newton step
    lowers the global energy by what it lowers the local one.
    """
    grid = values.reshape(tuple(d + 1 for d in mesh.divisions))
    boxes = _corner_boxes(mesh.divisions)
    cells = tuple(b.stop - b.start - 1 for b in boxes[0])
    spacing = [e / d for e, d in zip(mesh.domain.extents(), mesh.divisions)]
    local = _build(HalfDomain(2, cells[0] * spacing[0], cells[1] * spacing[1] / 2, mesh.h), cells)
    for box in boxes:
        sub = grid[box].ravel()
        grid[box] = _newton(integrand, local, sub, config, sub, eliminate=False)[0].reshape(
            grid[box].shape)


def _newton(integrand: EllipticIntegrand, mesh: Mesh, dirichlet: np.ndarray, config: SolveConfig,
            start: Optional[np.ndarray], eliminate: bool = True) -> tuple[np.ndarray, SolveReport]:
    """Newton on one mesh from ``start`` (zero if None), without the wall flux or level record.

    With ``eliminate``, a 2d start that has not converged and holds more than ``_CORNER_GATE``
    of its residual norm in the corner boxes has its corner problems solved first, and the
    energy trace begins at the start so improved (module notes).  Only n = 2 eliminates: a 1d
    wall has no corner, and the 3d corner set, the wall's four edges, is no corner box.
    """
    is_dir = mesh.vertex_tags == Tag.DIRICHLET
    free_idx = np.flatnonzero(~is_dir)
    free = _free_box(mesh, is_dir)
    plan = _band_plan(mesh, free)  # once per level
    # the float64 band alone, or a float32 band first (module notes)
    mixed = 8 * (plan[3] + 1) * free_idx.size > _MIXED_BAND_BYTES
    dtypes = (np.float32, np.float64) if mixed else (np.float64,)

    values = np.zeros(mesh.num_vertices) if start is None else start.copy()
    values[is_dir] = dirichlet[is_dir]
    # the current iterate's lifted cell gradients, one lift per iterate, and its residual
    lifted = integrand.lift(mesh.cell_gradients(values))
    res = _gradient(integrand, mesh, lifted)[free_idx]
    res_norm = float(np.linalg.norm(res))
    if (eliminate and start is not None and mesh.n == 2 and res_norm > config.tol_residual
            and _corner_share(res, free, mesh.divisions) > _CORNER_GATE):
        del lifted  # the start's lift, stale once the corner solves have run
        _eliminate_corners(integrand, mesh, values, config)
        lifted = integrand.lift(mesh.cell_gradients(values))
        res = _gradient(integrand, mesh, lifted)[free_idx]
        res_norm = float(np.linalg.norm(res))
    e_cur = _energy(integrand, mesh, lifted)
    # an energy change this small is rounding: it cannot rank two trials
    e_floor = 16.0 * np.finfo(float).eps
    trace = [e_cur]
    converged = False
    iterations = 0
    failure = ""

    for _ in range(config.max_iter):
        if res_norm <= config.tol_residual:
            converged = True
            break
        d2f = integrand.D2f(lifted)
        del lifted  # the line search lifts the next iterate: this one's lift is used up
        times = functools.partial(_hessian_times, mesh, d2f, free_idx)
        for dtype in dtypes:  # the last, float64, attempt's failure is the solve's
            try:
                step = _newton_step(_hessian_band(plan, d2f, dtype), res, times)
            except LinAlgError as exc:
                failure = (str(exc) if _lapack is None
                           else f"Newton Hessian is not numerically positive definite ({exc})")
                continue
            if not np.all(np.isfinite(step)):
                failure = "Newton step is not finite"
                continue
            lin_res = np.linalg.norm(times(step) + res) / max(res_norm, 1e-300)
            if lin_res > _LINEAR_TOL:
                failure = f"linear solve missed its tolerance ({lin_res:.3e})"
                continue
            failure = ""
            break
        del d2f, times  # so is D^2 f, which holds as much as a lift
        if failure:
            break
        slope = float(res @ step)  # negative: step is a descent direction
        t = 1.0
        accepted = False
        for _bt in range(60):
            trial = values.copy()
            trial[free_idx] += t * step
            trial_lifted = integrand.lift(mesh.cell_gradients(trial))
            e_trial = _energy(integrand, mesh, trial_lifted)
            if e_trial <= e_cur + _LS_DECREASE * t * slope:
                accepted = True
                break
            if abs(e_trial - e_cur) <= e_floor * abs(e_cur):
                # energy stalled: accept on a sufficient decrease of the residual norm
                res_trial = float(np.linalg.norm(
                    _gradient(integrand, mesh, trial_lifted)[free_idx]))
                if res_trial <= (1.0 - _LS_DECREASE * t) * res_norm:
                    accepted = True
                    break
            t *= _LS_SHRINK
        if not accepted and e_trial >= e_cur:
            # rounding floor: no step can lower the energy any further
            break
        values, lifted = trial, trial_lifted
        del trial_lifted  # else it holds this lift through the next step's band
        e_cur = e_trial
        trace.append(e_cur)
        iterations += 1
        res = _gradient(integrand, mesh, lifted)[free_idx]
        res_norm = float(np.linalg.norm(res))
    else:
        converged = res_norm <= config.tol_residual

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
    report.free_bc_residual = float(np.abs(wall_flux_residuals(integrand, solution)).max())
    report.level_iterations = record
    return solution, report
