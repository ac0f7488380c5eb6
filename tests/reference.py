"""Slow reference implementations and test-only helpers.

The reference implementations are plain loops the tests cross-check the
package against, kept for their obviousness, not their speed.  The helpers
(exact PL quadrature) serve only the tests, so they live here rather than in
the package.  None of these may be used in a solver or geometry path.
"""

from __future__ import annotations

import csv
import itertools
import math
from typing import Callable, Optional

import numpy as np

from anisograph.cli import _slots
from anisograph.domain import BoxSplit, Tag, _build, band_rows
from anisograph.geometry import _fit_vertex_quadratics
from anisograph.verify import BoxFunction, _pl_power_cellwise


# -- test-only helpers -----------------------------------------------------------


def support_box(mesh, phi) -> BoxFunction:
    """A full vertex vector as its values on the smallest grid box holding its nonzeros."""
    grid = np.asarray(phi, dtype=float).reshape(tuple(d + 1 for d in mesh.divisions))
    box = tuple(slice(int(i.min()), int(i.max()) + 1) for i in np.nonzero(grid))
    return BoxFunction(box, grid[box])


def cell_measures(mesh) -> np.ndarray:
    """Every cell's measure: the split's, repeated per cell."""
    return np.full(mesh.num_cells, mesh.split.measure)


def cell_hat_gradients(mesh) -> np.ndarray:
    """Every cell's hat gradients ``(ncells, n + 1, n)``: the split's table, repeated per cell."""
    return np.tile(mesh.split.grad_lambda, (mesh.num_cells // len(mesh.split.offsets), 1, 1))


def integrate_pl_power(mesh, phi: np.ndarray, k: int, cell_weight: Optional[np.ndarray] = None) -> float:
    """Integral of phi^k (phi piecewise linear) with an optional cell weight."""
    per_cell = _pl_power_cellwise(np.asarray(phi, float)[mesh.cells], mesh.split.measure, k)
    if cell_weight is not None:
        per_cell = per_cell * cell_weight
    return float(per_cell.sum())


def surface_gradient(geom, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell surface gradient of a PL vertex field and its A_F image.

    Returns ambient (n+1)-vectors ``(grad, grad_F)``, both tangent to the
    graph; ``grad_F`` applies A_F = D^2 F(nu), the integrand Hessian at the
    cell normal, formed here from ``cell_normal``.
    """
    phi = np.asarray(phi, dtype=float)
    mesh = geom.mesh
    if phi.shape != (mesh.num_vertices,):
        raise ValueError("phi must be a per-vertex field")
    dphi = mesh.cell_gradients(phi)
    du = geom.cell_gradient
    coef = np.einsum("ci,ci->c", du, dphi) / geom.cell_W ** 2
    q = dphi - du * coef[:, None]
    grad = np.concatenate([q, np.einsum("ci,ci->c", du, q)[:, None]], axis=1)
    a_f = geom.integrand.D2F(geom.integrand.points(geom.cell_normal))
    grad_f = np.einsum("cij,cj->ci", a_f, grad)
    return grad, grad_f


def wall_nubar(geom) -> np.ndarray:
    """Unit normal of the boundary curve inside the wall {x1 = 0}, per wall facet (2d)."""
    facets = geom.mesh.wall_facets
    x2 = geom.mesh.vertices[facets, 1]
    u = geom.u.values[facets]
    slope = (u[:, 1] - u[:, 0]) / (x2[:, 1] - x2[:, 0])
    nubar = np.stack([np.zeros_like(slope), -slope, np.ones_like(slope)], axis=1)
    return nubar / np.sqrt(1.0 + slope * slope)[:, None]


def refine(mesh):
    """Uniform refinement halving the mesh size; tags are inherited."""
    return _build(mesh.domain, tuple(2 * d for d in mesh.divisions))


def vertex_masses(mesh) -> np.ndarray:
    """Lumped vertex masses: each cell gives its vertices equal shares."""
    share = cell_measures(mesh) / (mesh.n + 1)
    return mesh.scatter(share[:, None].repeat(mesh.n + 1, axis=1))


def amse_residual(integrand, u) -> np.ndarray:
    """Weak equation residual per interior vertex, normalized by vertex mass.

    Entries at FREE and DIRICHLET vertices are zero; interior entries vanish
    (up to the solver tolerance over the vertex mass) at a converged solve,
    and exactly for affine graphs.
    """
    mesh = u.mesh
    g = raw_gradient_add_at(integrand, mesh, u.values)
    out = np.zeros(mesh.num_vertices)
    interior = mesh.vertex_tags == Tag.INTERIOR
    out[interior] = g[interior] / vertex_masses(mesh)[interior]
    return out


# -- the box split, as hand-written tables ----------------------------------------------


def box_split_tables(spacing: tuple[float, ...]) -> BoxSplit:
    """The split of a box for n <= 2 written out: one type in one dimension; in two,
    the lower triangle (v00, v10, v11) and the upper one (v00, v11, v01) of the
    v00-v11 diagonal."""
    if len(spacing) == 1:
        (dx,) = spacing
        return BoxSplit(np.array([[[0], [1]]]), np.array([[[-1.0 / dx], [1.0 / dx]]]), dx)
    dx, dy = spacing
    offsets = np.array([[[0, 0], [1, 0], [1, 1]], [[0, 0], [1, 1], [0, 1]]])
    grads = np.array([[[-1.0 / dx, 0.0], [1.0 / dx, -1.0 / dy], [0.0, 1.0 / dy]],
                      [[0.0, -1.0 / dy], [1.0 / dx, 0.0], [-1.0 / dx, 1.0 / dy]]])
    return BoxSplit(offsets, grads, 0.5 * dx * dy)


# -- finite differences ----------------------------------------------------------


def fd_gradient(fn: Callable[[np.ndarray], float], z: np.ndarray, step: Optional[float] = None) -> np.ndarray:
    """Centered finite-difference gradient."""
    z = np.asarray(z, dtype=float)
    h = step if step is not None else 1e-6 * max(np.linalg.norm(z), 1.0)
    out = np.zeros_like(z)
    for i in range(z.size):
        e = np.zeros_like(z)
        e[i] = h
        out[i] = (fn(z + e) - fn(z - e)) / (2.0 * h)
    return out


def fd_hessian(fn: Callable[[np.ndarray], float], z: np.ndarray, step: Optional[float] = None) -> np.ndarray:
    """Centered finite-difference Hessian."""
    z = np.asarray(z, dtype=float)
    h = step if step is not None else 1e-5 * max(np.linalg.norm(z), 1.0)
    d = z.size
    out = np.zeros((d, d))
    f0 = fn(z)
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h
        out[i, i] = (fn(z + ei) - 2.0 * f0 + fn(z - ei)) / (h * h)
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = h
            out[i, j] = out[j, i] = (
                fn(z + ei + ej) - fn(z + ei - ej) - fn(z - ei + ej) + fn(z - ei - ej)
            ) / (4.0 * h * h)
    return out


def bisect_flat_slope(integrand, lo: float = -50.0, hi: float = 50.0, iters: int = 200,
                      b: float = 0.0) -> float:
    """Independent oracle of ``flat_slope``: a fixed number of bisection steps.  With a
    tangential slope ``b`` along x2 (n >= 2), the normal slope a of the plane with
    gradient (a, b, 0, ...) that meets the wall condition ∂1 f = 0."""

    def dfda(a):
        y = np.zeros(integrand.dim - 1)
        y[0] = a
        y[1:2] = b
        return integrand.Df(integrand.lift(y))[0]

    assert dfda(lo) < 0.0 < dfda(hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if dfda(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# -- two-ring stencils and per-vertex quadratic fits -----------------------------


def two_ring_stencils(mesh) -> list[np.ndarray]:
    """Two-ring vertex neighbourhoods (including the vertex) built from the cells."""
    ring1: list[set[int]] = [set() for _ in range(mesh.num_vertices)]
    for cell in mesh.cells:
        for a in cell:
            ring1[a].update(int(v) for v in cell)
    out = []
    for v in range(mesh.num_vertices):
        stencil: set[int] = set()
        for u in ring1[v]:
            stencil.update(ring1[u])
        out.append(np.fromiter(sorted(stencil), dtype=np.int64))
    return out


def fit_vertex_quadratics(mesh, values: np.ndarray):
    """Weighted quadratic fit on each vertex's two-ring, one ``lstsq`` per vertex, posed in
    units of the mesh size h and scaled back."""
    n, h = mesh.n, mesh.h
    pairs = list(itertools.combinations_with_replacement(range(n), 2))
    ncoef = 1 + n + len(pairs)
    stencils = two_ring_stencils(mesh)
    nv = mesh.num_vertices
    grad = np.zeros((nv, n))
    hess = np.zeros((nv, n, n))
    ok = np.zeros(nv, dtype=bool)
    for v in range(nv):
        idx = stencils[v]
        if idx.size < ncoef:
            continue
        y = (mesh.vertices[idx] - mesh.vertices[v]) / h
        cols = [np.ones(idx.size), *y.T]
        cols += [(0.5 if i == j else 1.0) * y[:, i] * y[:, j] for i, j in pairs]
        w = np.exp(-np.sum(y * y, axis=1) / 4.0)  # a Gaussian of width 2h
        coef, _, rank, sv = np.linalg.lstsq(np.stack(cols, axis=1) * w[:, None],
                                            values[idx] * w, rcond=None)
        if rank < ncoef or sv[-1] <= 1e-10 * sv[0]:
            continue
        ok[v] = True
        grad[v] = coef[1 : 1 + n] / h
        for (i, j), c in zip(pairs, coef[1 + n :]):
            hess[v, i, j] = hess[v, j, i] = c / h ** 2
    return grad, hess, ok


# -- Newton Hessian assembly -----------------------------------------------------


def cell_gradients_gather(mesh, values: np.ndarray) -> np.ndarray:
    """Per-cell gradients from each cell's gathered vertex values and hat gradients."""
    return np.einsum("cin,ci->cn", cell_hat_gradients(mesh), np.asarray(values, float)[mesh.cells])


def hessian_band_by_diagonals(mesh, d2f: np.ndarray, free: tuple[slice, ...]) -> np.ndarray:
    """The lower band of the free-free Hessian, as ``solver._hessian_band`` gives it, summed
    the way it was before the band had a plan: each edge offset's diagonal over the whole
    vertex grid first, cell type by cell type and pair by pair, then copied into the band."""
    split = mesh.split
    ntypes, m, n = split.offsets.shape
    pairs = list(itertools.combinations_with_replacement(range(m), 2))
    first, second = np.array(pairs).T
    coef = split.measure * np.einsum("tpk,tpl->tpkl", split.grad_lambda[:, first],
                                     split.grad_lambda[:, second])
    coef = coef.reshape(ntypes, len(pairs), n * n)
    weights = coef @ d2f.reshape(-1, ntypes, n * n).transpose(1, 2, 0)
    counts = tuple(d + 1 for d in mesh.divisions)
    diagonals: dict[tuple[int, ...], np.ndarray] = {}
    for offsets, type_weights in zip(split.offsets, weights):
        for (a, b), w in zip(pairs, type_weights):
            lo, hi = sorted((tuple(offsets[a]), tuple(offsets[b])))
            d = tuple(np.subtract(hi, lo))
            if d not in diagonals:
                diagonals[d] = np.zeros(counts)
            diagonals[d][mesh.offset_slices(lo)] += w.reshape(mesh.divisions)
    shape = tuple(s.stop - s.start for s in free)
    rows = band_rows(split, shape)
    band = np.zeros((max(rows.values()) + 1, math.prod(shape)), order="F")
    by_vertex = band.T.reshape(shape + (-1,))
    for d, diagonal in diagonals.items():
        keep = tuple(slice(max(0, -dk), size - max(0, dk)) for dk, size in zip(d, shape))
        by_vertex[keep + (rows[d],)] += diagonal[free][keep]
    return band


def hessian_entries(integrand, mesh, values: np.ndarray,
                    free_pos: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every cell's free-free entries of the energy Hessian as (row, column, value) triples,
    repeats unsummed (COO).

    ``free_pos`` maps each vertex to its free index, or -1 for a Dirichlet vertex.
    """
    d2f = integrand.D2f(integrand.lift(cell_gradients_gather(mesh, values)))
    grad_lambda = cell_hat_gradients(mesh)
    hc = np.einsum("c,cim,cmn,cjn->cij", cell_measures(mesh), grad_lambda, d2f, grad_lambda)
    m = mesh.n + 1
    rows = free_pos[np.repeat(mesh.cells, m, axis=1).ravel()]
    cols = free_pos[np.tile(mesh.cells, (1, m)).ravel()]
    keep = (rows >= 0) & (cols >= 0)
    return rows[keep], cols[keep], hc.reshape(-1)[keep]


def dense_hessian(integrand, mesh, values: np.ndarray, free_pos: np.ndarray) -> np.ndarray:
    """The free-free Hessian as a dense ``nfree x nfree`` array: the triples of
    ``hessian_entries`` summed with ``np.add.at``."""
    rows, cols, vals = hessian_entries(integrand, mesh, values, free_pos)
    nfree = int(free_pos.max()) + 1
    mat = np.zeros((nfree, nfree))
    np.add.at(mat, (rows, cols), vals)
    return mat


def newton_step_dense(integrand, mesh, values: np.ndarray, free_pos: np.ndarray,
                      res: np.ndarray) -> np.ndarray:
    """Newton step ``H step = -res`` on the free vertices, by a dense solve."""
    return np.linalg.solve(dense_hessian(integrand, mesh, values, free_pos), -res)


def raw_gradient_add_at(integrand, mesh, values: np.ndarray) -> np.ndarray:
    """Energy gradient at every vertex, scattered with ``np.add.at``."""
    df = integrand.Df(integrand.lift(cell_gradients_gather(mesh, values)))
    contrib = np.einsum("c,cn,cin->ci", cell_measures(mesh), df, cell_hat_gradients(mesh))
    out = np.zeros(mesh.num_vertices)
    np.add.at(out, mesh.cells, contrib)
    return out


# -- report writers ---------------------------------------------------------------


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def formatter_mismatches(values: np.ndarray) -> list[tuple[float, bytes]]:
    """Each value whose text from the writers' block formatter is not its '%.17g', with
    that text."""
    values = np.asarray(values, dtype=float).ravel()
    texts = _slots(values).tobytes().translate(None, b"\0").split(b",")[1:]
    return [(x, t) for x, t in zip(values.tolist(), texts) if t != b"%.17g" % x]


def write_solution_csv(path, result) -> None:
    """``solution.csv`` written one ``csv.writer`` row at a time."""
    mesh = result.solution.mesh
    coords = [f"x{i + 1}" for i in range(mesh.n)]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", *coords, "u"])
        for i in range(mesh.num_vertices):
            w.writerow([i, *map(_fmt, mesh.vertices[i]), _fmt(result.solution.values[i])])


def write_geometry_csv(path, wall_path, result) -> None:
    """``geometry.csv`` and ``geometry_wall.csv`` written one ``csv.writer`` row at a time."""
    geom = result.geometry
    mesh = result.solution.mesh
    coords = [f"x{i + 1}" for i in range(mesh.n)]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", *coords, "u", "W", "W_f", "H_F", "h_sq"])
        for i in range(mesh.num_vertices):
            w.writerow(
                [
                    i,
                    *map(_fmt, mesh.vertices[i]),
                    _fmt(result.solution.values[i]),
                    _fmt(geom.vertex_W[i]),
                    _fmt(geom.vertex_Wf[i]),
                    _fmt(geom.mean_curvature_aniso[i]),
                    _fmt(geom.h_sq[i]),
                ]
            )
    with open(wall_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["facet", "nuF_e1", "muF_e1", "measure"])
        for k in range(mesh.wall_cells.size):
            w.writerow(
                [
                    k,
                    _fmt(geom.wall_nuF_e1[k]),
                    _fmt(geom.wall_muF_e1[k]),
                    _fmt(geom.wall_measure[k]),
                ]
            )


def wall_curve_fields(geom) -> tuple[np.ndarray, np.ndarray]:
    """The 2d wall curve's measure ``|dx2| sqrt(1 + slope^2)`` per wall facet, and the shape
    form paired with its unit tangent ``(0, 1) / sqrt(1 + slope^2)`` and mu."""
    mesh, u = geom.mesh, geom.u
    fa, wall_cells = mesh.wall_facets, mesh.wall_cells
    xa, xb = mesh.vertices[fa, 1].T
    ua, ub = u.values[fa].T
    dx2 = xb - xa
    slope = (ub - ua) / dx2
    measure = np.abs(dx2) * np.sqrt(1.0 + slope * slope)
    _, hess_v = _fit_vertex_quadratics(mesh, u.values)
    m_f = 0.5 * (hess_v[fa[:, 0]] + hess_v[fa[:, 1]])
    du_w = geom.cell_gradient[wall_cells]
    g_w = np.eye(2)[None, :, :] + np.einsum("fi,fj->fij", du_w, du_w)
    form = np.einsum("fij,fjk,fkl->fil", m_f, geom.cell_hess_f[wall_cells], g_w)
    tau = np.stack([np.zeros(len(wall_cells)), 1.0 / np.sqrt(1.0 + slope * slope)], axis=1)
    hf_mu_tau = np.einsum("fi,fij,fj->f", tau, form, geom.wall_mu[:, :2])
    return measure, hf_mu_tau


def full_grid_function_bank(mesh, seed: int, size: int) -> list[np.ndarray]:
    """``verify.test_function_bank`` with every function evaluated at every vertex."""
    rng = np.random.default_rng(seed)
    dom = mesh.domain
    margin = 2.0 * mesh.h
    funcs = []
    guard = 0
    while len(funcs) < size and guard < 20 * size:
        guard += 1
        lo_r = 2.0 * mesh.h
        hi_r = max(0.25 * min(dom.extents()), 3.0 * mesh.h)
        rho = float(rng.uniform(lo_r, hi_r))
        center = [float(rng.uniform(0.0, max(dom.depth - rho - margin, 1e-9)))]
        for _ in range(1, mesh.n):
            half = max(dom.width - rho - margin, 1e-9)
            center.append(float(rng.uniform(-half, half)))
        center = np.array(center)
        if rng.random() < 0.5:
            d = np.linalg.norm(mesh.vertices - center, axis=1)
            phi = np.where(d < rho, np.cos(0.5 * np.pi * np.minimum(d / rho, 1.0)) ** 2, 0.0)
        else:
            phi = np.maximum(0.0, 1.0 - np.abs(mesh.vertices[:, 0] - center[0]) / rho)
            for k in range(1, mesh.n):
                phi = phi * np.maximum(0.0, 1.0 - np.abs(mesh.vertices[:, k] - center[k]) / rho)
        phi[mesh.vertex_tags == Tag.DIRICHLET] = 0.0
        if phi.max() > 1e-9:
            funcs.append(phi)
    return funcs


# -- functional inequality diagnostics ---------------------------------------------


def functional_inequality_ratios(geom, bank, radius_fractions=(0.25, 0.5, 1.0)) -> dict:
    """Trace / stability / Sobolev ratio maxima with every bank function
    integrated over the whole mesh."""
    mesh = geom.mesh
    area = geom.graph_measure()
    wall_b = mesh.wall_facets
    h_cell = geom.h_sq[mesh.cells].mean(axis=1)
    scale = min(geom.mesh.domain.extents())

    trace_max = 0.0
    stab_max = 0.0
    sob_max = 0.0
    for phi in bank:
        phi = np.asarray(phi, dtype=float)
        dphi = mesh.cell_gradients(phi)
        du = geom.cell_gradient
        grad_sq = np.einsum("ci,ci->c", dphi, dphi) - (
            np.einsum("ci,ci->c", du, dphi) / geom.cell_W
        ) ** 2
        grad_sq = np.maximum(grad_sq, 0.0)
        int_grad = float((area * np.sqrt(grad_sq)).sum())
        int_grad_sq = float((area * grad_sq).sum())
        # phi's mean over each wall facet's vertices, times its lifted measure
        bdry = float((geom.wall_measure * phi[wall_b].sum(axis=1) / mesh.n).sum())
        if int_grad > 1e-14:
            trace_max = max(trace_max, bdry / int_grad)
        phi_sq = integrate_pl_power(mesh, phi, 2, cell_weight=geom.cell_W)
        if int_grad_sq > 1e-14:
            num = integrate_pl_power(mesh, phi, 2, cell_weight=geom.cell_W * h_cell)
            stab_max = max(stab_max, num / int_grad_sq)
            if mesh.n > 1:  # (int phi^p W)^(2/p) for the Sobolev exponent p = 2n / (n - 1)
                p = 2 * mesh.n // (mesh.n - 1)
                lhs = integrate_pl_power(mesh, phi, p, cell_weight=geom.cell_W) ** (2 / p)
                for frac in radius_fractions:
                    r = frac * scale
                    rhs = phi_sq / r + r * int_grad_sq
                    if rhs > 1e-14:
                        sob_max = max(sob_max, lhs / rhs)
    return {"trace_ratio_max": trace_max, "stability_ratio_max": stab_max,
            "sobolev_ratio_max": sob_max}


# -- first-variation identity -------------------------------------------------------


def first_variation_per_field(geom, margin: Optional[float] = None) -> list[float]:
    """``check_first_variation``'s per-field defects with the cutoff evaluated point by
    point at every quadrature point."""
    mesh = geom.mesh
    dom = mesh.domain
    if margin is None:
        margin = max(4.0 * mesh.h, 0.15 * min(dom.extents()))
    half = np.array(dom.half())

    def cutoff(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        t = np.clip((np.abs(x) - (half - margin)) / margin, 0.0, 1.0)
        ramps = np.cos(0.5 * np.pi * t) ** 2
        slopes = np.where((t > 0) & (t < 1), -0.5 * np.pi * np.sin(np.pi * t) / margin, 0.0)
        others = [np.prod(np.delete(ramps, k, axis=1), axis=1) for k in range(mesh.n)]
        return np.prod(ramps, axis=1), slopes * np.stack(others, axis=1) * np.sign(x)

    cell_verts = mesh.vertices[mesh.cells]
    # every edge once, by gap g and then its first vertex i: (i, i + g mod n + 1)
    m, edges = mesh.n + 1, []
    for g in range(1, m):
        for i in range(m):
            edge = sorted((i, (i + g) % m))
            if edge not in edges:
                edges.append(edge)
    qpts = np.stack([0.5 * (cell_verts[:, i] + cell_verts[:, j]) for i, j in edges], axis=1)
    nq = qpts.shape[1]
    area = geom.graph_measure()
    hf_cell = geom.mean_curvature_aniso[mesh.cells].mean(axis=1)
    chi_w, _ = cutoff(mesh.vertices[mesh.wall_facets].mean(axis=1))
    chi_q = np.zeros((mesh.num_cells, nq))
    dchi_q = np.zeros((mesh.num_cells, nq, mesh.n + 1))
    for j in range(nq):
        chi_j, dchi_j = cutoff(qpts[:, j, :])
        chi_q[:, j] = chi_j
        dchi_q[:, j, : mesh.n] = dchi_j

    per_field = []
    for k in range(mesh.n + 1):
        divF = geom.cell_F_normal[:, None] * dchi_q[:, :, k] - geom.cell_normal[
            :, k, None
        ] * np.einsum("cqi,ci->cq", dchi_q, geom.cell_aniso_normal)
        lhs = float((area * divF.mean(axis=1)).sum())
        mid = float((area * hf_cell * chi_q.mean(axis=1) * geom.cell_normal[:, k]).sum())
        bdry = float((geom.wall_measure * chi_w * geom.wall_mu_F[:, k]).sum())
        per_field.append(abs(lhs - mid - bdry))
    return per_field
