"""Discrete anisotropic geometry of a piecewise-linear graph.

Per-cell quantities (gradient, normal, area elements, integrand Hessians)
are exact for the PL interpolant.  Curvature lives at vertices: second
derivatives come from a weighted quadratic least-squares fit over the
two-ring, which is exact for quadratics and O(h)-consistent on structured
grids.  Wall facets carry the co-normal mu (inside the surface) and the
anisotropic co-normal mu_F.

Two coordinate identities do most of the work here.  Writing ``B`` for the
Lagrangian Hessian ``D^2 f(Du)`` and ``G = I + Du Du^T``:

* the tangential pairing of surface gradients reduces to
  ``g(grad_S psi, A_F grad_S phi) = W * Dpsi^T B Dphi``;
* the anisotropic shape form in graph coordinates is ``(D^2 u) B G``, whose
  G-trace is ``tr(D^2 u * B)`` -- exactly the divergence-form equation
  residual, so anisotropic minimality means this trace vanishes.

Everything is a pure function of (integrand, graph); results are immutable.
The geometry takes the integrand divided by its ``scale``: a rescaled integrand
has the same minimizers, so no field a check judges moves with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations, combinations_with_replacement, permutations

import numpy as np

from .domain import Mesh, vertex_stencils
from .integrand import EllipticIntegrand
from .solver import GraphFunction

__all__ = [
    "GraphGeometry",
    "compute_geometry",
    "surface_gradient",
]


# -- geometry bundle -----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GraphGeometry:
    """All geometric fields of a solved graph, per cell / vertex / wall facet."""

    u: GraphFunction
    integrand: EllipticIntegrand  # divided by its scale, as every field below is

    # per cell
    cell_gradient: np.ndarray      # Du
    cell_W: np.ndarray             # sqrt(1 + |Du|^2)
    cell_normal: np.ndarray        # upward unit normal
    cell_aniso_normal: np.ndarray  # DF(normal), the Cahn-Hoffman vector
    cell_F_normal: np.ndarray      # F(normal)
    cell_Wf: np.ndarray            # f(Du) = F(normal) * W
    cell_hess_f: np.ndarray        # D^2 f(Du)
    cell_AF: np.ndarray            # ambient D^2 F(normal)
    cell_log_Wf: np.ndarray        # log(Wf / sphere minimum of F)

    # per vertex (quadratic two-ring fit)
    vertex_gradient: np.ndarray
    fit_ok: np.ndarray
    vertex_W: np.ndarray
    vertex_Wf: np.ndarray
    vertex_log_Wf: np.ndarray
    mean_curvature_aniso: np.ndarray  # trace_g of the anisotropic shape form
    h_sq: np.ndarray                  # |second fundamental form|^2
    collar: np.ndarray                # vertices near the truncation boundary

    # per wall facet (``mesh.wall_facets``, owned by ``mesh.wall_cells``)
    wall_mu: np.ndarray
    wall_mu_F: np.ndarray
    wall_nuF_e1: np.ndarray      # <nu_F, e1>, the geometric wall condition
    wall_muF_e1: np.ndarray      # <mu_F, -e1>
    wall_measure: np.ndarray     # measure of each wall facet lifted to the graph
    wall_hF_mu_tau: np.ndarray   # (facets, n - 1): the shape form paired (tau_a, mu) over
                                 # a g-orthonormal frame tau_a of the wall's tangents

    @property
    def mesh(self) -> Mesh:
        return self.u.mesh

    def graph_measure(self) -> np.ndarray:
        """Per-cell surface measure |cell| * W of the graph."""
        return self.mesh.split.measure * self.cell_W


def _fit_vertex_quadratics(mesh: Mesh, values: np.ndarray):
    """Weighted quadratic LS fit on the two-ring of every vertex.

    On the structured grid a two-ring is fixed, up to rounding in the vertex
    coordinates, by which of its offsets fall inside the grid.  Vertices are
    grouped by that offset pattern, and each group is fitted with one
    weighted pseudo-inverse built from its first vertex's stencil.
    """
    n = mesh.n
    pairs = list(combinations_with_replacement(range(n), 2))  # the Hessian's entries
    ncoef = 1 + n + len(pairs)
    _, ids, in_grid = vertex_stencils(mesh)
    nv = mesh.num_vertices
    coef = np.zeros((nv, ncoef))
    ok = np.zeros(nv, dtype=bool)
    sigma = 2.0 * mesh.h
    key = in_grid.astype(np.int64) @ (1 << np.arange(in_grid.shape[1], dtype=np.int64))
    _, first, pattern = np.unique(key, return_index=True, return_inverse=True)
    for p, v in enumerate(first):
        idx = ids[v, in_grid[v]]
        dx = mesh.vertices[idx] - mesh.vertices[v]
        cols = np.stack([np.ones(idx.size), *dx.T,
                         *((0.5 if i == j else 1.0) * dx[:, i] * dx[:, j] for i, j in pairs)],
                        axis=1)
        w = np.exp(-np.sum(dx * dx, axis=1) / (sigma * sigma))
        a = cols * w[:, None]
        left, sv, right = np.linalg.svd(a, full_matrices=False)
        # the rank np.linalg.lstsq reports with its default rcond
        rank = int(np.count_nonzero(sv > np.finfo(float).eps * max(a.shape) * sv[0]))
        if rank < ncoef or sv[-1] <= 1e-10 * sv[0]:
            continue
        members = np.flatnonzero(pattern == p)
        pinv = (right.T / sv) @ (left.T * w)
        coef[members] = values[ids[members][:, in_grid[v]]] @ pinv.T
        ok[members] = True
    grad = coef[:, 1 : 1 + n].copy()
    entry = [1 + n + pairs.index((min(i, j), max(i, j))) for i in range(n) for j in range(n)]
    hess = coef[:, entry].reshape(nv, n, n)
    return grad, hess, ok


def _det(m: np.ndarray) -> np.ndarray:
    """Determinants of a stack of k x k matrices by the Leibniz formula: the entry itself
    for k = 1, and one for k = 0."""
    k = m.shape[-1]
    terms = []
    for perm in permutations(range(k)):
        term = math.prod((m[..., i, j] for i, j in enumerate(perm)), start=np.ones(m.shape[:-2]))
        odd = sum(a > b for a, b in combinations(perm, 2)) % 2
        terms.append(-term if odd else term)
    return sum(terms[1:], terms[0])


def _cramer(a: np.ndarray, b: np.ndarray, det: np.ndarray) -> np.ndarray:
    """The solutions x of the stacked systems ``a x = b`` by Cramer's rule, ``det`` being
    ``_det(a)``: exactly ``b / a`` for k = 1, which a LAPACK solve need not be."""
    x = np.empty(b.shape)
    for j in range(b.shape[-1]):
        aj = a.copy()
        aj[..., j] = b
        x[..., j] = _det(aj) / det
    return x


def _wall_frame(slope: np.ndarray) -> list[np.ndarray]:
    """A frame of the wall's tangents span(e_2, ..., e_n), one (facets, n) array per
    tangent: Gram-Schmidt from e_2, ... in the metric g, which on these tangents is
    ``v . w + (D_T u . v)(D_T u . w)`` for u's gradient ``slope`` = D_T u within the facet."""
    def g(v, w):
        return (np.einsum("fi,fi->f", v, w)
                + np.einsum("fi,fi->f", slope, v) * np.einsum("fi,fi->f", slope, w))

    frame = []
    for k in range(slope.shape[1]):
        v = np.zeros_like(slope)
        v[:, k] = 1.0
        for t in frame:
            v = v - g(v, t)[:, None] * t
        frame.append(v / np.sqrt(g(v, v))[:, None])
    return [np.column_stack([np.zeros(len(slope)), t]) for t in frame]


_COLLAR = 2.0  # the width of the collar along the truncation boundary, in mesh sizes


def compute_geometry(integrand: EllipticIntegrand, u: GraphFunction) -> GraphGeometry:
    """Compute every geometric field of the graph of ``u``.

    Requires at least two layers of interior vertices so the curvature fits
    have usable stencils.  Vertices whose fit is rank-deficient are flagged
    and excluded from curvature-based checks; a ``_COLLAR * h`` band along
    the truncation boundary is marked for the same reason.
    """
    mesh = u.mesh
    if integrand.dim != mesh.n + 1:
        raise ValueError("integrand ambient dimension must be mesh dimension + 1")
    if any(d < 3 for d in mesh.divisions):
        raise ValueError("geometry needs at least two interior vertex layers per axis")
    integrand = replace(integrand, scale=1.0)

    du = u.cell_gradients()
    w = np.sqrt(1.0 + np.einsum("ci,ci->c", du, du))
    # one lift each of du, normal and grad_v, dropped once used
    lifted = integrand.lift(du)  # (-du, 1)
    normal = lifted[0] / w[:, None]
    wf, hess_f = integrand.F(lifted), integrand.D2f(lifted)
    at_normal = integrand.points(normal)
    nu_f, f_normal, af = integrand.DF(at_normal), integrand.F(at_normal), integrand.D2F(at_normal)
    del lifted, at_normal

    f_min = integrand.sphere_range()[0]
    cell_log_wf = np.log(wf / f_min)

    grad_v, hess_v, ok = _fit_vertex_quadratics(mesh, u.values)
    w_v = np.sqrt(1.0 + np.einsum("vi,vi->v", grad_v, grad_v))
    lifted_v = integrand.lift(grad_v)
    wf_v, b_v = integrand.F(lifted_v), integrand.D2f(lifted_v)
    del lifted_v
    # fallback for flagged vertices: plain average of incident-cell values
    bad = ~ok
    if bad.any():
        cnt = np.maximum(mesh.scatter(np.ones(mesh.cells.shape)), 1.0)
        wf_v[bad] = mesh.scatter(wf[:, None].repeat(mesh.n + 1, axis=1))[bad] / cnt[bad]
        w_v[bad] = mesh.scatter(w[:, None].repeat(mesh.n + 1, axis=1))[bad] / cnt[bad]
    log_wf_v = np.log(wf_v / f_min)

    h_f_trace = np.einsum("vij,vji->v", hess_v, b_v)
    gm = np.einsum("vi,vij->vj", grad_v, hess_v)
    p = hess_v - np.einsum("vi,vj->vij", grad_v, gm) / (w_v ** 2)[:, None, None]
    h_sq = np.einsum("vij,vji->v", p, p) / w_v ** 2
    h_f_trace[bad] = np.nan
    h_sq[bad] = np.nan

    half = np.array(mesh.domain.half())
    collar = np.any(np.abs(mesh.vertices) > half - _COLLAR * mesh.h - 1e-12, axis=1)

    fa, wall_cells = mesh.wall_facets, mesh.wall_cells
    nu_w = normal[wall_cells]
    nuf_w = nu_f[wall_cells]
    t = -np.eye(mesh.n + 1)[0] + nu_w[:, [0]] * nu_w
    t_norm = np.linalg.norm(t, axis=1)
    if np.any(t_norm < 1e-14):
        raise ValueError("degenerate wall facet: surface tangent to the wall")
    mu = t / t_norm[:, None]
    nuf_nu = np.einsum("fi,fi->f", nuf_w, nu_w)
    nuf_mu = np.einsum("fi,fi->f", nuf_w, mu)
    mu_f = nuf_nu[:, None] * mu - nuf_mu[:, None] * nu_w

    # the lifted wall facets: each facet's edges from its first vertex along x_2 ... x_n, and
    # u's rise along them, give its measure and the gradient D_T u of u within it
    x_w, u_w = mesh.vertices[fa][:, :, 1:], u.values[fa]
    edges = x_w[:, 1:] - x_w[:, :1]
    det = _det(edges)
    if np.any(np.abs(det) < 1e-14):
        raise ValueError("degenerate wall facet of zero measure")
    slope = _cramer(edges, u_w[:, 1:] - u_w[:, :1], det)
    wall_measure = (np.abs(det) / math.factorial(mesh.n - 1)
                    * np.sqrt(1.0 + np.einsum("fi,fi->f", slope, slope)))
    # the shape form on (tangent, mu), for each tangent of a g-orthonormal wall frame
    m_f = hess_v[fa].mean(axis=1)
    du_w = du[wall_cells]
    g_w = np.eye(mesh.n)[None, :, :] + np.einsum("fi,fj->fij", du_w, du_w)
    form = np.einsum("fij,fjk,fkl->fil", m_f, hess_f[wall_cells], g_w)
    hf_mu_tau = np.empty((len(fa), mesh.n - 1))
    for a, tau in enumerate(_wall_frame(slope)):
        hf_mu_tau[:, a] = np.einsum("fi,fij,fj->f", tau, form, mu[:, :mesh.n])
    hf_mu_tau[~ok[fa].all(axis=1)] = np.nan

    return GraphGeometry(
        u=u,
        integrand=integrand,
        cell_gradient=du,
        cell_W=w,
        cell_normal=normal,
        cell_aniso_normal=nu_f,
        cell_F_normal=f_normal,
        cell_Wf=wf,
        cell_hess_f=hess_f,
        cell_AF=af,
        cell_log_Wf=cell_log_wf,
        vertex_gradient=grad_v,
        fit_ok=ok,
        vertex_W=w_v,
        vertex_Wf=wf_v,
        vertex_log_Wf=log_wf_v,
        mean_curvature_aniso=h_f_trace,
        h_sq=h_sq,
        collar=collar,
        wall_mu=mu,
        wall_mu_F=mu_f,
        wall_nuF_e1=nuf_w[:, 0],
        wall_muF_e1=-mu_f[:, 0],
        wall_measure=wall_measure,
        wall_hF_mu_tau=hf_mu_tau,
    )


def surface_gradient(geom: GraphGeometry, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell surface gradient of a PL vertex field and its A_F image.

    Returns ambient (n+1)-vectors ``(grad, grad_F)``, both tangent to the
    graph; ``grad_F`` applies the integrand Hessian at the cell normal.
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
    grad_f = np.einsum("cij,cj->ci", geom.cell_AF, grad)
    return grad, grad_f

