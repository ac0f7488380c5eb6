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
  ``g(grad_S psi, A_F grad_S phi) = W * Dpsi^T B Dphi``, which
  ``verify.check_boundary_tangency`` evaluates on the wall cells;
* the anisotropic shape form in graph coordinates is ``(D^2 u) B G``, whose
  G-trace is ``tr(D^2 u * B)`` -- exactly the divergence-form equation
  residual, so anisotropic minimality means this trace vanishes.

Everything is a pure function of (integrand, graph); results are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement, product

import numpy as np

from .domain import Mesh
from .integrand import EllipticIntegrand
from .solver import GraphFunction

__all__ = [
    "GraphGeometry",
    "compute_geometry",
]


# -- geometry bundle -----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GraphGeometry:
    """All geometric fields of a solved graph, per cell / vertex / wall facet."""

    u: GraphFunction
    integrand: EllipticIntegrand

    # per cell
    cell_gradient: np.ndarray      # Du
    cell_W: np.ndarray             # sqrt(1 + |Du|^2)
    cell_normal: np.ndarray        # upward unit normal
    cell_aniso_normal: np.ndarray  # DF(normal), the Cahn-Hoffman vector
    cell_F_normal: np.ndarray      # F(normal)
    cell_Wf: np.ndarray            # f(Du) = F(normal) * W
    cell_hess_f: np.ndarray        # D^2 f(Du)
    cell_log_Wf: np.ndarray        # log(Wf / sphere minimum of F)

    # per vertex (quadratic two-ring fit)
    vertex_gradient: np.ndarray
    fit_ok: np.ndarray  # all True, since a singular fit raises; kept for perfbench's
                        # geometry.fit_ok_frac
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


def _two_ring_classes(mesh: Mesh) -> list[tuple[tuple[slice, ...], np.ndarray]]:
    """The vertex grid's index classes: blocks of grid slices, each with the grid-index
    offsets of its vertices' two-ring (the vertex included) in lexicographic order.  Along
    an axis an index is 0, 1, in the middle, the last but one or the last; over a product
    of such ranges the same offsets stay on the grid, so there are at most 5^n classes."""
    cell = mesh.split.offsets
    edges = {*map(tuple, (cell[:, :, None] - cell[:, None]).reshape(-1, mesh.n).tolist())}
    # distinct, in lexicographic order (a plain np.unique would import numpy.ma)
    ring2 = np.array(sorted({tuple(map(sum, zip(a, b))) for a in edges for b in edges}))
    axes = []  # per axis, each range's slice and the offsets that keep all of it on the grid
    for k, d in enumerate(mesh.divisions):
        cuts = sorted({min(max(i, 0), d + 1) for i in (0, 1, 2, d - 1, d, d + 1)})
        axes.append([(slice(a, b), (a + ring2[:, k] >= 0) & (b - 1 + ring2[:, k] <= d))
                     for a, b in zip(cuts, cuts[1:])])
    return [(tuple(s for s, _ in c), ring2[np.logical_and.reduce([m for _, m in c])])
            for c in product(*axes)]


def _weighted_design(dx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The weighted design matrix of a quadratic fit through points at offsets ``dx`` (in
    mesh sizes) from its centre, and the weights: a Gaussian of width 2h."""
    w = np.exp(-np.sum(dx * dx, axis=1) / 4.0)
    pairs = combinations_with_replacement(range(dx.shape[1]), 2)  # the Hessian's entries
    return np.stack([np.ones(len(dx)), *dx.T,
                     *((0.5 if i == j else 1.0) * dx[:, i] * dx[:, j] for i, j in pairs)],
                    axis=1) * w[:, None], w


def _fit_vertex_quadratics(mesh: Mesh, values: np.ndarray):
    """Weighted quadratic LS fit on the two-ring of every vertex: one weighted
    pseudo-inverse per index class (``_two_ring_classes``), built from the stencil of its
    first vertex.  ValueError if that stencil has fewer vertices than the fit has
    coefficients or its weighted design is nearly singular.  No mesh of ``build_mesh`` with
    at least three cells per axis does either: its spacings are within a factor 7/5 of each
    other.  The design is in units of the mesh size h, so the rule does not depend on the
    scale of the domain."""
    n, nv, h = mesh.n, mesh.num_vertices, mesh.h
    pairs = list(combinations_with_replacement(range(n), 2))
    counts = tuple(d + 1 for d in mesh.divisions)
    strides = [math.prod(counts[k + 1:]) for k in range(n)]  # of the row-by-row numbering
    grid_ids = np.arange(nv).reshape(counts)
    coef = np.zeros((nv, 1 + n + len(pairs)))
    for block, offsets in _two_ring_classes(mesh):
        block_ids, shift = grid_ids[block].ravel(), offsets @ strides
        a, w = _weighted_design((mesh.vertices[block_ids[0] + shift]
                                 - mesh.vertices[block_ids[0]]) / h)
        left, sv, right = np.linalg.svd(a, full_matrices=False)
        if a.shape[0] < a.shape[1] or sv[-1] <= 1e-10 * sv[0]:
            raise ValueError("singular curvature fit on the grid indices "
                             + " x ".join(f"[{s.start}, {s.stop})" for s in block))
        pinv = (right.T / sv) @ (left.T * w)
        # gathered in F order: a C-ordered gather moves the 3d fits in their last bits
        coef[block_ids] = values[(shift[:, None] + block_ids).T] @ pinv.T
    entry = [1 + n + pairs.index((min(i, j), max(i, j))) for i in range(n) for j in range(n)]
    return coef[:, 1 : 1 + n] / h, coef[:, entry].reshape(nv, n, n) / h ** 2


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
    have usable stencils.  A ``_COLLAR * h`` band along the truncation
    boundary, where those stencils are one-sided, is marked for the
    curvature-based checks to leave out.
    """
    mesh = u.mesh
    if integrand.dim != mesh.n + 1:
        raise ValueError("integrand ambient dimension must be mesh dimension + 1")
    if any(d < 3 for d in mesh.divisions):
        raise ValueError("geometry needs at least two interior vertex layers per axis")

    du = u.cell_gradients()
    w = np.sqrt(1.0 + np.einsum("ci,ci->c", du, du))
    # one lift each of du, normal and grad_v, dropped once used
    lifted = integrand.lift(du)  # (-du, 1)
    normal = lifted[0] / w[:, None]
    wf, hess_f = integrand.F(lifted), integrand.D2f(lifted)
    at_normal = integrand.points(normal)
    nu_f, f_normal = integrand.DF(at_normal), integrand.F(at_normal)
    del lifted, at_normal

    f_min = integrand.sphere_range[0]
    cell_log_wf = np.log(wf / f_min)

    grad_v, hess_v = _fit_vertex_quadratics(mesh, u.values)
    w_v = np.sqrt(1.0 + np.einsum("vi,vi->v", grad_v, grad_v))
    lifted_v = integrand.lift(grad_v)
    wf_v, b_v = integrand.F(lifted_v), integrand.D2f(lifted_v)
    del lifted_v
    log_wf_v = np.log(wf_v / f_min)

    h_f_trace = np.einsum("vij,vji->v", hess_v, b_v)
    gm = np.einsum("vi,vij->vj", grad_v, hess_v)
    p = hess_v - np.einsum("vi,vj->vij", grad_v, gm) / (w_v ** 2)[:, None, None]
    h_sq = np.einsum("vij,vji->v", p, p) / w_v ** 2

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

    # the lifted wall facets: a facet lies in x_1 = 0 and u is linear on its owning cell, so
    # u's gradient D_T u within it is the cell's along x_2 ... x_n; unlifted, each facet is a
    # cell of the wall's split, of measure prod(spacing_2 ... spacing_n) / (n - 1)!
    du_w = du[wall_cells]
    slope = du_w[:, 1:]
    spacing = [e / d for e, d in zip(mesh.domain.extents()[1:], mesh.divisions[1:])]
    wall_measure = (math.prod(spacing) / math.factorial(mesh.n - 1)
                    * np.sqrt(1.0 + np.einsum("fi,fi->f", slope, slope)))
    # the shape form on (tangent, mu), for each tangent of a g-orthonormal wall frame
    m_f = hess_v[fa].mean(axis=1)
    g_w = np.eye(mesh.n)[None, :, :] + np.einsum("fi,fj->fij", du_w, du_w)
    form = np.einsum("fij,fjk,fkl->fil", m_f, hess_f[wall_cells], g_w)
    hf_mu_tau = np.empty((len(fa), mesh.n - 1))
    for a, tau in enumerate(_wall_frame(slope)):
        hf_mu_tau[:, a] = np.einsum("fi,fij,fj->f", tau, form, mu[:, :mesh.n])

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
        cell_log_Wf=cell_log_wf,
        vertex_gradient=grad_v,
        fit_ok=np.ones(mesh.num_vertices, dtype=bool),
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

