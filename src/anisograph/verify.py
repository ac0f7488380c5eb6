"""Verification probes for solved free-boundary graphs.

Each probe inspects a solved graph (or a family of them) and emits a
structured :class:`CheckReport`.  Pass/fail probes compare a worst residual
against a tolerance; algebraic identities get 1e-12-class tolerances, while
discretization-limited probes use ``coef * h`` with coefficients frozen from
the reference curved scenario (Euclidean integrand, sine Dirichlet data) and
validated by refinement studies.  Informational probes report fitted
constants or observed ratios instead of a verdict.

Every probe is deterministic given its inputs and an explicit seed, and
independent probes may run concurrently.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .boundary_data import evaluate_data_spec
from .domain import HalfDomain, Mesh, Tag, build_mesh
from .geometry import GraphGeometry, surface_gradient
from .integrand import EllipticIntegrand
from .solver import SolveConfig, solve

__all__ = [
    "BoxFunction",
    "CheckReport",
    "GradientEstimateRecord",
    "CheckDefaults",
    "DEFAULTS",
    "check_boundary_tangency",
    "check_wall_condition",
    "check_interior_minimality",
    "check_wall_principal_direction",
    "check_first_variation",
    "check_area_element_identity",
    "check_subharmonicity",
    "gradient_estimate_records",
    "fit_gradient_constants",
    "gradient_estimate_probe",
    "holdout_satisfaction",
    "liouville_probe",
    "area_growth_check",
    "functional_inequality_diagnostics",
    "mean_value_probe",
    "test_function_bank",
]


@dataclass
class CheckReport:
    """Outcome of one verification probe.

    For pass/fail probes ``status == "pass"`` exactly when
    ``worst_residual <= tolerance``; informational probes have no tolerance
    and carry their fitted constants in ``metadata``.
    """

    check_name: str
    status: str
    worst_residual: float
    tolerance: Optional[float]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.status not in ("pass", "fail", "informational"):
            raise ValueError(f"bad status {self.status!r}")

    def to_json_dict(self) -> dict:
        return {
            "check": self.check_name,
            "status": self.status,
            "worst_residual": float(self.worst_residual),
            "tolerance": None if self.tolerance is None else float(self.tolerance),
            "metadata": _plain(self.metadata),
        }


def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def _report(name: str, residual: float, tolerance: Optional[float], /, **metadata) -> CheckReport:
    if tolerance is None:
        status = "informational"
    else:
        status = "pass" if residual <= tolerance else "fail"
    return CheckReport(name, status, float(residual), tolerance, metadata=metadata)


@dataclass(frozen=True)
class GradientEstimateRecord:
    """One probe point for the gradient bound log|Du| <= c1 + c2 * osc / r."""

    x0: tuple
    r: float
    lhs: float
    osc: float
    osc_over_r: float

    def __post_init__(self) -> None:
        if self.r <= 0.0:
            raise ValueError("radius must be positive")
        if self.osc < -1e-12:
            raise ValueError("oscillation must be nonnegative")


@dataclass(frozen=True)
class CheckDefaults:
    """Tolerance coefficients (times mesh size h) for the O(h) probes.

    Calibrated once on the reference curved scenario at h = 1/32 with
    roughly 4x headroom, then frozen; refinement studies confirm the
    residuals decay at first order or better.
    """

    boundary_tangency_coef: float = 0.04
    wall_condition_coef: float = 0.2
    interior_minimality_coef: float = 0.35
    wall_principal_coef: float = 0.8
    first_variation_coef: float = 0.35
    subharmonicity_coef: float = 0.01
    identity_tol: float = 1e-12


DEFAULTS = CheckDefaults()


# -- identity / O(h) checks on a single solved graph ---------------------------


def check_boundary_tangency(geom: GraphGeometry,
                            coef: float = DEFAULTS.boundary_tangency_coef) -> CheckReport:
    """Tangency of the anisotropic surface gradient of W_f along the wall.

    Measures max over wall facets of |g(grad_F W_f, mu)|; exactly zero for
    flat solutions (constant W_f) and O(h) on curved ones.
    """
    _, grad_f = surface_gradient(geom, geom.vertex_Wf)
    vals = np.einsum("fi,fi->f", grad_f[geom.mesh.wall_cells], geom.wall_mu)
    residual = float(np.abs(vals).max()) if vals.size else 0.0
    return _report(
        "boundary_tangency", residual, coef * geom.mesh.h,
        h=geom.mesh.h, integrand=geom.integrand.to_descriptor(),
    )


def check_wall_condition(geom: GraphGeometry,
                         coef: float = DEFAULTS.wall_condition_coef) -> CheckReport:
    """Geometric free-boundary condition <nu_F, e1> = 0 on wall facets."""
    residual = float(np.abs(geom.wall_nuF_e1).max()) if geom.wall_nuF_e1.size else 0.0
    return _report(
        "wall_condition", residual, coef * geom.mesh.h,
        h=geom.mesh.h, integrand=geom.integrand.to_descriptor(),
    )


def check_interior_minimality(geom: GraphGeometry,
                              coef: float = DEFAULTS.interior_minimality_coef) -> CheckReport:
    """Max anisotropic mean curvature over interior vertices off the collar."""
    mask = (
        (geom.mesh.vertex_tags == Tag.INTERIOR)
        & geom.fit_ok
        & ~geom.collar
    )
    vals = geom.mean_curvature_aniso[mask]
    residual = float(np.abs(vals).max()) if vals.size else 0.0
    return _report(
        "interior_minimality", residual, coef * geom.mesh.h,
        h=geom.mesh.h, n_vertices=int(mask.sum()),
    )


def check_wall_principal_direction(
    geom: GraphGeometry, coef: float = DEFAULTS.wall_principal_coef
) -> CheckReport:
    """Wall co-normal as an anisotropic principal direction: the shape form pairs mu with
    every wall tangent to zero.  The residual is the worst pairing over the wall frame; a
    1d graph has no wall tangent."""
    if geom.wall_hF_mu_tau.shape[1] == 0:
        return _report("wall_principal_direction", 0.0, None, skipped="no wall tangent (n=1)")
    in_collar = geom.collar[geom.mesh.wall_facets].any(axis=1)
    vals = np.abs(geom.wall_hF_mu_tau[~in_collar]).max(axis=1)
    vals = vals[np.isfinite(vals)]
    residual = float(vals.max()) if vals.size else 0.0
    return _report(
        "wall_principal_direction", residual, coef * geom.mesh.h, h=geom.mesh.h
    )


def check_area_element_identity(geom: GraphGeometry) -> CheckReport:
    """Per-cell identity W_f = F(nu) W and the m/M comparability sandwich."""
    identity = float(np.abs(geom.cell_Wf - geom.cell_F_normal * geom.cell_W).max())
    rng = geom.integrand.analytic_sphere_range()
    meta: dict = {"identity_residual": identity}
    ratio = geom.cell_Wf / geom.cell_W
    if rng is None:
        # no closed-form sphere range: report the sampled one without a verdict
        lo, hi = geom.integrand.sphere_range()
        meta.update(sampled_range=[lo, hi], ratio_range=[float(ratio.min()), float(ratio.max())])
        return _report("area_element_identity", identity, None, **meta)
    lo, hi = rng
    sandwich = max(0.0, lo - float(ratio.min()), float(ratio.max()) - hi)
    meta["sandwich_violation"] = sandwich
    residual = max(identity, sandwich)
    return _report("area_element_identity", residual, DEFAULTS.identity_tol, **meta)


def _hat_forms(geom: GraphGeometry, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weak form and quadratic term of the weighted operator against all hats.

    Returns per-vertex arrays (wdf, quad) where, for the hat at vertex v,
    wdf[v] = -int F^2 g(grad hat_v, grad_F phi) and
    quad[v] = int hat_v F^2 g(grad phi, grad_F phi), both over the graph.
    """
    mesh = geom.mesh
    dphi = mesh.cell_gradients(phi)
    bt = np.einsum("cij,cj->ci", geom.cell_hess_f, dphi)
    weight = geom.cell_W ** 2 * geom.cell_F_normal ** 2
    quad_cell = mesh.split.measure * weight * np.einsum("ci,ci->c", dphi, bt) / (mesh.n + 1)
    return (-mesh.scatter_flux(weight[:, None] * bt),
            mesh.scatter(quad_cell[:, None].repeat(mesh.n + 1, axis=1)))


def check_subharmonicity(geom: GraphGeometry,
                         coef: float = DEFAULTS.subharmonicity_coef) -> CheckReport:
    """Weak subharmonicity of log W_f against every admissible vertex hat.

    For each nonnegative hat psi off the Dirichlet boundary the weak form of
    div_S(F^2 grad_F log W_f) tested with psi must dominate the quadratic
    term int psi F^2 g(grad log W_f, grad_F log W_f); the report carries the
    most negative slack.  The quadratic term itself is nonnegative cell by
    cell.
    """
    mesh = geom.mesh
    wdf, quad = _hat_forms(geom, geom.vertex_log_Wf)
    admissible = mesh.vertex_tags != Tag.DIRICHLET
    slack = wdf[admissible] - quad[admissible]
    min_slack = float(slack.min()) if slack.size else 0.0
    quad_min = float(quad[admissible].min()) if slack.size else 0.0
    residual = max(0.0, -min_slack)
    return _report(
        "subharmonicity", residual, coef * geom.mesh.h,
        min_slack=min_slack, quad_min=quad_min, n_hats=int(admissible.sum()),
        h=geom.mesh.h,
    )


def check_first_variation(
    geom: GraphGeometry, coef: float = DEFAULTS.first_variation_coef,
    margin: Optional[float] = None,
) -> CheckReport:
    """Integral first-variation identity tested with cutoff coordinate fields.

    For X = chi(x) v with chi a smooth cutoff vanishing near the truncation
    boundary, quadrature of the weighted surface divergence must balance the
    curvature and wall co-normal terms up to O(h).
    """
    mesh = geom.mesh
    dom = mesh.domain
    if margin is None:
        margin = max(4.0 * mesh.h, 0.15 * min(dom.extents()))
    half = np.array(dom.half())

    def ramp(x: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Axis k's factor of chi at coordinates x, falling from 1 to 0 as |x| nears
        half[k], with its slope in |x| and the sign of x."""
        t = np.clip((np.abs(x) - (half[k] - margin)) / margin, 0.0, 1.0)
        slope = np.where((t > 0) & (t < 1), -0.5 * np.pi * np.sin(np.pi * t) / margin, 0.0)
        return np.cos(0.5 * np.pi * t) ** 2, slope, np.sign(x)

    def cutoff(factors: list) -> tuple[np.ndarray, list]:
        """chi, the product of the axes' ``ramp`` triples (broadcastable), and its spatial
        gradient, one array per axis."""
        ramps = [f[0] for f in factors]
        grads = [slope * math.prod(ramps[:k] + ramps[k + 1:]) * sign
                 for k, (_, slope, sign) in enumerate(factors)]
        return math.prod(ramps), grads

    # quadrature points per cell: the midpoints of its edges (i, i + g mod n + 1), by gap g
    # and then i, each edge once; degree 2 on triangles, 1 on intervals and tetrahedra.
    # They lie on the grid lines and half-lines, where each axis's factors are evaluated
    # once: along each axis, point j of the type-t cell of box b is at doubled grid index
    # 2 b + edge[t, j]
    offsets, m = mesh.split.offsets, mesh.n + 1
    ends = np.array(list(dict.fromkeys(tuple(sorted((i, (i + g) % m)))
                                       for g in range(1, m) for i in range(m))))
    edge = offsets[:, ends[:, 0]] + offsets[:, ends[:, 1]]
    nq = edge.shape[1]
    factors = []
    for k, x in enumerate(mesh.grid_lines()):
        doubled = np.empty(2 * x.size - 1)
        doubled[0::2], doubled[1::2] = x, 0.5 * (x[:-1] + x[1:])
        factors.append(ramp(doubled, k))
    area = geom.graph_measure()
    hf_cell = mesh.cell_means(np.nan_to_num(geom.mean_curvature_aniso, nan=0.0))
    wall_mid = mesh.vertices[mesh.wall_facets].mean(axis=1)
    chi_w, _ = cutoff([ramp(wall_mid[:, k], k) for k in range(mesh.n)])

    # chi and its gradient at each quadrature point, box by box, then in cell order
    chi_q = np.zeros(mesh.divisions + edge.shape[:2])
    dchi_q = np.zeros(mesh.divisions + edge.shape[:2] + (mesh.n + 1,))
    for t, j in np.ndindex(edge.shape[:2]):
        at = []  # each axis's factors over the boxes, shaped to broadcast along its axis
        for k, (axis, e, d) in enumerate(zip(factors, edge[t, j], mesh.divisions)):
            at.append(tuple(f[e::2][:d].reshape((1,) * k + (d,) + (1,) * (mesh.n - 1 - k))
                            for f in axis))
        chi_q[..., t, j], grads = cutoff(at)
        for k, g in enumerate(grads):
            dchi_q[..., t, j, k] = g
    chi_q = chi_q.reshape(mesh.num_cells, nq)
    dchi_q = dchi_q.reshape(mesh.num_cells, nq, mesh.n + 1)
    normal_dchi = np.einsum("cqi,ci->cq", dchi_q, geom.cell_aniso_normal)

    per_field = []
    for k in range(mesh.n + 1):
        divF = geom.cell_F_normal[:, None] * dchi_q[:, :, k] - geom.cell_normal[
            :, k, None
        ] * normal_dchi
        lhs = float((area * divF.mean(axis=1)).sum())
        mid = float((area * hf_cell * chi_q.mean(axis=1) * geom.cell_normal[:, k]).sum())
        bdry = float((geom.wall_measure * chi_w * geom.wall_mu_F[:, k]).sum())
        per_field.append(abs(lhs - mid - bdry))
    return _report(
        "first_variation", max(0.0, *per_field), coef * geom.mesh.h,
        per_field=per_field, margin=margin, h=geom.mesh.h,
    )


# -- gradient estimate probe ----------------------------------------------------


def _nearest_vertex(mesh: Mesh, x0) -> int:
    x0 = np.asarray(x0, dtype=float).reshape(mesh.n)
    return int(np.argmin(np.linalg.norm(mesh.vertices - x0, axis=1)))


def gradient_estimate_records(
    geom: GraphGeometry,
    x0_list: Sequence[Sequence[float]],
    r_list: Sequence[float],
) -> list[GradientEstimateRecord]:
    """Probe records (log|Du|, oscillation/r) at base points and radii.

    Base points snap to the nearest vertex and the gradient comes from the
    vertex-centered fit there (its location does not move under refinement,
    which keeps the fitted constants stable); flagged vertices fall back to
    the nearest cell gradient.  Radii whose half-ball would cross the
    truncation boundary are skipped with a warning.
    """
    mesh = geom.mesh
    half = np.array(mesh.domain.half())
    if any(r <= 0.0 for r in r_list):
        raise ValueError("radius must be positive")
    records = []
    for x0 in x0_list:
        v = _nearest_vertex(mesh, x0)
        xv = mesh.vertices[v]
        if geom.fit_ok[v]:
            # vertex-centered fit: the evaluation point stays put under refinement
            grad_norm = float(np.linalg.norm(geom.vertex_gradient[v]))
        else:
            c = int(np.argmin(np.linalg.norm(mesh.cell_means(mesh.vertices) - xv, axis=1)))
            grad_norm = float(np.linalg.norm(geom.cell_gradient[c]))
        lhs = math.log(max(grad_norm, 1e-300))
        dist = np.linalg.norm(mesh.vertices - xv, axis=1)
        for r in r_list:
            if not np.all(np.abs(xv) + r <= half + 1e-12):
                warnings.warn(
                    f"radius {r} at {xv.tolist()} leaves the truncated domain; skipped",
                    stacklevel=2,
                )
                continue
            osc = float(geom.u.values[dist <= r + 1e-12].max() - geom.u.values[v])
            records.append(
                GradientEstimateRecord(tuple(xv.tolist()), float(r), lhs, osc, osc / r)
            )
    return records


def fit_gradient_constants(
    records: Sequence[GradientEstimateRecord],
) -> tuple[float, float]:
    """Smallest nonnegative (c1, c2) with lhs <= c1 + c2 * osc/r on all records.

    Minimizes c1 + c2 by a coarse-to-fine sweep over c2 with the exact
    envelope c1(c2) = max(0, max_i(lhs_i - c2 q_i)); ties resolve toward the
    smaller c2.
    """
    if not records:
        raise ValueError("need at least one record to fit constants")
    lhs = np.array([rec.lhs for rec in records])
    q = np.array([rec.osc_over_r for rec in records])

    def c1_of(c2: float) -> float:
        return max(0.0, float((lhs - c2 * q).max()))

    pos = q > 1e-12
    hi = max(1.0, 1.2 * float(np.max(np.maximum(lhs[pos], 0.0) / q[pos], initial=0.0)))
    lo = best_c2 = 0.0
    for _ in range(4):
        grid = np.linspace(lo, hi, 129)
        objective = [c2 + c1_of(c2) for c2 in grid]
        k = int(np.argmin(objective))
        best_c2 = float(grid[k])
        step = grid[1] - grid[0]
        lo, hi = max(0.0, best_c2 - step), best_c2 + step
    return c1_of(best_c2), best_c2


def holdout_satisfaction(
    constants: tuple[float, float], records: Sequence[GradientEstimateRecord]
) -> float:
    """Fraction of records satisfying the fitted bound (with tiny slack)."""
    if not records:
        return 1.0
    c1, c2 = constants
    ok = sum(1 for rec in records if rec.lhs <= c1 + c2 * rec.osc_over_r + 1e-9)
    return ok / len(records)


def gradient_estimate_probe(
    geom: GraphGeometry,
    x0_list: Sequence[Sequence[float]],
    r_list: Sequence[float],
) -> CheckReport:
    """Fit gradient-bound constants on one solved graph (informational)."""
    records = gradient_estimate_records(geom, x0_list, r_list)
    if not records:
        return _report("gradient_estimate", 0.0, None,
                       n_records=0, skipped="no admissible records")
    constants = fit_gradient_constants(records)
    c1, c2 = constants
    viol = max(rec.lhs - (c1 + c2 * rec.osc_over_r) for rec in records)
    return _report(
        "gradient_estimate", max(0.0, viol), None, c1=c1, c2=c2, n_records=len(records),
        in_sample_satisfaction=holdout_satisfaction(constants, records),
    )


# -- Liouville flatness probe ----------------------------------------------------


def liouville_probe(
    integrand: EllipticIntegrand,
    beta: float = 2.0,
    sizes: Sequence[float] = (4.0, 8.0, 16.0),
    slope: Optional[Sequence[float]] = None,
    bump_height: float = 1.0,
    bump_radius: float = 1.0,
    resolution: float = 0.25,
    config: SolveConfig = SolveConfig(),
    tol_flat: Optional[float] = None,
) -> CheckReport:
    """Flatness under domain growth with a fixed far-boundary perturbation.

    For each size R, solves on [0, R] x [-R, R]^(n - 1) (n = ``integrand.dim - 1``,
    ``slope``'s length) with Dirichlet data equal to
    a flat profile (wall-compatible affine) plus a compactly supported bump
    on the far boundary, and measures the max deviation of the solution from
    its best-fit affine over the inner quarter box.  Passes when the
    deviation is nonincreasing in R and the final one is at most tol_flat.
    """
    if beta < 0.0:
        raise ValueError("growth bound beta must be nonnegative")
    sizes = [float(r) for r in sizes]
    if sorted(sizes) != sizes or len(sizes) < 2:
        raise ValueError("domain sizes must be increasing, with at least two entries")
    if tol_flat is None:
        tol_flat = 0.05 * abs(bump_height)
    n = integrand.dim - 1
    a = np.zeros(n) if slope is None else np.asarray(slope, dtype=float)
    deviations = []
    observed_beta = 0.0
    for r_size in sizes:
        dom = HalfDomain(n, depth=r_size, width=r_size, resolution=resolution)
        mesh = build_mesh(dom)
        data = evaluate_data_spec(_liouville_data(a.tolist(), r_size, bump_height, bump_radius),
                                  mesh.vertices)
        u, rep = solve(integrand, mesh, data, config)
        if not rep.converged:
            return _report("liouville_flatness", 2.0 * tol_flat + 1.0, tol_flat,
                           diagnostic=f"solve at R={r_size} failed to converge",
                           residual=rep.final_residual_norm)
        growth = -u.values / (1.0 + np.linalg.norm(mesh.vertices, axis=1))
        observed_beta = max(observed_beta, float(growth.max()))
        inner = np.all(np.abs(mesh.vertices) <= r_size / 4.0 + 1e-12, axis=1)
        cols = np.column_stack([np.ones(inner.sum()), mesh.vertices[inner]])
        coef, *_ = np.linalg.lstsq(cols, u.values[inner], rcond=None)
        deviations.append(float(np.abs(u.values[inner] - cols @ coef).max()))

    increases = [deviations[i + 1] - deviations[i] for i in range(len(deviations) - 1)]
    monotone = all(inc <= 1e-12 for inc in increases)
    residual = deviations[-1] if monotone else tol_flat + max(increases) + deviations[-1]
    return _report(
        "liouville_flatness", residual, tol_flat,
        deviations=deviations, sizes=sizes, monotone=monotone,
        bump_height=bump_height, bump_radius=bump_radius,
        observed_beta=observed_beta, beta=beta,
        hypothesis_ok=bool(observed_beta <= beta + 1e-9),
    )


def _liouville_data(slope: list, r_size: float, bump_height: float, bump_radius: float) -> dict:
    """``liouville_probe``'s Dirichlet data on its size-``r_size`` box: the affine ``slope``
    (one entry per axis) plus a bump at the centre of the far boundary."""
    return {"type": "sum", "terms": [
        {"type": "affine", "a": slope, "b": 0.0},
        {"type": "bump", "center": [r_size] + [0.0] * (len(slope) - 1), "radius": bump_radius,
         "height": bump_height},
    ]}


# -- graph-ball probes ------------------------------------------------------------


def _graph_ball_distances(geom: GraphGeometry, x0) -> tuple[np.ndarray, np.ndarray]:
    """The graph point over the vertex nearest ``x0``, and its distance to the image on the
    graph of each cell's barycenter; a ball of radius r holds the cells within r."""
    mesh = geom.mesh
    points = np.column_stack([mesh.vertices, geom.u.values])  # the graph's vertices
    center = points[_nearest_vertex(mesh, x0)]
    return center, np.linalg.norm(mesh.cell_means(points) - center, axis=1)


def area_growth_check(
    geom: GraphGeometry, x0, radii: Sequence[float], slope_tol: float = 0.2
) -> CheckReport:
    """Growth exponent of graph-ball area around a base point on the graph.

    Sums the surface measure of cells whose barycenter image falls in the
    ambient ball of each radius, then fits log(area) against log(r); the
    exponent should match the graph dimension.
    """
    center, dist = _graph_ball_distances(geom, x0)
    area = geom.graph_measure()
    usable, measures = [], []
    for r in radii:
        if r <= 0.0:
            raise ValueError("radii must be positive")
        m = float(area[dist <= r].sum())
        if m > 0.0:
            usable.append(float(r))
            measures.append(m)
    n = geom.mesh.n
    if len(usable) < 3:
        return _report("area_growth", 0.0, None, usable_radii=usable, measures=measures,
                       note="fewer than 3 usable radii")
    slope = float(np.polyfit(np.log(usable), np.log(measures), 1)[0])
    scaled = np.array(measures) / np.array(usable) ** n
    return _report(
        "area_growth", abs(slope - n), slope_tol,
        fitted_exponent=slope, c_lower=float(scaled.min()), c_upper=float(scaled.max()),
        radii=usable, measures=measures, base_point=center.tolist(),
    )


def mean_value_probe(geom: GraphGeometry, x0, r: float) -> CheckReport:
    """Ratio of the sup of log W_f on the half ball to its mean on the ball.

    Uses the normalized log area element (nonnegative by construction); a
    constant field gives ratio one, and the 0/0 case reports ratio one too.
    """
    if r <= 0.0:
        raise ValueError("radius must be positive")
    center, dist = _graph_ball_distances(geom, x0)
    area = geom.graph_measure()
    inner, outer = dist <= 0.5 * r, dist <= r
    if not inner.any() or not outer.any():
        return _report("mean_value", 0.0, None, skipped="radius below mesh scale", r=r)
    logs = np.abs(geom.cell_log_Wf)
    sup_half = float(logs[inner].max())
    mean_full = float((area[outer] * logs[outer]).sum() / area[outer].sum())
    both_zero = sup_half < 1e-14 and mean_full < 1e-14
    ratio = 1.0 if both_zero else sup_half / max(mean_full, 1e-300)
    return _report("mean_value", 0.0, None, ratio=ratio, sup_half=sup_half,
                   mean_full=mean_full, r=float(r), base_point=center.tolist())


# -- functional inequality diagnostics --------------------------------------------


def _pl_power_cellwise(vals: np.ndarray, measure: float, k: int) -> np.ndarray:
    """Exact per-cell integrals of phi^k (integer k >= 1) from phi's cell vertex values,
    on cells of the given measure."""
    m = vals.shape[1]
    cols = vals.T.copy()  # each vertex's values contiguous
    hk = np.zeros(vals.shape[0])
    for first, *rest in combinations_with_replacement(range(m), k):
        term = cols[first]
        for idx in rest:
            term = term * cols[idx]
        hk += term
    coef = math.factorial(m - 1) * math.factorial(k) / math.factorial(m - 1 + k)
    return measure * coef * hk


_SOBOLEV_FRACTIONS = (0.25, 0.5, 1.0)  # the Sobolev ratio's scales over the smallest extent


class BoxFunction(NamedTuple):
    """A vertex function that vanishes off a box of the vertex grid: the box, one slice
    per axis, and the function's values on it, in the box's shape."""

    box: tuple
    values: np.ndarray


def test_function_bank(mesh: Mesh, seed: int, size: int) -> list[BoxFunction]:
    """Deterministic bank of compactly supported nonnegative vertex functions.

    Mixes smooth radial bumps and tensor hats, all vanishing on (and near)
    the DIRICHLET boundary; wall contact is allowed.  Each function is
    evaluated only on, and returned as, the box of grid vertices around its
    support.
    """
    rng = np.random.default_rng(seed)
    dom = mesh.domain
    margin = 2.0 * mesh.h
    half = np.array(dom.half())
    transverse = np.arange(mesh.n) > 0  # the centre is drawn from [0, room] along x_1
    lines = mesh.grid_lines()
    ids = np.arange(mesh.num_vertices).reshape(tuple(d + 1 for d in mesh.divisions))
    is_dir = mesh.vertex_tags == Tag.DIRICHLET
    funcs = []
    guard = 0
    while len(funcs) < size and guard < 20 * size:
        guard += 1
        rho = float(rng.uniform(2.0 * mesh.h, max(0.25 * min(dom.extents()), 3.0 * mesh.h)))
        room = np.maximum(half - rho - margin, 1e-9)
        center = rng.uniform(-room * transverse, room)
        # the support lies within rho of the center along each axis; a grid
        # line of margin on either side covers the rounding of x - center
        box = tuple(slice(max(0, int(np.searchsorted(x, c - rho)) - 1),
                          int(np.searchsorted(x, c + rho)) + 1) for x, c in zip(lines, center))
        sub = ids[box].ravel()
        x = mesh.vertices[sub]
        if rng.random() < 0.5:
            d = np.linalg.norm(x - center, axis=1)
            vals = np.where(d < rho, np.cos(0.5 * np.pi * np.minimum(d / rho, 1.0)) ** 2, 0.0)
        else:
            vals = np.prod(np.maximum(0.0, 1.0 - np.abs(x - center) / rho), axis=1)
        vals[is_dir[sub]] = 0.0
        if vals.max() > 1e-9:
            funcs.append(BoxFunction(box, vals.reshape(ids[box].shape)))
    return funcs


def functional_inequality_diagnostics(geom: GraphGeometry, seed: int = 0,
                                      bank_size: int = 60) -> CheckReport:
    """Observed trace / stability / Sobolev ratios over the seeded test-function bank.

    Informational: the assertion is finiteness and refinement stability of
    the maximum ratios, not a specific constant.
    """
    mesh = geom.mesh
    bank = test_function_bank(mesh, seed, bank_size)
    if len(bank) == 0:
        raise ValueError("empty test-function bank")

    area = geom.graph_measure()
    split = mesh.split
    types = len(split.offsets)
    h_cell = mesh.cell_means(np.nan_to_num(geom.h_sq, nan=0.0))
    scale = min(geom.mesh.domain.extents())
    boxes = np.arange(mesh.num_cells // types).reshape(mesh.divisions)
    phi = np.zeros(mesh.num_vertices)  # each function in turn, zero off its box
    phi_grid = phi.reshape(tuple(d + 1 for d in mesh.divisions))

    trace_max = 0.0
    stab_max = 0.0
    sob_max = 0.0
    for box, box_vals in bank:
        phi_grid[box] = box_vals
        # every cell integrand below is exactly zero where phi vanishes at all the cell's
        # vertices, so only the cells touching its support are visited: those of the grid
        # boxes whose lowest corner is at most one line below the function's box, in order
        near = boxes[tuple(slice(max(b.start - 1, 0), b.stop) for b in box)]
        near = (near.reshape(-1, 1) * types + np.arange(types)).ravel()
        touched = np.zeros(near.size, dtype=bool)
        for corner in mesh.cells.T:
            touched |= phi[corner[near]] != 0.0
        sel = near[touched]
        vals = phi[mesh.cells[sel]]
        cell_W = geom.cell_W[sel]
        dphi = np.einsum("cin,ci->cn", split.grad_lambda[sel % types], vals)
        grad_sq = np.einsum("ci,ci->c", dphi, dphi) - (
            np.einsum("ci,ci->c", geom.cell_gradient[sel], dphi) / cell_W
        ) ** 2
        grad_sq = np.maximum(grad_sq, 0.0)
        int_grad = float((area[sel] * np.sqrt(grad_sq)).sum())
        int_grad_sq = float((area[sel] * grad_sq).sum())
        bdry = float((geom.wall_measure * phi[mesh.wall_facets].mean(axis=1)).sum())
        phi_grid[box] = 0.0
        if int_grad > 1e-14:
            trace_max = max(trace_max, bdry / int_grad)
        if int_grad_sq > 1e-14:
            phi2_W = _pl_power_cellwise(vals, split.measure, 2) * cell_W
            stab_max = max(stab_max, float((phi2_W * h_cell[sel]).sum()) / int_grad_sq)
            if mesh.n > 1:  # the Sobolev exponent p = 2n / (n - 1) is infinite for n = 1
                phi_sq = float(phi2_W.sum())
                p = 2 * mesh.n // (mesh.n - 1)
                int_p = float((_pl_power_cellwise(vals, split.measure, p) * cell_W).sum())
                lhs = math.sqrt(int_p) ** (4 / p)  # (int phi^p W)^(2/p); p = 4: a square root
                for frac in _SOBOLEV_FRACTIONS:
                    r = frac * scale
                    rhs = phi_sq / r + r * int_grad_sq
                    if rhs > 1e-14:
                        sob_max = max(sob_max, lhs / rhs)
    return _report("functional_inequalities", 0.0, None, trace_ratio_max=trace_max,
                   stability_ratio_max=stab_max, sobolev_ratio_max=sob_max,
                   bank_size=len(bank), seed=seed)
