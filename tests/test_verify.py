import json
import math
from dataclasses import fields

import numpy as np
import pytest

import anisograph.verify as V
from anisograph import (
    EllipticIntegrand,
    GraphFunction,
    HalfDomain,
    SolveConfig,
    Tag,
    build_mesh,
    compute_geometry,
    solve,
)
from conftest import solve_capillary_flat, solve_curved
from reference import (bisect_flat_slope, first_variation_per_field, full_grid_function_bank,
                       functional_inequality_ratios, support_box)


FLAT_CHECKS = (
    V.check_boundary_tangency,
    V.check_wall_condition,
    V.check_interior_minimality,
    V.check_wall_principal_direction,
    V.check_subharmonicity,
)


def test_flat_solution_residuals_at_rounding_level():
    integrand, mesh, u, _ = solve_capillary_flat(math.pi / 3, 1 / 16)
    # re-solve tighter so curvature fits see a machine-exact affine graph
    from anisograph import solve

    data = mesh.vertices @ np.array([-1.0 / math.tan(math.pi / 3), 0.0])
    u, rep = solve(integrand, mesh, data, SolveConfig(tol_residual=1e-13))
    geom = compute_geometry(integrand, u)
    for check in FLAT_CHECKS:
        report = check(geom)
        assert report.status == "pass"
        assert report.worst_residual <= 1e-10, report.check_name
    identity = V.check_area_element_identity(geom)
    assert identity.status == "pass" and identity.worst_residual <= 1e-12


# tilted ellipsoids by ambient dimension: the dim-3 one couples e1 to both wall tangents
TILTED = {2: [[2.0, 0.3], [0.3, 1.0]],
          3: [[2.0, 0.3, 0.5], [0.3, 1.0, 0.3], [0.5, 0.3, 1.5]],
          4: [[2.0, 0.3, 0.5, 0.2], [0.3, 1.0, 0.3, 0.1], [0.5, 0.3, 1.5, 0.2],
              [0.2, 0.1, 0.2, 1.2]]}
PLANE_KINDS = {
    "euclidean": EllipticIntegrand.euclidean,
    "capillary": lambda dim: EllipticIntegrand.capillary(0.5, dim),
    "ellipsoid": lambda dim: EllipticIntegrand.ellipsoid(np.array(TILTED[dim])),
    "pnorm": lambda dim: EllipticIntegrand.pnorm(3.0, dim, eps=0.3),
}


@pytest.mark.parametrize("n, kind, b", [
    (n, kind, b) for n in (1, 2, 3) for kind in PLANE_KINDS if kind != "pnorm" or n <= 2
    for b in ((0.0, 0.4) if n > 1 else (0.0,))])
def test_wall_compatible_planes_are_exact(n, kind, b):
    # the plane with tangential slope b along x2 and the normal slope a(b) that meets the wall
    # condition d1 f = 0 is an exact discrete solution of every integrand.  Measured: the
    # solve returns it to 3.3e-13 and the curvature checks read at most 2.4e-13 (at most
    # 2.7e-10 with the default tol_residual, which leaves the 1d capillary 1.5e-10 away)
    integrand = PLANE_KINDS[kind](n + 1)
    resolution = {1: 1 / 32, 2: 1 / 16, 3: 1 / 6}[n]
    mesh = build_mesh(HalfDomain(n, depth=1.0, width=0.5, resolution=resolution))
    slope = np.zeros(n)
    slope[0], slope[1:2] = bisect_flat_slope(integrand, b=b), b
    plane = mesh.vertices @ slope
    u, rep = solve(integrand, mesh, plane, SolveConfig(tol_residual=1e-12))
    assert rep.converged and np.abs(u.values - plane).max() <= 1e-10
    geom = compute_geometry(integrand, u)
    for check in FLAT_CHECKS:
        report = check(geom)
        assert report.status != "fail" and report.worst_residual <= 1e-8, report.check_name


def test_check_report_invariant():
    rep = V.CheckReport("x", "pass", 0.5, 1.0)
    assert rep.to_json_dict()["tolerance"] == 1.0
    with pytest.raises(ValueError):
        V.CheckReport("x", "maybe", 0.0, None)
    rep = V.CheckReport("x", "informational", 0.0, None, metadata={
        "f": np.float64(0.25), "i": np.int64(3), "b": np.bool_(True),
        "grid": np.arange(4.0).reshape(2, 2), "nested": [(np.int64(1), {"z": np.float64(2.0)})],
    })
    meta = json.loads(json.dumps(rep.to_json_dict()))["metadata"]
    assert meta == {"b": True, "f": 0.25, "grid": [[0.0, 1.0], [2.0, 3.0]], "i": 3,
                    "nested": [[1, {"z": 2.0}]]}

    def kinds(obj):
        if isinstance(obj, dict):
            return set().union(*map(kinds, obj.values()))
        if isinstance(obj, list):
            return set().union(*map(kinds, obj))
        return {type(obj)}

    assert kinds(rep.to_json_dict()["metadata"]) == {bool, float, int}


def test_every_pass_bar_is_a_check_default_read_when_the_probe_runs(curved_32, monkeypatch):
    doubled = V.CheckDefaults(**{f.name: 2.0 * getattr(V.DEFAULTS, f.name)
                                 for f in fields(V.CheckDefaults)})
    monkeypatch.setattr(V, "DEFAULTS", doubled)
    geom = curved_32[3]
    h = geom.mesh.h
    tolerances = [
        (V.check_boundary_tangency(geom), doubled.boundary_tangency_coef * h),
        (V.check_wall_condition(geom), doubled.wall_condition_coef * h),
        (V.check_interior_minimality(geom), doubled.interior_minimality_coef * h),
        (V.check_wall_principal_direction(geom), doubled.wall_principal_coef * h),
        (V.check_first_variation(geom), doubled.first_variation_coef * h),
        (V.check_subharmonicity(geom), doubled.subharmonicity_coef * h),
        (V.check_area_element_identity(geom), doubled.identity_tol),
        (V.area_growth_check(geom, [0.25, 0.0], [0.1, 0.2, 0.3]), doubled.area_growth_tol),
        (V.liouville_probe(EllipticIntegrand.euclidean(3), sizes=[1.0, 2.0], bump_height=-0.5),
         doubled.liouville_flat_frac * 0.5),
    ]
    for rep, tolerance in tolerances:
        assert rep.tolerance == tolerance, rep.check_name


def test_curved_checks_shrink_under_refinement(curved_32, curved_64):
    for check in (V.check_boundary_tangency, V.check_wall_condition,
                  V.check_interior_minimality, V.check_first_variation):
        coarse = check(curved_32[3]).worst_residual
        fine = check(curved_64[3]).worst_residual
        assert fine <= 0.75 * coarse, check.__name__


@pytest.mark.parametrize("domain", [
    HalfDomain(1, depth=1.0, resolution=1 / 32),
    HalfDomain(1, depth=1.0, resolution=1 / 13),
    HalfDomain(2, depth=1.0, width=0.5, resolution=1 / 32),
    HalfDomain(2, depth=1.3, width=0.55, resolution=1 / 40),
    HalfDomain(2, depth=1.0, width=0.61, resolution=1 / 40),  # dx != dy
    HalfDomain(2, depth=1.0, width=0.5, resolution=1 / 13),
    HalfDomain(3, depth=1.0, width=0.5, resolution=1 / 8),
    HalfDomain(3, depth=1.0, width=0.35, resolution=1 / 10),  # dx != dy
], ids=["1d", "1d_odd", "2d", "2d_1.3x0.55", "2d_dx_ne_dy", "2d_odd", "3d", "3d_dx_ne_dy"])
@pytest.mark.parametrize("margin", [None, 0.07, 0.2])
def test_first_variation_matches_the_pointwise_cutoff(domain, margin):
    # bit for bit, also under a tilted ellipsoid, whose nu_F is not the normal
    mesh = build_mesh(domain)
    x = mesh.vertices
    vals = 0.3 * np.sin(3.0 * x[:, 0] + 0.2) + 0.2 * np.cos(2.0 * x[:, -1])
    tilted = np.array([[2, 0.3, 0.5, 0.1], [0.3, 1, 0.3, 0.2], [0.5, 0.3, 1.5, 0.4],
                       [0.1, 0.2, 0.4, 1.2]])[: mesh.n + 1, : mesh.n + 1]
    for integrand in (EllipticIntegrand.euclidean(mesh.n + 1), EllipticIntegrand.ellipsoid(tilted)):
        geom = compute_geometry(integrand, GraphFunction(mesh, vals))
        if margin is None:  # the probe's own margin
            per_field = V.check_first_variation(geom).metadata["per_field"]
        else:
            per_field = V._first_variation_fields(geom, margin)
        assert per_field == first_variation_per_field(geom, margin), integrand.kind


@pytest.mark.parametrize("check, bound_mib", [(V.check_boundary_tangency, 0.4),
                                              (V.check_first_variation, 1.0)])
def test_wall_checks_allocate_little(curved_64, check, bound_mib):
    # 8192 cells at 1/64: the wall cells' pairing reads 0.22 MiB and the per-cell running
    # sums 0.80 MiB, while the ambient surface gradient of every cell, with D^2 F at each
    # normal, takes 1.31 MiB and a per-point cutoff gradient 1.70 MiB
    import tracemalloc

    geom = curved_64[3]
    check(geom)  # any first-call caches of the mesh
    tracemalloc.start()
    try:
        check(geom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2 ** 20


def test_wall_principal_direction_skips_a_1d_graph():
    mesh = build_mesh(HalfDomain(1, depth=1.0, resolution=1 / 16))
    geom = compute_geometry(EllipticIntegrand.euclidean(2),
                            GraphFunction(mesh, np.sin(mesh.vertices[:, 0])))
    rep = V.check_wall_principal_direction(geom)
    assert rep.status == "informational" and "skipped" in rep.metadata



def test_curvature_checks_skip_a_mesh_all_collar():
    # the reference scenario at resolution 1/3: every vertex lies in the collar, so neither
    # check measures anything, and neither may pass
    integrand, _, u, _ = solve_curved(1 / 3)
    geom = compute_geometry(integrand, u)
    assert geom.collar.all()
    for check in (V.check_interior_minimality, V.check_wall_principal_direction):
        rep = check(geom)
        assert rep.status == "informational" and rep.tolerance is None, rep
        assert "skipped" in rep.metadata

def test_subharmonicity_quadratic_term_nonnegative(curved_32):
    rep = V.check_subharmonicity(curved_32[3])
    assert rep.metadata["quad_min"] >= -1e-15
    assert rep.status == "pass"


def test_subharmonicity_flat_slack_zero(capillary_flat):
    rep = V.check_subharmonicity(capillary_flat[3])
    assert abs(rep.metadata["min_slack"]) <= 1e-12


# -- gradient estimate ---------------------------------------------------------


def test_gradient_records_basic(curved_32):
    geom = curved_32[3]
    # base points on a vertex, off every vertex and on the wall: each snaps to its nearest
    # vertex, and the ball around it holds that vertex, so the oscillation is never negative
    x0_list = [[0.0, 0.0], [0.5, 0.0], [0.31, 0.07], [0.0, -0.05]]
    recs = V.gradient_estimate_records(geom, x0_list, [0.1, 0.2, 0.4])
    assert len(recs) == 12
    assert [r.x0 for r in recs[::3]] == [(0.0, 0.0), (0.5, 0.0), (0.3125, 0.0625),
                                         (0.0, -0.0625)]
    assert all(r.osc_over_r >= 0.0 for r in recs)
    assert all(r.r > 0 for r in recs)


def test_gradient_records_skip_out_of_domain(curved_32):
    geom = curved_32[3]
    with pytest.warns(UserWarning):
        recs = V.gradient_estimate_records(geom, [[0.9, 0.4]], [0.5])
    assert recs == []
    with pytest.warns(UserWarning):
        report = V.gradient_estimate_probe(geom, [[0.9, 0.4]], [0.5])
    assert report.worst_residual == 0.0
    assert report.metadata == {"n_records": 0, "skipped": "no admissible records"}


def test_fit_satisfies_all_records(curved_32):
    geom = curved_32[3]
    x0_list, r_list = [[0.0, 0.0], [0.25, 0.0], [0.5, 0.0]], [0.1, 0.2, 0.3, 0.45]
    report = V.gradient_estimate_probe(geom, x0_list, r_list)
    recs = V.gradient_estimate_records(geom, x0_list, r_list)
    c1, c2 = report.metadata["c1"], report.metadata["c2"]
    assert c1 >= 0.0 and c2 >= 0.0 and math.isfinite(c1) and math.isfinite(c2)
    for rec in recs:
        assert rec.lhs <= c1 + c2 * rec.osc_over_r + 1e-9
    assert report.status == "informational" and report.worst_residual == 0.0
    assert report.metadata == {"c1": c1, "c2": c2, "n_records": len(recs)}


def test_fit_affine_case_reduces_to_log_slope():
    # flat capillary solution: gradient is constant, oscillation positive
    integrand, mesh, u, _ = solve_capillary_flat(math.pi / 6, 1 / 16)
    geom = compute_geometry(integrand, u)
    # grid-aligned radii below x0_1: the half-ball sees the full linear growth
    recs = V.gradient_estimate_records(geom, [[0.5, 0.0]], [0.125, 0.25])
    slope = 1.0 / math.tan(math.pi / 6)
    for rec in recs:
        assert rec.lhs == pytest.approx(math.log(slope), abs=1e-6)
        assert rec.osc_over_r == pytest.approx(slope, rel=0.05)
    c1, c2 = V.fit_gradient_constants(recs)
    # the fitted bound covers the records and is attained with c2 = 0 allowed
    for rec in recs:
        assert rec.lhs <= c1 + c2 * rec.osc_over_r + 1e-12


def test_bound_tightens_with_radius_once_oscillation_saturates():
    # past r = x0_1 the half-ball holds the whole rise of the tilted graph,
    # so osc is constant, osc/r strictly decays, and the bound tightens
    integrand, mesh, u, _ = solve_capillary_flat(math.pi / 6, 1 / 16)
    geom = compute_geometry(integrand, u)
    recs = V.gradient_estimate_records(geom, [[0.25, 0.0]], [0.3, 0.4, 0.5])
    qs = [r.osc_over_r for r in recs]
    assert qs[0] > qs[1] > qs[2]
    c1, c2 = V.fit_gradient_constants(recs)
    bounds = [math.exp(c1 + c2 * q) for q in qs]
    assert bounds[0] >= bounds[1] >= bounds[2]


def test_holdout_satisfaction_bounds():
    recs = [V.GradientEstimateRecord((0.0, 0.0), 1.0, 0.0, 1.0)]
    assert V.holdout_satisfaction((0.0, 0.0), recs) == 1.0
    bad = [V.GradientEstimateRecord((0.0, 0.0), 1.0, 5.0, 0.0)]
    assert V.holdout_satisfaction((0.0, 0.0), bad) == 0.0


# -- Liouville probe ---------------------------------------------------------------


def test_liouville_zero_perturbation_is_exactly_flat():
    rep = V.liouville_probe(EllipticIntegrand.euclidean(3), beta=0.0,
                            sizes=[4.0, 8.0], bump_height=0.0)
    assert rep.status == "pass"
    assert max(rep.metadata["deviations"]) <= 1e-10


def test_liouville_decay_euclidean():
    rep = V.liouville_probe(EllipticIntegrand.euclidean(3), beta=0.1,
                            sizes=[4.0, 8.0], resolution=0.5)
    d = rep.metadata["deviations"]
    assert d[1] < d[0]
    assert rep.metadata["hypothesis_ok"]


def test_liouville_dent_flattens_like_the_bump():
    # a dent's tolerance is 0.05 * |bump_height|, not a negative number
    rep = V.liouville_probe(EllipticIntegrand.euclidean(3), beta=0.1,
                            sizes=[4.0, 8.0], bump_height=-1.0)
    d = rep.metadata["deviations"]
    assert rep.tolerance == 0.05
    assert d[1] < d[0] <= 0.05
    assert rep.status == "pass"


@pytest.mark.parametrize("integrand", [
    EllipticIntegrand.capillary(1.0, 3),
    # the tilted ellipsoid couples e1 to the wall tangent
    EllipticIntegrand.ellipsoid(np.array([[2, 0.3, 0.5], [0.3, 1, 0.3], [0.5, 0.3, 1.5]])),
], ids=["capillary", "tilted-ellipsoid"])
def test_liouville_solves_around_the_flat_profile(integrand):
    # a nonzero flat slope: zero affine data would not be a free-boundary solution, and the
    # deviations would grow with R instead of falling
    assert integrand.flat_slope() != 0.0
    rep = V.liouville_probe(integrand, beta=0.1, sizes=[4, 8], resolution=0.5)
    d = rep.metadata["deviations"]
    assert rep.status == "pass" and d[1] < d[0] and d[1] <= 0.01
    assert rep.metadata["bump_radius"] == 1.0


def test_liouville_aborts_on_nonconvergence():
    rep = V.liouville_probe(EllipticIntegrand.euclidean(3), beta=0.1,
                            sizes=[4.0, 8.0], config=SolveConfig(max_iter=1))
    assert rep.status == "fail"
    assert "diagnostic" in rep.metadata


def test_liouville_validates_sizes():
    with pytest.raises(ValueError):
        V.liouville_probe(EllipticIntegrand.euclidean(3), beta=0.0, sizes=[8.0, 4.0])
    # a repeated size is no growth of the domain
    with pytest.raises(ValueError, match="strictly increasing"):
        V.liouville_probe(EllipticIntegrand.euclidean(3), sizes=[2.0, 2.0], resolution=0.5)
    with pytest.raises(ValueError):
        V.liouville_probe(EllipticIntegrand.euclidean(3), beta=-1.0, sizes=[4.0, 8.0])


# -- graph-ball probes ----------------------------------------------------------------


def test_area_growth_flat_interior_and_wall(flat_horizontal):
    geom = flat_horizontal[3]
    radii = [0.2, 0.3, 0.45, 0.6, 0.8]
    interior = V.area_growth_check(geom, [1.0, 0.0], radii)
    assert interior.status == "pass"
    assert interior.metadata["fitted_exponent"] == pytest.approx(2.0, abs=0.05)
    # full discs: measure / r^2 close to pi
    assert interior.metadata["c_upper"] == pytest.approx(math.pi, rel=0.05)
    wall = V.area_growth_check(geom, [0.0, 0.0], radii)
    assert wall.metadata["fitted_exponent"] == pytest.approx(2.0, abs=0.05)
    assert wall.metadata["c_upper"] == pytest.approx(math.pi / 2.0, rel=0.05)


def test_area_growth_tilted_plane(flat_horizontal):
    integrand, mesh, _, _ = flat_horizontal
    u = GraphFunction(mesh, mesh.vertices @ np.array([0.0, 1.0]))
    geom = compute_geometry(integrand, u)
    rep = V.area_growth_check(geom, [1.0, 0.0], [0.2, 0.3, 0.45, 0.6])
    # a 2-plane cuts a ball in a disc of the full radius regardless of tilt
    assert rep.metadata["fitted_exponent"] == pytest.approx(2.0, abs=0.1)
    assert rep.metadata["c_upper"] == pytest.approx(math.pi, rel=0.1)


def test_area_growth_needs_three_radii(flat_horizontal):
    rep = V.area_growth_check(flat_horizontal[3], [1.0, 0.0], [0.2, 0.4])
    assert rep.status == "informational"


def test_mean_value_flat_ratio_one(capillary_flat):
    rep = V.mean_value_probe(capillary_flat[3], [0.4, 0.0], 0.35)
    assert rep.metadata["ratio"] == pytest.approx(1.0, abs=1e-9)


def test_mean_value_zero_over_zero_guard(flat_horizontal):
    # Euclidean flat graph: log W_f vanishes identically
    rep = V.mean_value_probe(flat_horizontal[3], [1.0, 0.0], 0.5)
    assert rep.metadata["ratio"] == 1.0


def test_mean_value_curved_bounded(curved_32):
    rep = V.mean_value_probe(curved_32[3], [0.4, 0.0], 0.4)
    assert rep.metadata["ratio"] <= 10.0


def test_mean_value_small_radius_skipped(flat_horizontal):
    rep = V.mean_value_probe(flat_horizontal[3], [1.0, 0.0], 1e-4)
    assert "skipped" in rep.metadata


# -- functional inequality diagnostics ---------------------------------------------


def full_vector(mesh, f):
    """A bank function scattered from its grid box to every vertex."""
    phi = np.zeros(tuple(d + 1 for d in mesh.divisions))
    phi[f.box] = f.values
    return phi.ravel()


def test_bank_is_admissible_and_deterministic(curved_32):
    mesh = curved_32[1]
    bank_a = [full_vector(mesh, f) for f in V.test_function_bank(mesh, seed=5, size=55)]
    bank_b = [full_vector(mesh, f) for f in V.test_function_bank(mesh, seed=5, size=55)]
    assert len(bank_a) >= 50
    for pa, pb in zip(bank_a, bank_b):
        np.testing.assert_array_equal(pa, pb)
        assert pa.min() >= 0.0
        assert np.all(pa[mesh.vertex_tags == Tag.DIRICHLET] == 0.0)


# 2**32 and up take SeedSequence's multi-word path, past four words from 2**128; the loader
# accepts integer seeds up to the largest float
@pytest.mark.parametrize("seed", [0, 1, 3, 9, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 1,
                                  int(1e300)],
                         ids=["0", "1", "3", "9", "2**32-1", "2**32", "2**64+5", "2**128+1",
                              "1e300"])
def test_bank_generator_matches_numpy_draw_for_draw(seed):
    ours, ref = V._PCG64(seed), np.random.default_rng(seed)
    room = np.array([0.3, 0.7, 1e-9])
    low = -room * (np.arange(3) > 0)  # -0.0 first, as the bank's centre draws have
    for _ in range(200):
        assert ours.random() == ref.random()
        a, b = ours.uniform(0.0625, 0.125), ref.uniform(0.0625, 0.125)
        assert type(a) is float and a == b
        a, b = ours.uniform(low, room), ref.uniform(low, room)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("domain", [
    HalfDomain(1, depth=1.0, resolution=1 / 32),
    HalfDomain(2, depth=1.0, width=0.5, resolution=1 / 32),
    HalfDomain(2, depth=1.3, width=0.55, resolution=1 / 40),  # dx != dy
    HalfDomain(2, depth=8.0, width=8.0, resolution=0.25),
    HalfDomain(3, depth=1.0, width=0.5, resolution=1 / 16),
], ids=["1d", "2d", "2d_dx_ne_dy", "2d_wide", "3d"])
def test_bank_matches_the_full_grid_reference(domain):
    mesh = build_mesh(domain)
    for seed in (0, 3, 9, 2**64 + 5):
        got = V.test_function_bank(mesh, seed, 60)
        ref = full_grid_function_bank(mesh, seed, 60)
        assert len(got) == len(ref)
        for a, b in zip(got, ref):
            assert np.array_equal(full_vector(mesh, a), b)


def use_bank(monkeypatch, mesh, bank):
    """Make the diagnostics read ``bank`` (full vertex vectors) as their test-function bank."""
    boxes = [support_box(mesh, phi) for phi in bank]
    monkeypatch.setattr(V, "test_function_bank", lambda *args: boxes)


def vertex_hat(mesh, point):
    phi = np.zeros(mesh.num_vertices)
    phi[int(np.argmin(np.linalg.norm(mesh.vertices - point, axis=1)))] = 1.0
    return phi


def test_diagnostics_flat_hat_anchor(flat_horizontal, monkeypatch):
    # single wall hat: trace ratio has the closed form 2 / (2 + sqrt(2))
    integrand, mesh, u, geom = flat_horizontal
    use_bank(monkeypatch, mesh, [vertex_hat(mesh, [0.0, 0.31])])
    rep = V.functional_inequality_diagnostics(geom)
    assert rep.metadata["trace_ratio_max"] == pytest.approx(2.0 / (2.0 + math.sqrt(2.0)),
                                                            abs=1e-12)
    assert rep.metadata["stability_ratio_max"] == 0.0


def test_diagnostics_interior_hat_sobolev_anchor(flat_horizontal, monkeypatch):
    integrand, mesh, u, geom = flat_horizontal
    use_bank(monkeypatch, mesh, [vertex_hat(mesh, [1.0, 0.0])])
    rep = V.functional_inequality_diagnostics(geom)
    h = mesh.h
    scale = min(mesh.domain.extents())
    expect = max(math.sqrt(h * h / 5.0) / (h * h / 2.0 / r + r * 4.0)
                 for r in (0.25 * scale, 0.5 * scale, scale))
    assert rep.metadata["sobolev_ratio_max"] == pytest.approx(expect, rel=1e-12)
    assert rep.metadata["trace_ratio_max"] == 0.0


def test_diagnostics_ratios_finite_on_curved(curved_32):
    rep = V.functional_inequality_diagnostics(curved_32[3], seed=3)
    meta = rep.metadata
    for key in ("trace_ratio_max", "stability_ratio_max", "sobolev_ratio_max"):
        assert math.isfinite(meta[key])
        assert meta[key] >= 0.0


def test_diagnostics_stability_under_refinement(curved_32, curved_64):
    a = V.functional_inequality_diagnostics(curved_32[3], seed=9).metadata
    b = V.functional_inequality_diagnostics(curved_64[3], seed=9).metadata
    for key in ("trace_ratio_max", "sobolev_ratio_max"):
        assert abs(a[key] - b[key]) <= 0.3 * max(a[key], b[key])


def _assert_ratios_match(meta, expect):
    for key, value in expect.items():
        assert meta[key] == pytest.approx(value, rel=1e-13, abs=0.0), key


@pytest.mark.parametrize("seed", [0, 3, 9])
def test_diagnostics_match_full_mesh_reference(curved_32, curved_64, seed):
    for geom in (curved_32[3], curved_64[3]):
        meta = V.functional_inequality_diagnostics(geom, seed=seed).metadata
        bank = [full_vector(geom.mesh, f) for f in V.test_function_bank(geom.mesh, seed, 60)]
        _assert_ratios_match(meta, functional_inequality_ratios(geom, bank))


def test_diagnostics_match_full_mesh_reference_1d():
    mesh = build_mesh(HalfDomain(1, depth=1.0, resolution=1 / 32))
    vals = 0.3 * np.sin(3.0 * mesh.vertices[:, 0] + 0.2)
    geom = compute_geometry(EllipticIntegrand.euclidean(2), GraphFunction(mesh, vals))
    meta = V.functional_inequality_diagnostics(geom, seed=0).metadata
    assert meta["trace_ratio_max"] > 0.0
    assert meta["sobolev_ratio_max"] == 0.0  # the 1d Sobolev exponent is infinite
    bank = [full_vector(mesh, f) for f in V.test_function_bank(mesh, 0, 60)]
    _assert_ratios_match(meta, functional_inequality_ratios(geom, bank))


def test_diagnostics_match_full_mesh_reference_3d():
    mesh = build_mesh(HalfDomain(3, depth=1.0, width=0.5, resolution=1 / 16))
    x = mesh.vertices
    vals = 0.3 * np.sin(3.0 * x[:, 0] + 0.2) + 0.2 * np.cos(2.0 * x[:, 1] - x[:, 2])
    geom = compute_geometry(EllipticIntegrand.euclidean(4), GraphFunction(mesh, vals))
    meta = V.functional_inequality_diagnostics(geom, seed=0).metadata
    assert min(meta["trace_ratio_max"], meta["sobolev_ratio_max"]) > 0.0
    bank = [full_vector(mesh, f) for f in V.test_function_bank(mesh, 0, 60)]
    _assert_ratios_match(meta, functional_inequality_ratios(geom, bank))


def test_diagnostics_match_full_mesh_reference_explicit_banks(curved_32, monkeypatch):
    geom = curved_32[3]
    mesh = geom.mesh
    x = mesh.vertices
    dirichlet = mesh.vertex_tags == Tag.DIRICHLET

    def hat(center, rho):
        phi = np.prod(np.maximum(0.0, 1.0 - np.abs(x - center) / rho), axis=1)
        phi[dirichlet] = 0.0
        return phi

    touching_wall = hat([0.0, 0.1], 0.2)
    # crosses x1 = depth, so it is nonzero up to the vertices next to the Dirichlet boundary
    reaching_margin = hat([0.95, -0.1], 0.3)
    # nonzero at every vertex off the Dirichlet boundary
    whole_mesh = np.where(dirichlet, 0.0, 1.0 + 0.5 * np.sin(4.0 * x[:, 0] + 3.0 * x[:, 1]))
    assert touching_wall[mesh.vertex_tags == Tag.FREE].max() > 0.0
    assert reaching_margin[np.isclose(x[:, 0], 1.0 - mesh.h)].max() > 0.0
    for bank in ([touching_wall], [reaching_margin], [whole_mesh],
                 [touching_wall, reaching_margin, whole_mesh]):
        use_bank(monkeypatch, mesh, bank)
        meta = V.functional_inequality_diagnostics(geom).metadata
        _assert_ratios_match(meta, functional_inequality_ratios(geom, bank))
