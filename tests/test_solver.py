import functools
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from anisograph import (
    EllipticIntegrand,
    GraphFunction,
    HalfDomain,
    SolveConfig,
    Tag,
    build_mesh,
    compute_geometry,
    solve,
    solver,
    wall_flux_residuals,
)
from anisograph.boundary_data import evaluate_data_spec
from anisograph.cli import run_scenario, scenario_from_dict
from anisograph.domain import _build
from anisograph.solver import (
    _band_plan,
    _energy,
    _free_box,
    _gradient,
    _hessian_band,
    _hessian_times,
    _newton_step,
    _prolong,
)
from conftest import CURVED_DATA_SPEC, bundled, hard_case
from reference import (amse_residual, bisect_flat_slope, hessian_band_by_diagonals,
                       hessian_entries, newton_step_dense, raw_gradient_add_at, refine,
                       vertex_masses)


def unit_mesh(resolution=1 / 16):
    return build_mesh(HalfDomain(2, depth=1.0, width=0.5, resolution=resolution))


def energy(integrand, mesh, values):
    return _energy(integrand, mesh, integrand.lift(mesh.cell_gradients(values)))


def gradient(integrand, mesh, values):
    return _gradient(integrand, mesh, integrand.lift(mesh.cell_gradients(values)))


# -- energy ---------------------------------------------------------------------


def test_energy_flat_euclidean_equals_area():
    mesh = unit_mesh()
    assert energy(EllipticIntegrand.euclidean(3), mesh, np.zeros(mesh.num_vertices)) == \
        pytest.approx(1.0, abs=1e-13)


def test_energy_affine_unit_gradient():
    mesh = unit_mesh()
    values = mesh.vertices @ np.array([0.0, 1.0])
    assert energy(EllipticIntegrand.euclidean(3), mesh, values) == pytest.approx(
        math.sqrt(2.0), abs=1e-12
    )


def test_energy_flat_capillary_equals_area():
    mesh = unit_mesh()
    assert energy(EllipticIntegrand.capillary(0.8, 3), mesh, np.zeros(mesh.num_vertices)) == \
        pytest.approx(1.0, abs=1e-13)


@given(seed=st.integers(0, 1000), t=st.floats(0.01, 0.99))
@settings(max_examples=20)
def test_energy_convexity(seed, t):
    mesh = unit_mesh(1 / 8)
    rng = np.random.default_rng(seed)
    a = rng.normal(size=mesh.num_vertices)
    b = rng.normal(size=mesh.num_vertices)
    I = EllipticIntegrand.capillary(1.0, 3)
    mix = energy(I, mesh, t * a + (1 - t) * b)
    split = t * energy(I, mesh, a) + (1 - t) * energy(I, mesh, b)
    assert mix <= split + 1e-12


# -- gradient --------------------------------------------------------------------


def test_gradient_zero_for_flat_euclidean():
    mesh = unit_mesh()
    g = gradient(EllipticIntegrand.euclidean(3), mesh, np.zeros(mesh.num_vertices))
    assert np.abs(g).max() <= 1e-14  # Df(0) = 0 satisfies the wall condition too


def test_gradient_matches_directional_derivative():
    mesh = unit_mesh(1 / 8)
    rng = np.random.default_rng(1)
    I = EllipticIntegrand.ellipsoid(np.diag([2.0, 1.0, 1.5]))
    vals = rng.normal(size=mesh.num_vertices) * 0.3
    direction = rng.normal(size=mesh.num_vertices)
    direction[mesh.vertex_tags == Tag.DIRICHLET] = 0.0
    g = gradient(I, mesh, vals)
    err = {}
    for step in (1e-4, 5e-5):
        ep = energy(I, mesh, vals + step * direction)
        em = energy(I, mesh, vals - step * direction)
        err[step] = abs((ep - em) / (2 * step) - g @ direction)
    assert err[1e-4] / max(err[5e-5], 1e-300) == pytest.approx(4.0, rel=0.5)


# -- solve -----------------------------------------------------------------------


def test_affine_euclidean_solution_is_exact():
    mesh = unit_mesh(1 / 32)
    a = np.array([0.0, 0.4])  # wall-compatible: a1 = 0
    exact = mesh.vertices @ a + 0.2
    u, rep = solve(EllipticIntegrand.euclidean(3), mesh, exact)
    assert rep.converged
    assert np.abs(u.values - exact).max() <= 1e-10
    assert rep.free_bc_residual <= 1e-10


def test_capillary_flat_solution_recovered(capillary_flat):
    integrand, mesh, u, geom = capillary_flat
    theta = integrand.theta
    exact = mesh.vertices @ np.array([-1.0 / math.tan(theta), 0.0])
    assert np.abs(u.values - exact).max() <= 1e-10
    # discrete wall condition <nu, e1> = cos(theta)
    wall_nu1 = geom.cell_normal[mesh.wall_cells, 0]
    assert np.abs(wall_nu1 - math.cos(theta)).max() <= 2.0 * mesh.h


@pytest.mark.parametrize(
    "integrand",
    [
        EllipticIntegrand.euclidean(2),
        EllipticIntegrand.capillary(math.pi / 3, 2),
        EllipticIntegrand.capillary(2 * math.pi / 3, 2),
        EllipticIntegrand.ellipsoid(np.array([[2.0, 0.5], [0.5, 1.0]])),
        EllipticIntegrand.pnorm(3.0, 2),
    ],
    ids=["euclid", "cap60", "cap120", "ellipsoid", "pnorm"],
)
def test_1d_solve_matches_bisection_oracle(integrand):
    mesh = build_mesh(HalfDomain(1, depth=1.0, resolution=1 / 64))
    data = np.full(mesh.num_vertices, -0.3)
    u, rep = solve(integrand, mesh, data, SolveConfig(tol_residual=1e-12))
    assert rep.converged
    slopes = u.cell_gradients()[:, 0]
    a_star = bisect_flat_slope(integrand)
    assert np.abs(slopes - a_star).max() <= 1e-10
    # solution is the affine through the boundary value
    expect = data[-1] + a_star * (mesh.vertices[:, 0] - 1.0)
    assert np.abs(u.values - expect).max() <= 1e-10


def test_energy_trace_nonincreasing():
    mesh = unit_mesh(1 / 16)
    rng = np.random.default_rng(2)
    data = 0.5 * np.sin(3 * mesh.vertices[:, 0]) + 0.2 * rng.normal(size=mesh.num_vertices)
    u, rep = solve(EllipticIntegrand.capillary(0.6, 3), mesh, data)
    trace = np.array(rep.energy_trace)
    assert np.all(np.diff(trace) <= 1e-12)


@given(shift=st.floats(-5.0, 5.0))
@example(shift=4.461276561336788)  # stalled at the rounding floor for 50 iterations
@settings(max_examples=10)
def test_solution_shift_invariance(shift):
    mesh = unit_mesh(1 / 8)
    I = EllipticIntegrand.capillary(1.2, 3)
    data = np.sin(2 * mesh.vertices[:, 0]) * np.cos(mesh.vertices[:, 1])
    u0, rep0 = solve(I, mesh, data)
    u1, rep1 = solve(I, mesh, data + shift)
    assert rep0.converged and rep1.converged
    assert np.abs(u1.values - (u0.values + shift)).max() <= 1e-9


def test_hard_capillary_solve_stops_at_rounding_floor():
    # theta = 0.5 on corner-incompatible sine data, cold from zero: the energy
    # change reaches rounding level while the residual is still above
    # tol_residual; the trace records each accepted iterate's own energy
    integrand, mesh, data = hard_case()
    values, rep = solver._newton(integrand, mesh, data, SolveConfig(), None)
    assert rep.converged
    assert rep.iterations <= 12
    trace = np.array(rep.energy_trace)
    assert trace[-1] == energy(integrand, mesh, values)
    # the last step was taken at the rounding floor, where the energy cannot
    # rank two trials, and Newton did not linger there; an exact tie is allowed
    at_floor = np.abs(np.diff(trace)) <= 16.0 * np.finfo(float).eps * np.abs(trace[1:])
    assert at_floor[-1] and at_floor.sum() == 1


def test_max_iter_exhaustion_reports_not_raises():
    mesh = unit_mesh(1 / 16)
    data = np.sin(4 * mesh.vertices[:, 0])
    u, rep = solve(EllipticIntegrand.euclidean(3), mesh, data, SolveConfig(max_iter=1))
    assert not rep.converged
    assert rep.iterations == 1


# -- nested iteration -----------------------------------------------------------------


NESTED_DOMAINS = pytest.mark.parametrize(
    "domain",
    [
        HalfDomain(1, depth=1.0, resolution=1 / 16),  # fine nx = 32
        HalfDomain(2, depth=1.0, width=0.5, resolution=1 / 16),  # fine 32 x 32
        HalfDomain(2, depth=1.0, width=0.55, resolution=1 / 16),  # fine 32 x 36, dx != dy
    ],
    ids=["1d_nx32", "2d_32x32", "2d_dx_ne_dy"],
)


@NESTED_DOMAINS
def test_prolongation_reproduces_affine_functions(domain):
    coarse = build_mesh(domain)
    fine = refine(coarse)
    a = np.array([0.7, -1.3])[: domain.n]
    got = _prolong(coarse.vertices @ a + 0.4, tuple(d + 1 for d in fine.divisions))
    assert np.abs(got - (fine.vertices @ a + 0.4)).max() <= 1e-14


@NESTED_DOMAINS
def test_prolongation_keeps_the_coarse_graph(domain):
    # the fine P1 space contains the coarse one, so the interpolant is the
    # same graph: equal energy for any values (this fixes the split diagonal)
    coarse = build_mesh(domain)
    fine = refine(coarse)
    values = np.random.default_rng(7).normal(size=coarse.num_vertices)
    got = _prolong(values, tuple(d + 1 for d in fine.divisions))
    I = EllipticIntegrand.capillary(0.7, domain.n + 1)
    e_coarse = energy(I, coarse, values)
    assert energy(I, fine, got) == pytest.approx(e_coarse, rel=1e-13)


def test_ladder_injects_the_data_of_each_coarse_mesh():
    # a level is halved while its divisions are even and at least 32; a coarse level's data
    # and Dirichlet mask, injected from the finer level's, are those of its own mesh
    for domain, ladder in [
        (HalfDomain(1, depth=1.0, resolution=1 / 64), [(16,), (32,), (64,)]),
        (HalfDomain(2, depth=1.0, width=0.55, resolution=1 / 64), [(32, 35), (64, 70)]),  # dx != dy
        (HalfDomain(2, depth=1.0, width=0.5, resolution=1 / 128), [(16, 16), (32, 32), (64, 64),
                                                                   (128, 128)]),
        (HalfDomain(2, depth=1.0, width=65 / 128, resolution=1 / 64), [(64, 65)]),  # odd division
    ]:
        mesh = build_mesh(domain)
        levels = solver._ladder(mesh, evaluate_data_spec(CURVED_DATA_SPEC, mesh.vertices))
        assert [divisions for divisions, _ in levels] == ladder
        is_dir, even = mesh.vertex_tags == Tag.DIRICHLET, (slice(None, None, 2),) * mesh.n
        for (divisions, data), (_, finer) in zip(levels[-2::-1], levels[::-1]):
            counts = tuple(2 * d + 1 for d in divisions)
            coarse = _build(domain, divisions)
            is_dir = is_dir.reshape(counts)[even].ravel()
            assert np.array_equal(is_dir, coarse.vertex_tags == Tag.DIRICHLET)
            assert np.array_equal(data, finer.reshape(counts)[even].ravel())
            assert np.abs(data - evaluate_data_spec(CURVED_DATA_SPEC, coarse.vertices)).max() \
                <= 1e-15


@pytest.mark.parametrize(
    "integrand",
    [EllipticIntegrand.euclidean(3), hard_case()[0]],
    ids=["euclid", "cap50"],
)
def test_ladder_solve_matches_cold_solve(integrand):
    _, mesh, data = hard_case()
    u, rep = solve(integrand, mesh, data)
    cold, rep_cold = solver._newton(integrand, mesh, data, SolveConfig(), None)
    assert rep.converged and rep_cold.converged
    assert len(rep.level_iterations) == 3 and rep.level_iterations[-1] == rep.iterations
    assert np.abs(u.values - cold).max() <= 1e-9


def test_failed_coarse_level_falls_back_to_cold_start():
    mesh = unit_mesh(1 / 32)
    data = np.sin(4 * mesh.vertices[:, 0])
    config = SolveConfig(max_iter=1)
    u, rep = solve(EllipticIntegrand.euclidean(3), mesh, data, config)
    assert not rep.converged
    assert rep.iterations == 1
    assert rep.level_iterations == [1]
    cold, _ = solver._newton(EllipticIntegrand.euclidean(3), mesh, data, config, None)
    assert np.array_equal(u.values, cold)


def test_failed_middle_level_restarts_the_ladder_cold(monkeypatch):
    # the 32 x 32 level of a 1/128 solve fails: the 64 x 64 level starts from zero, and
    # the level record leaves out the failed level and every level below it
    mesh = unit_mesh(1 / 128)
    calls, inner = [], solver._newton

    def failing(integrand, level, dirichlet, config, start):
        values, report = inner(integrand, level, dirichlet, config, start)
        report.converged &= level.divisions != (32, 32)
        calls.append((level.divisions[0], start is None, report.iterations))
        return values, report

    monkeypatch.setattr(solver, "_newton", failing)
    _, rep = solve(EllipticIntegrand.euclidean(3), mesh,
                   evaluate_data_spec(CURVED_DATA_SPEC, mesh.vertices))
    assert [call[:2] for call in calls] == [(16, True), (32, False), (64, True), (128, False)]
    assert rep.converged and rep.level_iterations == [calls[2][2], calls[3][2]]


def test_theta_sweep_base_at_058_needs_few_fine_iterations():
    # cold from zero this solve took 30 Newton iterations, most of them damped
    # loaded at theta = 0.58, so that its flat_profile term takes that angle's slope
    raw = bundled("capillary_theta_sweep")
    raw.update(checks=[], integrand={**raw["integrand"], "theta": 0.58},
               domain={**raw["domain"], "resolution": 1 / 64})
    rep = run_scenario(scenario_from_dict(raw), solve_only=True).solve_report
    assert rep.converged
    assert rep.iterations <= 6


@pytest.mark.parametrize("h, ladder", [(1 / 64, [7, 4, 4]), (1 / 128, [7, 4, 4, 3])],
                         ids=["h64", "h128"])
def test_hard_capillary_ladder_fine_iterations(h, ladder):
    # the corners of every warm level are eliminated first: [7, 6, 9] and [7, 6, 9, 8] without
    integrand, mesh, data = hard_case(h)
    _, rep = solve(integrand, mesh, data)
    assert rep.converged
    assert rep.level_iterations == ladder


# -- corner elimination ----------------------------------------------------------------


def record_newton(monkeypatch):
    """Wrap ``solver._newton``; the list returned gets the local solves of each level, one
    count per level (``eliminate`` is off for a corner's local solve alone)."""
    counts, inner = [], solver._newton

    def recorded(integrand, mesh, dirichlet, config, start, eliminate=True):
        if eliminate:
            counts.append(0)
        else:
            counts[-1] += 1
        return inner(integrand, mesh, dirichlet, config, start, eliminate)

    monkeypatch.setattr(solver, "_newton", recorded)
    return counts


def test_corner_elimination_matches_the_plain_ladder(monkeypatch):
    integrand, mesh, data = hard_case()
    u, rep = solve(integrand, mesh, data)
    monkeypatch.setattr(solver, "_CORNER_GATE", math.inf)
    plain, rep_plain = solve(integrand, mesh, data)
    assert rep.converged and rep_plain.converged
    assert rep.level_iterations == [7, 4, 4] and rep_plain.level_iterations == [7, 6, 9]
    assert np.abs(u.values - plain.values).max() <= 1e-9
    assert rep.energy_trace[-1] == pytest.approx(rep_plain.energy_trace[-1], rel=1e-12)


def test_corner_gate_fires_on_corner_incompatible_data_alone(monkeypatch):
    counts = record_newton(monkeypatch)
    integrand, mesh, data = hard_case(1 / 128)
    assert solve(integrand, mesh, data)[1].converged
    assert counts == [0, 2, 2, 2]  # two local solves on each warm level
    counts.clear()
    assert solve(EllipticIntegrand.euclidean(3), mesh, data)[1].converged
    assert counts == [0, 0, 0, 0]
    counts.clear()
    raw = bundled("capillary_theta_sweep")
    raw.update(checks=[], domain={**raw["domain"], "resolution": 1 / 64})
    assert run_scenario(scenario_from_dict(raw), solve_only=True).solve_report.converged
    assert counts == [0, 0, 0]


def test_corner_gate_leaves_other_dimensions_alone(monkeypatch):
    # n = 1 has no corner; for n = 3 the corner set is the wall's four edges
    counts = record_newton(monkeypatch)
    mesh = build_mesh(HalfDomain(1, depth=1.0, resolution=1 / 64))
    data = np.full(mesh.num_vertices, -0.3)
    assert solve(EllipticIntegrand.capillary(0.5, 2), mesh, data)[1].converged
    assert counts == [0, 0, 0]
    counts.clear()
    mesh = build_mesh(HalfDomain(3, depth=1.0, width=0.5, resolution=1 / 8))
    data = evaluate_data_spec(CURVED_DATA_SPEC, mesh.vertices)
    _, rep = solver._newton(EllipticIntegrand.capillary(0.5, 4), mesh, data, SolveConfig(),
                            np.zeros(mesh.num_vertices))  # warm, from zero
    assert rep.converged and counts == [0]


def test_converged_warm_start_is_not_eliminated(monkeypatch):
    # the flat capillary graph at theta = 2.6 is exact on every level, and the warm start's
    # rounding-level residual lies mostly in the corner boxes: that is noise, not a corner
    counts = record_newton(monkeypatch)
    mesh = unit_mesh(1 / 64)
    integrand = EllipticIntegrand.capillary(2.6, 3)
    data = mesh.vertices @ np.array([integrand.flat_slope(), 0.0])
    levels, inner = [], solver._newton

    def share(integrand, level, dirichlet, config, start, eliminate=True):
        if start is not None and eliminate:
            is_dir = level.vertex_tags == Tag.DIRICHLET
            res = gradient(integrand, level, np.where(is_dir, dirichlet, start))[~is_dir]
            levels.append(solver._corner_share(res, _free_box(level, is_dir), level.divisions))
        return inner(integrand, level, dirichlet, config, start, eliminate)

    monkeypatch.setattr(solver, "_newton", share)
    _, rep = solve(integrand, mesh, data, SolveConfig(tol_residual=1e-13))
    assert rep.converged and rep.level_iterations[1:] == [0, 0]
    assert min(levels) > solver._CORNER_GATE
    assert counts == [0, 0, 0]


def test_every_earlier_lift_is_freed_before_a_newton_step(monkeypatch):
    # a lift is used up once D^2 f is formed: neither the accepted trial's name nor a start
    # that the corner solves replaced may hold one through the band and its factorization
    lifts, steps, lift, step = [], [], EllipticIntegrand.lift, solver._newton_step

    def recorded_lift(self, y):
        lifted = lift(self, y)
        lifts.extend(weakref.ref(a) for a in lifted)
        return lifted

    def checked_step(*args):
        steps.append(sum(ref() is not None for ref in lifts))
        return step(*args)

    monkeypatch.setattr(EllipticIntegrand, "lift", recorded_lift)
    monkeypatch.setattr(solver, "_newton_step", checked_step)
    counts = record_newton(monkeypatch)
    _, rep = solve(*hard_case())
    assert rep.converged and counts == [0, 2, 2]  # the corner solves ran
    assert len(steps) > sum(rep.level_iterations) and not any(steps)


def test_unresolved_data_skips_the_ladder():
    # a bump of radius four cells on the far boundary: the half-resolution
    # boundary misses a tenth of its height, so the solve is the cold one
    mesh = build_mesh(HalfDomain(2, depth=8.0, width=8.0, resolution=0.25))  # 32 x 64
    data = evaluate_data_spec(
        {"type": "bump", "center": [8.0, 0.0], "radius": 1.0, "height": 1.0}, mesh.vertices)
    assert [divisions for divisions, _ in solver._ladder(mesh, data)] == [(32, 64)]
    u, rep = solve(EllipticIntegrand.euclidean(3), mesh, data)
    cold, _ = solver._newton(EllipticIntegrand.euclidean(3), mesh, data, SolveConfig(), None)
    assert rep.converged and rep.level_iterations == [rep.iterations]
    assert np.array_equal(u.values, cold)


def test_graph_function_invariants():
    mesh = unit_mesh(1 / 8)
    with pytest.raises(ValueError):
        GraphFunction(mesh, np.zeros(3))
    bad = np.zeros(mesh.num_vertices)
    bad[0] = np.inf
    with pytest.raises(ValueError):
        GraphFunction(mesh, bad)


def test_dirichlet_data_must_be_finite():
    mesh = unit_mesh(1 / 8)
    data = np.zeros(mesh.num_vertices)
    data[-1] = np.nan
    with pytest.raises(ValueError):
        solve(EllipticIntegrand.euclidean(3), mesh, data)


def test_dimension_mismatch_rejected():
    mesh = unit_mesh(1 / 8)
    with pytest.raises(ValueError):
        solve(EllipticIntegrand.euclidean(2), mesh, np.zeros(mesh.num_vertices))


# -- the Hessian band, written diagonal by diagonal, and the banded Newton step ---------


SMALL_DOMAINS = [
    HalfDomain(1, depth=1.0, resolution=1 / 3),
    HalfDomain(1, depth=1.0, resolution=1 / 7),
    HalfDomain(2, depth=1.0, width=0.875, resolution=1 / 4),  # 4 x 7 cells
    HalfDomain(2, depth=1.0, width=0.6, resolution=1 / 4),  # dx != dy
]
SMALL_IDS = ["1d_nx3", "1d_nx7", "2d_4x7", "2d_dx_ne_dy"]
# the small domains and the benchmark's finest, 128 x 128 cells
GRID_DOMAINS = pytest.mark.parametrize(
    "domain", SMALL_DOMAINS + [HalfDomain(2, depth=1.0, width=0.5, resolution=1 / 128)],
    ids=SMALL_IDS + ["2d_128x128"])


def random_newton_system(domain):
    mesh = build_mesh(domain)
    rng = np.random.default_rng(5)
    values = 0.4 * rng.normal(size=mesh.num_vertices)
    free = mesh.vertex_tags != Tag.DIRICHLET
    free_pos = np.full(mesh.num_vertices, -1, dtype=np.int64)
    free_pos[free] = np.arange(free.sum())
    integrand = EllipticIntegrand.capillary(0.7, mesh.n + 1)
    return integrand, mesh, values, free_pos


def grid_band(integrand, mesh, values):
    d2f = integrand.D2f(integrand.lift(mesh.cell_gradients(values)))
    free = _free_box(mesh, mesh.vertex_tags == Tag.DIRICHLET)
    return _hessian_band(_band_plan(mesh, free), d2f)


@GRID_DOMAINS
def test_gradient_scatter_matches_add_at(domain):
    integrand, mesh, values, _ = random_newton_system(domain)
    ref = raw_gradient_add_at(integrand, mesh, values)
    got = gradient(integrand, mesh, values)
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
    # the generic scatter of arbitrary per-cell vertex contributions
    contrib = np.random.default_rng(6).normal(size=mesh.cells.shape)
    ref = np.zeros(mesh.num_vertices)
    np.add.at(ref, mesh.cells, contrib)
    assert np.abs(mesh.scatter(contrib) - ref).max() <= 1e-14 * np.abs(ref).max()


@GRID_DOMAINS
def test_fixed_pattern_hessian_matches_coo_assembly(domain):
    integrand, mesh, values, free_pos = random_newton_system(domain)
    band = grid_band(integrand, mesh, values)
    kd, nfree = band.shape[0] - 1, int(free_pos.max()) + 1
    assert band.shape[1] == nfree and band.flags.f_contiguous
    rows, cols, vals = hessian_entries(integrand, mesh, values, free_pos)
    assert (rows - cols).max() <= kd  # no entry lies outside the band
    # the COO triples summed by diagonal: ref[r, c] is entry (c + r, c), as in the band (a
    # dense reference at 128 x 128 cells would take 2 GiB)
    lower = rows >= cols
    ref = np.zeros((kd + 1, nfree))
    np.add.at(ref, (rows[lower] - cols[lower], cols[lower]), vals[lower])
    scale = np.abs(ref).max()
    for r in range(kd + 1):
        assert np.abs(band[r, : nfree - r] - ref[r, : nfree - r]).max() <= 1e-14 * scale
        assert not band[r, nfree - r:].any()


@GRID_DOMAINS
def test_planned_band_is_the_band_summed_by_diagonals(domain):
    # the same sums in the same order, so the same bits
    integrand, mesh, values, _ = random_newton_system(domain)
    d2f = integrand.D2f(integrand.lift(mesh.cell_gradients(values)))
    free = _free_box(mesh, mesh.vertex_tags == Tag.DIRICHLET)
    band = _hessian_band(_band_plan(mesh, free), d2f)
    assert np.array_equal(band, hessian_band_by_diagonals(mesh, d2f, free))


@pytest.mark.parametrize("domain", SMALL_DOMAINS, ids=SMALL_IDS)
def test_banded_newton_step_matches_dense_solve(domain):
    integrand, mesh, values, free_pos = random_newton_system(domain)
    res = gradient(integrand, mesh, values)[free_pos >= 0]
    got = _newton_step(grid_band(integrand, mesh, values), res)
    ref = newton_step_dense(integrand, mesh, values, free_pos, res)
    assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()


@GRID_DOMAINS
def test_float32_band_is_the_float64_band_rounded(domain):
    integrand, mesh, values, _ = random_newton_system(domain)
    d2f = integrand.D2f(integrand.lift(mesh.cell_gradients(values)))
    plan = _band_plan(mesh, _free_box(mesh, mesh.vertex_tags == Tag.DIRICHLET))
    band, single = _hessian_band(plan, d2f), _hessian_band(plan, d2f, np.float32)
    assert single.dtype == np.float32 and single.flags.f_contiguous and single.shape == band.shape
    # each float32 entry rounds each of its partial sums by at most half an ulp, and sums at
    # most six cells' weights in these meshes (a 2d vertex's cells)
    assert np.abs(single - band).max() <= 6 * np.finfo(np.float32).eps / 2 * np.abs(band).max()
    assert np.array_equal(single == 0, band == 0)


@pytest.mark.parametrize("domain", SMALL_DOMAINS, ids=SMALL_IDS)
def test_float32_preconditioned_step_matches_dense_solve(domain):
    integrand, mesh, values, free_pos = random_newton_system(domain)
    res = gradient(integrand, mesh, values)[free_pos >= 0]
    d2f = integrand.D2f(integrand.lift(mesh.cell_gradients(values)))
    plan = _band_plan(mesh, _free_box(mesh, mesh.vertex_tags == Tag.DIRICHLET))
    times = functools.partial(_hessian_times, mesh, d2f, np.flatnonzero(free_pos >= 0))
    got = _newton_step(_hessian_band(plan, d2f, np.float32), res, times)
    ref = newton_step_dense(integrand, mesh, values, free_pos, res)
    assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()


def refuse_float32_factor(monkeypatch) -> list:
    """Make the float32 banded Cholesky report its 7th pivot non-positive; return the list
    that records the dtype of every band built from then on."""
    def refuse(uplo, n, kd, band, ldab, info, length):
        info._obj.value = 7

    lapack = dict(solver._lapack)
    lapack[np.float32] = (refuse, lapack[np.float32][1])
    monkeypatch.setattr(solver, "_lapack", lapack)
    built = []

    def recorded(plan, d2f, dtype=np.float64):
        built.append(dtype)
        return _hessian_band(plan, d2f, dtype)

    monkeypatch.setattr(solver, "_hessian_band", recorded)
    return built


def test_refused_float32_factor_falls_back_to_the_float64_band(monkeypatch):
    # 1/128 lies above the size crossover: each fine step tries float32 first
    mesh = unit_mesh(1 / 128)
    data = evaluate_data_spec(CURVED_DATA_SPEC, mesh.vertices)
    integrand = EllipticIntegrand.euclidean(3)
    built = refuse_float32_factor(monkeypatch)
    u, report = solve(integrand, mesh, data)
    assert report.converged and report.failure == ""
    fine = report.level_iterations[-1]
    assert fine > 0 and built[-2 * fine:] == [np.float32, np.float64] * fine
    # every step was the float64 band's, so the solve is the float64-only solve, bit for bit
    monkeypatch.setattr(solver, "_MIXED_BAND_BYTES", math.inf)
    count = len(built)
    plain, plain_report = solve(integrand, mesh, data)
    assert set(built[count:]) == {np.float64}
    assert np.array_equal(u.values, plain.values)
    assert report.level_iterations == plain_report.level_iterations


def test_levels_below_the_crossover_build_float64_bands_alone(monkeypatch):
    built = refuse_float32_factor(monkeypatch)
    mesh = unit_mesh(1 / 64)
    _, report = solve(EllipticIntegrand.euclidean(3), mesh,
                      evaluate_data_spec(CURVED_DATA_SPEC, mesh.vertices))
    assert report.converged and built and set(built) == {np.float64}


def spoil_first_pivot(monkeypatch, factor) -> None:
    hessian_band = solver._hessian_band

    def spoiled(*args):  # the first pivot of the band, scaled by hand
        band = hessian_band(*args)
        band[0, 0] *= factor
        return band

    monkeypatch.setattr(solver, "_hessian_band", spoiled)


@pytest.mark.parametrize("factor, reason", [
    (-1.0, "not numerically positive definite"),
    (np.nan, "step is not finite"),
    (1.01, "missed its tolerance"),  # still SPD, but no longer H
], ids=["indefinite", "nan", "inexact"])
def test_failed_linear_solve_ends_the_solve(monkeypatch, factor, reason):
    mesh = unit_mesh(1 / 8)
    data = evaluate_data_spec(CURVED_DATA_SPEC, mesh.vertices)
    spoil_first_pivot(monkeypatch, factor)
    _, report = solve(EllipticIntegrand.euclidean(3), mesh, data)
    assert not report.converged
    assert reason in report.failure
    assert report.iterations == 0 and report.level_iterations == [0]


@pytest.mark.parametrize("factor", [-1.0, np.nan, 1.01], ids=["indefinite", "nan", "inexact"])
def test_float64_fallback_decides_the_failure(monkeypatch, factor):
    mesh = unit_mesh(1 / 128)
    data = evaluate_data_spec(CURVED_DATA_SPEC, mesh.vertices)
    integrand = EllipticIntegrand.euclidean(3)
    spoil_first_pivot(monkeypatch, factor)
    monkeypatch.setattr(solver, "_MIXED_BAND_BYTES", math.inf)
    _, plain = solve(integrand, mesh, data)  # the float64 band alone
    monkeypatch.undo()
    built = refuse_float32_factor(monkeypatch)
    spoil_first_pivot(monkeypatch, factor)
    _, report = solve(integrand, mesh, data)
    assert np.float32 in built and "7-th" not in report.failure
    assert not report.converged and report.failure == plain.failure != ""
    assert report.iterations == 0 and report.level_iterations == [0]


def test_numpy_without_lapack_ends_the_solve(monkeypatch):
    # a numpy not built on scipy-openblas (conda MKL, Accelerate) has no dpbtrf to find
    monkeypatch.setattr(solver, "_lapack", None)
    mesh = unit_mesh(1 / 8)
    data = evaluate_data_spec(CURVED_DATA_SPEC, mesh.vertices)
    _, report = solve(EllipticIntegrand.euclidean(3), mesh, data)
    assert not report.converged
    assert report.failure == solver._NO_LAPACK and "scipy-openblas" in report.failure
    assert report.iterations == 0 and report.level_iterations == [0]


# -- equation residual -------------------------------------------------------------


def test_amse_residual_zero_for_affine():
    mesh = unit_mesh(1 / 16)
    u = GraphFunction(mesh, mesh.vertices @ np.array([0.3, -0.2]))
    res = amse_residual(EllipticIntegrand.euclidean(3), u)
    assert np.abs(res).max() <= 1e-12


def test_amse_residual_small_after_converged_solve():
    mesh = unit_mesh(1 / 16)
    data = 0.3 * np.cos(2 * mesh.vertices[:, 0]) * np.cos(mesh.vertices[:, 1])
    u, rep = solve(EllipticIntegrand.euclidean(3), mesh, data,
                   SolveConfig(tol_residual=1e-12))
    assert rep.converged
    mass_min = vertex_masses(mesh)[mesh.vertex_tags == Tag.INTERIOR].min()
    assert np.abs(amse_residual(EllipticIntegrand.euclidean(3), u)).max() <= 1e-12 / mass_min
    assert np.abs(amse_residual(EllipticIntegrand.euclidean(3), u)).max() <= 1e-8


def test_amse_residual_capillary_euclidean_equivalence():
    # Df differs by a constant vector, so interior divergences coincide
    mesh = unit_mesh(1 / 16)
    rng = np.random.default_rng(3)
    u = GraphFunction(mesh, rng.normal(size=mesh.num_vertices) * 0.4)
    r_cap = amse_residual(EllipticIntegrand.capillary(math.pi / 5, 3), u)
    r_euc = amse_residual(EllipticIntegrand.euclidean(3), u)
    assert np.abs(r_cap - r_euc).max() <= 1e-12


def test_curved_solutions_cauchy_under_refinement():
    # nested structured grids: compare solutions at shared (parent) vertices
    I = EllipticIntegrand.euclidean(3)
    meshes = [unit_mesh(1 / 8)]
    for _ in range(2):
        meshes.append(refine(meshes[-1]))
    sols = []
    for mesh in meshes:
        data = evaluate_data_spec(CURVED_DATA_SPEC, mesh.vertices)
        u, rep = solve(I, mesh, data)
        assert rep.converged
        sols.append((mesh, u))
    diffs = []
    for (mc, uc), (mf, uf) in zip(sols, sols[1:]):
        lookup = {tuple(np.round(v, 12)): k for k, v in enumerate(mf.vertices)}
        idx = np.array([lookup[tuple(np.round(v, 12))] for v in mc.vertices])
        diffs.append(np.abs(uf.values[idx] - uc.values).max())
    assert diffs[1] <= 0.55 * diffs[0]  # Cauchy at first order or better


def test_capillary_wall_angle_on_curved_solve():
    # the solved free-boundary capillary graph meets the wall at cos(theta) + O(h)
    theta = math.pi / 4
    I = EllipticIntegrand.capillary(theta, 3)
    devs = []
    for res in (1 / 16, 1 / 32):
        mesh = unit_mesh(res)
        data = evaluate_data_spec(CURVED_DATA_SPEC, mesh.vertices)
        data += mesh.vertices @ np.array([I.flat_slope(), 0.0])
        u, rep = solve(I, mesh, data)
        assert rep.converged
        geom = compute_geometry(I, u)
        wall_nu1 = geom.cell_normal[mesh.wall_cells, 0]
        devs.append(np.abs(wall_nu1 - math.cos(theta)).max())
    assert devs[0] <= 10.0 * (1 / 16)
    assert devs[1] <= 0.7 * devs[0]


def test_wall_flux_residual_zero_for_compatible_affine():
    mesh = unit_mesh(1 / 16)
    theta = 1.1
    I = EllipticIntegrand.capillary(theta, 3)
    u = GraphFunction(mesh, mesh.vertices @ np.array([-1.0 / math.tan(theta), 0.0]))
    assert np.abs(wall_flux_residuals(I, u)).max() <= 1e-13
