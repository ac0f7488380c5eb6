"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line; the expensive solves (refinement
ladders, angle sweeps, growing domains) are shared via module-scope
fixtures.  Criteria are property-based: exactness on affine solutions,
first-order decay of the discrete geometric residuals, stability of fitted
constants, flatness under domain growth, quadratic graph-ball area growth,
and byte-identical reruns.
"""

import math
import time
import warnings

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
from anisograph.boundary_data import evaluate_data_spec
from anisograph.cli import (_apply_axis, bundled_scenario_path, run, run_scenario,
                            scenario_from_dict)
from conftest import CURVED_DATA_SPEC, bundled
from reference import amse_residual

warnings.filterwarnings("ignore", message="no vertices within radius")

THETAS_EXACT = (math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2, 2 * math.pi / 3)
THETAS_SWEEP = (math.pi / 6, math.pi / 4, math.pi / 2, 3 * math.pi / 4)


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {tag} {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def curved_ladder():
    """Standard curved scenario solved at h = 1/32, 1/64, 1/128."""
    out = []
    for res in (1 / 32, 1 / 64, 1 / 128):
        mesh = build_mesh(HalfDomain(2, depth=1.0, width=0.5, resolution=res))
        data = evaluate_data_spec(CURVED_DATA_SPEC, mesh.vertices)
        u, rep = solve(EllipticIntegrand.euclidean(3), mesh, data)
        assert rep.converged
        out.append((mesh, u, compute_geometry(EllipticIntegrand.euclidean(3), u)))
    return out


@pytest.fixture(scope="module")
def theta_suite():
    """The bundled capillary angle sweep (flat profile + sine) at h = 1/32 and 1/64, with
    the records of its gradient_estimate check."""
    raw = bundled("capillary_theta_sweep")
    probes = next(c for c in scenario_from_dict(raw).checks if c["name"] == "gradient_estimate")
    records = {}
    geoms = {}
    for res in (1 / 32, 1 / 64):
        recs = []
        gs = []
        for theta in THETAS_SWEEP:
            varied = _apply_axis(_apply_axis(raw, "theta", theta), "resolution", res)
            result = run_scenario(scenario_from_dict({**varied, "checks": []}))
            assert result.solve_report.converged
            gs.append(result.geometry)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                recs.extend(V.gradient_estimate_records(result.geometry, probes["x0_list"],
                                                        probes["r_list"]))
        records[res] = recs
        geoms[res] = gs
    return records, geoms


def test_criterion_01_integrand_algebra():
    """Euler identity, homogeneity, Hessian annihilation: 1e4 points, < 1 s."""
    integrands = [
        EllipticIntegrand.euclidean(3),
        EllipticIntegrand.capillary(math.pi / 3, 3),
        EllipticIntegrand.ellipsoid(np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1],
                                              [0.0, 0.1, 1.5]])),
        EllipticIntegrand.pnorm(3.0, 3),
    ]
    rng = np.random.default_rng(42)
    z = rng.normal(size=(10_000, 3))
    z = z[np.linalg.norm(z, axis=1) > 1e-6]
    t0 = time.perf_counter()
    worst = 0.0
    for integrand in integrands:
        at = integrand.points(z)
        vals, grads, hess = integrand.F(at), integrand.DF(at), integrand.D2F(at)
        norms = np.linalg.norm(z, axis=1)
        euler = np.abs(np.einsum("ki,ki->k", grads, z) - vals) / norms
        worst = max(worst, euler.max())
        for t in (0.5, 2.0, 10.0):
            hom = np.abs(integrand.F(integrand.points(t * z)) - t * vals) / (t * norms)
            worst = max(worst, hom.max())
        hz = np.abs(np.einsum("kij,kj->ki", hess, z)).max(axis=1) / norms
        worst = max(worst, hz.max())
    elapsed = time.perf_counter() - t0
    _verdict("1 integrand-algebra", worst <= 1e-9 and elapsed < 1.0,
             f"worst={worst:.2e} time={elapsed:.2f}s")


def test_criterion_02_exact_affine_solutions():
    """Affine solutions reproduced to 1e-10 on a 64x64 mesh, wall angle correct."""
    mesh = build_mesh(HalfDomain(2, depth=1.0, width=0.5, resolution=1 / 64))
    cases = [(EllipticIntegrand.euclidean(3), np.array([0.0, 0.35]), None)]
    for theta in THETAS_EXACT:
        cases.append((EllipticIntegrand.capillary(theta, 3),
                      np.array([-1.0 / math.tan(theta), 0.0]), theta))
    worst_err = 0.0
    worst_wall = 0.0
    slowest = 0.0
    for integrand, a, theta in cases:
        exact = mesh.vertices @ a
        t0 = time.perf_counter()
        u, rep = solve(integrand, mesh, exact)
        slowest = max(slowest, time.perf_counter() - t0)
        assert rep.converged
        worst_err = max(worst_err, float(np.abs(u.values - exact).max()))
        if theta is not None:
            geom = compute_geometry(integrand, u)
            wall_nu1 = geom.cell_normal[mesh.wall_cells, 0]
            dev = float(np.abs(wall_nu1 - math.cos(theta)).max())
            worst_wall = max(worst_wall, dev / (2.0 * mesh.h))
    ok = worst_err <= 1e-10 and worst_wall <= 1.0 and slowest < 5.0
    _verdict("2 exact-affine", ok,
             f"max_err={worst_err:.2e} wall_dev/2h={worst_wall:.2e} slowest={slowest:.1f}s")


def test_criterion_03_one_dimensional_oracle():
    """n=1 solves match the bisection oracle on the profile derivative."""
    integrands = [
        EllipticIntegrand.euclidean(2),
        EllipticIntegrand.capillary(math.pi / 3, 2),
        EllipticIntegrand.capillary(2 * math.pi / 3, 2),
        EllipticIntegrand.ellipsoid(np.array([[2.0, 0.5], [0.5, 1.0]])),
        EllipticIntegrand.pnorm(3.0, 2),
    ]

    def oracle(integrand, lo=-50.0, hi=50.0):
        def dfda(a):
            return integrand.Df(integrand.lift(np.array([a])))[0]

        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if dfda(mid) <= 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    mesh = build_mesh(HalfDomain(1, depth=1.0, resolution=1 / 64))
    worst = 0.0
    for integrand in integrands:
        u, rep = solve(integrand, mesh, np.full(mesh.num_vertices, 0.4),
                       SolveConfig(tol_residual=1e-12))
        assert rep.converged
        slopes = u.cell_gradients()[:, 0]
        worst = max(worst, float(np.abs(slopes - oracle(integrand)).max()))
    _verdict("3 one-dimensional-oracle", worst <= 1e-10, f"worst={worst:.2e}")


def test_criterion_04_capillary_euclidean_equivalence():
    """Equation residuals agree pointwise when the integrands differ linearly."""
    mesh = build_mesh(HalfDomain(2, depth=1.0, width=0.5, resolution=1 / 32))
    rng = np.random.default_rng(7)
    worst = 0.0
    for seed in range(3):
        u = GraphFunction(mesh, rng.normal(size=mesh.num_vertices) * 0.5)
        r_cap = amse_residual(EllipticIntegrand.capillary(0.4 + seed, 3), u)
        r_euc = amse_residual(EllipticIntegrand.euclidean(3), u)
        worst = max(worst, float(np.abs(r_cap - r_euc).max()))
    _verdict("4 capillary-euclidean-equivalence", worst <= 1e-12, f"worst={worst:.2e}")


def test_criterion_05_discrete_identities(curved_ladder, theta_suite):
    """W_f = F(nu) W and the comparability sandwich on every converged solve."""
    geoms = [g for _, _, g in curved_ladder]
    geoms += [g for gs in theta_suite[1].values() for g in gs]
    worst_identity = 0.0
    worst_sandwich = 0.0
    for geom in geoms:
        worst_identity = max(worst_identity, float(
            np.abs(geom.cell_Wf - geom.cell_F_normal * geom.cell_W).max()))
        lo, hi = geom.integrand.analytic_sphere_range()
        ratio = geom.cell_Wf / geom.cell_W
        worst_sandwich = max(worst_sandwich, float(lo - ratio.min()),
                             float(ratio.max() - hi))
    ok = worst_identity <= 1e-12 and worst_sandwich <= 1e-12
    _verdict("5 discrete-identities", ok,
             f"identity={worst_identity:.2e} sandwich={worst_sandwich:.2e}")


def test_criterion_06_geometric_residual_rates(curved_ladder):
    """Four O(h) residuals decay with observed rate >= 0.9 on the ladder."""
    checks = {
        "boundary_tangency": V.check_boundary_tangency,
        "wall_condition": V.check_wall_condition,
        "interior_minimality": V.check_interior_minimality,
        "first_variation": V.check_first_variation,
    }
    rates = {}
    ok = True
    detail = []
    for name, fn in checks.items():
        residuals = [fn(geom).worst_residual for _, _, geom in curved_ladder]
        pair_rates = [math.log2(residuals[k] / residuals[k + 1])
                      for k in range(len(residuals) - 1)]
        rates[name] = pair_rates
        ok = ok and all(r >= 0.9 for r in pair_rates)
        detail.append(f"{name}:{','.join(f'{r:.2f}' for r in pair_rates)}")
    _verdict("6 geometric-rates", ok, " ".join(detail))


def test_criterion_07_subharmonicity_envelope(curved_ladder):
    """Weak subharmonic slack within the coarse-level envelope; quad term >= 0."""
    reports = [V.check_subharmonicity(geom) for _, _, geom in curved_ladder]
    base_residual = max(0.0, -reports[0].metadata["min_slack"])
    ok = True
    detail = []
    for level, rep in enumerate(reports):
        floor = -5.0 * base_residual * (0.5 ** level)
        slack = rep.metadata["min_slack"]
        quad_ok = rep.metadata["quad_min"] >= -1e-15
        ok = ok and slack >= floor and quad_ok
        detail.append(f"L{level}: slack={slack:.2e} floor={floor:.2e}")
    _verdict("7 subharmonicity", ok, " ".join(detail))


def test_criterion_08_gradient_estimate_constants(theta_suite):
    """Fitted constants finite, stable within 20%, valid on held-out records."""
    records, _ = theta_suite
    coarse, fine = records[1 / 32], records[1 / 64]
    c_coarse = V.fit_gradient_constants(coarse)
    c_fine = V.fit_gradient_constants(fine)
    finite = all(map(math.isfinite, (*c_coarse, *c_fine)))
    drift = [abs(a - b) / max(abs(a), 1e-12) for a, b in zip(c_coarse, c_fine)]
    fit = V.fit_gradient_constants(coarse[::2])
    holdout = V.holdout_satisfaction(fit, coarse[1::2])
    refined = V.holdout_satisfaction(fit, fine)
    ok = (finite and max(drift) <= 0.20 and holdout >= 0.95 and refined >= 0.95)
    _verdict(
        "8 gradient-estimate", ok,
        f"c={c_coarse} drift={max(drift) * 100:.1f}% holdout={holdout:.3f}/{refined:.3f}",
    )


def test_criterion_09_liouville_flatness():
    """Deviation from affine decays strictly as the domain grows (< 2 min)."""
    t0 = time.perf_counter()
    rep = V.liouville_probe(EllipticIntegrand.euclidean(3), beta=0.1,
                            sizes=[4.0, 8.0, 16.0], bump_height=1.0, resolution=0.25)
    elapsed = time.perf_counter() - t0
    d = rep.metadata["deviations"]
    strictly = all(d[k + 1] < d[k] for k in range(len(d) - 1))
    ok = strictly and d[-1] <= 0.05 and elapsed < 120.0
    _verdict("9 liouville", ok, f"d={['%.4f' % x for x in d]} time={elapsed:.1f}s")


def test_criterion_10_area_growth(curved_ladder):
    """Graph-ball area exponent in [1.8, 2.2] at interior and wall points."""
    mesh = build_mesh(HalfDomain(2, depth=2.0, width=1.0, resolution=1 / 32))
    flat = compute_geometry(EllipticIntegrand.euclidean(3),
                            GraphFunction(mesh, np.zeros(mesh.num_vertices)))
    radii_big = [0.2, 0.3, 0.45, 0.6, 0.8]
    radii_small = [0.12, 0.18, 0.25, 0.35]
    curved_geom = curved_ladder[1][2]
    slopes = {
        "flat-interior": V.area_growth_check(flat, [1.0, 0.0], radii_big),
        "flat-wall": V.area_growth_check(flat, [0.0, 0.0], radii_big),
        "curved-interior": V.area_growth_check(curved_geom, [0.5, 0.0], radii_small),
        "curved-wall": V.area_growth_check(curved_geom, [0.0, 0.0], radii_small),
    }
    ok = True
    detail = []
    for name, rep in slopes.items():
        expo = rep.metadata["fitted_exponent"]
        ok = ok and 1.8 <= expo <= 2.2
        detail.append(f"{name}={expo:.3f}")
    _verdict("10 area-growth", ok, " ".join(detail))


def test_criterion_11_determinism(tmp_path):
    """Byte-identical reports for repeated runs of a bundled scenario."""
    src = bundled_scenario_path("euclidean_freebdry_sine")
    assert run(src, tmp_path / "a") == 0
    assert run(src, tmp_path / "b") == 0
    same = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("report.jsonl", "summary.csv", "solution.csv", "solve_report.json",
                     "geometry.csv", "geometry_wall.csv")
    )
    _verdict("11 determinism", same, "report.jsonl/summary.csv/solution.csv/solve_report.json/"
             "geometry.csv/geometry_wall.csv identical")
