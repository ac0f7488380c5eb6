import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from anisograph import EllipticIntegrand
from anisograph.cli import run_scenario, scenario_from_dict
from anisograph.integrand import _as_points, sphere_points
from anisograph.schema import ConfigError
from conftest import bundled
from reference import bisect_flat_slope, fd_gradient, fd_hessian


def builtin_integrands(dim=3):
    return [
        EllipticIntegrand.euclidean(dim),
        EllipticIntegrand.capillary(math.pi / 3, dim),
        EllipticIntegrand.ellipsoid(np.diag([4.0] + [1.0] * (dim - 1))),
        EllipticIntegrand.pnorm(3.0, dim),
    ]


unit_vectors = st.builds(
    lambda seed: _unit(seed),
    st.integers(min_value=0, max_value=10_000),
)


def _unit(seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=3)
    return z / np.linalg.norm(z)


# -- frozen example values -----------------------------------------------------


def test_euclidean_unit_vector():
    I = EllipticIntegrand.euclidean(3)
    assert I.F(I.points(np.array([0.0, 0.0, 1.0]))) == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(
        I.DF(I.points(np.array([0.0, 0.0, 1.0]))), [0.0, 0.0, 1.0], atol=1e-15
    )


def test_capillary_frozen_value():
    # direct substitution: |z| - cos(pi/3) z_1 at z = e1 gives 1 - 1/2
    I = EllipticIntegrand.capillary(math.pi / 3, 3)
    assert I.F(I.points(np.array([1.0, 0.0, 0.0]))) == pytest.approx(0.5, abs=1e-12)


def test_ellipsoid_identity_reduces_to_norm():
    I = EllipticIntegrand.ellipsoid(np.eye(3))
    assert I.F(I.points(np.array([3.0, 4.0, 0.0]))) == pytest.approx(5.0, abs=1e-12)


def test_capillary_gradient_closed_form():
    theta = 1.1
    I = EllipticIntegrand.capillary(theta, 3)
    rng = np.random.default_rng(3)
    z = rng.normal(size=3)
    expected = z / np.linalg.norm(z) - math.cos(theta) * np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose(I.DF(I.points(z)), expected, atol=1e-14)


def test_ellipsoid_gradient_euler_residual():
    a = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 1.5]])
    I = EllipticIntegrand.ellipsoid(a)
    rng = np.random.default_rng(4)
    z = rng.normal(size=(100, 3))
    g = I.DF(I.points(z))
    np.testing.assert_allclose(np.einsum("ki,ki->k", g, z), I.F(I.points(z)), atol=1e-12)


def test_euclidean_hessian_is_projector():
    I = EllipticIntegrand.euclidean(3)
    e3 = np.array([0.0, 0.0, 1.0])
    np.testing.assert_allclose(I.D2F(I.points(e3)), np.eye(3) - np.outer(e3, e3), atol=1e-14)


def test_capillary_hessian_equals_euclidean():
    rng = np.random.default_rng(5)
    z = rng.normal(size=(50, 3))
    cap = EllipticIntegrand.capillary(0.7, 3)
    euc = EllipticIntegrand.euclidean(3)
    np.testing.assert_array_equal(cap.D2F(cap.points(z)), euc.D2F(euc.points(z)))


def test_lagrangian_frozen_values():
    # f(y) = sqrt(1 + |y|^2) + cos(theta) y_1; theta = pi/2 is the isotropic case
    euclidean = EllipticIntegrand.euclidean(3)
    assert euclidean.F(euclidean.lift(np.array([3.0, 4.0]))) == pytest.approx(
        math.sqrt(26.0), abs=1e-14
    )
    I = EllipticIntegrand.capillary(math.pi / 3, 3)
    y0 = np.zeros(2)
    assert I.F(I.lift(y0)) == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(I.Df(I.lift(y0)), [math.cos(math.pi / 3), 0.0], atol=1e-15)


# -- algebraic invariants -------------------------------------------------------


@pytest.mark.parametrize("integrand", builtin_integrands(), ids=lambda i: i.kind)
def test_euler_identity_and_homogeneity(integrand):
    rng = np.random.default_rng(11)
    z = rng.normal(size=(2000, 3))
    z = z[np.linalg.norm(z, axis=1) > 1e-3]
    vals = integrand.F(integrand.points(z))
    grads = integrand.DF(integrand.points(z))
    norms = np.linalg.norm(z, axis=1)
    euler = np.abs(np.einsum("ki,ki->k", grads, z) - vals)
    assert euler.max() <= 1e-9 * norms.max()
    for t in (0.5, 2.0, 10.0):
        scaled = integrand.F(integrand.points(t * z))
        assert np.abs(scaled - t * vals).max() <= 1e-9 * t * norms.max()


@pytest.mark.parametrize("integrand", builtin_integrands(), ids=lambda i: i.kind)
def test_hessian_annihilates_argument(integrand):
    rng = np.random.default_rng(12)
    z = rng.normal(size=(500, 3))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    hz = np.einsum("kij,kj->ki", integrand.D2F(integrand.points(z)), z)
    assert np.abs(hz).max() <= 1e-10


@pytest.mark.parametrize("integrand", builtin_integrands(), ids=lambda i: i.kind)
def test_gradient_zero_homogeneous(integrand):
    rng = np.random.default_rng(13)
    z = rng.normal(size=(50, 3))
    np.testing.assert_allclose(integrand.DF(integrand.points(3.7 * z)),
                               integrand.DF(integrand.points(z)), atol=1e-11)


@given(unit_vectors)
def test_euler_identity_property(z):
    I = EllipticIntegrand.pnorm(2.5, 3, eps=0.02)
    assert abs(I.DF(I.points(z)) @ z - I.F(I.points(z))) <= 1e-10


@pytest.mark.parametrize("integrand", builtin_integrands(), ids=lambda i: i.kind)
def test_grad_f_matches_finite_differences_with_order_two(integrand):
    # halving the step shrinks the centered-difference error by ~4
    rng = np.random.default_rng(14)
    y = rng.normal(size=2)
    g = integrand.Df(integrand.lift(y))
    err = {}
    for step in (1e-3, 5e-4):
        fd = fd_gradient(lambda x: integrand.F(integrand.lift(x)), y, step=step)
        err[step] = np.linalg.norm(fd - g)
    ratio = err[1e-3] / max(err[5e-4], 1e-300)
    assert 2.5 <= ratio <= 6.0 or err[1e-3] < 1e-12


@pytest.mark.parametrize("integrand", builtin_integrands(), ids=lambda i: i.kind)
def test_hess_f_matches_finite_differences(integrand):
    rng = np.random.default_rng(15)
    for _ in range(5):
        y = rng.normal(size=2)
        fd = fd_hessian(lambda x: integrand.F(integrand.lift(x)), y)
        np.testing.assert_allclose(integrand.D2f(integrand.lift(y)), fd, atol=5e-5)


def test_hess_f_eigenvalue_window():
    # eigenvalues of D^2 f at |y| <= C stay within the elliptic window
    for integrand in (EllipticIntegrand.euclidean(3),
                      EllipticIntegrand.capillary(2.0, 3)):
        lam = big = 1.0  # closed form for euclidean and capillary
        rng = np.random.default_rng(16)
        y = rng.uniform(-10, 10, size=(300, 2))
        y = y[np.linalg.norm(y, axis=1) <= 10.0]
        eigs = np.linalg.eigvalsh(integrand.D2f(integrand.lift(y)))
        c2 = np.linalg.norm(y, axis=1) ** 2
        lower = lam / (1.0 + c2) ** 2
        upper = (1.0 + c2) * big
        assert np.all(eigs[:, 0] >= lower - 1e-12)
        assert np.all(eigs[:, -1] <= upper + 1e-12)


@pytest.mark.parametrize("integrand", builtin_integrands(), ids=lambda i: i.kind)
def test_hess_f_positive_definite(integrand):
    rng = np.random.default_rng(17)
    y = rng.uniform(-10, 10, size=(200, 2))
    eigs = np.linalg.eigvalsh(integrand.D2f(integrand.lift(y)))
    assert eigs.min() > 0.0


def test_capillary_euclidean_gradient_shift():
    theta = 0.9
    cap = EllipticIntegrand.capillary(theta, 3)
    euc = EllipticIntegrand.euclidean(3)
    rng = np.random.default_rng(18)
    y = rng.normal(size=(100, 2))
    shift = cap.Df(cap.lift(y)) - euc.Df(euc.lift(y))
    np.testing.assert_allclose(shift[:, 0], math.cos(theta), atol=1e-15)
    np.testing.assert_allclose(shift[:, 1], 0.0, atol=1e-15)


# -- sphere bounds ----------------------------------------------------------------


def test_bounds_euclidean_exact():
    f_min, f_max, hess_min, hess_max = EllipticIntegrand.euclidean(3)._sample_sphere(2000)
    assert f_min == pytest.approx(1.0, abs=1e-9)
    assert f_max == pytest.approx(1.0, abs=1e-9)
    assert hess_min == pytest.approx(1.0, abs=1e-9)
    assert hess_max == pytest.approx(1.0, abs=1e-9)


def test_bounds_capillary_sampled():
    f_min, f_max, _, _ = EllipticIntegrand.capillary(math.pi / 3, 3)._sample_sphere(2 ** 14)
    assert f_min == pytest.approx(0.5, abs=1e-3)
    assert f_max == pytest.approx(1.5, abs=1e-3)


def test_bounds_ellipsoid_sampled():
    I = EllipticIntegrand.ellipsoid(np.diag([4.0, 1.0, 1.0]))
    f_min, f_max, _, _ = I._sample_sphere(2 ** 14)
    assert f_min == pytest.approx(1.0, abs=1e-3)
    assert f_max == pytest.approx(2.0, abs=1e-3)


def test_bounds_cover_sampled_gradient_norms():
    I = EllipticIntegrand.capillary(1.2, 3)
    n = 3000
    f_min, f_max, _, _ = I._sample_sphere(n)
    pts = sphere_points(3, n)
    gn = np.linalg.norm(I.DF(I.points(pts)), axis=1)
    assert gn.min() >= f_min - 1e-12
    assert gn.max() <= f_max + 1e-12
    fv = I.F(I.points(pts))
    assert fv.min() >= f_min - 1e-12 and fv.max() <= f_max + 1e-12


def test_bounds_monotone_refinement():
    I = EllipticIntegrand.ellipsoid(np.array([[3.0, 0.4, 0.0], [0.4, 1.0, 0.0], [0.0, 0.0, 2.0]]))
    coarse = I._sample_sphere(500)
    fine = I._sample_sphere(4000)
    assert fine[0] <= coarse[0]  # f_min
    assert fine[1] >= coarse[1]  # f_max
    assert fine[2] <= coarse[2]  # hess_min
    assert fine[3] >= coarse[3]  # hess_max


def test_bounds_require_enough_samples():
    with pytest.raises(ValueError):
        EllipticIntegrand.euclidean(3)._sample_sphere(50)


def test_sphere_range_is_sampled_once_per_integrand(monkeypatch):
    # the loader, the geometry and area_element_identity all read one cached sample
    calls, sample = [], EllipticIntegrand._sample_sphere

    def counted(self, n_samples):
        calls.append(n_samples)
        return sample(self, n_samples)

    monkeypatch.setattr(EllipticIntegrand, "_sample_sphere", counted)
    raw = {**bundled("euclidean_freebdry_sine"),
           "integrand": {"kind": "pnorm", "dim": 3, "p": 3.0, "eps": 0.3}}
    raw["domain"]["resolution"] = 1 / 16
    scenario = scenario_from_dict(raw)
    result = run_scenario(scenario)
    assert calls == [2 ** 14]
    identity = next(r for r in result.reports if r.check_name == "area_element_identity")
    assert identity.metadata["sampled_range"] == list(scenario.integrand.sphere_range)


def test_sphere_range_names_a_non_elliptic_sample():
    with pytest.raises(ValueError, match="not uniformly elliptic"):
        EllipticIntegrand.pnorm(20, 3, 1e-12).sphere_range


def test_flat_slope_capillary():
    for theta in (math.pi / 6, math.pi / 3, math.pi / 2, 2 * math.pi / 3):
        I = EllipticIntegrand.capillary(theta, 3)
        assert I.flat_slope() == pytest.approx(-1.0 / math.tan(theta), abs=1e-10)


@pytest.mark.parametrize("integrand", [
    *(EllipticIntegrand.capillary(theta, dim) for theta in (0.5, 1.0, math.pi / 2, 2.6)
      for dim in (2, 3)),
    EllipticIntegrand.ellipsoid(np.array([[2.0, 0.5, 0.1], [0.5, 1.0, 0.2], [0.1, 0.2, 1.5]])),
], ids=[f"cap{t}_d{d}" for t in ("0.5", "1.0", "pi2", "2.6") for d in (2, 3)] + ["ellipsoid"])
def test_flat_slope_stops_at_the_rounding_floor_with_the_full_bisection_value(integrand):
    # the early stop leaves the bracket exactly where 200 steps would
    assert integrand.flat_slope() == bisect_flat_slope(integrand, -1e3, 1e3)



@pytest.mark.parametrize("integrand", [
    EllipticIntegrand.euclidean(2), EllipticIntegrand.euclidean(3),
    EllipticIntegrand.pnorm(3.0, 2), EllipticIntegrand.pnorm(3.0, 3),
], ids=["euclidean_d2", "euclidean_d3", "pnorm_d2", "pnorm_d3"])
def test_flat_slope_of_a_symmetric_profile_is_exactly_zero(integrand):
    # f(a, 0) = f(-a, 0): the wall-compatible slope is 0, not a bisection's last midpoint
    assert integrand.flat_slope() == 0.0

@pytest.mark.parametrize("dim", [2, 3])
def test_hess_f_is_the_graph_block_of_hess_F(dim):
    y = np.random.default_rng(4).normal(size=(200, dim - 1)) * 3.0
    z = np.random.default_rng(5).normal(size=(200, dim))
    lift = np.concatenate([-y, np.ones((200, 1))], axis=1)
    matrix = np.diag([2.0, 1.0, 1.5][:dim]) + 0.2 * (1 - np.eye(dim))
    for I in [*builtin_integrands(dim), EllipticIntegrand.ellipsoid(matrix)]:
        block = I.D2F(I.points(lift))[..., : dim - 1, : dim - 1]
        assert np.array_equal(I.D2f(I.lift(y)), block), I.kind
        # a single point takes the batch's path: it gets exactly its row's values
        for kernel, at, points in [(I.F, I.points, z), (I.DF, I.points, z), (I.D2F, I.points, z),
                                   (I.F, I.lift, y), (I.Df, I.lift, y), (I.D2f, I.lift, y)]:
            batch = kernel(at(points[:20]))
            for row, point in enumerate(points[:20]):
                single = kernel(at(point))
                assert single.shape == batch.shape[1:], (I.kind, kernel.__name__)
                assert np.array_equal(single, batch[row]), (I.kind, kernel.__name__, row)


# -- descriptors and validation ---------------------------------------------------


def test_descriptor_roundtrip():
    off_diagonal = EllipticIntegrand.ellipsoid(
        np.array([[2.0, 0.5, 0.1], [0.5, 1.0, 0.2], [0.1, 0.2, 1.5]]))
    for I in [*builtin_integrands(), off_diagonal]:
        desc = I.to_descriptor()
        J = EllipticIntegrand.from_descriptor(desc)
        assert J.to_descriptor() == desc, I.kind
        z = np.array([0.3, -0.2, 0.9])
        assert J.F(J.points(z)) == I.F(I.points(z)), I.kind
    assert off_diagonal.to_descriptor()["matrix"] == [2.0, 0.5, 0.1, 0.5, 1.0, 0.2,
                                                      0.1, 0.2, 1.5]


def test_descriptor_rejects_bad_theta():
    with pytest.raises(ValueError):
        EllipticIntegrand.from_descriptor({"kind": "capillary", "theta": 4.0, "dim": 3})
    with pytest.raises(ValueError):
        EllipticIntegrand.capillary(0.0, 3)
    # cos(theta) rounds to +-1, so F ranges over [0, 2] on the sphere: not uniformly
    # elliptic; at 2e-8 from either end the range starts above 0
    for theta, inner in [(1e-9, 2e-8), (math.pi - 1e-9, math.pi - 2e-8)]:
        with pytest.raises(ValueError, match="not uniformly elliptic"):
            EllipticIntegrand.capillary(theta, 3)
        with pytest.raises(ConfigError, match="integrand 'capillary': not uniformly elliptic"):
            EllipticIntegrand.from_descriptor({"kind": "capillary", "theta": theta, "dim": 3})
        loaded = EllipticIntegrand.from_descriptor({"kind": "capillary", "theta": inner, "dim": 3})
        assert loaded.analytic_sphere_range()[0] > 0.0


def test_descriptor_rejects_non_spd_matrix():
    bad = [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]  # indefinite
    with pytest.raises(ValueError):
        EllipticIntegrand.from_descriptor({"kind": "ellipsoid", "matrix": bad, "dim": 3})
    asym = [[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    with pytest.raises(ValueError):
        EllipticIntegrand.from_descriptor({"kind": "ellipsoid", "matrix": asym, "dim": 3})


def test_descriptor_accepts_row_major_flat_matrix():
    flat = [4.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]
    I = EllipticIntegrand.from_descriptor({"kind": "ellipsoid", "matrix": flat, "dim": 3})
    assert I.F(I.points(np.array([1.0, 0.0, 0.0]))) == pytest.approx(2.0)


def test_pnorm_validation():
    with pytest.raises(ValueError):
        EllipticIntegrand.pnorm(1.0, 3)
    with pytest.raises(ValueError):
        EllipticIntegrand.pnorm(3.0, 3, eps=-0.1)
    # eps = 0 leaves D2f NaN at y = 0 for p < 4: not uniformly elliptic
    with pytest.raises(ValueError):
        EllipticIntegrand.pnorm(3.0, 3, eps=0.0)
    with pytest.raises(ValueError):
        EllipticIntegrand.from_descriptor({"kind": "pnorm", "p": 3.0, "eps": 0.0})


def test_zero_vector_rejected():
    batch = np.random.default_rng(19).normal(size=(5, 3))
    batch[2] = 0.0
    for I in builtin_integrands():
        for op in (lambda z: I.F(I.points(z)), lambda z: I.DF(I.points(z)),
                   lambda z: I.D2F(I.points(z)), I.points):
            for z in (np.zeros(3), batch):
                with pytest.raises(ValueError, match="zero vector"):
                    op(z)


# -- shared lifts ------------------------------------------------------------------


@pytest.mark.parametrize("magnitude", [1e-160, 1.0, 1e150])
@pytest.mark.parametrize("dim", [2, 3])
def test_point_norms_are_the_linalg_norms_bit_for_bit(dim, magnitude):
    z = magnitude * np.random.default_rng(dim).normal(size=(200_000, dim))
    z[0] = 1e-163  # (1e-163, ...): a nonzero point whose squares all underflow
    lost = np.linalg.norm(z, axis=-1) == 0.0  # tiny points whose squares all underflow
    norms = _as_points(z, dim)[1]
    assert np.array_equal(norms[~lost], np.linalg.norm(z[~lost], axis=-1))
    # the lost rows, and only those, are normed after division by their largest entry
    np.testing.assert_allclose(norms[lost], [math.hypot(*row) for row in z[lost]], rtol=1e-15)
    assert _as_points(z[0], dim)[1] == pytest.approx(math.sqrt(dim) * 1e-163, rel=1e-15)
    euclidean = EllipticIntegrand.euclidean(dim)
    assert euclidean.F(euclidean.points(z[0])) == pytest.approx(math.sqrt(dim) * 1e-163, rel=1e-15)
    for point in z[~lost][:100]:  # numpy reduces a single point by another loop
        assert np.array_equal(_as_points(point, dim)[1], np.linalg.norm(point, axis=-1))


@pytest.mark.parametrize("dim", [2, 3])
def test_capillary_entries_are_the_batched_formulas_bit_for_bit(dim):
    # entry by entry, the batched operations on whole points, in the same order
    for I in (EllipticIntegrand.euclidean(dim), EllipticIntegrand.capillary(1.1, dim)):
        z = np.random.default_rng(dim).normal(size=(300, dim))
        z[0, :-1] = 0.0
        norms = np.linalg.norm(z, axis=-1)
        unit = z / norms[..., None]
        grad = unit.copy()
        grad[..., 0] -= I._tilt
        hess = (np.eye(dim) - np.einsum("...i,...j->...ij", unit, unit)) / norms[..., None, None]
        assert np.array_equal(I.DF(I.points(z)), grad)
        assert np.array_equal(I.D2F(I.points(z)), hess)


@pytest.mark.parametrize("kind", range(4), ids=["euclidean", "capillary", "ellipsoid", "pnorm"])
def test_shared_lift_kernels_are_the_public_methods_bit_for_bit(kind):
    for dim in (2, 3):
        I = builtin_integrands(dim)[kind]
        y = 0.8 * np.random.default_rng(dim).normal(size=(200, dim - 1))
        y[0] = 0.0
        for ys in (y, y[3]):  # a batch and a single gradient
            z = np.concatenate([-ys, np.ones(ys.shape[:-1] + (1,))], axis=-1)
            lifted, points = I.lift(ys), I.points(z)
            f, df, d2f = I.F(lifted), I.Df(lifted), I.D2f(lifted)
            assert np.array_equal(lifted[0], z) and np.array_equal(lifted[1], points[1])
            assert np.array_equal(f, I.F(I.lift(ys))) and np.array_equal(f, I.F(I.points(z)))
            assert np.array_equal(df, I.Df(I.lift(ys)))
            assert np.array_equal(df, -I.DF(I.points(z))[..., :-1])
            assert np.array_equal(d2f, I.D2f(I.lift(ys)))
            assert np.array_equal(d2f, I.D2F(I.points(z))[..., :-1, :-1])
            assert np.array_equal(I.F(points), I.F(I.points(z)))
            assert np.array_equal(I.DF(points), I.DF(I.points(z)))
            assert np.array_equal(I.D2F(points), I.D2F(I.points(z)))


def _spd_matrix(seed, shift):
    m = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(3, 3))
    return m @ m.T + shift * np.eye(3)


every_constructor = st.one_of(
    st.just(EllipticIntegrand.euclidean(3)),
    st.floats(min_value=0.05, max_value=math.pi - 0.05).map(
        lambda theta: EllipticIntegrand.capillary(theta, 3)),
    st.builds(_spd_matrix, st.integers(min_value=0, max_value=10_000),
              st.floats(min_value=0.05, max_value=2.0)).map(EllipticIntegrand.ellipsoid),
    st.builds(lambda p, eps: EllipticIntegrand.pnorm(p, 3, eps),
              st.floats(min_value=1.1, max_value=8.0),
              st.floats(min_value=1e-3, max_value=1.0)),
)

bounded_gradients = st.one_of(
    st.just((0.0, 0.0)),
    st.tuples(st.floats(min_value=-10.0, max_value=10.0),
              st.floats(min_value=-10.0, max_value=10.0)),
)


@given(every_constructor, bounded_gradients)
def test_hess_f_finite_and_spd_on_bounded_gradients(integrand, y):
    hess = integrand.D2f(integrand.lift(np.array(y)))
    assert np.all(np.isfinite(hess))
    np.testing.assert_allclose(hess, hess.T, rtol=1e-12, atol=1e-12)
    assert np.linalg.eigvalsh(hess).min() > 0.0
