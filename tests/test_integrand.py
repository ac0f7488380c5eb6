import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from anisograph import EllipticIntegrand, sphere_points
from anisograph.integrand import _as_points
from reference import bisect_flat_slope, fd_gradient, fd_hessian, normalize


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
    assert I.eval_F(np.array([0.0, 0.0, 1.0])) == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(
        I.grad_F(np.array([0.0, 0.0, 1.0])), [0.0, 0.0, 1.0], atol=1e-15
    )


def test_capillary_frozen_value():
    # direct substitution: |z| - cos(pi/3) z_1 at z = e1 gives 1 - 1/2
    I = EllipticIntegrand.capillary(math.pi / 3, 3)
    assert I.eval_F(np.array([1.0, 0.0, 0.0])) == pytest.approx(0.5, abs=1e-12)


def test_ellipsoid_identity_reduces_to_norm():
    I = EllipticIntegrand.ellipsoid(np.eye(3))
    assert I.eval_F(np.array([3.0, 4.0, 0.0])) == pytest.approx(5.0, abs=1e-12)


def test_capillary_gradient_closed_form():
    theta = 1.1
    I = EllipticIntegrand.capillary(theta, 3)
    rng = np.random.default_rng(3)
    z = rng.normal(size=3)
    expected = z / np.linalg.norm(z) - math.cos(theta) * np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose(I.grad_F(z), expected, atol=1e-14)


def test_ellipsoid_gradient_euler_residual():
    a = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 1.5]])
    I = EllipticIntegrand.ellipsoid(a)
    rng = np.random.default_rng(4)
    z = rng.normal(size=(100, 3))
    g = I.grad_F(z)
    np.testing.assert_allclose(np.einsum("ki,ki->k", g, z), I.eval_F(z), atol=1e-12)


def test_euclidean_hessian_is_projector():
    I = EllipticIntegrand.euclidean(3)
    e3 = np.array([0.0, 0.0, 1.0])
    np.testing.assert_allclose(I.hess_F(e3), np.eye(3) - np.outer(e3, e3), atol=1e-14)


def test_capillary_hessian_equals_euclidean():
    rng = np.random.default_rng(5)
    z = rng.normal(size=(50, 3))
    cap = EllipticIntegrand.capillary(0.7, 3)
    euc = EllipticIntegrand.euclidean(3)
    np.testing.assert_array_equal(cap.hess_F(z), euc.hess_F(z))


def test_lagrangian_frozen_values():
    # f(y) = sqrt(1 + |y|^2) + cos(theta) y_1; theta = pi/2 is the isotropic case
    assert EllipticIntegrand.euclidean(3).eval_f(np.array([3.0, 4.0])) == pytest.approx(
        math.sqrt(26.0), abs=1e-14
    )
    I = EllipticIntegrand.capillary(math.pi / 3, 3)
    y0 = np.zeros(2)
    assert I.eval_f(y0) == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(I.grad_f(y0), [math.cos(math.pi / 3), 0.0], atol=1e-15)


# -- algebraic invariants -------------------------------------------------------


@pytest.mark.parametrize("integrand", builtin_integrands(), ids=lambda i: i.kind)
def test_euler_identity_and_homogeneity(integrand):
    rng = np.random.default_rng(11)
    z = rng.normal(size=(2000, 3))
    z = z[np.linalg.norm(z, axis=1) > 1e-3]
    vals = integrand.eval_F(z)
    grads = integrand.grad_F(z)
    norms = np.linalg.norm(z, axis=1)
    euler = np.abs(np.einsum("ki,ki->k", grads, z) - vals)
    assert euler.max() <= 1e-9 * norms.max()
    for t in (0.5, 2.0, 10.0):
        assert np.abs(integrand.eval_F(t * z) - t * vals).max() <= 1e-9 * t * norms.max()


@pytest.mark.parametrize("integrand", builtin_integrands(), ids=lambda i: i.kind)
def test_hessian_annihilates_argument(integrand):
    rng = np.random.default_rng(12)
    z = rng.normal(size=(500, 3))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    hz = np.einsum("kij,kj->ki", integrand.hess_F(z), z)
    assert np.abs(hz).max() <= 1e-10


@pytest.mark.parametrize("integrand", builtin_integrands(), ids=lambda i: i.kind)
def test_gradient_zero_homogeneous(integrand):
    rng = np.random.default_rng(13)
    z = rng.normal(size=(50, 3))
    np.testing.assert_allclose(integrand.grad_F(3.7 * z), integrand.grad_F(z), atol=1e-11)


@given(unit_vectors)
def test_euler_identity_property(z):
    I = EllipticIntegrand.pnorm(2.5, 3, eps=0.02)
    assert abs(I.grad_F(z) @ z - I.eval_F(z)) <= 1e-10


@pytest.mark.parametrize("integrand", builtin_integrands(), ids=lambda i: i.kind)
def test_grad_f_matches_finite_differences_with_order_two(integrand):
    # halving the step shrinks the centered-difference error by ~4
    rng = np.random.default_rng(14)
    y = rng.normal(size=2)
    g = integrand.grad_f(y)
    err = {}
    for step in (1e-3, 5e-4):
        fd = fd_gradient(lambda x: integrand.eval_f(x), y, step=step)
        err[step] = np.linalg.norm(fd - g)
    ratio = err[1e-3] / max(err[5e-4], 1e-300)
    assert 2.5 <= ratio <= 6.0 or err[1e-3] < 1e-12


@pytest.mark.parametrize("integrand", builtin_integrands(), ids=lambda i: i.kind)
def test_hess_f_matches_finite_differences(integrand):
    rng = np.random.default_rng(15)
    for _ in range(5):
        y = rng.normal(size=2)
        fd = fd_hessian(lambda x: integrand.eval_f(x), y)
        np.testing.assert_allclose(integrand.hess_f(y), fd, atol=5e-5)


def test_hess_f_eigenvalue_window():
    # eigenvalues of D^2 f at |y| <= C stay within the elliptic window
    for integrand in (EllipticIntegrand.euclidean(3),
                      EllipticIntegrand.capillary(2.0, 3)):
        lam = big = integrand.scale  # closed form for euclidean and capillary
        rng = np.random.default_rng(16)
        y = rng.uniform(-10, 10, size=(300, 2))
        y = y[np.linalg.norm(y, axis=1) <= 10.0]
        eigs = np.linalg.eigvalsh(integrand.hess_f(y))
        c2 = np.linalg.norm(y, axis=1) ** 2
        lower = lam / (1.0 + c2) ** 2
        upper = (1.0 + c2) * big
        assert np.all(eigs[:, 0] >= lower - 1e-12)
        assert np.all(eigs[:, -1] <= upper + 1e-12)


@pytest.mark.parametrize("integrand", builtin_integrands(), ids=lambda i: i.kind)
def test_hess_f_positive_definite(integrand):
    rng = np.random.default_rng(17)
    y = rng.uniform(-10, 10, size=(200, 2))
    eigs = np.linalg.eigvalsh(integrand.hess_f(y))
    assert eigs.min() > 0.0


def test_capillary_euclidean_gradient_shift():
    theta = 0.9
    cap = EllipticIntegrand.capillary(theta, 3)
    euc = EllipticIntegrand.euclidean(3)
    rng = np.random.default_rng(18)
    y = rng.normal(size=(100, 2))
    shift = cap.grad_f(y) - euc.grad_f(y)
    np.testing.assert_allclose(shift[:, 0], math.cos(theta), atol=1e-15)
    np.testing.assert_allclose(shift[:, 1], 0.0, atol=1e-15)


# -- sphere bounds and normalization --------------------------------------------


def test_bounds_euclidean_exact():
    b = EllipticIntegrand.euclidean(3).estimate_bounds(2000)
    assert b.f_min == pytest.approx(1.0, abs=1e-9)
    assert b.f_max == pytest.approx(1.0, abs=1e-9)
    assert b.hess_min == pytest.approx(1.0, abs=1e-9)
    assert b.hess_max == pytest.approx(1.0, abs=1e-9)


def test_bounds_capillary_sampled():
    b = EllipticIntegrand.capillary(math.pi / 3, 3).estimate_bounds(2 ** 14)
    assert b.f_min == pytest.approx(0.5, abs=1e-3)
    assert b.f_max == pytest.approx(1.5, abs=1e-3)


def test_bounds_ellipsoid_sampled():
    b = EllipticIntegrand.ellipsoid(np.diag([4.0, 1.0, 1.0])).estimate_bounds(2 ** 14)
    assert b.f_min == pytest.approx(1.0, abs=1e-3)
    assert b.f_max == pytest.approx(2.0, abs=1e-3)


def test_bounds_cover_sampled_gradient_norms():
    I = EllipticIntegrand.capillary(1.2, 3)
    n = 3000
    b = I.estimate_bounds(n)
    pts = sphere_points(3, n)
    gn = np.linalg.norm(I.grad_F(pts), axis=1)
    assert gn.min() >= b.f_min - 1e-12
    assert gn.max() <= b.f_max + 1e-12
    fv = I.eval_F(pts)
    assert fv.min() >= b.f_min - 1e-12 and fv.max() <= b.f_max + 1e-12


def test_bounds_monotone_refinement():
    I = EllipticIntegrand.ellipsoid(np.array([[3.0, 0.4, 0.0], [0.4, 1.0, 0.0], [0.0, 0.0, 2.0]]))
    coarse = I.estimate_bounds(500)
    fine = I.estimate_bounds(4000)
    assert fine.f_min <= coarse.f_min
    assert fine.f_max >= coarse.f_max
    assert fine.hess_min <= coarse.hess_min
    assert fine.hess_max >= coarse.hess_max


def test_bounds_require_enough_samples():
    with pytest.raises(ValueError):
        EllipticIntegrand.euclidean(3).estimate_bounds(50)


def test_normalize_euclidean_unchanged():
    I = normalize(EllipticIntegrand.euclidean(3))
    assert I.scale == pytest.approx(1.0, abs=1e-12)
    assert I.normalized


def test_normalize_capillary_doubles():
    I = EllipticIntegrand.capillary(math.pi / 3, 3)
    J = normalize(I)
    z = np.array([0.2, -0.4, 1.0])
    assert J.eval_F(z) == pytest.approx(2.0 * I.eval_F(z), rel=1e-12)
    assert J.sphere_range()[0] == pytest.approx(1.0, abs=1e-12)


def test_normalize_idempotent():
    for I in (EllipticIntegrand.capillary(1.0, 3), EllipticIntegrand.pnorm(3.0, 3)):
        once = normalize(I)
        twice = normalize(once)
        assert twice.scale == once.scale


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


@pytest.mark.parametrize("dim", [2, 3])
def test_hess_f_is_the_graph_block_of_hess_F(dim):
    y = np.random.default_rng(4).normal(size=(200, dim - 1)) * 3.0
    z = np.random.default_rng(5).normal(size=(200, dim))
    lift = np.concatenate([-y, np.ones((200, 1))], axis=1)
    matrix = np.diag([2.0, 1.0, 1.5][:dim]) + 0.2 * (1 - np.eye(dim))
    kinds = [*builtin_integrands(dim), EllipticIntegrand.ellipsoid(matrix)]
    for I in [*kinds, *(replace(I, scale=1.7) for I in kinds)]:
        block = I.hess_F(lift)[..., : dim - 1, : dim - 1]
        assert np.array_equal(I.hess_f(y), block), I.kind
        # a single point takes the batch's path: it gets exactly its row's values
        for method, points in [(I.eval_F, z), (I.grad_F, z), (I.hess_F, z),
                               (I.eval_f, y), (I.grad_f, y), (I.hess_f, y)]:
            batch = method(points[:20])
            for row, point in enumerate(points[:20]):
                single = method(point)
                assert single.shape == batch.shape[1:], (I.kind, method.__name__)
                assert np.array_equal(single, batch[row]), (I.kind, I.scale, method.__name__, row)


# -- descriptors and validation ---------------------------------------------------


def test_descriptor_roundtrip():
    off_diagonal = EllipticIntegrand.ellipsoid(
        np.array([[2.0, 0.5, 0.1], [0.5, 1.0, 0.2], [0.1, 0.2, 1.5]]))
    scaled = replace(EllipticIntegrand.capillary(1.1, 3), scale=2.5, normalized=True)
    for I in [*builtin_integrands(), off_diagonal, scaled]:
        desc = I.to_descriptor()
        J = EllipticIntegrand.from_descriptor(desc)
        assert J.to_descriptor() == desc, I.kind
        z = np.array([0.3, -0.2, 0.9])
        assert J.eval_F(z) == I.eval_F(z), I.kind
    assert scaled.to_descriptor() == {"kind": "capillary", "dim": 3, "theta": 1.1,
                                      "scale": 2.5, "normalized": True}
    assert off_diagonal.to_descriptor()["matrix"] == [2.0, 0.5, 0.1, 0.5, 1.0, 0.2,
                                                      0.1, 0.2, 1.5]


def test_descriptor_rejects_bad_theta():
    with pytest.raises(ValueError):
        EllipticIntegrand.from_descriptor({"kind": "capillary", "theta": 4.0, "dim": 3})
    with pytest.raises(ValueError):
        EllipticIntegrand.capillary(0.0, 3)


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
    assert I.eval_F(np.array([1.0, 0.0, 0.0])) == pytest.approx(2.0)


def test_pnorm_validation():
    with pytest.raises(ValueError):
        EllipticIntegrand.pnorm(1.0, 3)
    with pytest.raises(ValueError):
        EllipticIntegrand.pnorm(3.0, 3, eps=-0.1)
    # eps = 0 leaves hess_f NaN at y = 0 for p < 4: not uniformly elliptic
    with pytest.raises(ValueError):
        EllipticIntegrand.pnorm(3.0, 3, eps=0.0)
    with pytest.raises(ValueError):
        EllipticIntegrand.from_descriptor({"kind": "pnorm", "p": 3.0, "eps": 0.0})


def test_zero_vector_rejected():
    batch = np.random.default_rng(19).normal(size=(5, 3))
    batch[2] = 0.0
    for I in builtin_integrands():
        for op in (I.eval_F, I.grad_F, I.hess_F, I.points):
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
    assert euclidean.eval_F(z[0]) == pytest.approx(math.sqrt(dim) * 1e-163, rel=1e-15)
    for point in z[~lost][:100]:  # numpy reduces a single point by another loop
        assert np.array_equal(_as_points(point, dim)[1], np.linalg.norm(point, axis=-1))


@pytest.mark.parametrize("dim", [2, 3])
def test_capillary_entries_are_the_batched_formulas_bit_for_bit(dim):
    # entry by entry, the batched operations on whole points, in the same order
    for I in (EllipticIntegrand.euclidean(dim), replace(EllipticIntegrand.capillary(1.1, dim),
                                                        scale=1.7)):
        z = np.random.default_rng(dim).normal(size=(300, dim))
        z[0, :-1] = 0.0
        norms = np.linalg.norm(z, axis=-1)
        unit = z / norms[..., None]
        grad = unit.copy()
        grad[..., 0] -= I._tilt
        hess = (np.eye(dim) - np.einsum("...i,...j->...ij", unit, unit)) / norms[..., None, None]
        assert np.array_equal(I.grad_F(z), I.scale * grad)
        assert np.array_equal(I.hess_F(z), hess * I.scale)


@pytest.mark.parametrize("scale", [1.0, 1.7])
@pytest.mark.parametrize("kind", range(4), ids=["euclidean", "capillary", "ellipsoid", "pnorm"])
def test_shared_lift_kernels_are_the_public_methods_bit_for_bit(kind, scale):
    for dim in (2, 3):
        I = replace(builtin_integrands(dim)[kind], scale=scale)
        y = 0.8 * np.random.default_rng(dim).normal(size=(200, dim - 1))
        y[0] = 0.0
        for ys in (y, y[3]):  # a batch and a single gradient
            z = np.concatenate([-ys, np.ones(ys.shape[:-1] + (1,))], axis=-1)
            lifted, points = I.lift(ys), I.points(z)
            f, df, d2f = I.F(lifted), I.Df(lifted), I.D2f(lifted)
            assert np.array_equal(lifted[0], z) and np.array_equal(lifted[1], points[1])
            assert np.array_equal(f, I.eval_f(ys)) and np.array_equal(f, I.eval_F(z))
            assert np.array_equal(df, I.grad_f(ys))
            assert np.array_equal(df, -I.grad_F(z)[..., :-1])
            assert np.array_equal(d2f, I.hess_f(ys))
            assert np.array_equal(d2f, I.hess_F(z)[..., :-1, :-1])
            assert np.array_equal(I.F(points), I.eval_F(z))
            assert np.array_equal(I.DF(points), I.grad_F(z))
            assert np.array_equal(I.D2F(points), I.hess_F(z))


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
    hess = integrand.hess_f(np.array(y))
    assert np.all(np.isfinite(hess))
    np.testing.assert_allclose(hess, hess.T, rtol=1e-12, atol=1e-12)
    assert np.linalg.eigvalsh(hess).min() > 0.0
