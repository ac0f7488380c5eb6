import json
import math

import numpy as np
import pytest

from anisograph import (
    EllipticIntegrand,
    GraphFunction,
    HalfDomain,
    Tag,
    build_mesh,
    compute_geometry,
    surface_gradient,
)
from anisograph.cli import run_scenario, scenario_from_dict
from anisograph.geometry import _fit_vertex_quadratics, _wall_frame
from anisograph.verify import _hat_forms

from conftest import bundled, solve_curved
from reference import integrate_pl_power, wall_curve_fields, wall_nubar


# integrands whose D^2 F(nu) is not the Euclidean Hessian
ANISOTROPIC = [
    EllipticIntegrand.ellipsoid(np.array([[2, 0.3, 0.5], [0.3, 1, 0.3], [0.5, 0.3, 1.5]])),
    EllipticIntegrand.pnorm(3.0, 3, eps=0.3),
]


@pytest.fixture(scope="module")
def anisotropic_curved_32():
    """The reference curved solve at 1/32 under each ``ANISOTROPIC`` integrand."""
    out = []
    for integrand in ANISOTROPIC:
        _, mesh, u, _ = solve_curved(1 / 32, integrand)
        out.append((integrand, mesh, u, compute_geometry(integrand, u)))
    return out


def unit_mesh(resolution=1 / 16):
    return build_mesh(HalfDomain(2, depth=1.0, width=0.5, resolution=resolution))


def interior_hat(mesh, point):
    """Vertex hat function at the mesh vertex nearest to ``point``."""
    v = int(np.argmin(np.linalg.norm(mesh.vertices - np.asarray(point), axis=1)))
    phi = np.zeros(mesh.num_vertices)
    phi[v] = 1.0
    return v, phi


# -- flat and tilted closed forms ---------------------------------------------


def test_flat_graph_fields():
    mesh = unit_mesh()
    geom = compute_geometry(EllipticIntegrand.euclidean(3),
                            GraphFunction(mesh, np.zeros(mesh.num_vertices)))
    np.testing.assert_allclose(geom.cell_W, 1.0, atol=1e-14)
    np.testing.assert_allclose(geom.cell_Wf, 1.0, atol=1e-14)
    np.testing.assert_allclose(geom.cell_normal[:, 2], 1.0, atol=1e-14)
    assert np.abs(geom.mean_curvature_aniso).max() <= 1e-12
    assert np.abs(geom.h_sq).max() <= 1e-12


def test_capillary_flat_closed_forms(capillary_flat):
    integrand, mesh, u, geom = capillary_flat
    theta = integrand.theta
    np.testing.assert_allclose(geom.cell_W, 1.0 / math.sin(theta), atol=1e-9)
    np.testing.assert_allclose(geom.cell_Wf, math.sin(theta), atol=1e-9)
    # wall frame: mu_F is parallel to the inward wall normal, length sin(theta)
    np.testing.assert_allclose(geom.wall_muF_e1, math.sin(theta), atol=1e-9)
    assert np.abs(geom.wall_mu_F[:, 1:]).max() <= 1e-9
    assert np.abs(geom.wall_nuF_e1).max() <= 1e-9
    mu_expect = np.array([-math.sin(theta), 0.0, math.cos(theta)])
    assert np.abs(geom.wall_mu - mu_expect[None, :]).max() <= 1e-9


def test_area_element_identity_and_sandwich(curved_32):
    integrand, mesh, u, geom = curved_32
    assert np.abs(geom.cell_Wf - geom.cell_F_normal * geom.cell_W).max() <= 1e-12
    lo, hi = integrand.analytic_sphere_range()
    ratio = geom.cell_Wf / geom.cell_W
    assert ratio.min() >= lo - 1e-12
    assert ratio.max() <= hi + 1e-12


def test_comparability_on_capillary(capillary_flat):
    integrand, mesh, u, geom = capillary_flat
    lo, hi = integrand.analytic_sphere_range()
    assert np.all(geom.cell_Wf / hi <= geom.cell_W + 1e-12)
    assert np.all(geom.cell_W <= geom.cell_Wf / lo + 1e-12)


# -- wall frames -----------------------------------------------------------------


def test_wall_frame_relations(curved_32):
    # mu = -<nu,-e1> nubar + <mu,-e1> (-e1), exact linear algebra per facet
    integrand, mesh, u, geom = curved_32
    mu, nubar = geom.wall_mu, wall_nubar(geom)
    nu = geom.cell_normal[mesh.wall_cells]
    e1 = np.zeros(3)
    e1[0] = 1.0
    lhs = mu
    rhs = -(-nu[:, 0])[:, None] * nubar + (-mu[:, 0])[:, None] * (-e1)[None, :]
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)
    # unit lengths and orthogonality
    np.testing.assert_allclose(np.linalg.norm(mu, axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(nubar, axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(np.einsum("fi,fi->f", mu, nu), 0.0, atol=1e-12)


def test_wall_fields_are_the_wall_curve_formulas_bit_for_bit_in_2d(curved_32):
    geom = curved_32[3]
    measure, hf_mu_tau = wall_curve_fields(geom)
    assert np.array_equal(geom.wall_measure, measure)
    assert geom.wall_hF_mu_tau.shape == (len(measure), 1)
    assert np.array_equal(geom.wall_hF_mu_tau[:, 0], hf_mu_tau)


def test_wall_fields_are_the_wall_curve_formulas_off_powers_of_two():
    # at 1/24 the grid coordinates are rounded, so the owning cell's slope and the split's
    # measure agree with the wall curve's differences and quotients to rounding only
    integrand, mesh, u, _ = solve_curved(1 / 24)
    geom = compute_geometry(integrand, u)
    measure, hf_mu_tau = wall_curve_fields(geom)
    np.testing.assert_allclose(geom.wall_measure, measure, rtol=1e-14)
    np.testing.assert_allclose(geom.wall_hF_mu_tau[:, 0], hf_mu_tau, rtol=1e-14)


def test_wall_frame_is_orthonormal_in_the_wall_metric():
    slope = np.random.default_rng(8).normal(size=(40, 2))
    frame = _wall_frame(slope)
    assert len(frame) == 2
    for a, ta in enumerate(frame):
        assert np.all(ta[:, 0] == 0.0)  # tangent to the wall
        for b, tb in enumerate(frame):
            rise_a, rise_b = (np.einsum("fi,fi->f", slope, t[:, 1:]) for t in (ta, tb))
            g = np.einsum("fi,fi->f", ta, tb) + rise_a * rise_b
            np.testing.assert_allclose(g, float(a == b), atol=1e-14)
    assert np.all(frame[0][:, 2] == 0.0)  # Gram-Schmidt starts from e_2
    assert _wall_frame(np.zeros((3, 0))) == []


def test_3d_wall_fields_of_an_affine_graph():
    a = np.array([-0.4, 0.3, -0.7])
    lift = math.sqrt(1.0 + a[1] ** 2 + a[2] ** 2)
    # the second mesh's spacings are 1/4 along x_1 and 0.24 along the wall
    for width, resolution, divisions in ((0.5, 1 / 8, (8, 8, 8)), (0.6, 1 / 4, (4, 5, 5))):
        mesh = build_mesh(HalfDomain(3, depth=1.0, width=width, resolution=resolution))
        assert mesh.divisions == divisions
        geom = compute_geometry(EllipticIntegrand.capillary(1.2, 4),
                                GraphFunction(mesh, mesh.vertices @ a))
        facet = math.prod(2.0 * width / d for d in divisions[1:]) / 2.0
        np.testing.assert_allclose(geom.wall_measure, facet * lift, rtol=1e-13)
        # the whole wall, 2 width x 2 width
        assert geom.wall_measure.sum() == pytest.approx(4.0 * width ** 2 * lift, rel=1e-13)
        assert geom.wall_hF_mu_tau.shape == (len(mesh.wall_facets), 2)
        assert np.abs(geom.wall_hF_mu_tau).max() <= 1e-11


def test_wall_frame_euclidean_mu_F_equals_mu():
    mesh = unit_mesh()
    geom = compute_geometry(EllipticIntegrand.euclidean(3),
                            GraphFunction(mesh, np.zeros(mesh.num_vertices)))
    np.testing.assert_allclose(geom.wall_mu_F, geom.wall_mu, atol=1e-13)


def test_wall_free_boundary_limits(curved_64):
    # solved free-boundary graph: <mu_F, nubar> = O(h) and <mu_F, -e1> >= m_F - O(h)
    integrand, mesh, u, geom = curved_64
    pair = np.abs(np.einsum("fi,fi->f", geom.wall_mu_F, wall_nubar(geom)))
    assert pair.max() <= 10.0 * mesh.h
    m_f = integrand.analytic_sphere_range()[0]
    assert geom.wall_muF_e1.min() >= m_f - 10.0 * mesh.h


def test_wall_principal_direction_residual_shrinks(curved_32, curved_64):
    def worst(geom):
        vals = geom.wall_hF_mu_tau
        facets = geom.mesh.wall_facets
        keep = ~(geom.collar[facets[:, 0]] | geom.collar[facets[:, 1]])
        return np.abs(vals[keep]).max()

    assert worst(curved_64[3]) <= 0.75 * worst(curved_32[3])


# -- vertex curvature fits ---------------------------------------------------------


def test_quadratic_fit_is_exact_for_quadratics():
    for domain, hess, grad0 in (
        (HalfDomain(2, depth=1.0, width=0.5, resolution=1 / 16), [[0.8, 0.3], [0.3, -0.5]],
         [0.1, -0.7]),
        (HalfDomain(1, depth=1.0, resolution=1 / 16), [[0.8]], [-0.7]),
    ):
        mesh = build_mesh(domain)
        x = mesh.vertices
        hess = np.array(hess)
        vals = 0.5 * np.einsum("vi,ij,vj->v", x, hess, x) + x @ grad0 + 2.0
        geom = compute_geometry(EllipticIntegrand.euclidean(mesh.n + 1),
                                GraphFunction(mesh, vals))
        grad_expect = x @ hess + grad0
        assert np.abs(geom.vertex_gradient - grad_expect).max() <= 1e-9
        _, vertex_hessian = _fit_vertex_quadratics(mesh, vals)
        assert np.abs(vertex_hessian - hess).max() <= 1e-8


def test_mean_curvature_matches_divergence_form_oracle():
    # independent route: trace of D^2f(Du) D^2u for a known quadratic graph
    mesh = unit_mesh(1 / 16)
    x = mesh.vertices
    hess = np.array([[0.6, 0.2], [0.2, 0.9]])
    grad0 = np.array([0.3, -0.4])
    vals = 0.5 * np.einsum("vi,ij,vj->v", x, hess, x) + x @ grad0
    integrand = EllipticIntegrand.ellipsoid(np.array(
        [[1.5, 0.2, 0.0], [0.2, 1.0, 0.1], [0.0, 0.1, 2.0]]))
    geom = compute_geometry(integrand, GraphFunction(mesh, vals))
    mask = mesh.vertex_tags == Tag.INTERIOR
    du = x[mask] @ hess + grad0
    expect = np.einsum("vij,vji->v", integrand.D2f(integrand.lift(du)),
                       np.broadcast_to(hess, (mask.sum(), 2, 2)))
    assert np.abs(geom.mean_curvature_aniso[mask] - expect).max() <= 1e-7


def test_cell_metric_matches_gradients(curved_32):
    integrand, mesh, u, geom = curved_32
    du = geom.cell_gradient
    g = np.eye(2)[None] + du[:, :, None] * du[:, None, :]
    # determinant identity det(g) = W^2
    det = g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 1, 0]
    np.testing.assert_allclose(det, geom.cell_W ** 2, atol=1e-12)


def test_solved_graph_mean_curvature_shrinks(curved_32, curved_64):
    def worst(geom):
        mask = (geom.mesh.vertex_tags == Tag.INTERIOR) & ~geom.collar
        return np.abs(geom.mean_curvature_aniso[mask]).max()

    w32, w64 = worst(curved_32[3]), worst(curved_64[3])
    assert w64 <= 0.75 * w32


# -- surface gradients ---------------------------------------------------------------


def test_surface_gradient_flat_equals_data_gradient():
    mesh = unit_mesh()
    geom = compute_geometry(EllipticIntegrand.euclidean(3),
                            GraphFunction(mesh, np.zeros(mesh.num_vertices)))
    phi = mesh.vertices @ np.array([0.7, -0.3])
    grad, grad_f = surface_gradient(geom, phi)
    assert np.abs(grad[:, :2] - np.array([0.7, -0.3])).max() <= 1e-13
    np.testing.assert_allclose(grad[:, 2], 0.0, atol=1e-13)
    np.testing.assert_allclose(grad_f, grad, atol=1e-13)
    # anisotropic: grad_F = D^2F(e_3) grad, whose graph block is D^2f(0) and last row is 0
    for integrand in ANISOTROPIC:
        geom = compute_geometry(integrand, GraphFunction(mesh, np.zeros(mesh.num_vertices)))
        grad, grad_f = surface_gradient(geom, phi)
        assert np.abs(grad[:, :2] - np.array([0.7, -0.3])).max() <= 1e-13
        d2f = integrand.D2f(integrand.lift(np.zeros(2)))
        np.testing.assert_allclose(grad_f[:, :2] - d2f @ np.array([0.7, -0.3]), 0.0, atol=1e-13)
        np.testing.assert_allclose(grad_f[:, 2], 0.0, atol=1e-13)


def test_surface_gradient_constant_is_zero(curved_32, anisotropic_curved_32):
    for integrand, mesh, u, geom in [curved_32, *anisotropic_curved_32]:
        grad, grad_f = surface_gradient(geom, np.full(mesh.num_vertices, 3.3))
        assert np.abs(grad).max() <= 1e-12
        assert np.abs(grad_f).max() <= 1e-12


def test_surface_gradient_pullback_identity(curved_32, anisotropic_curved_32):
    # |grad phi|^2 = |Dphi|^2 - W^-2 <Du, Dphi>^2, and phi = u gives |Du|^2/W^2
    for integrand, mesh, u, geom in [curved_32, *anisotropic_curved_32]:
        rng = np.random.default_rng(0)
        phi = rng.normal(size=mesh.num_vertices)
        grad, _ = surface_gradient(geom, phi)
        dphi = mesh.cell_gradients(phi)
        du = geom.cell_gradient
        expect = np.einsum("ci,ci->c", dphi, dphi) - (
            np.einsum("ci,ci->c", du, dphi) / geom.cell_W
        ) ** 2
        np.testing.assert_allclose(np.einsum("ci,ci->c", grad, grad), expect, atol=1e-12)

        grad_u, _ = surface_gradient(geom, u.values)
        expect_u = np.einsum("ci,ci->c", du, du) / geom.cell_W ** 2
        np.testing.assert_allclose(np.einsum("ci,ci->c", grad_u, grad_u), expect_u, atol=1e-12)


def test_surface_gradient_elliptic_sandwich(curved_32, anisotropic_curved_32):
    integrand, mesh, u, geom = curved_32
    lam = big = 1.0  # closed form for the euclidean integrand
    rng = np.random.default_rng(1)
    phi = rng.normal(size=mesh.num_vertices)
    grad, grad_f = surface_gradient(geom, phi)
    pairing = np.einsum("ci,ci->c", grad, grad_f)
    dphi_sq = np.einsum("ci,ci->c", mesh.cell_gradients(phi), mesh.cell_gradients(phi))
    assert np.all(pairing <= big * dphi_sq + 1e-12)
    assert np.all(pairing >= lam * dphi_sq / geom.cell_W ** 2 - 1e-12)
    # anisotropic: the sandwich by the sampled tangential Hessian range, and the pairing
    # g(grad phi, A_F grad phi) = W Dphi^T D^2f(Du) Dphi, with A_F = D^2F(nu)
    for integrand, mesh, u, geom in anisotropic_curved_32:
        _, _, lam, big = integrand._sample_sphere(2 ** 14)
        phi = rng.normal(size=mesh.num_vertices)
        grad, grad_f = surface_gradient(geom, phi)
        pairing = np.einsum("ci,ci->c", grad, grad_f)
        dphi = mesh.cell_gradients(phi)
        dphi_sq = np.einsum("ci,ci->c", dphi, dphi)
        assert np.all(pairing <= big * dphi_sq + 1e-12), integrand.kind
        assert np.all(pairing >= lam * dphi_sq / geom.cell_W ** 2 - 1e-12), integrand.kind
        expect = geom.cell_W * np.einsum("ci,cij,cj->c", dphi, geom.cell_hess_f, dphi)
        assert np.abs(pairing - expect).max() <= 1e-12 * np.abs(expect).max(), integrand.kind


# -- weighted weak form ----------------------------------------------------------------


def test_divergence_form_constant_phi_is_zero(curved_32):
    integrand, mesh, u, geom = curved_32
    _, psi = interior_hat(mesh, [0.5, 0.0])
    assert psi @ _hat_forms(geom, np.ones(mesh.num_vertices))[0] == pytest.approx(0.0, abs=1e-14)


def test_divergence_form_flat_closed_form():
    # flat Euclidean graph, phi = x2^2: weak form equals -int <Dpsi, 2 x2 e2>,
    # which the interpolated quadratic turns into exactly 2 h^2 for a hat
    mesh = unit_mesh(1 / 16)
    geom = compute_geometry(EllipticIntegrand.euclidean(3),
                            GraphFunction(mesh, np.zeros(mesh.num_vertices)))
    phi = mesh.vertices[:, 1] ** 2
    v, psi = interior_hat(mesh, [0.5, 0.1])
    h = mesh.h
    val = psi @ _hat_forms(geom, phi)[0]
    assert val == pytest.approx(2.0 * h * h, abs=1e-12)


# -- quadrature helpers -------------------------------------------------------------


def test_pl_quadrature_hat_anchors():
    # structured unit-square grid, hat at an interior vertex: closed forms
    mesh = unit_mesh(1 / 8)
    h = mesh.h
    _, phi = interior_hat(mesh, [0.5, 0.0])
    assert integrate_pl_power(mesh, phi, 1) == pytest.approx(h * h, abs=1e-14)
    assert integrate_pl_power(mesh, phi, 2) == pytest.approx(h * h / 2.0, abs=1e-14)
    assert integrate_pl_power(mesh, phi, 4) == pytest.approx(h * h / 5.0, abs=1e-14)


def test_pl_quadrature_affine_exact():
    mesh = unit_mesh(1 / 8)
    phi = mesh.vertices @ np.array([1.0, 2.0]) + 0.5
    # int over [0,1]x[-1/2,1/2] of (x1 + 2 x2 + 1/2) = 1/2 + 0 + 1/2
    assert integrate_pl_power(mesh, phi, 1) == pytest.approx(1.0, abs=1e-13)


def test_geometry_requires_interior_layers():
    mesh = build_mesh(HalfDomain(2, depth=1.0, width=1.0, resolution=0.5))
    with pytest.raises(ValueError):
        compute_geometry(EllipticIntegrand.euclidean(3),
                         GraphFunction(mesh, np.zeros(mesh.num_vertices)))


def test_one_dimensional_geometry_capillary():
    theta = math.pi / 3
    integrand = EllipticIntegrand.capillary(theta, 2)
    mesh = build_mesh(HalfDomain(1, depth=1.0, resolution=1 / 32))
    vals = -mesh.vertices[:, 0] / math.tan(theta)
    geom = compute_geometry(integrand, GraphFunction(mesh, vals))
    np.testing.assert_allclose(geom.cell_Wf, math.sin(theta), atol=1e-12)
    assert geom.wall_nuF_e1.shape == (1,)
    assert abs(geom.wall_nuF_e1[0]) <= 1e-12
    assert geom.wall_muF_e1[0] == pytest.approx(math.sin(theta), abs=1e-12)
    assert geom.wall_measure.tolist() == [1.0]  # the wall is a point
    assert geom.wall_hF_mu_tau.shape == (1, 0)  # with no tangent


def test_fits_do_not_depend_on_the_scale_of_the_domain():
    # the reference scenario shrunk by 1e-4 in x and u alike: no fit is singular, and
    # interior_minimality measures as many vertices as at scale 1
    raw = bundled("euclidean_freebdry_sine")
    raw["checks"] = ["interior_minimality"]
    measured = []
    for scale in (1.0, 1e-4):
        shrunk = json.loads(json.dumps(raw))
        for key in ("depth", "width", "resolution"):
            shrunk["domain"][key] *= scale
        shrunk["dirichlet"]["amplitude"] *= scale
        shrunk["dirichlet"]["kx"] /= scale
        shrunk["dirichlet"]["ky"] /= scale
        result = run_scenario(scenario_from_dict(shrunk))
        measured.append(result.reports[0].metadata["n_vertices"])
    assert measured[1] == measured[0] > 0
