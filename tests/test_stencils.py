"""Grid-index two-ring stencils and batched curvature fits against slow references."""

import numpy as np
import pytest

from anisograph import HalfDomain, Tag, build_mesh, domain
from anisograph.cli import bundled_scenario_path, load_scenario
from anisograph.domain import vertex_stencils
from anisograph.geometry import _fit_vertex_quadratics
from anisograph.solver import _band_plan, _free_box, _hessian_band
from reference import fit_vertex_quadratics, two_ring_stencils

# the two capillary scenarios share euclidean_freebdry_sine's domain
BUNDLED = ("euclidean_freebdry_sine", "liouville_bump")

MESHES = {
    "1d_nx3": HalfDomain(1, depth=1.0, resolution=1 / 3),
    "1d_nx4": HalfDomain(1, depth=1.0, resolution=1 / 4),
    "1d_nx7": HalfDomain(1, depth=1.0, resolution=1 / 7),
    "2d_3x3": HalfDomain(2, depth=1.0, width=0.5, resolution=1 / 3),
    "2d_4x7": HalfDomain(2, depth=1.0, width=0.875, resolution=1 / 4),
    "2d_dx_ne_dy": HalfDomain(2, depth=1.0, width=0.6, resolution=1 / 4),
    **{name: load_scenario(bundled_scenario_path(name)).domain for name in BUNDLED},
}


@pytest.fixture(params=sorted(MESHES), scope="module")
def mesh(request):
    return build_mesh(MESHES[request.param])


def test_stencils_match_cell_two_rings(mesh):
    offsets, ids, in_grid = vertex_stencils(mesh)
    assert ids.shape == in_grid.shape == (mesh.num_vertices, offsets.shape[0])
    reference = two_ring_stencils(mesh)
    for v in range(mesh.num_vertices):
        got = ids[v, in_grid[v]]
        assert np.array_equal(np.sort(got), reference[v]), v


def test_stencil_offsets_keep_the_lexicographic_order(mesh):
    # the order np.unique(axis=0) gave them, which numbers the fit patterns
    cell = mesh.split.offsets
    ring1 = (cell[:, :, None] - cell[:, None]).reshape(-1, mesh.n)
    ring2 = (ring1[:, None, :] + ring1[None, :, :]).reshape(-1, mesh.n)
    offsets, _, _ = vertex_stencils(mesh)
    assert np.array_equal(offsets, np.unique(ring2, axis=0))
    assert offsets.dtype == np.unique(ring2, axis=0).dtype


def test_offset_patterns_are_few():
    # 5 index classes per axis (0, 1, middle, last-1, last) give 5^n patterns
    for dom, expect in ((MESHES["euclidean_freebdry_sine"], 25), (MESHES["1d_nx7"], 5)):
        _, _, in_grid = vertex_stencils(build_mesh(dom))
        assert len({row.tobytes() for row in in_grid}) == expect


def test_batched_fit_matches_per_vertex_lstsq(mesh):
    rng = np.random.default_rng(7)
    x = mesh.vertices
    values = np.sin(3.0 * x[:, 0] + 0.4) + 0.05 * rng.standard_normal(mesh.num_vertices)
    if mesh.n == 2:
        values = values * np.cos(2.0 * x[:, 1])
    grad, hess, ok = _fit_vertex_quadratics(mesh, values)
    grad_ref, hess_ref, ok_ref = fit_vertex_quadratics(mesh, values)
    assert np.array_equal(ok, ok_ref)
    assert np.abs(grad - grad_ref).max() <= 1e-12
    assert np.abs(hess - hess_ref).max() <= 1e-10


def test_band_limit_charges_the_newton_band(mesh, monkeypatch):
    # HalfDomain.divisions charges 8 (kd + 1) bytes per vertex, on its unrounded cell
    # counts: those of a unit-resolution box with the mesh's divisions are exact
    d2f = np.broadcast_to(np.eye(mesh.n), (mesh.num_cells, mesh.n, mesh.n))
    plan = _band_plan(mesh, _free_box(mesh, mesh.vertex_tags == Tag.DIRICHLET))
    band = _hessian_band(plan, d2f)
    box = HalfDomain(mesh.n, mesh.divisions[0], *(d / 2 for d in mesh.divisions[1:]),
                     resolution=1.0)
    monkeypatch.setattr(domain, "_MAX_BAND_BYTES", 8 * band.shape[0] * mesh.num_vertices)
    assert box.divisions() == mesh.divisions
    monkeypatch.setattr(domain, "_MAX_BAND_BYTES", 8 * band.shape[0] * mesh.num_vertices - 1)
    with pytest.raises(ValueError, match="too fine"):
        box.divisions()
