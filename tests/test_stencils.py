"""Index-class two-ring stencils and batched curvature fits against slow references."""

import itertools

import numpy as np
import pytest

from anisograph import HalfDomain, Tag, build_mesh, domain
from anisograph.cli import bundled_scenario_path, load_scenario
from anisograph.domain import _build
from anisograph.geometry import _fit_vertex_quadratics, _two_ring_classes, _weighted_design
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
# the two-ring and fit tests also run in 3d
MESHES_3D = {
    "3d_3x3x3": HalfDomain(3, depth=1.0, width=0.5, resolution=1 / 3),
    "3d_dx_ne_dy": HalfDomain(3, depth=1.0, width=0.6, resolution=1 / 4),  # 4x5x5
}


@pytest.fixture(params=sorted(MESHES), scope="module")
def mesh(request):
    return build_mesh({**MESHES, **MESHES_3D}[request.param])


WITH_3D = pytest.mark.parametrize("mesh", sorted({**MESHES, **MESHES_3D}), indirect=True)


@WITH_3D
def test_stencils_match_cell_two_rings(mesh):
    # the classes cover every vertex once, and a class's offsets reach exactly the two-ring
    # of each vertex of its block, without leaving the grid
    counts = tuple(d + 1 for d in mesh.divisions)
    grid = np.arange(mesh.num_vertices).reshape(counts)
    reference = two_ring_stencils(mesh)
    seen = np.zeros(mesh.num_vertices, dtype=int)
    for block, offsets in _two_ring_classes(mesh):
        for v in grid[block].ravel():
            seen[v] += 1
            at = np.array(np.unravel_index(v, counts)) + offsets
            assert np.array_equal(np.sort(np.ravel_multi_index(tuple(at.T), counts)),
                                  reference[v]), v
    assert np.array_equal(seen, np.ones(mesh.num_vertices, dtype=int))


@WITH_3D
def test_stencil_offsets_keep_the_lexicographic_order(mesh):
    # each class's offsets are the full two-ring's in the order np.unique(axis=0) gives
    # them, which orders the rows of every fit
    cell = mesh.split.offsets
    ring1 = (cell[:, :, None] - cell[:, None]).reshape(-1, mesh.n)
    ring2 = np.unique((ring1[:, None, :] + ring1[None, :, :]).reshape(-1, mesh.n), axis=0)
    for _, offsets in _two_ring_classes(mesh):
        assert np.array_equal(offsets, np.unique(offsets, axis=0))
        assert offsets.dtype == ring2.dtype
        assert set(map(tuple, offsets.tolist())) <= set(map(tuple, ring2.tolist()))


def test_offset_patterns_are_few():
    # 5 index classes per axis (0, 1, middle, last-1, last) give 5^n patterns
    for dom, expect in ((MESHES["euclidean_freebdry_sine"], 25), (MESHES["1d_nx7"], 5)):
        classes = _two_ring_classes(build_mesh(dom))
        assert len({offsets.tobytes() for _, offsets in classes}) == len(classes) == expect


@WITH_3D
def test_batched_fit_matches_per_vertex_lstsq(mesh):
    rng = np.random.default_rng(7)
    x = mesh.vertices
    values = np.sin(3.0 * x[:, 0] + 0.4) + 0.05 * rng.standard_normal(mesh.num_vertices)
    for k in range(1, mesh.n):
        values = values * np.cos((k + 1.0) * x[:, k])
    grad, hess = _fit_vertex_quadratics(mesh, values)
    grad_ref, hess_ref, ok_ref = fit_vertex_quadratics(mesh, values)
    assert ok_ref.all()  # the reference's flag rule keeps every fit
    assert np.abs(grad - grad_ref).max() <= 1e-12
    assert np.abs(hess - hess_ref).max() <= 1e-10


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_index_class_fit_is_well_conditioned(n):
    # 3 and 4 divisions per axis give every index-class pattern (4 gives all five ranges,
    # 3 the one without a middle).  Three cells per axis keep any two spacings within a
    # factor 7/5, so ratios 0.7 to 1 of the largest, h, cover every mesh the geometry takes
    worst, patterns = 1.0, set()
    for divisions in itertools.product((3, 4), repeat=n):
        mesh = _build(HalfDomain(n, 1.0, 0.5 if n > 1 else None, resolution=1.0), divisions)
        for ratios in itertools.product((0.7, 0.85, 1.0), repeat=n):
            if max(ratios) < 1.0:
                continue
            for _, offsets in _two_ring_classes(mesh):
                patterns.add(offsets.tobytes())
                a, _ = _weighted_design(offsets * np.array(ratios))
                sv = np.linalg.svd(a, compute_uv=False)
                assert a.shape[0] >= a.shape[1]
                worst = min(worst, sv[-1] / sv[0])
    assert len(patterns) == 5 ** n
    assert worst >= 1e-3  # 0.12, 0.057 and 0.040 for n = 1, 2 and 3; the fit raises at 1e-10


def test_a_singular_class_fit_raises_naming_its_class():
    # 3 x 3 cells a million times finer along x_1 than along x_2: no mesh the loader takes
    mesh = _build(HalfDomain(2, 1e-6, 0.5, resolution=1.0), (3, 3))
    with pytest.raises(ValueError, match=r"grid indices \[0, 1\) x \[0, 1\)"):
        _fit_vertex_quadratics(mesh, np.zeros(mesh.num_vertices))


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
