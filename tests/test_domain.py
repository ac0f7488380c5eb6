import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from anisograph import HalfDomain, Tag, build_mesh
from anisograph.domain import _box_split
from reference import box_split_tables, cell_gradients_gather, cell_measures, refine


def unit_square_mesh(resolution=0.25):
    return build_mesh(HalfDomain(2, depth=1.0, width=0.5, resolution=resolution))


def test_1d_counting_example():
    mesh = build_mesh(HalfDomain(1, depth=1.0, resolution=0.25))
    assert mesh.num_vertices == 5
    assert mesh.num_cells == 4
    assert mesh.vertex_tags[0] == Tag.FREE
    assert mesh.vertex_tags[-1] == Tag.DIRICHLET
    assert set(mesh.vertex_tags[1:-1]) == {Tag.INTERIOR}


def test_2d_counting_example():
    mesh = build_mesh(HalfDomain(2, depth=1.0, width=1.0, resolution=0.5))
    assert mesh.num_vertices == 15  # 3 x 5 grid
    assert mesh.num_cells == 16


def test_3d_counting_example():
    mesh = build_mesh(HalfDomain(3, depth=1.0, width=0.5, resolution=0.25))
    assert mesh.divisions == (4, 4, 4)
    assert mesh.num_vertices == 125
    assert mesh.num_cells == 6 * 64  # the Kuhn split cuts a cube into 3! tetrahedra
    assert len(mesh.wall_facets) == 2 * 16  # two triangles per wall square
    assert np.count_nonzero(mesh.vertex_tags == Tag.FREE) == 9


def test_refine_quadruples_cells_and_nests_vertices():
    mesh = unit_square_mesh(0.25)
    fine = refine(mesh)
    assert fine.num_cells == 4 * mesh.num_cells
    # vertex coordinates of the parent appear in the child
    coarse = {tuple(np.round(v, 12)) for v in mesh.vertices}
    fine_set = {tuple(np.round(v, 12)) for v in fine.vertices}
    assert coarse <= fine_set


def test_refine_inherits_wall_tags():
    mesh = refine(unit_square_mesh(0.25))
    assert np.abs(mesh.vertices[mesh.wall_facets][:, :, 0]).max() <= 1e-12


def test_cell_measures_cover_domain_exactly():
    for dom in (HalfDomain(1, depth=1.3, resolution=0.1),
                HalfDomain(2, depth=1.7, width=0.4, resolution=0.05),
                HalfDomain(3, depth=1.1, width=0.3, resolution=0.1)):
        mesh = build_mesh(dom)
        expect = math.prod(dom.extents())
        assert cell_measures(mesh).sum() == pytest.approx(expect, abs=1e-12)


def test_wall_vertices_never_interior():
    mesh = unit_square_mesh(0.125)
    on_wall = np.abs(mesh.vertices[:, 0]) <= 1e-12
    assert np.all(mesh.vertex_tags[on_wall] != Tag.INTERIOR)
    # corners of the wall belong to the truncation boundary
    corners = on_wall & (np.abs(np.abs(mesh.vertices[:, 1]) - 0.5) <= 1e-12)
    assert np.all(mesh.vertex_tags[corners] == Tag.DIRICHLET)


@pytest.mark.parametrize("domain", [
    HalfDomain(1, depth=1.0, resolution=1 / 7),
    HalfDomain(2, depth=1.0, width=0.875, resolution=1 / 4),  # 4 x 7 cells
    HalfDomain(2, depth=1.0, width=0.6, resolution=1 / 4),  # dx != dy
    HalfDomain(3, depth=1.0, width=0.375, resolution=1 / 4),  # 4 x 3 x 3 cells
], ids=["1d_nx7", "2d_4x7", "2d_dx_ne_dy", "3d_4x3x3"])
def test_boundary_facets_partition_topological_boundary(domain):
    """The wall facets are exactly the topological boundary facets on x_1 = 0."""
    mesh = build_mesh(domain)
    m = mesh.n + 1
    facet_count = {}
    for cell in mesh.cells:
        for k in range(m):
            f = tuple(sorted(np.delete(cell, k)))
            facet_count[f] = facet_count.get(f, 0) + 1
    on_wall = np.abs(mesh.vertices[:, 0]) <= 1e-12
    boundary = {f for f, c in facet_count.items() if c == 1 and on_wall[list(f)].all()}
    facets = {tuple(f) for f in mesh.wall_facets}
    assert facets == boundary and len(facets) == len(mesh.wall_facets)
    assert np.all(np.diff(mesh.wall_facets, axis=1) > 0)  # ascending rows
    # each facet knows its unique incident cell
    for facet, cell_id in zip(mesh.wall_facets, mesh.wall_cells):
        assert set(facet) <= set(mesh.cells[cell_id])
    # box-major: each wall box owns (n - 1)! facets, one per cell type with n vertices
    # on the wall, in type order
    types = len(mesh.split.offsets)
    walled = math.factorial(mesh.n - 1)
    boxes = np.arange(math.prod(mesh.divisions[1:]))
    assert np.array_equal(mesh.wall_cells // types, np.repeat(boxes, walled))
    assert np.all(np.diff(mesh.wall_cells.reshape(-1, walled) % types, axis=1) > 0)
    # facet j joins grid vertices (0, j) and (0, j + 1) and is owned by the upper
    # triangle of box (0, j); in 1d it is vertex 0 of cell 0
    if mesh.n == 1:
        assert mesh.wall_facets.tolist() == [[0]] and mesh.wall_cells.tolist() == [0]
    elif mesh.n == 2:
        j = np.arange(mesh.divisions[1])
        assert np.array_equal(mesh.wall_facets, np.stack([j, j + 1], axis=1))
        assert np.array_equal(mesh.wall_cells, 2 * j + 1)


def test_cells_positively_oriented_with_good_angles():
    mesh = unit_square_mesh(0.25)
    v = mesh.vertices[mesh.cells]
    e1 = v[:, 1] - v[:, 0]
    e2 = v[:, 2] - v[:, 0]
    cross = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    assert cross.min() > 0.0
    for tri in v:
        for k in range(3):
            a = tri[(k + 1) % 3] - tri[k]
            b = tri[(k + 2) % 3] - tri[k]
            angle = np.degrees(
                np.arccos(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
            )
            assert angle >= 30.0 - 1e-9


def test_too_coarse_resolution_rejected():
    with pytest.raises(ValueError):
        build_mesh(HalfDomain(2, depth=1.0, width=0.5, resolution=0.9))


def test_domain_validation():
    for n in (0, 4):  # n = 3 is the largest whose Sobolev exponent 2n / (n - 1) is an integer
        with pytest.raises(ValueError, match="graph dimension"):
            HalfDomain(n, depth=1.0, width=1.0, resolution=0.1)
    for n in (2, 3):
        with pytest.raises(ValueError, match="width"):
            HalfDomain(n, depth=1.0, resolution=0.1)  # missing width
    with pytest.raises(ValueError):
        HalfDomain(1, depth=-1.0, resolution=0.1)


@pytest.mark.parametrize("domain", [
    HalfDomain(1, depth=1.3, resolution=0.1),
    HalfDomain(2, depth=1.0, width=0.875, resolution=1 / 4),
    HalfDomain(2, depth=1.3, width=0.53, resolution=1 / 20),  # 26 x 21, dx != dy
    HalfDomain(3, depth=1.0, width=0.35, resolution=1 / 10),  # 10 x 7 x 7
], ids=["1d", "2d", "2d_dx_ne_dy", "3d"])
def test_box_split_describes_every_cell(domain):
    mesh = build_mesh(domain)
    split = mesh.split
    ntypes = split.offsets.shape[0]
    assert ntypes == math.factorial(mesh.n)  # one type per axis order
    counts = tuple(d + 1 for d in mesh.divisions)
    grid = np.stack(np.unravel_index(mesh.cells, counts), axis=-1)  # (cells, n + 1, n)
    corner = grid.min(axis=1, keepdims=True)
    boxes = np.ravel_multi_index(tuple(np.moveaxis(corner[:, 0], 1, 0)), mesh.divisions)
    assert np.array_equal(np.arange(mesh.num_cells) // ntypes, boxes)
    assert np.array_equal(grid - corner, split.offsets[np.arange(mesh.num_cells) % ntypes])
    # against the vertex coordinates: positively oriented cells of that measure, on
    # which the hats reproduce the coordinate functions
    x = mesh.vertices[mesh.cells]
    det = np.linalg.det(x[:, 1:] - x[:, :1])
    assert np.all(det > 0.0)
    assert np.abs(det / math.factorial(mesh.n) - split.measure).max() <= 1e-14 * split.measure
    jacobian = np.einsum("cak,cal->ckl", x, split.grad_lambda[np.arange(mesh.num_cells) % ntypes])
    assert np.abs(jacobian - np.eye(mesh.n)).max() <= 1e-13


@pytest.mark.parametrize("spacing", [
    (0.05,), (0.25,), (0.05, 0.0505), (1 / 128, 1 / 128), (0.1, 0.3), (1 / 3, 1 / 7),
    (0.1, 0.2, 0.3), (1 / 3, 1 / 7, 0.5),
])
def test_box_split_is_the_kuhn_split(spacing):
    n = len(spacing)
    split = _box_split(spacing)
    assert split.offsets.shape == split.grad_lambda.shape == (math.factorial(n), n + 1, n)
    assert split.measure == pytest.approx(math.prod(spacing) / math.factorial(n), rel=1e-15)
    # positively oriented cells of that measure, on which the hats reproduce the coordinates
    x = split.offsets * np.array(spacing)
    det = np.linalg.det(x[:, 1:] - x[:, :1])
    assert np.all(det > 0.0)
    assert np.abs(det / math.factorial(n) - split.measure).max() <= 1e-14 * split.measure
    jacobian = np.einsum("tak,tal->tkl", x, split.grad_lambda)
    assert np.abs(jacobian - np.eye(n)).max() <= 1e-13
    for k, dx in enumerate(spacing):  # hat gradients of exactly +-1/dx_k
        assert set(np.abs(split.grad_lambda[..., k]).ravel()) <= {0.0, 1.0 / dx}
    # distinct cells, and every 0/1 offset an edge of one: the nesting under halving
    cells = {frozenset(map(tuple, cell)) for cell in split.offsets.tolist()}
    assert len(cells) == len(split.offsets)
    edges = {tuple(b - a) for cell in split.offsets for a in cell for b in cell}
    assert set(itertools.product((0, 1), repeat=n)) <= edges
    if n <= 2:
        tables = box_split_tables(spacing)
        assert split.offsets.dtype == tables.offsets.dtype
        assert np.array_equal(split.offsets, tables.offsets)
        assert np.array_equal(split.grad_lambda, tables.grad_lambda)
        assert np.array_equal(np.signbit(split.grad_lambda), np.signbit(tables.grad_lambda))
        assert split.measure == tables.measure


def test_mesh_vertex_count_must_fill_the_grid():
    mesh = build_mesh(HalfDomain(2, depth=1.0, width=0.5, resolution=0.25))
    with pytest.raises(ValueError, match="do not fill the grid"):
        replace(mesh, divisions=(4, 5))


@pytest.mark.parametrize("domain", [
    HalfDomain(1, depth=1.3, resolution=0.1),
    HalfDomain(2, depth=1.0, width=0.5, resolution=1 / 32),
    HalfDomain(2, depth=1.3, width=0.53, resolution=1 / 20),  # 26 x 21, dx != dy
    HalfDomain(3, depth=1.0, width=0.35, resolution=1 / 10),  # 10 x 7 x 7
], ids=["1d", "2d", "2d_dx_ne_dy", "3d"])
def test_grid_cell_gradients_equal_the_gathered_ones(domain):
    # two nonzero hats per component: any summation order gives the same sum
    mesh = build_mesh(domain)
    values = np.random.default_rng(2).normal(size=mesh.num_vertices)
    assert np.array_equal(mesh.cell_gradients(values), cell_gradients_gather(mesh, values))


@pytest.mark.parametrize("domain", [
    HalfDomain(1, depth=1.3, resolution=0.1),
    HalfDomain(2, depth=1.0, width=0.5, resolution=1 / 32),
    HalfDomain(2, depth=1.3, width=0.53, resolution=1 / 20),  # 26 x 21, dx != dy
    HalfDomain(3, depth=1.0, width=0.35, resolution=1 / 10),  # 10 x 7 x 7
], ids=["1d", "2d", "2d_dx_ne_dy", "3d"])
@pytest.mark.parametrize("columns", [(), (3,)], ids=["scalar", "rows"])
def test_grid_cell_means_equal_the_gathered_ones(domain, columns):
    mesh = build_mesh(domain)
    values = np.random.default_rng(3).normal(size=(mesh.num_vertices, *columns))
    assert np.array_equal(mesh.cell_means(values), values[mesh.cells].mean(axis=1))


@pytest.mark.parametrize("domain", [
    HalfDomain(1, depth=1.3, resolution=0.1),
    HalfDomain(2, depth=1.0, width=0.5, resolution=1 / 32),
    HalfDomain(2, depth=1.3, width=0.53, resolution=1 / 20),  # 26 x 21, dx != dy
    HalfDomain(3, depth=1.0, width=0.35, resolution=1 / 10),  # 10 x 7 x 7
], ids=["1d", "2d", "2d_dx_ne_dy", "3d"])
def test_scatter_flux_equals_numpys_own_contraction(domain):
    mesh = build_mesh(domain)
    split = mesh.split
    q = np.random.default_rng(4).normal(size=(mesh.num_cells, mesh.n))
    operands = ("ctk,tik->cti", q.reshape(-1, len(split.offsets), mesh.n),
                split.measure * split.grad_lambda)
    assert np.array_equal(mesh.scatter_flux(q),
                          mesh.scatter(np.einsum(*operands, optimize=True)))
