"""Truncated half-space box domains and their structured simplicial meshes.

The computational domain is always a box ``[0, depth] x [-width, width]``
(or the interval ``[0, depth]`` in one dimension) sitting inside the half
space ``{x_1 > 0}``.  The wall ``{x_1 = 0}`` carries the FREE tag and is left
unconstrained by the solver; the remaining, artificial truncation boundary is
DIRICHLET.  Meshes are structured (squares split into two right triangles),
which keeps refinement nested and every quality bound trivial.  A mesh is
immutable after construction and safe for shared reads.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import IntEnum
from typing import Optional

import numpy as np

__all__ = [
    "Tag",
    "HalfDomain",
    "Mesh",
    "build_mesh",
    "half_ball_vertices",
]

_WALL_TOL = 1e-12


class Tag(IntEnum):
    INTERIOR = 0
    FREE = 1
    DIRICHLET = 2


@dataclass(frozen=True)
class HalfDomain:
    """Box ``[0, depth] x [-width, width]`` (n = 2) or ``[0, depth]`` (n = 1)."""

    n: int
    depth: float
    width: Optional[float] = None
    resolution: float = 0.1

    def __post_init__(self) -> None:
        if self.n not in (1, 2):
            raise ValueError("graph dimension must be 1 or 2")
        if not self.depth > 0.0:
            raise ValueError("depth must be positive")
        if self.n == 2:
            if self.width is None or not self.width > 0.0:
                raise ValueError("a 2d domain needs a positive width")
        if not self.resolution > 0.0:
            raise ValueError("resolution must be positive")

    def extents(self) -> tuple[float, ...]:
        if self.n == 1:
            return (self.depth,)
        return (self.depth, 2.0 * self.width)

    def divisions(self, minimum: int = 2) -> tuple[int, ...]:
        """Cells per axis at the resolution; ValueError if an axis gets under ``minimum``."""
        ext = self.extents()
        divisions = tuple(max(1, round(e / self.resolution)) for e in ext)
        if min(divisions) < minimum:
            raise ValueError(f"resolution {self.resolution} too coarse for extents {ext}; "
                             f"need at least {minimum} cells per axis")
        return divisions


@dataclass(frozen=True, eq=False)
class BoxSplit:
    """How each box of the grid is cut into cells, the same for every box.

    ``offsets[t, i]`` is the grid-index offset, from the box's lowest corner,
    of vertex ``i`` of a type-``t`` cell, and ``grad_lambda[t, i]`` the
    constant gradient of that vertex's hat on it; every cell has measure
    ``measure``.  One type in one dimension; in two, the lower triangle
    (v00, v10, v11) and the upper one (v00, v11, v01) of the v00-v11 diagonal.
    """

    offsets: np.ndarray  # (types, n + 1, n) int
    grad_lambda: np.ndarray  # (types, n + 1, n)
    measure: float


def _box_split(spacing: tuple[float, ...]) -> BoxSplit:
    """The split of a box with the given side lengths (one per axis)."""
    if len(spacing) == 1:
        (dx,) = spacing
        return BoxSplit(np.array([[[0], [1]]]), np.array([[[-1.0 / dx], [1.0 / dx]]]), dx)
    dx, dy = spacing
    offsets = np.array([[[0, 0], [1, 0], [1, 1]], [[0, 0], [1, 1], [0, 1]]])
    grads = np.array([[[-1.0 / dx, 0.0], [1.0 / dx, -1.0 / dy], [0.0, 1.0 / dy]],
                      [[0.0, -1.0 / dy], [1.0 / dx, 0.0], [-1.0 / dx, 1.0 / dy]]])
    return BoxSplit(offsets, grads, 0.5 * dx * dy)


def _cells(divisions: tuple[int, ...], split: BoxSplit) -> tuple[np.ndarray, ...]:
    """Vertex ids, measures and hat gradients of every cell, ordered box by box and,
    within a box, type by type."""
    corners = np.indices(divisions).reshape(len(divisions), -1, 1, 1)
    target = corners + np.moveaxis(split.offsets, 2, 0)[:, None]
    counts = tuple(d + 1 for d in divisions)
    cells = np.ravel_multi_index(tuple(target), counts).reshape(-1, split.offsets.shape[1])
    grad = np.tile(split.grad_lambda, (math.prod(divisions), 1, 1))
    return cells, np.full(cells.shape[0], split.measure), grad


@dataclass(frozen=True, eq=False)
class Mesh:
    """Structured simplicial mesh of a HalfDomain with tagged boundary.

    ``boundary_facets`` holds one row per boundary facet (a single vertex for
    n = 1, an edge for n = 2); ``facet_cells`` maps each facet to its unique
    incident cell.  ``grad_lambda[c, i]`` is the gradient of the i-th
    barycentric hat on cell ``c``.  Vertices are numbered row by row over
    the ``divisions + 1`` grid, and ``split`` says how every grid box is cut
    into cells: cell ``c`` is type ``c % len(split.offsets)`` of box
    ``c // len(split.offsets)`` (boxes also row by row).
    """

    domain: HalfDomain
    divisions: tuple[int, ...]
    h: float
    vertices: np.ndarray
    cells: np.ndarray
    vertex_tags: np.ndarray
    boundary_facets: np.ndarray
    facet_tags: np.ndarray
    facet_cells: np.ndarray
    cell_measures: np.ndarray
    grad_lambda: np.ndarray
    split: BoxSplit

    def __post_init__(self) -> None:
        if self.num_vertices != math.prod(d + 1 for d in self.divisions):
            raise ValueError(f"{self.num_vertices} vertices do not fill the grid of "
                             f"divisions {self.divisions}")

    @property
    def n(self) -> int:
        return self.domain.n

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_cells(self) -> int:
        return self.cells.shape[0]

    @property
    def wall_facets(self) -> np.ndarray:
        """Indices (into boundary_facets) of the facets on the wall {x1=0}."""
        return np.flatnonzero(self.facet_tags == Tag.FREE)

    def scatter(self, contrib: np.ndarray) -> np.ndarray:
        """Per-vertex sums of per-cell vertex contributions ``(ncells, n + 1)``."""
        return np.bincount(self.cells.ravel(), weights=contrib.ravel(),
                           minlength=self.num_vertices)

    def offset_slices(self, offset: np.ndarray) -> tuple[slice, ...]:
        """Vertex-grid slices picking each box's vertex at ``offset`` from its lowest corner."""
        return tuple(slice(o, o + d) for o, d in zip(offset, self.divisions))

    def cell_gradients(self, values: np.ndarray) -> np.ndarray:
        """Per-cell constant gradient of the piecewise-linear interpolant.

        Computed on the vertex grid as shifted differences, in cell order.
        """
        split, at = self.split, self.offset_slices
        grid = np.asarray(values, dtype=float).reshape(tuple(d + 1 for d in self.divisions))
        out = np.empty(self.divisions + split.offsets.shape[:1] + (self.n,))
        for t, (offsets, grads) in enumerate(zip(split.offsets, split.grad_lambda)):
            for k in range(self.n):
                terms = [g * grid[at(o)] for o, g in zip(offsets, grads[:, k]) if g]
                out[..., t, k] = sum(terms[1:], terms[0])
        return out.reshape(-1, self.n)

    def cell_barycenters(self) -> np.ndarray:
        return self.vertices[self.cells].mean(axis=1)


def build_mesh(domain: HalfDomain) -> Mesh:
    """Mesh the domain at its requested resolution.

    Raises ValueError when the resolution gives fewer than two cells along
    any axis (too coarse to carry distinct wall and truncation boundaries).
    """
    return _build(domain, domain.divisions())


def _build(domain: HalfDomain, divisions: tuple[int, ...]) -> Mesh:
    if domain.n == 1:
        return _build_1d(domain, divisions[0])
    return _build_2d(domain, divisions)


def _build_1d(domain: HalfDomain, nx: int) -> Mesh:
    dx = domain.depth / nx
    verts = (np.arange(nx + 1) * dx)[:, None]
    verts[-1, 0] = domain.depth
    split = _box_split((dx,))
    cells, measures, grad = _cells((nx,), split)
    tags = np.full(nx + 1, Tag.INTERIOR, dtype=np.int8)
    tags[0] = Tag.FREE
    tags[-1] = Tag.DIRICHLET
    facets = np.array([[0], [nx]], dtype=np.int64)
    facet_tags = np.array([Tag.FREE, Tag.DIRICHLET], dtype=np.int8)
    facet_cells = np.array([0, nx - 1], dtype=np.int64)
    return Mesh(domain, (nx,), dx, verts, cells, tags, facets, facet_tags,
                facet_cells, measures, grad, split)


def _build_2d(domain: HalfDomain, divisions: tuple[int, ...]) -> Mesh:
    nx, ny = divisions
    dx = domain.depth / nx
    dy = 2.0 * domain.width / ny
    xs = np.arange(nx + 1) * dx
    ys = -domain.width + np.arange(ny + 1) * dy
    xs[-1], ys[-1] = domain.depth, domain.width
    xs[0], ys[0] = 0.0, -domain.width
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    verts = np.stack([gx.ravel(), gy.ravel()], axis=1)

    def vid(i, j):
        return i * (ny + 1) + j

    split = _box_split((dx, dy))
    cells, measures, grad = _cells((nx, ny), split)

    tags = np.full(verts.shape[0], Tag.INTERIOR, dtype=np.int8)
    i_idx = np.repeat(np.arange(nx + 1), ny + 1)
    j_idx = np.tile(np.arange(ny + 1), nx + 1)
    on_wall = i_idx == 0
    on_outer = (i_idx == nx) | (j_idx == 0) | (j_idx == ny)
    tags[on_wall] = Tag.FREE
    tags[on_outer] = Tag.DIRICHLET  # wall corners are truncation-dominated

    facet_rows = []
    facet_tag_rows = []
    facet_cell_rows = []

    def square_cell(i, j, which):
        return 2 * (i * ny + j) + which

    for j in range(ny):  # wall x1 = 0 (upper triangle of square (0, j))
        facet_rows.append((vid(0, j), vid(0, j + 1)))
        facet_tag_rows.append(Tag.FREE)
        facet_cell_rows.append(square_cell(0, j, 1))
    for j in range(ny):  # far side x1 = depth
        facet_rows.append((vid(nx, j), vid(nx, j + 1)))
        facet_tag_rows.append(Tag.DIRICHLET)
        facet_cell_rows.append(square_cell(nx - 1, j, 0))
    for i in range(nx):  # bottom x2 = -width (lower triangle owns it)
        facet_rows.append((vid(i, 0), vid(i + 1, 0)))
        facet_tag_rows.append(Tag.DIRICHLET)
        facet_cell_rows.append(square_cell(i, 0, 0))
    for i in range(nx):  # top x2 = +width
        facet_rows.append((vid(i, ny), vid(i + 1, ny)))
        facet_tag_rows.append(Tag.DIRICHLET)
        facet_cell_rows.append(square_cell(i, ny - 1, 1))

    facets = np.asarray(facet_rows, dtype=np.int64)
    facet_tags = np.asarray(facet_tag_rows, dtype=np.int8)
    facet_cells = np.asarray(facet_cell_rows, dtype=np.int64)

    wall_x = np.abs(verts[facets[facet_tags == Tag.FREE]][:, :, 0])
    if wall_x.size and wall_x.max() > _WALL_TOL:
        raise AssertionError("a FREE facet strayed off the wall {x1=0}")

    return Mesh(domain, (nx, ny), max(dx, dy), verts, cells, tags, facets,
                facet_tags, facet_cells, measures, grad, split)


def half_ball_vertices(mesh: Mesh, x0: np.ndarray, r: float) -> np.ndarray:
    """Indices of mesh vertices within distance r of x0 (half-ball in the box).

    An empty result (radius below the local mesh size) is flagged with a
    warning, not an error.
    """
    if r <= 0.0:
        raise ValueError("radius must be positive")
    x0 = np.asarray(x0, dtype=float).reshape(mesh.n)
    d = np.linalg.norm(mesh.vertices - x0, axis=1)
    idx = np.flatnonzero(d <= r + _WALL_TOL)
    if idx.size == 0:
        warnings.warn(f"no vertices within radius {r} of {x0.tolist()}", stacklevel=2)
    return idx


# One-ring grid-index offsets of the structured triangulation: the axis
# neighbours plus, in 2d, the (1, 1) diagonal every square is split along.
_RING1 = {
    1: ((0,), (1,), (-1,)),
    2: ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)),
}


def vertex_stencils(mesh: Mesh) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two-ring vertex neighbourhoods (including the vertex) from grid indices.

    Returns ``(offsets, ids, in_grid)``: ``offsets`` is the fixed ``(k, n)``
    list of grid-index offsets of a full two-ring; ``ids[v, s]`` is the vertex
    at offset ``s`` from vertex ``v`` and is meaningful only where
    ``in_grid[v, s]``.  On a box every intermediate one-ring vertex of an
    in-grid two-ring vertex lies in the grid too, so the in-grid offsets are
    exactly the two-ring of the triangulation.
    """
    ring1 = np.array(_RING1[mesh.n])
    offsets = np.unique((ring1[:, None, :] + ring1[None, :, :]).reshape(-1, mesh.n), axis=0)
    counts = np.array(mesh.divisions) + 1
    index = np.stack(np.unravel_index(np.arange(mesh.num_vertices), counts), axis=1)
    target = index[:, None, :] + offsets[None, :, :]
    in_grid = np.all((target >= 0) & (target < counts), axis=2)
    ids = np.ravel_multi_index(tuple(np.moveaxis(target, 2, 0)), counts, mode="clip")
    return offsets, ids, in_grid

