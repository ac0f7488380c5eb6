"""Truncated half-space box domains and their structured simplicial meshes.

The computational domain is the box ``{x : x_1 >= 0, |x_k| <= half[k]}``
(``HalfDomain.half``): ``[0, depth] x [-width, width]^(n - 1)`` for n = 1, 2
or 3 (the interval ``[0, depth]`` for n = 1), sitting inside the half space
``{x_1 > 0}``.
The wall ``{x_1 = 0}`` carries the FREE tag and is left unconstrained by the
solver; the remaining, artificial truncation boundary is DIRICHLET.  Meshes
are structured: every box of a grid is cut into cells the same way, and that
cut (``Mesh.split``) gives the cells, the wall facets, the one-rings and the
one scatter, shifted sums over the vertex grid.  Each mesh plans those grid
kernels once (``Mesh.plan``): the slices of every cell type's vertices, the
nonzero hat-gradient terms and the flux weights, so that a call only runs them.
A mesh is immutable after construction and safe for shared reads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

__all__ = [
    "Tag",
    "HalfDomain",
    "Mesh",
    "build_mesh",
]

# the largest mesh, by its Newton band, bounded by 8 (kd + 1) bytes per vertex for the
# band's half-bandwidth kd: 1/512 on the unit reference box needs 1.0 GiB, 1/1024 8.0 GiB
_MAX_BAND_BYTES = 2 << 30


class Tag(IntEnum):
    INTERIOR = 0
    FREE = 1
    DIRICHLET = 2


@dataclass(frozen=True)
class HalfDomain:
    """Box ``[0, depth] x [-width, width]^(n - 1)``, 1 <= n <= 3; ``width`` is unused for
    n = 1.  The cap at 3 keeps the Sobolev exponent ``2n / (n - 1)`` of the functional
    inequalities an integer, whose cell integrals are exact."""

    n: int
    depth: float
    width: Optional[float] = None
    resolution: float = 0.1

    def __post_init__(self) -> None:
        if not 1 <= self.n <= 3:
            raise ValueError("graph dimension must be 1, 2 or 3")
        if not self.depth > 0.0:
            raise ValueError("depth must be positive")
        if self.n > 1 and (self.width is None or not self.width > 0.0):
            raise ValueError(f"a {self.n}d domain needs a positive width")
        if not self.resolution > 0.0:
            raise ValueError("resolution must be positive")

    def half(self) -> tuple[float, ...]:
        """The box is ``{x : x_1 >= 0, |x_k| <= half[k]}``."""
        return (self.depth,) + (self.width,) * (self.n - 1)

    def extents(self) -> tuple[float, ...]:
        """Side lengths of the box."""
        depth, *widths = self.half()
        return (depth, *(2.0 * w for w in widths))

    def divisions(self, minimum: int = 2) -> tuple[int, ...]:
        """Cells per axis at the resolution; ValueError if an axis gets under ``minimum``
        or the Newton band of the mesh over ``_MAX_BAND_BYTES``."""
        ext = self.extents()
        cells = [e / self.resolution for e in ext]
        free = [cells[0]] + [c - 1.0 for c in cells[1:]]  # the grid less its far and side faces
        kd = max(band_rows(_box_split((1.0,) * self.n), free).values())
        band = 8.0 * (kd + 1.0) * math.prod(c + 1.0 for c in cells)
        if not band <= _MAX_BAND_BYTES:
            raise ValueError(f"resolution {self.resolution} too fine for extents {ext}: a "
                             f"{band / 2 ** 30:.3g} GiB Newton band is over the "
                             f"{_MAX_BAND_BYTES / 2 ** 30:g} GiB limit")
        divisions = tuple(max(1, round(c)) for c in cells)
        if min(divisions) < minimum:
            raise ValueError(f"resolution {self.resolution} too coarse for extents {ext}; "
                             f"need at least {minimum} cells per axis")
        return divisions


@dataclass(frozen=True, eq=False)
class BoxSplit:
    """How each box of the grid is cut into cells, the same for every box: the Kuhn split
    of ``_box_split``.  ``offsets[t, i]`` is the grid-index offset, from the box's lowest
    corner, of vertex ``i`` of a type-``t`` cell, and ``grad_lambda[t, i]`` the constant
    gradient of that vertex's hat on it; every cell has measure ``measure``."""

    offsets: np.ndarray  # (types, n + 1, n) int
    grad_lambda: np.ndarray  # (types, n + 1, n)
    measure: float


def _box_split(spacing: tuple[float, ...]) -> BoxSplit:
    """The Kuhn (Freudenthal) split of a box with the given side lengths (one per axis):
    a cell per axis order ``s`` along the path ``0, e_s1, e_s1 + e_s2, ...``, its last two
    vertices swapped for an odd ``s`` (positive orientation), with the hats ``y_sj -
    y_s(j+1)`` of ``y_k = x_k / spacing_k`` (``y_s0 = 1``, ``y_s(n+1) = 0``).  Its edges are
    the nonzero 0/1 offsets, and the splits of a grid and of its halving nest."""
    n = len(spacing)
    steps = np.eye(n + 2, n, -1, dtype=np.int64)  # 0, e_1, ..., e_n, 0
    offsets, grads = [], []
    for order in itertools.permutations(range(n)):
        rise = steps[[0, *(1 + k for k in order), n + 1]]
        odd = sum(a > b for a, b in itertools.combinations(order, 2)) % 2
        keep = [*range(n - 1), n - 1 + odd, n - odd]
        offsets.append(np.cumsum(rise[:-1], axis=0)[keep])
        grads.append(((rise[:-1] - rise[1:]) / np.asarray(spacing))[keep])
    return BoxSplit(np.array(offsets), np.array(grads), math.prod(spacing) / math.factorial(n))


def band_rows(split: BoxSplit, shape) -> dict[tuple[int, ...], float]:
    """The band row of each edge offset of ``split`` from its lower-numbered end (0 for the
    zero offset), numbering a box of ``shape`` vertices row by row; the largest is the
    half-bandwidth.  Lexicographic order is the numbering's: such an offset is >= 0 in it."""
    strides = [math.prod(shape[k + 1:]) for k in range(len(shape))]
    diffs = (split.offsets[:, :, None] - split.offsets[:, None]).reshape(-1, len(shape))
    return {tuple(d): sum(dk * s for dk, s in zip(d, strides))
            for d in diffs.tolist() if d >= [0] * len(d)}


class GridPlan(NamedTuple):
    """What the grid kernels of a mesh read of its split, whatever the values.

    ``at[t][i]`` is the vertex-grid slice tuple picking each box's vertex ``i`` of a
    type-``t`` cell; ``terms[t][k]`` lists the ``(hat gradient, slices)`` of that cell's
    vertices with a nonzero ``k``-th gradient component; ``flux`` is ``split.measure *
    split.grad_lambda`` as ``(types, n, n + 1)``, the right factor of the flux's matmul.
    """

    shape: tuple[int, ...]  # the vertex grid
    at: tuple
    terms: tuple
    flux: np.ndarray


@dataclass(frozen=True, eq=False)
class Mesh:
    """Structured simplicial mesh of a HalfDomain with tagged boundary.

    Vertices are numbered row by row over the ``divisions + 1`` grid, and
    ``split`` says how every grid box is cut into cells: cell ``c`` is type
    ``t = c % len(split.offsets)`` of box ``c // len(split.offsets)`` (boxes
    also row by row), with measure ``split.measure`` and hat gradients
    ``split.grad_lambda[t]``.  ``wall_facets`` holds the vertex ids of each
    facet on the wall ``{x_1 = 0}`` (a vertex, an edge or a triangle: the n
    vertices of a cell on it), one ascending row per facet, wall box by wall
    box in grid order and, within a box, by cell type; ``wall_cells`` is the
    cell that owns each.  The mesh answers no ball queries: a probe
    compares one array of distances from its centre with each of its radii.
    """

    domain: HalfDomain
    divisions: tuple[int, ...]
    h: float
    vertices: np.ndarray
    cells: np.ndarray
    vertex_tags: np.ndarray
    wall_facets: np.ndarray
    wall_cells: np.ndarray
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

    @cached_property
    def plan(self) -> GridPlan:
        """The grid kernels' slices and weights, planned once per mesh (``GridPlan``)."""
        split = self.split
        at = tuple(tuple(self.offset_slices(o) for o in offsets) for offsets in split.offsets)
        terms = tuple(tuple(tuple((float(g), a) for a, g in zip(slices, grads[:, k]) if g)
                            for k in range(self.n))
                      for slices, grads in zip(at, split.grad_lambda))
        flux = (split.measure * split.grad_lambda).transpose(0, 2, 1).copy()
        return GridPlan(tuple(d + 1 for d in self.divisions), at, terms, flux)

    def scatter(self, contrib: np.ndarray) -> np.ndarray:
        """Per-vertex sums of per-cell vertex contributions ``(ncells, n + 1)``, summed
        on the vertex grid: each cell type's column ``i`` shifted to its vertex ``i``,
        through the slices of ``plan``."""
        plan = self.plan
        contrib = contrib.reshape(self.divisions + self.split.offsets.shape[:2])
        out = np.zeros(plan.shape)
        for t, slices in enumerate(plan.at):
            for i, at in enumerate(slices):
                out[at] += contrib[..., t, i]
        return out.ravel()

    def scatter_flux(self, q: np.ndarray) -> np.ndarray:
        """Per-vertex sums of ``|c| q_c . grad lambda`` over the cells around each vertex.

        ``q`` holds one vector per cell, in cell order: ``Df(Du)`` gives the
        energy gradient, ``D^2 f(Du) Dv`` the Hessian applied to ``v``.  Each
        cell type's contraction is one matmul with ``plan.flux``, the one that
        numpy's optimized einsum ``"ctk,tik->cti"`` performs, bit for bit.
        """
        q = q.reshape(-1, len(self.split.offsets), self.n)
        return self.scatter(np.matmul(q.transpose(1, 0, 2), self.plan.flux).transpose(1, 0, 2))

    def offset_slices(self, offset: np.ndarray) -> tuple[slice, ...]:
        """Vertex-grid slices picking each box's vertex at ``offset`` from its lowest corner."""
        return tuple(slice(o, o + d) for o, d in zip(offset, self.divisions))

    def cell_gradients(self, values: np.ndarray) -> np.ndarray:
        """Per-cell constant gradient of the piecewise-linear interpolant.

        Computed on the vertex grid as shifted differences (``plan.terms``), in cell order.
        """
        plan = self.plan
        grid = np.asarray(values, dtype=float).reshape(plan.shape)
        out = np.empty(self.divisions + (len(plan.terms), self.n))
        for t, axes in enumerate(plan.terms):
            for k, ((g, at), *rest) in enumerate(axes):
                total = g * grid[at]
                for g, at in rest:
                    total += g * grid[at]
                out[..., t, k] = total
        return out.reshape(-1, self.n)

    def cell_means(self, values: np.ndarray) -> np.ndarray:
        """Each cell's mean of per-vertex values (one row per vertex), in cell order.

        Summed on the vertex grid in the cell's vertex order, then divided by
        the vertex count: the same operations as ``values[cells].mean(axis=1)``.
        """
        plan = self.plan
        grid = values.reshape(plan.shape + values.shape[1:])
        out = np.empty(self.divisions + (len(plan.at),) + values.shape[1:])
        for t, slices in enumerate(plan.at):
            at = [grid[a] for a in slices]
            out[(slice(None),) * self.n + (t,)] = sum(at[1:], at[0]) / len(at)
        return out.reshape((self.num_cells,) + values.shape[1:])

    def grid_lines(self) -> list[np.ndarray]:
        """Each axis's coordinate lines, read off the vertex grid: every vertex coordinate
        is one of them."""
        grid = self.vertices.reshape(tuple(d + 1 for d in self.divisions) + (self.n,))
        return [grid[(0,) * k + (slice(None),) + (0,) * (self.n - 1 - k) + (k,)]
                for k in range(self.n)]


def build_mesh(domain: HalfDomain) -> Mesh:
    """Mesh the domain at its requested resolution.

    Raises ValueError when the resolution gives fewer than two cells along
    any axis (too coarse to carry distinct wall and truncation boundaries).
    """
    return _build(domain, domain.divisions())


def _build(domain: HalfDomain, divisions: tuple[int, ...]) -> Mesh:
    """The mesh of ``domain`` with the given cells per axis; its cells, tags and wall
    facets all follow from the grid and the box split."""
    n = domain.n
    spacing = tuple(e / d for e, d in zip(domain.extents(), divisions))
    lines = []
    for half, ext, step, d in zip(domain.half(), domain.extents(), spacing, divisions):
        lines.append((half - ext) + np.arange(d + 1) * step)
        lines[-1][[0, -1]] = half - ext, half  # the box's exact faces
    verts = np.stack([g.ravel() for g in np.meshgrid(*lines, indexing="ij")], axis=1)

    split = _box_split(spacing)
    counts = tuple(d + 1 for d in divisions)
    # vertex ids of every cell, box by box and, within a box, type by type
    corners = np.indices(divisions).reshape(n, -1, 1, 1)
    cells = np.ravel_multi_index(tuple(corners + np.moveaxis(split.offsets, 2, 0)[:, None]),
                                 counts).reshape(-1, n + 1)
    tags = np.full(counts, Tag.DIRICHLET, dtype=np.int8)
    tags[(slice(1, -1),) * n] = Tag.INTERIOR
    tags[(0,) + (slice(1, -1),) * (n - 1)] = Tag.FREE  # its corners are truncation-dominated
    # the wall facets: the boxes at x_1 = 0 are the first prod(divisions[1:]), and in each
    # every cell type with n vertices on x_1 = 0 owns one ((n - 1)! types: the axis orders
    # that step along x_1 last)
    types = len(split.offsets)
    on_wall = split.offsets[:, :, 0] == 0
    walled = np.flatnonzero(on_wall.sum(axis=1) == n)
    owners = (np.arange(math.prod(divisions[1:]))[:, None] * types + walled).ravel()
    facets = cells[owners][on_wall[owners % types]].reshape(-1, n)
    return Mesh(domain, divisions, max(spacing), verts, cells, tags.ravel(),
                np.sort(facets, axis=1), owners, split)

