"""Cubiculated regions: boxes, rectangular tori, and general voxel sets.

A region is a finite set of unit cells in Z^3, checkerboard colored, together
with the face-adjacency graph of its cells (the dual graph). Tilings live in
tilings.py as perfect matchings of that graph; everything here is immutable
after construction.

Coloring convention: color(x, y, z) = +1 (black) iff x + y + z + parity is
even, with parity = 0 for boxes and tori.
"""

from __future__ import annotations

import json
import operator
from collections import namedtuple
from itertools import product
from typing import Iterable, Optional, Sequence

Cell = tuple[int, int, int]

#: Canonical direction order: +x, -x, +y, -y, +z, -z.
DIRECTIONS: tuple[Cell, ...] = (
    (1, 0, 0), (-1, 0, 0),
    (0, 1, 0), (0, -1, 0),
    (0, 0, 1), (0, 0, -1),
)

#: direction index -> coordinate axis (0, 1 or 2).
DIR_AXIS = (0, 0, 1, 1, 2, 2)

#: direction index -> sign of the step along its axis.
DIR_SIGN = (1, -1, 1, -1, 1, -1)

AXIS_NAMES = ("x", "y", "z")

#: Offsets of a 2x2x2 cube's cells from its anchor, in position order: the
#: position of offset (dx, dy, dz) is 4 dx + 2 dy + dz.
CUBE_OFFSETS: tuple[Cell, ...] = tuple(product((0, 1), repeat=3))

COORD_LIMIT = 2**31 - 1

#: Most cells refine_region will build. `tritile refine box 3 3 2 -k 2`
#: (281,250 cells) peaks at 270 MB resident (Python 3.11), about 1 KB per
#: refined cell, so the budget keeps a refinement report near 1 GB.
REFINE_BUDGET = 1_000_000


class RegionError(ValueError):
    """Rejection of a candidate region, naming the first violated condition."""

    def __init__(self, condition: str, message: str):
        super().__init__(message)
        self.condition = condition


class BudgetExceeded(ValueError):
    """An exponential computation stopped at its fixed work budget."""


#: Region.cube_table; see there.
CubeTable = namedtuple("CubeTable", "anchors cubes cell_anchors")


class Region:
    """An immutable cubiculated region with its dual graph.

    Do not call the constructor directly; use build_box, build_torus or
    build_voxel_region. A box or torus is stored as its sizes: cell i is
    (x, y, z) with i = (x * M + y) * N + z for sizes (L, M, N), and cells,
    index and colors are built on first access. So a refined box or torus
    that is only indexed by arithmetic, as refine_tiling does, never builds
    them (see _UnbuiltRegion). A voxel region builds its cell tables at once.
    Flips read the dual graph as one step table, trits the 2x2x2 cubes as
    one cube table. Each is built on first access: by index arithmetic on a
    box or torus, without its cell tables, and by lookups in the index on a
    voxel region. Equality and hashing key a box or torus on its sizes and a
    voxel region on its cells, so building tables never changes either.
    """

    __slots__ = (
        "kind", "cells", "index", "colors", "dims", "periods", "parity", "n_cells",
        "_step_table", "_cube_table", "_hash", "__weakref__",
    )

    def __init__(self, kind: str, cells: Optional[Sequence[Cell]], parity: int,
                 dims: Optional[Cell] = None, periods: Optional[Cell] = None):
        self.kind = kind
        self.parity = parity
        self.dims = dims
        self.periods = periods
        if cells is None:
            L, M, N = dims or periods
            self.n_cells = L * M * N
        else:
            self._set_tables(sorted(cells))
            self.n_cells = len(self.cells)
        self._step_table: Optional[tuple[tuple[int, ...], ...]] = None
        self._cube_table: Optional[CubeTable] = None
        self._hash = hash(self._key())

    def _set_tables(self, cells: Sequence[Cell]) -> None:
        parity = self.parity
        self.cells: tuple[Cell, ...] = tuple(cells)
        self.index: dict[Cell, int] = dict(zip(self.cells, range(len(self.cells))))
        self.colors: tuple[int, ...] = tuple(
            1 if (x + y + z + parity) % 2 == 0 else -1
            for (x, y, z) in self.cells
        )

    # -- the dual graph --------------------------------------------------

    @property
    def step_table(self) -> tuple[tuple[int, ...], ...]:
        """Per cell index, the index of the cell one step away in each of the
        six DIRECTIONS, or -1 where the step leaves the region. On a
        period-2 torus axis both steps name the same cell."""
        if self._step_table is None:
            if self.kind == "voxels":
                index, step = self.index, self.step
                self._step_table = tuple(
                    tuple(index.get(step(cell, d), -1) for d in range(6))
                    for cell in self.cells)
            else:
                self._step_table = self._lattice_steps()
        return self._step_table

    def _lattice_steps(self) -> tuple[tuple[int, ...], ...]:
        # One column per direction, i + stride or i - stride. The cells on
        # the face that the step leaves by are a run of stride indices in
        # every span of stride * size; their entries are set to -1 on a box
        # and wrapped back by one span on a torus.
        torus = self.periods is not None
        L, M, N = sizes = self.dims or self.periods
        n = self.n_cells
        columns = []
        for axis, stride in enumerate((M * N, N, 1)):
            span = stride * sizes[axis]
            for sign in (1, -1):
                column = list(range(sign * stride, n + sign * stride))
                face = span - stride if sign > 0 else 0
                for a in range(face, n, span):
                    if torus:
                        j = column[a] - sign * span
                        column[a:a + stride] = range(j, j + stride)
                    else:
                        column[a:a + stride] = [-1] * stride
                columns.append(column)
        return tuple(zip(*columns))

    @property
    def cube_table(self) -> CubeTable:
        """The 2x2x2 cubes with at least 7 of their 8 cells in the region:
        anchors are their sorted minimal corners, cubes[r] the cell indices
        of anchor r's cube in CUBE_OFFSETS order (-1 off the region), and
        cell_anchors[i] the ranks r, increasing, of the cubes that hold cell
        i. On a torus every cell anchors a cube, except along a period-2
        axis, where anchor coordinates 0 and 1 span the same cells and only
        0 is kept; so no two cubes hold the same cells."""
        if self._cube_table is None:
            anchors, cubes = (self._voxel_cubes() if self.kind == "voxels"
                              else self._lattice_cubes())
            cell_anchors: list[list[int]] = [[] for _ in range(self.n_cells)]
            for r, cube in enumerate(cubes):
                for c in cube:
                    if c >= 0:
                        cell_anchors[c].append(r)
            self._cube_table = CubeTable(
                tuple(anchors), tuple(cubes), tuple(map(tuple, cell_anchors)))
        return self._cube_table

    def _lattice_cubes(self) -> tuple[list[Cell], list[tuple[int, ...]]]:
        # A box's cubes are its full 2x2x2 blocks; a torus anchors one at
        # every cell and wraps it, but once along a period-2 axis, whose
        # second anchor would span the first one's cells. Per axis, anchor
        # coordinate k gives the index terms of k and k + 1, and a cube sums
        # one term per axis.
        torus = self.periods is not None
        L, M, N = sizes = self.dims or self.periods
        ranges = [range(size if torus and size > 2 else size - 1) for size in sizes]
        terms = [[(k * stride, (k + 1) % size * stride) for k in span]
                 for span, size, stride in zip(ranges, sizes, (M * N, N, 1))]
        cubes = [tuple(x + y + z for x in xs for y in ys for z in zs)
                 for xs, ys, zs in product(*terms)]
        return list(product(*ranges)), cubes

    def _voxel_cubes(self) -> tuple[list[Cell], list[tuple[int, ...]]]:
        index = self.index
        corners = sorted({(x - dx, y - dy, z - dz)
                          for (x, y, z) in self.cells for (dx, dy, dz) in CUBE_OFFSETS})
        cubes = [tuple(index.get((x + dx, y + dy, z + dz), -1)
                       for (dx, dy, dz) in CUBE_OFFSETS) for (x, y, z) in corners]
        kept = [r for r, cube in enumerate(cubes) if cube.count(-1) <= 1]
        return [corners[r] for r in kept], [cubes[r] for r in kept]

    # -- basic queries ---------------------------------------------------

    @property
    def is_torus(self) -> bool:
        return self.kind == "torus"

    @property
    def is_box(self) -> bool:
        return self.kind == "box"

    def contains(self, cell: Cell) -> bool:
        return self.reduce(cell) in self.index

    def color(self, cell: Cell) -> int:
        x, y, z = self.reduce(cell)
        return 1 if (x + y + z + self.parity) % 2 == 0 else -1

    def reduce(self, cell: Cell) -> Cell:
        """Reduce coordinates modulo the periods (identity off the torus)."""
        if self.periods is None:
            return cell
        a, b, c = self.periods
        return (cell[0] % a, cell[1] % b, cell[2] % c)

    def step(self, cell: Cell, direction: int) -> Cell:
        """The neighboring lattice cell in the given direction, reduced,
        whether or not it lies in the region."""
        d = DIRECTIONS[direction]
        return self.reduce((cell[0] + d[0], cell[1] + d[1], cell[2] + d[2]))

    def boundary_faces(self) -> tuple[tuple[Cell, int], ...]:
        """Exterior unit squares as (cell, outward direction index) pairs."""
        return tuple((cell, d) for cell, row in zip(self.cells, self.step_table)
                     for d in range(6) if row[d] < 0)

    # -- equality and serialization ---------------------------------------

    def _key(self):
        if self.kind == "voxels":
            return (self.kind, self.cells, self.parity, self.periods)
        return (self.kind, self.dims, self.parity, self.periods)

    def __eq__(self, other) -> bool:
        return isinstance(other, Region) and self._key() == other._key()

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if self.kind == "box":
            return "Region(box %dx%dx%d)" % self.dims
        if self.kind == "torus":
            return "Region(torus %dx%dx%d)" % self.periods
        return "Region(voxels, %d cells)" % self.n_cells

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def to_dict(self) -> dict:
        if self.kind == "box":
            return {"kind": "box", "dims": list(self.dims)}
        if self.kind == "torus":
            return {"kind": "torus", "periods": list(self.periods)}
        return {
            "kind": "voxels",
            "cells": [list(c) for c in self.cells],
            "parity": self.parity,
        }


class _UnbuiltRegion(Region):
    """A box or torus whose cells, index and colors are not built yet.

    The first read of any of them builds all three and turns the region into
    a plain Region. A class with __getattr__ sends every attribute read
    through a hook that the interpreter does not specialise, so readers of
    a region in hot loops keep plain slot reads only once it has left this
    class.
    """

    __slots__ = ()

    def __getattr__(self, name: str):
        # reached only for unset slots and unknown names
        if name not in ("cells", "index", "colors"):
            raise AttributeError(name)
        L, M, N = self.dims or self.periods
        self._set_tables(product(range(L), range(M), range(N)))
        self.__class__ = Region
        return getattr(self, name)


def _is_int(v) -> bool:
    # bool is an int subclass, but True is not a size or a coordinate
    return isinstance(v, int) and not isinstance(v, bool)


def build_box(L: int, M: int, N: int) -> Region:
    """The L x M x N box with cells (x, y, z), 0 <= x < L etc."""
    for v in (L, M, N):
        if not _is_int(v) or v < 1:
            raise RegionError("dimension", "box dimensions must be positive integers")
    if L % 2 and M % 2 and N % 2:
        raise RegionError("balance", "unbalanced region: all box dimensions are odd")
    if max(L, M, N) > COORD_LIMIT:
        raise RegionError("dimension", "box dimension exceeds coordinate range")
    return _UnbuiltRegion("box", None, parity=0, dims=(L, M, N))


def build_torus(a: int, b: int, c: int) -> Region:
    """The torus with rectangular periods (a, b, c), all even and >= 2."""
    for v in (a, b, c):
        if not _is_int(v) or v < 2 or v % 2:
            raise RegionError("parity", "torus periods must be even integers >= 2")
    if max(a, b, c) > COORD_LIMIT:
        raise RegionError("dimension", "torus period exceeds coordinate range")
    return _UnbuiltRegion("torus", None, parity=0, periods=(a, b, c))


def build_voxel_region(cells: Iterable[Sequence[int]], parity: int = 0) -> Region:
    """Validate an explicit cell list and build the region.

    Checks, in order: nonempty and duplicate-free input, coordinate range,
    local manifold conditions at edges and vertices, face-connectivity, and
    color balance. The first violated condition is reported via RegionError
    with a matching .condition attribute.
    """
    try:
        cell_list = [tuple(_coordinate(v) for v in c) for c in cells]
    except TypeError:
        raise RegionError("dimension", "cells must be integer 3-vectors") from None
    if not cell_list:
        raise RegionError("empty", "empty region")
    cell_set = set(cell_list)
    if len(cell_set) != len(cell_list):
        raise RegionError("duplicate", "duplicate cell in region input")
    for c in cell_list:
        if len(c) != 3:
            raise RegionError("dimension", "cells must be integer 3-vectors")
        if max(abs(v) for v in c) > COORD_LIMIT:
            raise RegionError("dimension", "cell coordinate exceeds range")
    if not _is_int(parity) or parity not in (0, 1):
        raise RegionError("parity", "parity flag must be 0 or 1")

    bad_edge = _find_nonmanifold_edge(cell_set)
    if bad_edge is not None:
        raise RegionError(
            "non-manifold edge",
            "non-manifold edge at %r: exactly two cells touch only along it" % (bad_edge,),
        )
    bad_vertex = _find_nonmanifold_vertex(cell_set)
    if bad_vertex is not None:
        raise RegionError(
            "non-manifold vertex",
            "non-manifold vertex at %r: incident cells do not form a disk-like link" % (bad_vertex,),
        )
    if not _face_connected(cell_set):
        raise RegionError("connectivity", "region is not face-connected")
    black = sum(1 for (x, y, z) in cell_set if (x + y + z + parity) % 2 == 0)
    white = len(cell_set) - black
    if black != white:
        raise RegionError(
            "balance", "unbalanced region: %d black vs %d white cells" % (black, white)
        )
    return Region("voxels", cell_list, parity=parity)


def _coordinate(v) -> int:
    """An integer coordinate (numpy integers included); anything else, a
    float or a string or a bool, is refused rather than truncated."""
    if isinstance(v, bool):
        raise RegionError("dimension", "cell coordinate %r is not an integer" % (v,))
    try:
        return operator.index(v)
    except TypeError:
        raise RegionError("dimension", "cell coordinate %r is not an integer" % (v,)) from None


def _edge_incidence(cell_set: set[Cell]) -> dict[tuple, list[Cell]]:
    """Map each lattice edge key to the present cells incident to it.

    An edge parallel to the axis k at transverse lattice coordinates (u, v)
    starting at height w is keyed (k, u, v, w); up to four cells share it.
    """
    incidence: dict[tuple, list[Cell]] = {}
    for (x, y, z) in cell_set:
        for k in range(3):
            t1, t2 = [ax for ax in range(3) if ax != k]
            base = (x, y, z)
            for du in (0, 1):
                for dv in (0, 1):
                    u = base[t1] + du
                    v = base[t2] + dv
                    key = (k, u, v, base[k])
                    incidence.setdefault(key, []).append((x, y, z))
    return incidence


def _find_nonmanifold_edge(cell_set: set[Cell]) -> Optional[tuple]:
    # Exactly two incident cells that disagree in both transverse coordinates
    # touch only along the edge itself: the forbidden diagonal pattern.
    for key, incident in sorted(_edge_incidence(cell_set).items()):
        if len(incident) != 2:
            continue
        a, b = incident
        if sum(1 for i in range(3) if a[i] != b[i]) == 2:
            return key
    return None


def _octant_component_count(pattern: set[Cell]) -> int:
    seen: set[Cell] = set()
    count = 0
    for start in sorted(pattern):
        if start in seen:
            continue
        count += 1
        stack = [start]
        seen.add(start)
        while stack:
            cur = stack.pop()
            for axis in range(3):
                nxt = list(cur)
                nxt[axis] ^= 1
                nxt_t = tuple(nxt)
                if nxt_t in pattern and nxt_t not in seen:
                    seen.add(nxt_t)
                    stack.append(nxt_t)
    return count


def _find_nonmanifold_vertex(cell_set: set[Cell]) -> Optional[Cell]:
    """First lattice vertex whose link is not disk- or sphere-like.

    The eight cells around a vertex form octants of a 2x2x2 block; the region
    is locally a manifold at the vertex iff both the present pattern and its
    complement are face-connected (empty parts pass vacuously).
    """
    corners: set[Cell] = set()
    for (x, y, z) in cell_set:
        for dx in (0, 1):
            for dy in (0, 1):
                for dz in (0, 1):
                    corners.add((x + dx, y + dy, z + dz))
    for corner in sorted(corners):
        pattern = {
            o for o in CUBE_OFFSETS
            if (corner[0] - 1 + o[0], corner[1] - 1 + o[1], corner[2] - 1 + o[2]) in cell_set
        }
        complement = set(CUBE_OFFSETS) - pattern
        if _octant_component_count(pattern) > 1:
            return corner
        if complement and _octant_component_count(complement) > 1:
            return corner
    return None


def _face_connected(cell_set: set[Cell]) -> bool:
    start = next(iter(sorted(cell_set)))
    seen = {start}
    stack = [start]
    while stack:
        (x, y, z) = stack.pop()
        for (dx, dy, dz) in DIRECTIONS:
            nxt = (x + dx, y + dy, z + dz)
            if nxt in cell_set and nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == len(cell_set)


def refine_region(r: Region, k: int) -> Region:
    """Subdivide every cell into 5x5x5 subcells, k times, for an int k >= 0.

    Corner subcells keep the color of the original cell, so the global
    parity flag carries over unchanged. Raises BudgetExceeded, before
    building anything, when the result would have more than REFINE_BUDGET
    cells.
    """
    if type(k) is not int or k < 0:
        raise ValueError("refinement count must be a nonnegative int, not %r" % (k,))
    # one factor at a time, so a huge k stops at once instead of raising
    # 125 to the k-th power
    n_cells = r.n_cells
    for _ in range(k):
        n_cells *= 125
        if n_cells > REFINE_BUDGET:
            raise BudgetExceeded("refining %r %d times needs %d x 125^%d cells, more "
                                 "than the refinement budget of %d"
                                 % (r, k, r.n_cells, k, REFINE_BUDGET))
    if k == 0:
        return r
    scale = 5 ** k
    if r.kind == "box":
        L, M, N = r.dims
        return build_box(L * scale, M * scale, N * scale)
    if r.kind == "torus":
        a, b, c = r.periods
        return build_torus(a * scale, b * scale, c * scale)
    cells = [
        (x * scale + i, y * scale + j, z * scale + l)
        for (x, y, z) in r.cells
        for i in range(scale) for j in range(scale) for l in range(scale)
    ]
    return Region("voxels", cells, parity=r.parity)


def region_from_json(text: str) -> Region:
    return region_from_dict(json.loads(text))


def _sizes(data: dict, key: str) -> list:
    sizes = data.get(key)
    if not isinstance(sizes, list) or len(sizes) != 3:
        raise RegionError("dimension", "%s region needs %r: a list of 3 integers"
                          % (data["kind"], key))
    return sizes


def region_from_dict(data: dict) -> Region:
    if not isinstance(data, dict):
        raise RegionError("dimension", "region must be a JSON object")
    kind = data.get("kind")
    if kind == "box":
        return build_box(*_sizes(data, "dims"))
    if kind == "torus":
        return build_torus(*_sizes(data, "periods"))
    if kind == "voxels":
        return build_voxel_region(data.get("cells"), parity=data.get("parity", 0))
    raise ValueError("unknown region kind: %r" % (kind,))
