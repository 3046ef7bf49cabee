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
import sys
from array import array
from collections import namedtuple
from collections.abc import Iterable, Sequence
from functools import lru_cache
from itertools import product
from typing import Optional

Cell = tuple[int, int, int]

#: Canonical direction order: +x, -x, +y, -y, +z, -z.
DIRECTIONS: tuple[Cell, ...] = (
    (1, 0, 0), (-1, 0, 0),
    (0, 1, 0), (0, -1, 0),
    (0, 0, 1), (0, 0, -1),
)

#: direction index -> coordinate axis (0, 1 or 2).
DIR_AXIS = (0, 0, 1, 1, 2, 2)

AXIS_NAMES = ("x", "y", "z")

#: Offsets of a 2x2x2 cube's cells from its anchor, in position order: the
#: position of offset (dx, dy, dz) is 4 dx + 2 dy + dz.
CUBE_OFFSETS: tuple[Cell, ...] = tuple(product((0, 1), repeat=3))

#: Largest voxel coordinate magnitude; a box or torus size past it has over CELL_LIMIT cells.
COORD_LIMIT = 2**31 - 1

#: Most cells a box or torus may have. A packed tiling keeps n + mate[i] - i,
#: up to 2 n - 1, in a signed 4-byte lane (tilings._mate_of_offsets).
CELL_LIMIT = 2**30

#: Most cells refine_region will build. `tritile refine box 3 3 2 -k 2`
#: (281,250 cells) peaks at 245 MB resident (Python 3.11), under 1 KB per
#: refined cell, nearly all of it the report and the cell tables it reads;
#: the packed tiling holds 4 bytes a cell. So the budget keeps a refinement
#: report under 1 GB.
REFINE_BUDGET = 1_000_000


class RegionError(ValueError):
    """Rejection of a candidate region, naming the first violated condition."""

    def __init__(self, condition: str, message: str):
        super().__init__(message)
        self.condition = condition


class BudgetExceeded(ValueError):
    """An exponential computation stopped at its fixed work budget."""


#: Region.cube_table; see there.
CubeTable = namedtuple("CubeTable", "cubes cell_anchors")


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
        "_step_table", "_cube_table", "_whites", "_hash", "__weakref__",
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
        self._whites: Optional[array] = None
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
        """The 2x2x2 cubes with at least 7 of their 8 cells in the region, in
        the order of their anchors (minimal corners, not stored): cubes[r]
        the cell indices of cube r in CUBE_OFFSETS order (-1 off the region),
        and cell_anchors[i] the ranks r, increasing, of the cubes that hold
        cell i. On a torus every cell anchors a cube, except along a period-2
        axis, where anchor coordinates 0 and 1 span the same cells and only
        0 is kept; so no two cubes hold the same cells. On a box or torus
        cell_anchors answers each read by index arithmetic
        (_LatticeCellAnchors), so only the cubes are built."""
        if self._cube_table is None:
            self._cube_table = (self._voxel_cubes() if self.kind == "voxels"
                                else self._lattice_cubes())
        return self._cube_table

    def _lattice_cubes(self) -> CubeTable:
        # A box's cubes are its full 2x2x2 blocks; a torus anchors one at
        # every cell and wraps it, but once along a period-2 axis, whose
        # second anchor would span the first one's cells. Per axis, anchor
        # coordinate k gives the index terms of k and k + 1, and a cube sums
        # one term per axis, written out in CUBE_OFFSETS order.
        torus = self.periods is not None
        L, M, N = sizes = self.dims or self.periods
        counts = [size if torus and size > 2 else size - 1 for size in sizes]
        xs, ys, zs = [[(k * stride, (k + 1) % size * stride) for k in range(count)]
                      for count, size, stride in zip(counts, sizes, (M * N, N, 1))]
        cubes = []
        for x0, x1 in xs:
            for y0, y1 in ys:
                a, b, c, d = x0 + y0, x0 + y1, x1 + y0, x1 + y1
                cubes += [(a + z0, a + z1, b + z0, b + z1, c + z0, c + z1, d + z0, d + z1)
                          for z0, z1 in zs]
        return CubeTable(tuple(cubes), _LatticeCellAnchors(sizes, counts))

    def _voxel_cubes(self) -> CubeTable:
        # the cube anchored at a is the block of vertex a + (1, 1, 1)
        index = self.index
        vertices = sorted(v for v, m in _octant_masks(self.cells).items() if m.bit_count() >= 7)
        cubes = [tuple(index.get((x - 1 + dx, y - 1 + dy, z - 1 + dz), -1)
                       for (dx, dy, dz) in CUBE_OFFSETS) for (x, y, z) in vertices]
        cell_anchors: list[list[int]] = [[] for _ in range(self.n_cells)]
        for r, cube in enumerate(cubes):
            for c in cube:
                if c >= 0:
                    cell_anchors[c].append(r)
        return CubeTable(tuple(cubes), tuple(map(tuple, cell_anchors)))

    @property
    def whites(self) -> array:
        """The indices of the white cells, increasing, as one packed
        array('i'), built on first access and kept as long as the region.
        On a box or torus it is read off the sizes (_lattice_whites), and
        the cell tables are not built."""
        if self._whites is None:
            if self.kind == "voxels":
                self._whites = array("i", [i for i, c in enumerate(self.colors) if c == -1])
            else:
                self._whites = _lattice_whites(self.dims or self.periods)
        return self._whites

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

    def __reduce__(self):
        # a box or torus pickles as its sizes, with no table built or kept
        if self.kind == "box":
            return build_box, self.dims
        if self.kind == "torus":
            return build_torus, self.periods
        return Region, (self.kind, self.cells, self.parity)

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


def _lane_sum(arrays: Sequence[array], plus: int = 0) -> array:
    """The elementwise sum of packed arrays('i') of one length, plus a
    constant: each array read as one int of 4-byte lanes, and the ints
    summed. The entries must be nonnegative, as a lane is read unsigned,
    and every lane's sum must lie in 0 .. 2 ** 31 - 1; then the sum's lanes
    are exactly the lane sums, whatever the order of the terms, and no int
    object is made per entry."""
    order = sys.byteorder
    m = len(arrays[0])
    ones = int.from_bytes((1).to_bytes(4, order) * m, order)
    total = sum(int.from_bytes(a, order) for a in arrays) + plus * ones
    return array("i", total.to_bytes(4 * m, order))


#: Cells whose mate entries tilings._mate_of_offsets reads off at once, in
#: ints of 64 KB (blocks of 256 KB lifted the invariants workload's peak RSS
#: by 1.5 MB at no gain in time), and the most cell indices _index_array
#: keeps.
_BLOCK = 1 << 14

#: The cell indices 0, 1, 2, ... that _index_array keeps: grown on demand,
#: never past _BLOCK entries (64 KB).
_INDICES = array("i", [0])


def _grow_indices(a: array, n: int) -> array:
    """Extend a = array("i", range(len(a))), len(a) >= 1, in place to
    array("i", range(n)) by doubling with _lane_sum, and return it."""
    while len(a) < n:
        a += _lane_sum([a[:n - len(a)]], len(a))
    return a


def _index_array(n: int) -> array:
    """array("i", range(n)), a new array. Its first _BLOCK entries at most
    are copied from _INDICES, which the first call that needs more grows
    and keeps (64 KB at most); a longer array doubles on from them."""
    _grow_indices(_INDICES, min(n, _BLOCK))
    return _grow_indices(_INDICES[:n], n)


def _lattice_whites(sizes: Cell) -> array:
    """Region.whites of a box or torus. A cell is white where x + y + z is
    odd, so each row of N cells along z holds every other index from its
    first white one: one strided slice of _index_array per row of the first
    two slabs along x. Slab x + 2 repeats slab x shifted by 2 M N cells, so
    that run of whites doubles (_lane_sum) while it spans at most _BLOCK
    cells, and is then appended, shifted, for the rest; whites past the L
    slabs are cut off. Doubling no further keeps the peak near the result's
    size."""
    L, M, N = sizes
    cells = _index_array(min(L, 2) * M * N)
    whites = array("i")
    for x in range(min(L, 2)):
        for y in range(M):
            row = (x * M + y) * N
            whites += cells[row + 1 - (x + y) % 2:row + N:2]
    del cells
    span, end = 2 * M * N, L * M * N
    while 2 * span <= min(end, _BLOCK):
        whites += _lane_sum([whites], span)
        span *= 2
    run = whites[:]
    for start in range(span, end, span):
        whites += _lane_sum([run], start)
    # x + y + z is even at cell 0, so the odd sums are the smaller half
    del whites[end // 2:]
    return whites


class _LatticeCellAnchors(Sequence):
    """Region.cube_table's cell_anchors on a box or torus, each read by
    index arithmetic. Along an axis of the given size with count anchor
    coordinates, the cubes over coordinate x are anchored at x - 1 and at
    x, wrapped on a torus and kept where below count (on a box, -1 wraps to
    size - 1, which is never below count). Cell (x, y, z) lies in the cubes
    of each choice of one such anchor coordinate per axis, and with each
    axis's choices sorted their ranks, (a * counts[1] + b) * counts[2] + c
    for anchor (a, b, c), come out increasing."""

    __slots__ = ("_sizes", "_counts", "_options")

    def __init__(self, sizes: Sequence[int], counts: Sequence[int]):
        self._sizes, self._counts = tuple(sizes), tuple(counts)
        self._options = tuple(
            tuple(tuple(sorted({k for k in ((x - 1) % size, x) if k < count}))
                  for x in range(size))
            for size, count in zip(sizes, counts))

    def __len__(self) -> int:
        L, M, N = self._sizes
        return L * M * N

    def __getitem__(self, i: int) -> tuple[int, ...]:
        _L, M, N = self._sizes
        xy, z = divmod(range(len(self))[i], N)
        x, y = divmod(xy, M)
        xs, ys, zs = self._options
        _a, b, c = self._counts
        return tuple((p * b + q) * c + r for p in xs[x] for q in ys[y] for r in zs[z])


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
    _refuse_past_cell_limit("box", (L, M, N))
    return _UnbuiltRegion("box", None, parity=0, dims=(L, M, N))


def build_torus(a: int, b: int, c: int) -> Region:
    """The torus with rectangular periods (a, b, c), all even and >= 2."""
    for v in (a, b, c):
        if not _is_int(v) or v < 2 or v % 2:
            raise RegionError("parity", "torus periods must be even integers >= 2")
    _refuse_past_cell_limit("torus", (a, b, c))
    return _UnbuiltRegion("torus", None, parity=0, periods=(a, b, c))


def _refuse_past_cell_limit(kind: str, sizes: Cell) -> None:
    n = sizes[0] * sizes[1] * sizes[2]
    if n > CELL_LIMIT:
        raise RegionError("dimension", "%s %d %d %d has %d cells, more than the limit of %d"
                          % (kind, *sizes, n, CELL_LIMIT))


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

    masks = _octant_masks(cell_set)
    bad_edge = _find_nonmanifold_edge(masks)
    if bad_edge is not None:
        raise RegionError(
            "non-manifold edge",
            "non-manifold edge at %r: exactly two cells touch only along it" % (bad_edge,),
        )
    bad_vertex = _find_nonmanifold_vertex(masks)
    if bad_vertex is not None:
        raise RegionError(
            "non-manifold vertex",
            "non-manifold vertex at %r: incident cells do not form a disk-like link" % (bad_vertex,),
        )
    if _component_count(cell_set) != 1:
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


def _octant_masks(cells: Iterable[Cell]) -> dict[Cell, int]:
    """Map each lattice vertex v touched by the cells to the 8-bit mask of
    its block: bit p is set iff the cell v - 1 + CUBE_OFFSETS[p] is
    present."""
    masks: dict[Cell, int] = {}
    for (x, y, z) in cells:
        for p, (dx, dy, dz) in enumerate(CUBE_OFFSETS):
            v = (x + 1 - dx, y + 1 - dy, z + 1 - dz)
            masks[v] = masks.get(v, 0) | 1 << p
    return masks


#: Per axis k, the mask of a block's far half along k (position bit 4 >> k
#: set) and the masks of its two diagonal pairs (positions XOR to 7 ^ bit).
_EDGE_HALVES = tuple(
    (sum(1 << p for p in range(8) if p & bit),
     frozenset(1 << p | 1 << (p ^ 7 ^ bit) for p in range(8) if p & bit))
    for bit in (4, 2, 1))


def _find_nonmanifold_edge(masks: dict[Cell, int]) -> Optional[tuple]:
    """The least key (k, u, v, w) of an edge along axis k, at transverse
    lattice coordinates (u, v) from height w, whose two incident cells
    touch only along it: a diagonal pair in its lower vertex's far half."""
    return min(((k, *(v[a] for a in range(3) if a != k), v[k])
                for v, m in masks.items()
                for k, (half, diagonals) in enumerate(_EDGE_HALVES) if m & half in diagonals),
               default=None)


def _component_count(cells: set[Cell]) -> int:
    """The number of face-connected components of a set of cells. On a
    subset of {0,1}^3 a step of +1 or -1 along an axis is a bit flip."""
    seen: set[Cell] = set()
    count = 0
    for start in cells:
        if start in seen:
            continue
        count += 1
        seen.add(start)
        stack = [start]
        while stack:
            x, y, z = stack.pop()
            for dx, dy, dz in DIRECTIONS:
                nxt = (x + dx, y + dy, z + dz)
                if nxt in cells and nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return count


@lru_cache(maxsize=256)
def _is_manifold_block(mask: int) -> bool:
    """Whether the region is locally a manifold at a vertex whose block
    holds the cells of mask (_octant_masks): iff both the present pattern
    and its complement are face-connected (empty parts pass vacuously)."""
    present = {o for p, o in enumerate(CUBE_OFFSETS) if mask >> p & 1}
    return (_component_count(present) <= 1
            and _component_count(set(CUBE_OFFSETS) - present) <= 1)


def _find_nonmanifold_vertex(masks: dict[Cell, int]) -> Optional[Cell]:
    """The least lattice vertex whose link is not disk- or sphere-like."""
    return min((v for v, m in masks.items() if not _is_manifold_block(m)), default=None)


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


#: The keys that a region's JSON object may hold, by kind (Region.to_dict).
_REGION_KEYS = {"box": ("kind", "dims"), "torus": ("kind", "periods"),
               "voxels": ("kind", "cells", "parity")}


def _refuse_unknown_keys(data: dict, allowed: Sequence[str], what: str) -> None:
    """Raise RegionError("keys") naming the keys of data outside allowed:
    a misspelt or stray key is refused, not ignored."""
    unknown = [key for key in data if key not in allowed]
    if unknown:
        raise RegionError("keys", "%s has unknown key%s %s (allowed: %s)" % (
            what, "s" if len(unknown) > 1 else "", ", ".join(map(repr, unknown)),
            ", ".join(allowed)))


def region_from_dict(data: dict) -> Region:
    """The region of a JSON object as Region.to_dict writes it. Raises
    RegionError for a key that its kind does not hold, and ValueError for
    an unknown kind."""
    if not isinstance(data, dict):
        raise RegionError("dimension", "region must be a JSON object")
    kind = data.get("kind")
    if isinstance(kind, str) and kind in _REGION_KEYS:
        _refuse_unknown_keys(data, _REGION_KEYS[kind], "a %s region" % kind)
    if kind == "box":
        return build_box(*_sizes(data, "dims"))
    if kind == "torus":
        return build_torus(*_sizes(data, "periods"))
    if kind == "voxels":
        return build_voxel_region(data.get("cells"), parity=data.get("parity", 0))
    raise ValueError("unknown region kind: %r" % (kind,))
