"""Tilings as perfect matchings of a region's dual graph.

A domino is stored as an oriented dimer from its white cell to its black
cell. On tori the direction field records the chosen lattice representative
of the step (the +axis step for degenerate period-2 adjacencies), which keeps
refinement and surface flux well defined.
"""

from __future__ import annotations

import json
from functools import lru_cache
from operator import add, sub
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .regions import (
    AXIS_NAMES, BudgetExceeded, Cell, Region, _coordinate, refine_region,
    region_from_dict,
)

_M64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _M64
    z = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _M64
    z = (z ^ (z >> 27)) * 0x94D649BB133111EB & _M64
    return z ^ (z >> 31)


class Dimer(NamedTuple):
    """One domino: white cell, black cell, and the unit step white -> black."""

    white: Cell
    black: Cell
    direction: Cell

    @property
    def axis(self) -> int:
        for k in range(3):
            if self.direction[k]:
                return k
        raise ValueError("degenerate dimer direction")

    @property
    def sign(self) -> int:
        """+1 when the black cell is ahead of the white cell along the axis."""
        return self.direction[self.axis]

    def cells(self) -> tuple[Cell, Cell]:
        return (self.white, self.black)


def _direction(region: Region, white: Cell, black: Cell) -> Cell:
    vec = [0, 0, 0]
    axis = None
    for k in range(3):
        delta = black[k] - white[k]
        if region.periods is not None:
            delta %= region.periods[k]
        if delta == 0:
            continue
        if axis is not None:
            raise ValueError("cells %r and %r are not adjacent" % (white, black))
        axis = k
        if region.periods is None:
            if delta not in (1, -1):
                raise ValueError("cells %r and %r are not adjacent" % (white, black))
            vec[k] = delta
        else:
            p = region.periods[k]
            if delta == 1:
                vec[k] = 1
            elif delta == p - 1:
                vec[k] = -1
            else:
                raise ValueError("cells %r and %r are not adjacent" % (white, black))
    if axis is None:
        raise ValueError("cells %r and %r are not adjacent" % (white, black))
    return tuple(vec)


def _adjacent(a: Cell, b: Cell, periods: Optional[Cell]) -> bool:
    """Whether two cells of a region, reduced onto a torus, share a face."""
    d = (abs(a[0] - b[0]), abs(a[1] - b[1]), abs(a[2] - b[2]))
    if periods is not None:
        d = map(min, d, map(sub, periods, d))
    return sum(d) == 1


class Tiling:
    """An immutable perfect matching of a region's cells."""

    __slots__ = ("region", "pairs", "_mate", "_dimers", "_hash64", "_steps")

    def __init__(self, region: Region, pairs: Iterable[tuple[int, int]]):
        self.region = region
        self.pairs: tuple[tuple[int, int], ...] = tuple(sorted(pairs))
        self._mate: Optional[tuple[int, ...]] = None
        self._dimers: Optional[tuple[Dimer, ...]] = None
        self._hash64: Optional[int] = None
        self._steps: Optional[tuple[Cell, ...]] = None

    @classmethod
    def _sorted(cls, region: Region, pairs: Iterable[tuple[int, int]],
                mate: Sequence[int]) -> "Tiling":
        """Pairs already in white-index order, and their mate array, taken
        as they are: no sort and no check."""
        t = cls.__new__(cls)
        t.region, t.pairs, t._mate = region, tuple(pairs), tuple(mate)
        t._dimers = t._hash64 = t._steps = None
        return t

    @classmethod
    def _from_mate(cls, region: Region, mate: Sequence[int]) -> "Tiling":
        colors = region.colors
        return cls._sorted(region, [(i, m) for i, m in enumerate(mate) if colors[i] == -1], mate)

    @classmethod
    def from_cell_pairs(cls, region: Region,
                        cell_pairs: Iterable[tuple[Sequence[int], Sequence[int]]]) -> "Tiling":
        """Build and validate a tiling from (cell, cell) pairs in any order.

        A cell of three ints is looked up in the region as it is; any other
        goes through _coordinate and, if it has three coordinates, is reduced
        onto a torus. Raises ValueError for a cell outside the region (one of
        another length included), a pair of one colour or of cells that share
        no face, and a cell covered twice or not at all.
        """
        index, colors, periods = region.index, region.colors, region.periods
        get = index.get
        mate = [-1] * region.n_cells
        pairs = []
        for a, b in cell_pairs:
            a, b = tuple(a), tuple(b)
            i = j = None
            # bools and floats equal to ints would match a cell of the index
            if (len(a) == len(b) == 3 and type(a[0]) is type(a[1]) is type(a[2]) is int
                    and type(b[0]) is type(b[1]) is type(b[2]) is int):
                i, j = get(a), get(b)
            if i is None or j is None:
                a, b = tuple(map(_coordinate, a)), tuple(map(_coordinate, b))
                # a cell of another length is kept as it is, outside the index
                a, b = (region.reduce(c) if len(c) == 3 else c for c in (a, b))
                for c in (a, b):
                    if c not in index:
                        raise ValueError("cell %r is not in the region" % (c,))
                i, j = index[a], index[b]
            if colors[i] == colors[j]:
                raise ValueError("dimer %r-%r joins same-color cells" % (a, b))
            if colors[i] == 1:
                a, b, i, j = b, a, j, i
            if not _adjacent(a, b, periods):
                raise ValueError("cells %r and %r are not adjacent" % (a, b))
            for c, k in ((a, i), (b, j)):
                if mate[k] != -1:
                    raise ValueError("cell covered twice: %r" % (c,))
            mate[i] = j
            mate[j] = i
            pairs.append((i, j))
        if -1 in mate:
            raise ValueError("cell uncovered: %r" % (region.cells[mate.index(-1)],))
        t = cls(region, pairs)
        t._mate = tuple(mate)
        return t

    # -- derived views ----------------------------------------------------

    @property
    def mate(self) -> tuple[int, ...]:
        if self._mate is None:
            mate = [-1] * self.region.n_cells
            for wi, bi in self.pairs:
                mate[wi] = bi
                mate[bi] = wi
            self._mate = tuple(mate)
        return self._mate

    @property
    def dimers(self) -> tuple[Dimer, ...]:
        if self._dimers is None:
            cells = self.region.cells
            self._dimers = tuple(
                Dimer(cells[wi], cells[bi], _direction(self.region, cells[wi], cells[bi]))
                for wi, bi in self.pairs
            )
        return self._dimers

    @property
    def steps(self) -> tuple[Cell, ...]:
        """Per cell index, the geometric unit step toward the cell's partner.

        Along axes of period 2 the doubled adjacency is lifted to the
        non-wrapping edge (the raw coordinate delta), regardless of the
        stored +axis direction representative: difference cycles and
        surface sides read this field, and only the non-wrapping lift keeps
        flux through a surface invariant under flips and trits on degenerate
        tori. flux does not read it; it takes the same lift from t.pairs.
        """
        if self._steps is None:
            periods = self.region.periods
            steps: list[Cell] = [None] * self.region.n_cells  # type: ignore
            for d, (wi, bi) in zip(self.dimers, self.pairs):
                step = list(d.direction)
                if periods is not None and periods[d.axis] == 2:
                    step[d.axis] = d.black[d.axis] - d.white[d.axis]
                vx, vy, vz = step
                steps[wi] = (vx, vy, vz)
                steps[bi] = (-vx, -vy, -vz)
            self._steps = tuple(steps)
        return self._steps

    @property
    def hash64(self) -> int:
        """Order-independent 64-bit canonical hash (sorted fold of dimer codes)."""
        if self._hash64 is None:
            n = self.region.n_cells
            h = _splitmix64(n)
            for wi, bi in self.pairs:
                h = _splitmix64(h ^ _splitmix64(wi * n + bi))
            self._hash64 = h
        return self._hash64

    def validate(self) -> None:
        region = self.region
        colors, step = region.colors, region.step_table
        covered = [0] * region.n_cells
        for wi, bi in self.pairs:
            covered[wi] += 1
            covered[bi] += 1
            if colors[wi] != -1 or colors[bi] != 1:
                raise ValueError("mis-colored dimer (%d, %d)" % (wi, bi))
            if bi not in step[wi]:
                raise ValueError("non-adjacent dimer (%d, %d)" % (wi, bi))
        for i, c in enumerate(covered):
            if c > 1:
                raise ValueError("cell covered twice: %r" % (region.cells[i],))
            if c == 0:
                raise ValueError("cell uncovered: %r" % (region.cells[i],))

    def replace(self, remove: Iterable[Dimer], insert: Iterable[Dimer]) -> "Tiling":
        index = self.region.index
        removed_pairs = {
            (index[d.white], index[d.black]) for d in remove
        }
        pairs = [p for p in self.pairs if p not in removed_pairs]
        if len(pairs) != len(self.pairs) - len(removed_pairs):
            raise ValueError("stale move: a removed dimer is absent from the tiling")
        for d in insert:
            pairs.append((index[d.white], index[d.black]))
        t = Tiling(self.region, pairs)
        return t

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tiling)
            and self.region == other.region
            and self.pairs == other.pairs
        )

    def __hash__(self) -> int:
        return self.hash64

    def __repr__(self) -> str:
        return "Tiling(%r, %d dimers, hash %016x)" % (
            self.region, len(self.pairs), self.hash64)


def base_tiling(region: Region, axis) -> Tiling:
    """The brick tiling along an axis: all dimers parallel, offsets (2i, 2i+1).

    This is the flux-zero, twist-zero reference tiling.
    """
    k = _axis_index(axis)
    if region.kind == "box":
        extent = region.dims[k]
    elif region.kind == "torus":
        extent = region.periods[k]
    else:
        raise ValueError("base tiling requires a box or torus region")
    if extent % 2:
        raise ValueError("odd extent along axis %s" % AXIS_NAMES[k])
    mate = [-1] * region.n_cells
    for i, cell in enumerate(region.cells):
        if cell[k] % 2 == 0:
            other = list(cell)
            other[k] += 1
            j = region.index[tuple(other)]
            mate[i] = j
            mate[j] = i
    return Tiling._from_mate(region, mate)


def _axis_index(axis) -> int:
    # exact ints and names: True == 1 and 1.0 == 1 would pass a membership test
    if type(axis) is int and 0 <= axis <= 2:
        return axis
    if type(axis) is str and axis in AXIS_NAMES:
        return AXIS_NAMES.index(axis)
    raise ValueError("axis must be one of x, y, z")


def _neighbor_rows(region: Region) -> list[tuple[int, ...]]:
    """Per cell, its adjacent cell indices: the step table without its -1
    entries, and with a period-2 axis listed once, under its +axis."""
    return [tuple(j for d, j in enumerate(row)
                  if j >= 0 and not (d & 1 and j == row[d - 1]))
            for row in region.step_table]


def enumerate_tilings(region: Region) -> Iterator[Tiling]:
    """All tilings of the region, exactly once, in a canonical order.

    Depth-first backtracking on the lowest-indexed uncovered cell, branching
    over its neighbors in the canonical +x,-x,+y,-y,+z,-z order. The stream is
    deterministic, so a consumer can re-run and skip a prefix to resume.
    """
    for mate in _mates(region):
        yield Tiling._from_mate(region, mate)


def _mates(region: Region) -> Iterator[list[int]]:
    """The mate array of each tiling in enumerate_tilings order, as one
    reused list (see _perfect_matchings)."""
    rows = [[(j, j) for j in row] for row in _neighbor_rows(region)]
    for mate, _ in _perfect_matchings(rows):
        yield mate


def _perfect_matchings(rows: Sequence[Sequence[tuple]]) -> Iterator[tuple[list[int], list]]:
    """Every perfect matching of a graph on vertices 0..n-1, once each.

    rows[v] lists vertex v's options as (label, partner) pairs. The search
    matches the lowest unmatched vertex to each free partner in row order,
    depth first, with an explicit frame stack instead of recursion. Each
    matching is yielded as (mate, labels): mate[v] is v's partner and labels
    holds the chosen options' labels, lowest vertex first. Both lists are
    reused, so a consumer copies what it keeps. Labels tell parallel edges
    apart where partners cannot.
    """
    n = len(rows)
    if n == 0 or n % 2:
        return
    mate = [-1] * n
    labels: list = []
    frames = []  # (vertex, partner, remaining options) per chosen option
    v, rest = 0, iter(rows[0])
    while True:
        for label, u in rest:
            if mate[u] != -1:
                continue
            mate[v] = u
            mate[u] = v
            labels.append(label)
            nxt = v + 1
            while nxt < n and mate[nxt] != -1:
                nxt += 1
            if nxt == n:
                yield mate, labels
                labels.pop()
                mate[v] = mate[u] = -1
                continue
            frames.append((v, u, rest))
            v, rest = nxt, iter(rows[nxt])
            break
        else:
            if not frames:
                return
            v, u, rest = frames.pop()
            labels.pop()
            mate[v] = mate[u] = -1


#: Most partial-tiling states count_tilings keeps alive at once.
FRONTIER_BUDGET = 1 << 20

#: Most tilings that tritile enumerate lists, and that relative_twist
#: labels on a torus. A listed tiling of 16 dimers costs about 24 KB in an
#: enumerate report (box 2 4 4, 32,000 tilings: enumerate peaks at 783 MB
#: in 8-10 s), so 10^5 tilings stays within a few GB.
LISTING_BUDGET = 100_000

#: Most tilings that tritile components will take. It keeps a packed key
#: per tiling, not a Tiling: about 185 bytes and 23 us with flips, 30 us
#: with flips and trits, per tiling of 21 dimers (box 2 3 7, 880,163
#: tilings: 171 MB peak, 16 MB of it a bare start, in 21 s and 27 s), so
#: 10^6 tilings stays near 200 MB and 30 s.
COMPONENTS_BUDGET = 1_000_000


def _sweep_order(region: Region) -> list[int]:
    """Cell indices sorted with the widest bounding-box axis outermost."""
    cells = region.cells
    extent = [max(c[k] for c in cells) - min(c[k] for c in cells) for k in range(3)]
    outer = max(range(3), key=lambda k: (extent[k], -k))
    u, v = [k for k in range(3) if k != outer]
    return sorted(range(len(cells)),
                  key=lambda i: (cells[i][outer], cells[i][u], cells[i][v]))


def count_tilings(region: Region) -> int:
    """The number of tilings, by a frontier (broken-profile) DP.

    Cells are swept with the axis of largest bounding-box extent outermost
    (ties go to the lower axis), then the other two axes in order. The state
    is the set of cells ahead of the sweep that are already covered, as a
    bitmask relative to the current cell, mapped to its number of partial
    tilings. An uncovered current cell pairs with each uncovered later
    neighbour in _neighbor_rows: the lowest-uncovered-cell search of
    enumerate_tilings, memoised, so boxes, tori and voxel regions all work.
    Agrees with enumerate_tilings everywhere, including 0 for a region with
    no cells. Raises BudgetExceeded once more than FRONTIER_BUDGET states
    are alive.

    On a box or torus that happens for sure when a slice across the outer
    axis has w cells with 2^(w // 2) > FRONTIER_BUDGET: pair the slice's
    cells into w // 2 adjacent dominoes; each may lie in the slice or push
    both cells ahead, and those choices leave as many distinct states at
    the end of the first slice. So that case raises before any cell table
    is built.
    """
    n = region.n_cells
    if n == 0 or n % 2:
        return 0
    sizes = region.dims or region.periods
    if sizes is not None:
        outer = max(range(3), key=lambda k: (sizes[k], -k))  # as _sweep_order
        if 2 ** (n // sizes[outer] // 2) > FRONTIER_BUDGET:
            raise _frontier_exceeded(region)
    order = _sweep_order(region)
    pos = [0] * n
    for p, i in enumerate(order):
        pos[i] = p
    nbrs = _neighbor_rows(region)
    states = {0: 1}
    for p, i in enumerate(order):
        bits = [1 << (pos[j] - p) for j in nbrs[i] if pos[j] > p]
        nxt: dict[int, int] = {}
        get = nxt.get
        for mask, count in states.items():
            if mask & 1:
                m = mask >> 1
                nxt[m] = get(m, 0) + count
            else:
                for b in bits:
                    if not mask & b:
                        m = (mask | b) >> 1
                        nxt[m] = get(m, 0) + count
            if len(nxt) > FRONTIER_BUDGET:
                raise _frontier_exceeded(region)
        states = nxt
    return states.get(0, 0)


def _frontier_exceeded(region: Region) -> BudgetExceeded:
    return BudgetExceeded("counting the tilings of %r needs more than %d frontier states"
                         % (region, FRONTIER_BUDGET))


def _budgeted_count(region: Region, budget: int, name: str) -> int:
    """count_tilings(region), raising BudgetExceeded above budget tilings
    (LISTING_BUDGET or COMPONENTS_BUDGET), or when the count itself runs
    out of frontier states."""
    count = count_tilings(region)
    if count > budget:
        raise BudgetExceeded("%r has %d tilings, more than the %s budget of %d"
                             % (region, count, name, budget))
    return count


class Cycle(NamedTuple):
    """One closed walk of a difference cycle system.

    cells[m] -> cells[m+1] is traversed with the unit vector steps[m];
    sources[m] is 1 when that edge is a dimer of t1 (walked white to black)
    and 0 when it is a dimer of t0 (walked black to white).
    """

    cells: tuple[Cell, ...]
    steps: tuple[Cell, ...]
    sources: tuple[int, ...]

    @property
    def trivial(self) -> bool:
        return len(self.cells) == 2


class CycleSystem:
    """The difference t1 - t0 decomposed into disjoint oriented cycles."""

    __slots__ = ("region", "cycles")

    def __init__(self, region: Region, cycles: Sequence[Cycle]):
        self.region = region
        self.cycles = tuple(cycles)

    @property
    def nontrivial(self) -> tuple[Cycle, ...]:
        return tuple(c for c in self.cycles if not c.trivial)


def diff_cycles(t1: Tiling, t0: Tiling) -> CycleSystem:
    """Decompose t1 union reversed t0 into disjoint cycles.

    From a white cell the walk follows the t1 dimer; from a black cell it
    follows the t0 dimer backwards. Cycles are reported starting at their
    lowest cell index, in order of that index; shared dimers appear as
    trivial length-2 cycles.
    """
    if t1.region != t0.region:
        raise ValueError("tilings belong to different regions")
    region = t1.region
    n = region.n_cells
    colors = region.colors
    visited = [False] * n
    cycles = []
    for start in range(n):
        if visited[start]:
            continue
        cells: list[Cell] = []
        steps: list[Cell] = []
        sources: list[int] = []
        cur = start
        while not visited[cur]:
            visited[cur] = True
            cells.append(region.cells[cur])
            if colors[cur] == -1:
                steps.append(t1.steps[cur])
                sources.append(1)
                cur = t1.mate[cur]
            else:
                steps.append(t0.steps[cur])
                sources.append(0)
                cur = t0.mate[cur]
        cycles.append(Cycle(tuple(cells), tuple(steps), tuple(sources)))
    return CycleSystem(region, cycles)


def refine_tiling(t: Tiling, k: int) -> Tiling:
    """The 5^k-fold refinement: every dimer becomes 125^k parallel dimers.

    Each original domino refines to a brick of two scale^3 blocks; along the
    dimer axis every cross-section column admits exactly one parallel
    tiling, pairing cells (2m, 2m+1) counted from the white end. On axes of
    period 2 the column follows the non-wrapping lift, matching
    Tiling.steps. On a box or torus each column is written into the mate
    array by index strides (_lattice_refined_mate) and the pairs are read
    off in white-index order, so the refined region's cell tables are never
    built; on a voxel region refined cells are looked up in its index and
    each pair is oriented white to black by its colours. Either way
    adjacency and colours hold by construction and only the cover is
    checked: a refined cell matched twice or left unmatched raises
    ValueError. The refined region's step table is never built.
    """
    region2 = refine_region(t.region, k)  # checks k
    if k == 0:
        return t
    scale = 5 ** k
    mate = None if region2.kind == "voxels" else _lattice_refined_mate(t, region2, scale)
    if mate is not None:
        whites = _white_indices(*(region2.dims or region2.periods))
        return Tiling._sorted(region2, list(zip(whites, map(mate.__getitem__, whites))), mate)
    # voxel regions, and the diagnosis of a broken cover on any region
    pairs, mate = _indexed_refined_pairs(t, region2, scale)
    t2 = Tiling(region2, pairs)
    t2._mate = tuple(mate)
    return t2


def _brick_axis(w: Cell, b: Cell) -> tuple[int, int]:
    """The axis of the dimer from w to b, and the sign of its step."""
    axis = 0 if w[0] != b[0] else (1 if w[1] != b[1] else 2)
    sign = b[axis] - w[axis]
    if sign not in (1, -1):
        # the step wraps around a period above 2
        sign = -1 if sign > 0 else 1
    return axis, sign


@lru_cache(maxsize=4)
def _white_indices(L: int, M: int, N: int) -> tuple[int, ...]:
    """The white cells (x + y + z odd) of an L x M x N box or torus, by index."""
    return tuple(i for x in range(L) for y in range(M)
                 for i in range((x * M + y) * N + 1 - (x + y) % 2, (x * M + y + 1) * N, 2))


def _lattice_refined_mate(t: Tiling, region2: Region,
                          scale: int) -> Optional[tuple[int, ...]]:
    """The refined mate array on a box or torus, by index arithmetic.

    Refined cell (x, y, z) is index (x * M + y) * N + z. A brick's column
    of 2 * scale cells pairs them from the white end, which is also from
    its low end, as 2 * scale is even; on a torus positions wrap around the
    periods. Each column is written as index differences, mate[i] - i =
    +stride and -stride alternately, by one strided slice write of a
    constant list. Returns None when a column leaves a box or the bricks
    do not cover every cell exactly once, for _indexed_refined_pairs to
    diagnose.
    """
    sizes = region2.dims or region2.periods
    torus = region2.periods is not None
    strides = (sizes[1] * sizes[2], sizes[2], 1)
    n = region2.n_cells
    if 2 * len(t.pairs) * scale ** 3 != n:
        return None
    span = 2 * scale
    # index offsets of a brick's columns from its first column, per axis
    cross = [[du * strides[u] + dv * strides[v] for du in range(scale) for dv in range(scale)]
             for u, v in ((1, 2), (0, 2), (0, 1))]
    alternating = [[s, -s] * scale for s in strides]
    delta = [0] * n
    cells = t.region.cells
    for wi, bi in t.pairs:
        w, b = cells[wi], cells[bi]
        axis, sign = _brick_axis(w, b)
        low = (w[axis] if sign > 0 else w[axis] - 1) * scale
        size, s = sizes[axis], strides[axis]
        if torus:
            low %= size
        elif low < 0 or low + span > size:
            return None
        corner = sum(w[ax] * scale * strides[ax] for ax in range(3) if ax != axis)
        if low + span <= size:
            first, length, pattern = corner + low * s, span * s, alternating[axis]
            for o in cross[axis]:
                a = first + o
                delta[a:a + length:s] = pattern
            continue
        for o in cross[axis]:
            for m in range(0, span, 2):
                ia = corner + o + (low + m) % size * s
                ib = corner + o + (low + m + 1) % size * s
                delta[ia] = ib - ia
                delta[ib] = ia - ib
    # n writes that leave no cell unmatched match every cell exactly once
    if 0 in delta:
        return None
    return tuple(map(add, range(n), delta))


def _indexed_refined_pairs(t: Tiling, region2: Region,
                           scale: int) -> tuple[list[tuple[int, int]], list[int]]:
    """The refined pairs and mate array by lookups in region2's cell tables,
    brick by brick; raises ValueError naming a refined cell matched twice or
    left unmatched."""
    index2, colors2 = region2.index, region2.colors
    cells = t.region.cells
    mate = [-1] * region2.n_cells
    pairs: list[tuple[int, int]] = []
    for wi, bi in t.pairs:
        w, b = cells[wi], cells[bi]
        axis, sign = _brick_axis(w, b)
        start = w[axis] * scale + (0 if sign > 0 else scale - 1)
        column = [(start + 2 * m * sign, start + (2 * m + 1) * sign) for m in range(scale)]
        if region2.periods is not None:
            p = region2.periods[axis]
            column = [(x % p, y % p) for x, y in column]
        u, v = [ax for ax in range(3) if ax != axis]
        for cu in range(w[u] * scale, (w[u] + 1) * scale):
            for cv in range(w[v] * scale, (w[v] + 1) * scale):
                cell = [0, 0, 0]
                cell[u], cell[v] = cu, cv
                for x, y in column:
                    cell[axis] = x
                    ia = index2[tuple(cell)]
                    cell[axis] = y
                    ib = index2[tuple(cell)]
                    if colors2[ia] == 1:
                        ia, ib = ib, ia
                    mate[ia] = ib
                    mate[ib] = ia
                    pairs.append((ia, ib))
    if 2 * len(pairs) != region2.n_cells or -1 in mate:
        seen: set[int] = set()
        for i in (i for pair in pairs for i in pair):
            if i in seen:
                raise ValueError("refined cell covered twice: %r" % (region2.cells[i],))
            seen.add(i)
        raise ValueError("refined cell uncovered: %r" % (region2.cells[mate.index(-1)],))
    return pairs, mate


def serialize_tiling(t: Tiling) -> str:
    return json.dumps(tiling_to_dict(t), sort_keys=True)


def tiling_to_dict(t: Tiling) -> dict:
    return {"region": t.region.to_dict(), "dimers": _cell_pairs(t)}


def _cell_pairs(t: Tiling) -> list:
    """The [white cell, black cell] list of each dimer of t, as reports
    write them, read off t.pairs without building its Dimers."""
    cells = t.region.cells
    return [[list(cells[w]), list(cells[b])] for w, b in t.pairs]


def deserialize_tiling(text: str, region: Optional[Region] = None) -> Tiling:
    return tiling_from_dict(json.loads(text), region)


def tiling_from_dict(data: dict, region: Optional[Region] = None) -> Tiling:
    if not isinstance(data, dict) or not isinstance(data.get("dimers"), list):
        raise ValueError("a tiling must be a JSON object with a \"dimers\" list")
    embedded = region_from_dict(data["region"]) if "region" in data else None
    if region is None:
        region = embedded
        if region is None:
            raise ValueError("no region given and none embedded in the tiling")
    elif embedded is not None and embedded != region:
        raise ValueError("embedded region disagrees with the given region")
    if not all(_is_cell_pair(p) for p in data["dimers"]):
        raise ValueError("each dimer must be a pair of 3-coordinate cells")
    return Tiling.from_cell_pairs(region, data["dimers"])


def _is_cell_pair(p) -> bool:
    return (isinstance(p, (list, tuple)) and len(p) == 2
            and all(isinstance(c, (list, tuple)) and len(c) == 3 for c in p))
