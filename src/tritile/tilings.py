"""Tilings as perfect matchings of a region's dual graph.

A domino is stored as an oriented dimer from its white cell to its black
cell. On tori its direction records the +axis step for a degenerate period-2
adjacency; Tiling.steps, surface flux and refinement take the non-wrapping
lift, the raw coordinate delta, instead (_unit_step).
"""

from __future__ import annotations

import json
from array import array
from collections.abc import Sequence as SequenceABC
from functools import lru_cache
from itertools import chain, starmap
from operator import itemgetter
from struct import pack, unpack
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .regions import (
    AXIS_NAMES, BudgetExceeded, Cell, Region, _coordinate, _index_array, _lane_sum,
    refine_region, region_from_dict,
)

_M64 = (1 << 64) - 1
# splitmix64's increment and its two multipliers
_GAMMA, _MIX1, _MIX2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D649BB133111EB


def _splitmix64(x: int) -> int:
    x = (x + _GAMMA) & _M64
    z = (x ^ (x >> 30)) * _MIX1 & _M64
    z = (z ^ (z >> 27)) * _MIX2 & _M64
    return z ^ (z >> 31)


# Pairs whose codes _dimer_codes computes in one int of 128-bit lanes.
# Hashing the k=2 refinement of box 3x3x2 (140,625 pairs) took about the
# same time at 512 to 4096 lanes; a chunk of 1024 lanes is a 16 KB int.
_CHUNK = 1024


@lru_cache(maxsize=8)
def _lane_masks(lanes: int) -> tuple[int, int, int]:
    """(rep, mask, gamma) for an int of `lanes` 128-bit lanes: 1, 2**64 - 1
    and splitmix64's increment in the low 64 bits of every lane."""
    rep = ((1 << 128 * lanes) - 1) // ((1 << 128) - 1)
    return rep, _M64 * rep, _GAMMA * rep


def _mix_lanes(x: int, mask: int) -> int:
    """splitmix64 after its increment, on every 128-bit lane of x at once.

    Each lane of x holds a value under 2**64. A lane's product stays under
    2**128, so it never carries into the next lane; the bits that a right
    shift moves down from the next lane land above bit 64 of a lane, where
    the next mask clears them. Bits 97 and up of each lane of the result
    are such bits, so a reader takes the low 64 of each lane.
    """
    z = ((x ^ x >> 30) & mask) * _MIX1 & mask
    z = ((z ^ z >> 27) & mask) * _MIX2 & mask
    return z ^ z >> 31


def _chunks(pairs: Sequence[tuple[int, int]]) -> Iterator[tuple[Sequence[int], Sequence[int]]]:
    """(firsts, seconds) of each run of up to _CHUNK pairs, in order:
    gathered from the packed mate array for a Pairs view, split off the
    pairs for any other sequence."""
    if type(pairs) is Pairs:
        return pairs._chunks()
    return (zip(*pairs[i:i + _CHUNK]) for i in range(0, len(pairs), _CHUNK))


def _dimer_codes(n_cells: int, pairs: Sequence[tuple[int, int]]) -> Iterator[int]:
    """splitmix64(w * n_cells + b) for each pair (w, b), in order.

    The pairs go _CHUNK at a time (_chunks) into one int, pair l in lane l
    (bits 128 * l to 128 * l + 127): w in the low 64 bits, b in the high
    64. Every lane's input w * n_cells + b + gamma is formed and mixed by a
    few big-int operations on the whole int (_mix_lanes), and the low 64
    bits of each lane are read off. Lanes are packed and read as
    little-endian 64-bit words ("<Q"), whatever the host's byte order. Only
    one chunk's codes are held.
    """
    for firsts, seconds in _chunks(pairs):
        lanes = len(firsts)
        _rep, mask, gamma = _lane_masks(lanes)
        layout = "<%dQ" % (2 * lanes)
        words = [0] * (2 * lanes)
        words[::2], words[1::2] = firsts, seconds
        x = int.from_bytes(pack(layout, *words), "little")
        # x >> 64 puts b in the low half of each lane, and the next pair's w
        # in the high half, where the mask after the sum clears it
        x = ((x & mask) * n_cells + (x >> 64) + gamma) & mask
        yield from unpack(layout, _mix_lanes(x, mask).to_bytes(16 * lanes, "little"))[::2]


def _fold_codes(n_cells: int, codes: Iterable[int]) -> int:
    """The hash64 fold: h = splitmix64(n_cells), then h = splitmix64(h ^ c)
    for each dimer code c, in white-cell order (splitmix64 written out)."""
    h = _splitmix64(n_cells)
    for c in codes:
        x = ((h ^ c) + _GAMMA) & _M64
        z = (x ^ (x >> 30)) * _MIX1 & _M64
        z = (z ^ (z >> 27)) * _MIX2 & _M64
        h = z ^ (z >> 31)
    return h


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


def _unit_step(region: Region, a: Cell, b: Cell) -> Cell:
    """The unit step from cell a to the adjacent cell b. On a torus a step
    across the seam of a period P > 2 wraps, and along a period of 2 it is
    the raw b - a of the reduced cells, the non-wrapping lift. Raises
    ValueError when a and b share no face. The one step rule, read by
    _direction, Tiling.steps, Tiling.from_cell_pairs and refinement
    (_lattice_refined_mate, _indexed_refined_mate)."""
    periods = region.periods
    if periods is None:
        dx, dy, dz = b[0] - a[0], b[1] - a[1], b[2] - a[2]
    else:
        px, py, pz = periods
        dx = b[0] % 2 - a[0] % 2 if px == 2 else (b[0] - a[0] + 1) % px - 1
        dy = b[1] % 2 - a[1] % 2 if py == 2 else (b[1] - a[1] + 1) % py - 1
        dz = b[2] % 2 - a[2] % 2 if pz == 2 else (b[2] - a[2] + 1) % pz - 1
    if abs(dx) + abs(dy) + abs(dz) != 1:
        raise ValueError("cells %r and %r are not adjacent" % (a, b))
    return dx, dy, dz


def _direction(region: Region, white: Cell, black: Cell) -> Cell:
    """Dimer.direction: _unit_step, with the +axis step standing for both
    steps along a period-2 axis."""
    step = _unit_step(region, white, black)
    if region.periods is None:
        return step
    return tuple(1 if d and p == 2 else d for d, p in zip(step, region.periods))


# Tilings keep their mate arrays packed as 4-byte C ints.
assert array("i").itemsize == 4, "array('i') must hold 4-byte ints"


class Pairs(SequenceABC):
    """A tiling's dimers as a read-only sequence of (white, black) cell
    index pairs: (w, mate[w]) for each white cell w of the region, by
    increasing w (Region.whites), read off the packed mate array.

    No pair and no int is held per dimer. Iteration gathers the partners of
    _CHUNK white cells at a time by one itemgetter, so no Python-level call
    is made per dimer. A Pairs equals another that lists the same pairs,
    and a tuple of them: tuple(pairs) is the tuple that Tiling.pairs held
    before it became a view.
    """

    __slots__ = ("_region", "_mate")

    def __init__(self, region: Region, mate: array):
        self._region, self._mate = region, mate

    def __len__(self) -> int:
        # a tiling's region is balanced: half its cells are white
        return len(self._mate) // 2

    def _chunks(self) -> Iterator[tuple[list[int], tuple[int, ...]]]:
        """(whites, partners) of each run of up to _CHUNK white cells."""
        whites, mate = self._region.whites, self._mate
        for i in range(0, len(whites), _CHUNK):
            part = whites[i:i + _CHUNK].tolist()
            # an itemgetter of one cell returns its entry, not a tuple
            yield part, itemgetter(*part)(mate) if len(part) > 1 else (mate[part[0]],)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return chain.from_iterable(starmap(zip, self._chunks()))

    def __getitem__(self, i):
        whites, mate = self._region.whites, self._mate
        if isinstance(i, slice):
            return tuple((w, mate[w]) for w in whites[i])
        w = whites[i]
        return w, mate[w]

    def __eq__(self, other) -> bool:
        if type(other) is Pairs and self._region == other._region:
            return self._mate == other._mate
        if isinstance(other, (Pairs, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return "Pairs(%d dimers)" % len(self)


def _checked_mate(region: Region, pairs: Iterable[tuple[int, int]]) -> array:
    """The mate array of (white, black) cell index pairs that match each
    cell exactly once across a face, or ValueError naming the first pair or
    cell that does not. Only the step table and Region.whites are read
    unless it raises: adjacent cells have opposite colours, so in a perfect
    matching the first cells are white iff they are Region.whites."""
    n, step = region.n_cells, region.step_table
    mate = array("i", [-1]) * n
    firsts = []
    for w, b in pairs:
        if not (0 <= w < n and 0 <= b < n):
            raise ValueError("dimer (%r, %r) has a cell index outside 0..%d" % (w, b, n - 1))
        if b not in step[w]:
            raise ValueError("non-adjacent dimer (%d, %d)" % (w, b))
        if mate[w] != -1 or mate[b] != -1:
            raise ValueError("cell covered twice: %r" % (region.cells[w if mate[w] != -1 else b],))
        mate[w] = b
        mate[b] = w
        firsts.append(w)
    if -1 in mate:
        raise ValueError("cell uncovered: %r" % (region.cells[mate.index(-1)],))
    if array("i", sorted(firsts)) != region.whites:
        colors = region.colors
        w = next(w for w in firsts if colors[w] == 1)
        raise ValueError("mis-colored dimer (%d, %d)" % (w, mate[w]))
    return mate


class Tiling:
    """An immutable perfect matching of a region's cells.

    The matching is one packed array('i'), mate[i] the partner of cell i.
    pairs is a Pairs view of it, held in a slot, and Tiling.mate a
    read-only memoryview. Tiling(region, pairs) refuses pairs that do not
    match each cell exactly once, white cell first, across a face, with a
    ValueError that names the pair or the cell (_checked_mate); so every
    tiling is a perfect matching, and its readers do not check again.
    """

    __slots__ = ("region", "pairs", "_mate", "_dimers", "_hash64", "_steps")

    def __init__(self, region: Region, pairs: Iterable[tuple[int, int]]):
        self.region = region
        self._dimers = self._hash64 = self._steps = None
        if type(pairs) is Pairs and pairs._region == region:
            # another tiling's view: its mate array is never written, so shared
            mate = pairs._mate
        else:
            mate = _checked_mate(region, pairs)
        self._mate, self.pairs = mate, Pairs(region, mate)

    @classmethod
    def _from_mate(cls, region: Region, mate: Sequence[int]) -> "Tiling":
        """The tiling of a mate array that matches each cell once, taken as
        it is: no check, and an array('i') is kept, not copied."""
        t = cls.__new__(cls)
        t.region = region
        t._mate = mate if type(mate) is array else array("i", mate)
        t.pairs = Pairs(region, t._mate)
        t._dimers = t._hash64 = t._steps = None
        return t

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
        index, colors = region.index, region.colors
        get = index.get
        mate = [-1] * region.n_cells
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
            _unit_step(region, a, b)  # raises for cells that share no face
            for c, k in ((a, i), (b, j)):
                if mate[k] != -1:
                    raise ValueError("cell covered twice: %r" % (c,))
            mate[i] = j
            mate[j] = i
        if -1 in mate:
            raise ValueError("cell uncovered: %r" % (region.cells[mate.index(-1)],))
        return cls._from_mate(region, mate)

    # -- derived views ----------------------------------------------------

    @property
    def mate(self) -> memoryview:
        """Per cell index, the index of its partner, as a read-only view of
        the packed mate array."""
        return memoryview(self._mate).toreadonly()

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
        """Per cell index, the unit step toward its partner, by _unit_step
        from the pairs (no Dimer is built).

        Along axes of period 2 the doubled adjacency is lifted to the
        non-wrapping edge (the raw coordinate delta), not to the +axis
        Dimer.direction: difference cycles and surface sides read this
        field, and only the non-wrapping lift keeps flux through a surface
        invariant under flips and trits on degenerate tori. flux does not
        read it; it takes the same lift from t.pairs.
        """
        if self._steps is None:
            region, cells = self.region, self.region.cells
            steps: list[Cell] = [None] * region.n_cells  # type: ignore
            for wi, bi in self.pairs:
                vx, vy, vz = steps[wi] = _unit_step(region, cells[wi], cells[bi])
                steps[bi] = (-vx, -vy, -vz)
            self._steps = tuple(steps)
        return self._steps

    @property
    def hash64(self) -> int:
        """64-bit canonical hash: the fold of the dimer codes
        splitmix64(w * n_cells + b) over the pairs in white-cell order
        (_fold_codes). The codes come from _dimer_codes, a chunk of pairs
        at a time in the 128-bit lanes of one int, and are folded one by
        one as they come."""
        if self._hash64 is None:
            n = self.region.n_cells
            self._hash64 = _fold_codes(n, _dimer_codes(n, self.pairs))
        return self._hash64

    def validate(self) -> None:
        """Check the pairs again as Tiling(region, pairs) does: only a mate
        array taken unchecked by _from_mate can fail."""
        _checked_mate(self.region, self.pairs)

    def replace(self, remove: Iterable[Dimer], insert: Iterable[Dimer]) -> "Tiling":
        index = self.region.index
        removed = {(index[d.white], index[d.black]) for d in remove}
        pairs = [p for p in self.pairs if p not in removed]
        if len(pairs) != len(self.pairs) - len(removed):
            raise ValueError("stale move: a removed dimer is absent from the tiling")
        pairs.extend((index[d.white], index[d.black]) for d in insert)
        return Tiling(self.region, pairs)

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

    This is the flux-zero, twist-zero reference tiling. Cell (x, y, z) is
    index (x * M + y) * N + z, so the mate array is written by index
    arithmetic: along the axis, with stride s, mate[i] - i is +s where the
    coordinate is even and -s where it is odd, a pattern of period 2s
    (_mate_of_offsets); the region's cell tables are never built. Raises
    ValueError for an axis that is not 0, 1, 2 or a name, for a voxel
    region, and for an odd extent along the axis.
    """
    k = _axis_index(axis)
    if region.kind == "voxels":
        raise ValueError("base tiling requires a box or torus region")
    sizes = region.dims or region.periods
    extent = sizes[k]
    if extent % 2:
        raise ValueError("odd extent along axis %s" % AXIS_NAMES[k])
    s = (sizes[1] * sizes[2], sizes[2], 1)[k]
    n = region.n_cells
    # an even and an odd coordinate along the axis, s cells each, repeated
    offsets = (array("i", [n + s]) * s + array("i", [n - s]) * s) * (n // (2 * s))
    return Tiling._from_mate(region, _mate_of_offsets(offsets))


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
    depth first, with an explicit frame stack instead of recursion. When v
    branches every vertex below it is matched, so each row keeps only its
    partners above v, dropped once before the search. Each matching is
    yielded as (mate, labels): mate[v] is v's partner and labels holds the
    chosen options' labels, lowest vertex first. Both lists are reused, so a
    consumer copies what it keeps. Labels tell parallel edges apart where
    partners cannot.
    """
    n = len(rows)
    if n == 0 or n % 2:
        return
    rows = [[(label, u) for label, u in row if u > v] for v, row in enumerate(rows)]
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

#: Most tilings that tritile enumerate lists, that relative_twist labels on
#: a torus, and that heights.enumerate_surface_tilings lists (it skips its
#: count pass when a Bregman bound is under this). A listed tiling of 16
#: dimers costs about 23 KB in an enumerate report (box 2 4 4, 32,000
#: tilings: enumerate peaks at 744 MB in 8-9 s), so 10^5 tilings stays
#: within a few GB.
LISTING_BUDGET = 100_000

#: Most tilings that tritile components will take. It keeps a packed key
#: per tiling, not a Tiling: about 225 bytes and 13-16 us with either move
#: set per tiling of 21 dimers (box 2 3 7, 880,163 tilings: 206 MB peak,
#: 16 MB of it a bare start, in 11.7-14.1 s), so 10^6 tilings stays near
#: 250 MB and 20 s.
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
    mate1, mate0, steps1, steps0 = t1._mate, t0._mate, t1.steps, t0.steps
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
                steps.append(steps1[cur])
                sources.append(1)
                cur = mate1[cur]
            else:
                steps.append(steps0[cur])
                sources.append(0)
                cur = mate0[cur]
        cycles.append(Cycle(tuple(cells), tuple(steps), tuple(sources)))
    return CycleSystem(region, cycles)


def refine_tiling(t: Tiling, k: int) -> Tiling:
    """The 5^k-fold refinement: every dimer becomes 125^k parallel dimers.

    Each original domino refines to a brick of two scale^3 blocks; along the
    dimer axis every cross-section column admits exactly one parallel
    tiling, pairing cells (2m, 2m+1) counted from the white end. On axes of
    period 2 the column follows the non-wrapping lift, matching
    Tiling.steps. On a box or torus each column is written into a packed
    array of index differences by strided slices (_lattice_refined_mate),
    so the refined region's cell tables are never built; on a voxel region
    refined cells are looked up in its index (_indexed_refined_mate).
    Nothing is checked: t is a perfect matching, so its bricks are too, and
    they cover each refined cell once. The result holds the packed mate
    array and nothing per dimer; the refined region's step table is never
    built.
    """
    region2 = refine_region(t.region, k)  # checks k
    if k == 0:
        return t
    scale = 5 ** k
    refined_mate = _indexed_refined_mate if region2.kind == "voxels" else _lattice_refined_mate
    return Tiling._from_mate(region2, refined_mate(t, region2, scale))


def _lattice_refined_mate(t: Tiling, region2: Region, scale: int) -> array:
    """The refined mate array on a box or torus, by index arithmetic.

    Refined cell (x, y, z) is index (x * M + y) * N + z. A brick's column
    of 2 * scale cells pairs them from the white end, which is also from
    its low end, as 2 * scale is even; on a torus positions wrap around the
    periods. Each column is written as index differences, mate[i] - i =
    +stride and -stride alternately, by one strided slice write of a
    constant array into one packed array of offsets n + mate[i] - i
    (_mate_of_offsets).
    """
    sizes = region2.dims or region2.periods
    strides = (sizes[1] * sizes[2], sizes[2], 1)
    n = region2.n_cells
    span = 2 * scale
    # index offsets of a brick's columns from its first column, per axis
    cross = [[du * strides[u] + dv * strides[v] for du in range(scale) for dv in range(scale)]
             for u, v in ((1, 2), (0, 2), (0, 1))]
    alternating = [array("i", [n + s, n - s] * scale) for s in strides]
    delta = array("i", bytes(4 * n))
    cells = t.region.cells
    for wi, bi in t.pairs:
        w, b = cells[wi], cells[bi]
        dx, dy, dz = _unit_step(t.region, w, b)
        axis, sign = (0, dx) if dx else (1, dy) if dy else (2, dz)
        size, s = sizes[axis], strides[axis]
        # the column's low end: on a box it lies inside, on a torus it wraps
        low = (w[axis] if sign > 0 else w[axis] - 1) * scale % size
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
                delta[ia] = n + ib - ia
                delta[ib] = n + ia - ib
    return _mate_of_offsets(delta)


#: Cells whose mate entries _mate_of_offsets reads off at once, in ints
#: of 64 KB (blocks of 256 KB lifted the invariants workload's peak RSS by
#: 1.5 MB at no gain in time).
_BLOCK = 1 << 14


def _mate_of_offsets(offsets: array) -> array:
    """Turn a packed array of offsets n + mate[i] - i, over the n cells,
    into the mate array, in place and _BLOCK cells at a time: each block is
    the _lane_sum of its offsets and its cell indices, less n."""
    n = len(offsets)
    for start in range(0, n, _BLOCK):
        block = offsets[start:start + _BLOCK]
        offsets[start:start + _BLOCK] = _lane_sum([block, _index_array(len(block))], start - n)
    return offsets


def _indexed_refined_mate(t: Tiling, region2: Region, scale: int) -> list[int]:
    """The refined mate array of a voxel region by lookups in region2's
    index, brick by brick."""
    index2 = region2.index
    cells = t.region.cells
    mate = [-1] * region2.n_cells
    for wi, bi in t.pairs:
        w, b = cells[wi], cells[bi]
        dx, dy, dz = _unit_step(t.region, w, b)
        axis, sign = (0, dx) if dx else (1, dy) if dy else (2, dz)
        start = w[axis] * scale + (0 if sign > 0 else scale - 1)
        column = [(start + 2 * m * sign, start + (2 * m + 1) * sign) for m in range(scale)]
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
                    mate[ia] = ib
                    mate[ib] = ia
    return mate


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
    """The tiling of a JSON object as tiling_to_dict writes it. Raises
    ValueError for a key other than "region" and "dimers", and for an
    embedded region that is malformed or disagrees with region."""
    if not isinstance(data, dict) or not isinstance(data.get("dimers"), list):
        raise ValueError("a tiling must be a JSON object with a \"dimers\" list")
    unknown = [key for key in data if key not in ("region", "dimers")]
    if unknown:
        raise ValueError("a tiling has unknown key%s %s (allowed: region, dimers)"
                         % ("s" if len(unknown) > 1 else "", ", ".join(map(repr, unknown))))
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
