"""Flips, trits, a walk's move index, and move components with their
signed trit labels.

A flip exchanges two parallel dimers filling a 2x2x1 slab. A trit exchanges
three pairwise orthogonal dimers inside a 2x2x2 cube whose two uncovered
cells are antipodal; it carries a sign. The sign convention is calibrated so
that applying a positive trit raises the combinatorial twist by exactly 1.
Number the cube's cells 0..7 by position bits, x = 4, y = 2, z = 1 (the
offsets from the cube anchor; a dimer whose cells sit at positions i and
i ^ bit runs along that bit's axis). The move is positive iff the y bit of
the x-dimer, the z bit of the y-dimer and the x bit of the z-dimer sum to
an odd number. That quantity is invariant under translations and proper
rotations, so the sign is well defined on tori as well. A cube holds eight
such trios; _TRIOS lists them once, with their inserted trios and signs,
and every trit scan reads that one table.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import namedtuple
from itertools import islice
from struct import Struct
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

from .regions import CUBE_OFFSETS, DIR_AXIS, Cell, Region
from .tilings import (
    _M64, Dimer, Tiling, _dimer_codes, _dimers, _lane_masks, _mix_lanes, _neighbor_rows,
    _splitmix64,
)


class FlipMove(NamedTuple):
    """Two parallel dimers swapped for the only other pair filling the slab."""

    removed: tuple[Dimer, Dimer]
    inserted: tuple[Dimer, Dimer]

    def reversed(self) -> "FlipMove":
        return FlipMove(removed=self.inserted, inserted=self.removed)


class TritMove(NamedTuple):
    """Three pairwise orthogonal dimers in a 2x2x2 cube, swapped and signed."""

    removed: tuple[Dimer, Dimer, Dimer]
    inserted: tuple[Dimer, Dimer, Dimer]
    anchor: Cell
    sign: int

    def reversed(self) -> "TritMove":
        return TritMove(
            removed=self.inserted,
            inserted=self.removed,
            anchor=self.anchor,
            sign=-self.sign,
        )


def find_flips(t: Tiling) -> list[FlipMove]:
    """Every available flip, duplicate-free, in a deterministic order.

    Flips are ordered by the smaller white cell index of their two removed
    dimers, then by the first direction (in DIRECTIONS order) that carries
    that dimer onto the other. The list is a fresh WalkState's index.
    """
    return WalkState(t, "flip").moves()


def apply_flip(t: Tiling, m: FlipMove) -> Tiling:
    return t.replace(m.removed, m.inserted)


def find_trits(t: Tiling) -> list[TritMove]:
    """Every available trit with its sign, duplicate-free, deterministic.

    The cubes are the region's cube_table: each 2x2x2 cube with at least 7
    of its 8 cells in the region. A trit needs exactly three dimers of t
    fully inside the cube, one per axis. The two leftover cube cells are
    then antipodal, and any of them in the region is covered by a dimer that
    exits the cube. Trits are ordered by anchor. The list is a fresh
    WalkState's index.
    """
    return WalkState(t, "trit").moves()


# -- scanners shared by WalkState and the components engine ---------------

#: Per direction of a dimer (the position of its black cell in its white
#: cell's step row), the directions across its axis, where its flip
#: partners lie.
_ACROSS = tuple(tuple(d for d in range(6) if DIR_AXIS[d] != DIR_AXIS[k]) for k in range(6))


def _slab_partners(step, w: int, b: int) -> Iterator[tuple[int, int, int]]:
    """(e, w2, b2) of each dimer (w2, b2), white cell first, that would fill
    a 2x2x1 slab with the dimer (w, b): one step e away across its axis,
    e in direction order. Steps off the region are dropped, and so is a
    partner that the previous direction reached (on a period-2 axis both
    signs of the step reach the same cells)."""
    sw, sb = step[w], step[b]
    last = -1
    for e in _ACROSS[sw.index(b)]:
        w2, b2 = sb[e], sw[e]
        if w2 >= 0 and b2 >= 0 and w2 != last:
            last = w2
            yield e, w2, b2


def _flip_move(region: Region, w: int, b: int, w2: int, b2: int) -> FlipMove:
    return FlipMove(removed=_dimers(region, ((w, b), (w2, b2))),
                    inserted=_dimers(region, ((w, b2), (w2, b))))


def _trio_table() -> tuple[tuple[tuple, tuple, int], ...]:
    """The eight trios of a 2x2x2 cube as (removed, inserted, sign), pairs
    of cube positions in x, y, z axis order.

    A trio is one dimer per axis on six distinct positions: the x-dimer at
    (i, i ^ 4), the y-dimer at (j, j ^ 2) and the z-dimer at (k, k ^ 1). The
    three pair XORs are 4, 2 and 1, so the six positions XOR to 7; all
    eight XOR to 0, so the two left out XOR to 7 too: they are antipodal.
    The other trio on the same six cells keeps each dimer's axis and flips
    both transverse bits, (i, i ^ bit) becoming (i ^ 7 ^ bit, i ^ 7). The
    sign is the bit rule of the module docstring.
    """
    table = []
    for i in range(4):
        for j in (0, 1, 4, 5):
            for k in (0, 2, 4, 6):
                removed = ((i, i ^ 4), (j, j ^ 2), (k, k ^ 1))
                if len({p for pair in removed for p in pair}) < 6:
                    continue
                inserted = tuple((p ^ 7 ^ bit, p ^ 7) for (p, _q), bit in zip(removed, (4, 2, 1)))
                # y bit of the x-dimer + z bit of the y-dimer + x bit of the z-dimer
                odd = ((i >> 1) ^ j ^ (k >> 2)) & 1
                table.append((removed, inserted, 1 if odd else -1))
    return tuple(table)


#: The eight trios of a cube, each (removed, inserted, sign); see _trio_table.
_TRIOS = _trio_table()


def _cube_trios(cubes: Sequence[tuple[int, ...]], mate: Sequence[int],
                ranks: Iterable[int]) -> list[tuple[int, tuple]]:
    """(rank, entry) of each cube cubes[r], r in ranks, that holds a trit,
    with the _TRIOS entry that matches it. Three in-cube dimers, one per
    axis, on six cells leave two antipodal ones, which share no face; so at
    most one entry matches a cube, and the scan stops there."""
    found = []
    for r in ranks:
        cube = cubes[r]
        for entry in _TRIOS:
            for i, j in entry[0]:
                c = cube[i]
                # a cell off the region is -1, which would index the last cell
                if c < 0 or mate[c] != cube[j]:
                    break
            else:
                found.append((r, entry))
                break
    return found


def _is_white(region: Region, c: int) -> bool:
    """Whether cell c is white: on a box or torus from the parity of its
    coordinates, read off its index without the cell tables; on a voxel
    region from its colour."""
    if region.kind == "voxels":
        return region.colors[c] == -1
    _L, M, N = region.dims or region.periods
    xy, z = divmod(c, N)
    x, y = divmod(xy, M)
    return (x + y + z) % 2 == 1


def _oriented(region: Region, cube: Sequence[int],
              pairs: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """The cube's position pairs as (white, black) cell index pairs."""
    return [(cube[p], cube[q]) if _is_white(region, cube[p]) else (cube[q], cube[p])
            for p, q in pairs]


def _cube_anchor(region: Region, cube: Sequence[int]) -> Cell:
    """The minimal corner of a cube_table cube: its position-0 cell, or its
    position-1 cell less offset (0, 0, 1) where position 0 is off the region."""
    p = 0 if cube[0] >= 0 else 1
    (x, y, z), (dx, dy, dz) = region.cells[cube[p]], CUBE_OFFSETS[p]
    return (x - dx, y - dy, z - dz)


def _trit_move(region: Region, r: int, entry: tuple) -> TritMove:
    cube = region.cube_table.cubes[r]
    removed, inserted, sign = entry
    return TritMove(removed=_dimers(region, _oriented(region, cube, removed)),
                    inserted=_dimers(region, _oriented(region, cube, inserted)),
                    anchor=_cube_anchor(region, cube), sign=sign)


def apply_trit(t: Tiling, m: TritMove) -> Tiling:
    return t.replace(m.removed, m.inserted)


_MOVE_SETS = {
    "flip": frozenset({"flip"}),
    "trit": frozenset({"trit"}),
    "fliptrit": frozenset({"flip", "trit"}),
    "flip+trit": frozenset({"flip", "trit"}),
}


def _normalize_moves(moves: str) -> frozenset:
    if not isinstance(moves, str) or moves not in _MOVE_SETS:
        raise ValueError("moves must be 'flip', 'trit' or 'flip+trit'")
    return _MOVE_SETS[moves]


class WalkState:
    """A tiling being walked: a mutable mate array plus an index of its moves.

    A fresh index is find_flips + find_trits of the tiling (flips only or
    trits only when `moves` says so), as those two read it, and a step
    keeps the index equal to a fresh one of the new tiling. A move is stale
    exactly when it uses a dimer that a step removes, so a step drops the
    moves keyed by the removed dimers and rescans only the inserted dimers
    for flips and the cubes around the changed cells for trits: a step
    costs work in proportion to the move's neighbourhood, not to the
    tiling.

    A walk steps in index space: step(k) reads the k-th move's entry in the
    index and applies it as (white, black) cell index pairs, so it builds no
    FlipMove, TritMove or Dimer, and on a box or torus it reads neither the
    cell tables nor per-cell cube anchors built in advance (see
    Region.cube_table); move(k) reads a trit's anchor off its cube. apply(m)
    takes a listed move, turns its dimers into index pairs and goes through
    the same update. Hashing is not part of a step: both return the
    inserted dimers, and a walk that hashes every state hands them to a
    VisitedHashes.
    """

    def __init__(self, t: Tiling, moves: str = "flip+trit"):
        move_set = _normalize_moves(moves)
        region = t.region
        self.region = region
        self.mate = t._mate.tolist()
        self._flip_moves = "flip" in move_set
        self._trit_moves = "trit" in move_set
        # One index of both kinds. A flip is keyed white * 6 + direction by
        # its first removed dimer, a trit 6 * n_cells + anchor rank, so the
        # sorted keys list flips by white cell and direction, then trits by
        # anchor rank.
        # key -> a flip's cells (w, b, w2, b2) or a trit's _TRIOS entry
        self._moves: dict[int, tuple] = {}
        self._trit_base = 6 * region.n_cells
        if self._flip_moves:
            self._scan_flips(t.pairs)
        if self._trit_moves:
            self._scan_trits(range(len(region.cube_table.cubes)))
        self._keys = sorted(self._moves)

    def __len__(self) -> int:
        return len(self._keys)

    def move(self, k: int):
        """The k-th available move, 0 <= k < len(self)."""
        key = self._keys[k]
        if key < self._trit_base:
            return _flip_move(self.region, *self._moves[key])
        return _trit_move(self.region, key - self._trit_base, self._moves[key])

    def moves(self) -> list:
        return [self.move(k) for k in range(len(self))]

    def tiling(self) -> Tiling:
        """An immutable snapshot of the current tiling."""
        return Tiling._from_mate(self.region, self.mate)

    def step(self, k: int) -> tuple[int, list[tuple[int, int]]]:
        """Apply the k-th available move, 0 <= k < len(self), as apply(
        self.move(k)) would; return its sign (0 for a flip) and its inserted
        dimers as (white, black) cell index pairs, in the move's order.

        A flip (w, b, w2, b2) inserts (w, b2) and (w2, b). A trit's dimers
        are pairs of positions in its cube (_TRIOS), turned into cell pairs
        by _oriented.
        """
        key = self._keys[k]
        entry = self._moves[key]
        if key < self._trit_base:
            w, b, w2, b2 = entry
            return 0, self._update([(w, b), (w2, b2)], [(w, b2), (w2, b)])
        cube = self.region.cube_table.cubes[key - self._trit_base]
        removed, inserted, sign = entry
        return sign, self._update(_oriented(self.region, cube, removed),
                                  _oriented(self.region, cube, inserted))

    def apply(self, m: Union[FlipMove, TritMove]) -> list[tuple[int, int]]:
        """Apply a move available in the current tiling; return its inserted
        dimers as (white, black) cell index pairs. Raises ValueError for a
        move that removes a dimer the tiling does not hold."""
        index = self.region.index
        return self._update([(index[d.white], index[d.black]) for d in m.removed],
                            [(index[d.white], index[d.black]) for d in m.inserted])

    # -- index maintenance --------------------------------------------------

    def _update(self, removed: list[tuple[int, int]],
                inserted: list[tuple[int, int]]) -> list[tuple[int, int]]:
        """Swap the removed dimers for the inserted ones, all (white, black)
        index pairs, and bring the index up to date; return inserted.

        A removed dimer (w, b) is first in the flips keyed 6w to 6w + 5 and
        second in those keyed 6 * step[b][e ^ 1] + e, whose first white cell
        is one step from b against direction e (negative off the region).
        Stale trits anchor on the cubes around the removed cells, rescanned
        below.
        """
        mate, moves, keys = self.mate, self._moves, self._keys
        if any(mate[w] != b for w, b in removed):
            raise ValueError("stale move: a removed dimer is absent from the tiling")
        stale: list[int] = []
        if self._flip_moves:
            step = self.region.step_table
            for w, b in removed:
                stale += range(6 * w, 6 * w + 6)
                stale += (6 * step[b][e ^ 1] + e for e in range(6))
        if self._trit_moves:
            cell_anchors = self.region.cube_table.cell_anchors
            anchors = {r for pair in removed for c in pair for r in cell_anchors[c]}
            stale += (self._trit_base + r for r in anchors)
        for key in stale:
            if moves.pop(key, None) is not None:
                del keys[bisect_left(keys, key)]
        for w, b in inserted:
            mate[w], mate[b] = b, w
        kept = len(moves)
        if self._flip_moves:
            # flips are keyed by their smaller white cell, so a new flip may
            # belong to an unchanged neighbour with a smaller index
            lower = set(self._scan_flips(inserted))
            lower.difference_update(w for w, _b in inserted)
            self._scan_flips([(w, mate[w]) for w in lower])
        if self._trit_moves:
            self._scan_trits(anchors)
        # _moves keeps insertion order, so the moves just indexed are its last
        for key in islice(reversed(moves), len(moves) - kept):
            insort(keys, key)
        return inserted

    def _scan_flips(self, pairs: Iterable[tuple[int, int]]) -> list[int]:
        """Index the flips keyed by these dimers, white cell first; return
        the white cells of their smaller-indexed flip partners."""
        step, mate, moves = self.region.step_table, self.mate, self._moves
        lower = []
        for w, b in pairs:
            for e, w2, b2 in _slab_partners(step, w, b):
                if mate[w2] != b2:
                    continue
                if w2 < w:
                    lower.append(w2)
                elif w * 6 + e not in moves:
                    moves[w * 6 + e] = w, b, w2, b2
        return lower

    def _scan_trits(self, ranks: Iterable[int]) -> None:
        """Index the trits of the given anchors, none of them indexed yet."""
        base = self._trit_base
        for r, entry in _cube_trios(self.region.cube_table.cubes, self.mate, ranks):
            self._moves[base + r] = entry


# Tilings that VisitedHashes hashes at once. A tiling of the 16^3 box took
# 1.1 ms to hash alone, 0.18 ms at 11 lanes, 0.14 ms at 64 and 0.12 ms at
# 256 (32^3: 8.7, 1.7, 1.0 and 0.9 ms; Python 3.11 on 2 vCPUs), so lanes
# past 64 gain little.
_LANES = 64


class VisitedHashes:
    """Tiling.hash64 of each distinct tiling that a walk passes through, in
    first-visit order.

    Build it on the walk's first tiling, call add() with what each
    WalkState.apply() returns, and read hashes() at the end. It keeps the
    dimer codes of Tiling.hash64 by white-cell rank, a white cell's place in
    Region.whites, found by bisection, and records each tiling as the codes
    its step changed; _LANES tilings at a time are hashed by _lane_hashes
    and deduplicated, so memory holds the distinct hashes and one batch of
    changes.
    """

    def __init__(self, t: Tiling):
        self._n_cells = n = t.region.n_cells
        self._whites = t.region.whites
        self._base = list(_dimer_codes(n, t.pairs))
        self._batch: list[dict[int, int]] = [{}]
        self._seen: set[int] = set()
        self._hashes: list[int] = []

    def add(self, inserted: Iterable[tuple[int, int]]) -> None:
        """Record the next tiling of the walk, given the (white, black) cell
        index pairs that its step inserted."""
        n, whites = self._n_cells, self._whites
        self._batch.append({bisect_left(whites, w): _splitmix64(w * n + b) for w, b in inserted})
        if len(self._batch) == _LANES:
            self._fold()

    def hashes(self) -> list[int]:
        """The distinct hashes recorded so far, in first-visit order."""
        self._fold()
        return list(self._hashes)

    def _fold(self) -> None:
        batch, base = self._batch, self._base
        if not batch:
            return
        for h in _lane_hashes(self._n_cells, base, batch):
            if h not in self._seen:
                self._seen.add(h)
                self._hashes.append(h)
        # the batch's last tiling is the next batch's base
        for changes in batch:
            for k, c in changes.items():
                base[k] = c
        batch.clear()


def _lane_hashes(n_cells: int, base: Sequence[int],
                 changes: Sequence[dict[int, int]]) -> list[int]:
    """Tiling.hash64 of len(changes) tilings of one region at once, each
    given by its dimer codes by rank: tiling l has the codes of tiling
    l - 1, or of base for l = 0, except for the ranks changes[l] names.

    Tiling l is lane l: bits 128 * l to 128 * l + 127 of one int, with its
    fold in the low 64. Each step of the fold acts on every lane in one
    big-int operation: the increment is added in every lane, where a sum
    stays under 2**65 and so never carries into the next lane, and
    _mix_lanes does the rest of splitmix64.
    """
    lanes = len(changes)
    rep, mask, gamma = _lane_masks(lanes)
    # a changed rank's input is its run of codes, lane by lane; any other
    # rank's is its base code times rep
    runs: dict[int, list[tuple[int, int]]] = {}
    for lane, changed in enumerate(changes):
        for k, c in changed.items():
            runs.setdefault(k, [(0, base[k])]).append((lane, c))
    inputs = {}
    for k, run in runs.items():
        ends = [lane for lane, _c in run[1:]] + [lanes]
        inputs[k] = int.from_bytes(b"".join(
            c.to_bytes(16, "little") * (end - lane) for (lane, c), end in zip(run, ends)),
            "little")
    h = _splitmix64(n_cells) * rep
    for k, c in enumerate(base):
        x = inputs.get(k)
        # bits from the next lane stay above bit 96 of h until this mask
        h = _mix_lanes(((h ^ (c * rep if x is None else x)) + gamma) & mask, mask)
    return [h >> 128 * lane & _M64 for lane in range(lanes)]


def _key_struct(n_cells: int) -> Struct:
    """The layout of a tiling's packed key: its mate array as n_cells
    little-endian entries at the narrowest width that holds every cell
    index, typecode 'B' up to 256 cells, then 'H', then 'i'. Read as one
    little-endian int, a key is the sum of mate[c] << (8 * width * c), so
    a move that rewrites some entries adds a fixed delta to every key it
    applies to."""
    code = "B" if n_cells <= 1 << 8 else "H" if n_cells <= 1 << 16 else "i"
    return Struct("<%d%s" % (n_cells, code))


#: Most keys _pack_keys joins into one run of bytes before cutting it.
_RUN = 1 << 16


def _pack_keys(region: Region, mates: Iterable[Sequence[int]], layout: Struct):
    """(index, columns) of the distinct mate arrays packed with layout.

    index maps each key, read as one little-endian int, to its node number
    u, in input order. columns[w] of a white cell w is an int with one byte
    per node: bit i of byte u is set iff node u pairs w with the i-th cell
    of its _neighbor_rows row (a black cell's column is 0). Up to _RUN
    new keys are joined into one run of bytes; cell w's byte lane j is
    run[w * width + j :: layout.size], translated to the neighbour bits its
    byte values allow, and the lanes of a wider key are ANDed. The mate
    arrays are perfect matchings (a Tiling's, or _mates'), so each byte
    has exactly one bit set.
    """
    size = layout.size
    width = size // region.n_cells
    pack, from_bytes = layout.pack, int.from_bytes
    rows = _neighbor_rows(region)
    whites = region.whites
    # per white cell and byte lane, the neighbour bits of each byte value
    tables = []
    for w in whites:
        lanes = [bytearray(256) for _ in range(width)]
        for i, b in enumerate(rows[w]):
            for j, lane in enumerate(lanes):
                lane[b >> 8 * j & 255] |= 1 << i
        tables.append(lanes)
    parts = [bytearray() for _ in whites]

    def cut(run: bytearray) -> None:
        for w, lanes, part in zip(whites, tables, parts):
            column = -1
            for j, lane in enumerate(lanes):
                column &= from_bytes(run[w * width + j::size].translate(lane), "little")
            part += column.to_bytes(len(run) // size, "little")

    index: dict[int, int] = {}
    run = bytearray()
    for mate in mates:
        key = pack(*mate)
        u = len(index)
        if index.setdefault(from_bytes(key, "little"), u) == u:
            run += key
            if len(run) == _RUN * size:
                cut(run)
                run.clear()
    cut(run)
    columns = [0] * region.n_cells
    for w, part in zip(whites, parts):
        columns[w] = from_bytes(part, "little")
        part.clear()
    return index, columns


def _handled_moves(region: Region, move_set: frozenset) -> Iterator[tuple[tuple, tuple, int]]:
    """(removed, inserted, sign) of each move of the region that
    _key_components handles, its dimers as (white, black) index pairs.

    A flip is handled where its two dimers' axis is below the axis they are
    stacked along: per white cell w, each neighbour b in its _neighbor_rows
    row, and each partner (w2, b2) of the dimer (w, b) from _slab_partners
    with w2 > w along a direction e whose axis is above the dimer's. A trit
    is handled where its sign is +1: each _TRIOS entry of sign +1 on six
    region cells of a cube, looked up at call time and oriented by
    _oriented. Every other move of the region is the reverse of exactly one
    handled move.
    """
    step = region.step_table
    if "flip" in move_set:
        rows = _neighbor_rows(region)
        for w in region.whites:
            for b in rows[w]:
                axis = DIR_AXIS[step[w].index(b)]
                for e, w2, b2 in _slab_partners(step, w, b):
                    if w2 > w and DIR_AXIS[e] > axis:
                        yield ((w, b), (w2, b2)), ((w, b2), (w2, b)), 0
    if "trit" in move_set:
        for cube in region.cube_table.cubes:
            for removed, inserted, sign in _TRIOS:
                if sign > 0 and min(cube[i] for pair in removed for i in pair) >= 0:
                    yield (_oriented(region, cube, removed),
                           _oriented(region, cube, inserted), sign)


def _move_edges(region: Region, move_set: frozenset, columns: Sequence[int], n: int,
                width: int) -> Iterator[tuple[int, int, bytes, int]]:
    """(delta, sign, hits, counted) of each _handled_moves move over n keys
    with the given columns (_pack_keys) and key width in bytes: byte u of
    hits is 1 iff key u holds the move's removed dimers, the move takes key
    u to key u + delta, whose trit count is the key's plus sign, and
    counted keys hold its inserted dimers, so they meet its reverse.

    The keys holding a dimer are one bit of each byte of its white cell's
    column; a move's dimers are ANDed over all keys at once, one big-int
    operation each. delta is the packed inserted dimers less the packed
    removed ones: a dimer (c, d) packs as d << (8 * width * c) plus
    c << (8 * width * d).
    """
    bits = [{b: i for i, b in enumerate(row)} for row in _neighbor_rows(region)]
    ones = int.from_bytes(b"\1" * n, "little")
    shift = 8 * width

    def holding(pairs: Sequence[tuple[int, int]]) -> int:
        m = -1
        for w, b in pairs:
            m &= columns[w] >> bits[w][b]
        return m & ones

    def packed(pairs: tuple) -> int:
        return sum((d << shift * c) + (c << shift * d) for c, d in pairs)

    for removed, inserted, sign in _handled_moves(region, move_set):
        yield (packed(inserted) - packed(removed), sign,
               holding(removed).to_bytes(n, "little"), holding(inserted).bit_count())


#: One component of _key_components: its number of tilings, the mate array
#: of its first tiling in input order, the least and greatest trit label
#: relative to that tiling, and whether every edge agrees with the labels.
_KeyComponent = namedtuple("_KeyComponent", "size first low high consistent")


def _key_components(region: Region, mates: Iterable[Sequence[int]], moves: str):
    """The components of the move graph over a complete enumeration of
    region's tilings, given as mate arrays, with each tiling's signed trit
    label, in one pass and without building the graph or a Tiling.

    Each distinct packed mate array (_key_struct), read as one int, is a
    node, numbered in input order. The moves are read a move at a time over
    all keys at once (_move_edges): each move the region allows is handled
    at one end, and the keys that hold its removed dimers come out of an
    AND of per-cell columns. Each handled edge's target key is the key plus
    the move's delta, looked up and merged into a weighted union-find that
    keeps each node's signed trit count relative to its root (flips add 0,
    a trit 1). An edge that closes a cycle with a nonzero trit sum marks
    its component inconsistent. The input is closed under moves iff every
    handled target is found and the keys that meet a move's reverse balance
    the handled ones, since each handled move u -> v is the reverse of
    exactly one counted move at v; a missing handled target raises
    ValueError at once, and a missing counted one at the end of the pass.

    Returns (index, component, label, groups): index maps each key int to
    its node u, component[u] is the number of its component and label[u]
    its trit label relative to that component's first tiling, and groups
    holds one _KeyComponent per component, in order of first tiling. On a
    consistent component a label is the sum of the trit signs along any
    path of moves from the first tiling, so flips keep the label; all of
    these are the same whatever order the edges merge in.
    """
    move_set = _normalize_moves(moves)
    layout = _key_struct(region.n_cells)
    index, columns = _pack_keys(region, mates, layout)
    keys = list(index)
    # parent[u] and offset[u] = label(u) - label(parent[u]); size and
    # consistency are kept at the roots, consistency as one byte a node.
    # parent starts as the index's own numbers, so the nodes share one int
    # object each.
    n = len(index)
    parent = list(index.values())
    offset = [0] * n
    size = [1] * n
    consistent = bytearray(b"\1") * n

    def find(u: int) -> int:
        p = parent[u]
        r = parent[p]
        if parent[r] == r:  # two below the root, as a merge leaves most nodes
            parent[u], offset[u] = r, offset[u] + offset[p]
            return r
        path = []
        while parent[u] != u:
            path.append(u)
            u = parent[u]
        label = 0
        for v in reversed(path):  # nearest the root first
            label += offset[v]
            parent[v], offset[v] = u, label
        return u

    handled = counted = 0
    width = layout.size // region.n_cells
    for delta, sign, hits, others in _move_edges(region, move_set, columns, n, width):
        counted += others
        handled += hits.count(1)
        u = hits.find(1)
        while u >= 0:
            v = index.get(keys[u] + delta)
            if v is None:
                raise ValueError("move target missing from the enumerated set")
            # most nodes sit right below their root, where offset is final
            ru, rv = parent[u], parent[v]
            if parent[ru] != ru:
                ru = find(u)
            if parent[rv] != rv:
                rv = find(v)
            # label(v) = label(u) + sign, so label(rv) - label(ru) is gap
            gap = offset[u] + sign - offset[v]
            if ru == rv:
                if gap:
                    consistent[ru] = False
            else:
                if size[ru] < size[rv]:
                    ru, rv, gap = rv, ru, -gap
                parent[rv], offset[rv] = ru, gap
                size[ru] += size[rv]
                consistent[ru] = consistent[ru] and consistent[rv]
            u = hits.find(1, u + 1)
    # each handled move u -> v is the reverse of one counted move at v, so
    # a surplus of counted moves means one of them leaves the input (a
    # surplus of handled ones needs a trit that is +1 both ways, and the
    # cycle it closes already marks its component inconsistent)
    if counted > handled:
        raise ValueError("move target missing from the enumerated set")
    for u in range(n):
        if parent[parent[u]] != parent[u]:
            find(u)
    # every node now hangs right below its root, or is one; rewrite parent
    # and offset into each node's component number and label. groups[k] is
    # [size, first node, its label from the root, low, high, consistent].
    number: dict[int, int] = {}
    groups = []
    for u in range(n):
        root, label = parent[u], offset[u]
        k = number.get(root)
        if k is None:
            k = number[root] = len(groups)
            groups.append([size[root], u, label, 0, 0, consistent[root] == 1])
        g = groups[k]
        label -= g[2]
        if label < g[3]:
            g[3] = label
        elif label > g[4]:
            g[4] = label
        parent[u], offset[u] = k, label
    return index, parent, offset, [
        _KeyComponent(s, layout.unpack(keys[u].to_bytes(layout.size, "little")), low, high, c)
        for s, u, _base, low, high, c in groups]


#: One component of labelled_components; see there.
LabelledComponent = namedtuple("LabelledComponent", "tilings labels consistent")


def labelled_components(tilings: Iterable[Tiling], moves: str) -> list[LabelledComponent]:
    """_key_components over the distinct input tilings, in input order: one
    LabelledComponent(tilings, labels, consistent) per component, with its
    tilings in input order and labels[k] the trit label of tilings[k]
    relative to tilings[0]. Components come largest first, ties broken by
    the hash64 of their first tiling; only those first tilings are hashed.
    Every Tiling is a perfect matching, so no tiling is checked here.
    """
    region = None
    # keyed by the bytes of each packed mate array
    nodes: dict[bytes, Tiling] = {}
    for t in tilings:
        if region is None:
            region = t.region
        elif t.region != region:
            raise ValueError("tilings belong to different regions")
        nodes.setdefault(t._mate.tobytes(), t)
    if region is None:
        raise ValueError("no tilings given")
    _index, component, label, groups = _key_components(
        region, (t._mate for t in nodes.values()), moves)
    members: list[list[Tiling]] = [[] for _ in groups]
    labels: list[list[int]] = [[] for _ in groups]
    for u, t in enumerate(nodes.values()):
        members[component[u]].append(t)
        labels[component[u]].append(label[u])
    out = [LabelledComponent(ts, ls, g.consistent) for ts, ls, g in zip(members, labels, groups)]
    return sorted(out, key=lambda c: (-len(c.tilings), c.tilings[0].hash64))
