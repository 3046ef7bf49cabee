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

from array import array
from bisect import bisect_left, insort
from collections import namedtuple
from struct import Struct
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .regions import DIR_AXIS, Cell, Region
from .tilings import Dimer, Tiling, _direction, _splitmix64


def _dimer(region: Region, i: int, j: int) -> Dimer:
    """The dimer on the adjacent cells of index i and j, white cell first."""
    if region.colors[i] == 1:
        i, j = j, i
    white, black = region.cells[i], region.cells[j]
    return Dimer(white, black, _direction(region, white, black))


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
    that dimer onto the other.
    """
    return [_flip_move(t.region, *f) for f in _flips(t)]


def apply_flip(t: Tiling, m: FlipMove) -> Tiling:
    return t.replace(m.removed, m.inserted)


def find_trits(t: Tiling) -> list[TritMove]:
    """Every available trit with its sign, duplicate-free, deterministic.

    The cubes are the region's cube_table: each 2x2x2 cube with at least 7
    of its 8 cells in the region. A trit needs exactly three dimers of t
    fully inside the cube, one per axis. The two leftover cube cells are
    then antipodal, and any of them in the region is covered by a dimer that
    exits the cube. Trits are ordered by anchor.
    """
    return [_trit_move(t.region, r, entry) for r, entry in _trits(t.region, t.mate)]


# -- scanners shared by the full scans, WalkState and the move table ---------

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


def _flips(t: Tiling) -> list[tuple[int, int, int, int]]:
    """(w, b, w2, b2) of each flip of t in find_flips order: the dimers
    (w, b) and (w2, b2), white cell first, with w < w2."""
    step, mate = t.region.step_table, t.mate
    return [(w, b, w2, b2) for w, b in t.pairs
            for _e, w2, b2 in _slab_partners(step, w, b) if w2 > w and mate[w2] == b2]


def _flip_move(region: Region, w: int, b: int, w2: int, b2: int) -> FlipMove:
    return FlipMove(
        removed=(_dimer(region, w, b), _dimer(region, w2, b2)),
        inserted=(_dimer(region, w, b2), _dimer(region, w2, b)),
    )


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


def _trio(cube: tuple[int, ...], positions: tuple) -> tuple[int, ...]:
    """The cells of a cube's trio at positions: its (cell, cell) index
    pairs, each and all sorted, run together."""
    (c1, p1), (c2, p2), (c3, p3) = sorted(
        (min(cube[i], cube[j]), max(cube[i], cube[j])) for i, j in positions)
    return c1, p1, c2, p2, c3, p3


def _cube_trios(cubes: Sequence[tuple[int, ...]], mate: Sequence[int],
                ranks: Iterable[int]) -> list[tuple[int, tuple, tuple]]:
    """(rank, trio, entry) of each cube cubes[r], r in ranks, that holds a
    trit: its cells (see _trio) and the _TRIOS entry that matches them.
    Three in-cube dimers, one per axis, on six cells leave two antipodal
    ones, which share no face; so at most one entry matches a cube, and the
    scan stops there."""
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
                found.append((r, _trio(cube, entry[0]), entry))
                break
    return found


def _trits(region: Region, mate: Sequence[int]) -> Iterator[tuple[int, tuple]]:
    """(anchor rank, _TRIOS entry) of each trit in find_trits order."""
    cubes = region.cube_table.cubes
    for r, _trio, entry in _cube_trios(cubes, mate, range(len(cubes))):
        yield r, entry


def _trit_move(region: Region, r: int, entry: tuple) -> TritMove:
    table = region.cube_table
    cube = table.cubes[r]
    removed, inserted, sign = entry
    return TritMove(
        removed=tuple(_dimer(region, cube[i], cube[j]) for i, j in removed),
        inserted=tuple(_dimer(region, cube[i], cube[j]) for i, j in inserted),
        anchor=table.anchors[r],
        sign=sign,
    )


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

    The index lists the same moves as find_flips + find_trits of the current
    tiling, in the same order (flips only or trits only when `moves` says
    so). A move changes at most 6 cells, so apply() drops the indexed moves
    that touch them and rescans only the inserted dimers for flips and the
    cubes around the changed cells for trits: a step costs work in
    proportion to the move's neighbourhood, not to the tiling.
    """

    def __init__(self, t: Tiling, moves: str = "flip+trit"):
        move_set = _normalize_moves(moves)
        region = t.region
        self.region = region
        self.mate = list(t.mate)
        n = region.n_cells
        self._flip_moves = "flip" in move_set
        self._trit_moves = "trit" in move_set
        # One index of both kinds. A flip is keyed white * 6 + direction by
        # its first removed dimer, a trit 6 * n_cells + anchor rank, so the
        # sorted keys list flips then trits in find_flips/find_trits order.
        # key -> (the cells it removes, its _TRIOS entry or None): a flip's
        # (w, b, w2, b2), a trit's trio (see _trio)
        self._moves: dict[int, tuple[tuple[int, ...], Optional[tuple]]] = {}
        self._keys: list[int] = []
        self._keys_at: list[set[int]] = [set() for _ in range(n)]
        self._trit_base = 6 * n
        if self._flip_moves:
            self._scan_flips(t.pairs)
        if self._trit_moves:
            self._scan_trits(range(len(region.cube_table.cubes)))
        # Tiling.hash64 folds one code per dimer in white-cell order; keep the
        # codes and every prefix of the fold, so a step refolds only from the
        # first changed dimer on.
        self._rank = {w: k for k, (w, _b) in enumerate(t.pairs)}
        self._codes = [_splitmix64(w * n + b) for w, b in t.pairs]
        self._fold = [_splitmix64(n)] + [0] * len(self._codes)
        self._stale = 0

    def __len__(self) -> int:
        return len(self._keys)

    def move(self, k: int):
        """The k-th available move, 0 <= k < len(self)."""
        key = self._keys[k]
        cells, entry = self._moves[key]
        if entry is None:
            return _flip_move(self.region, *cells)
        return _trit_move(self.region, key - self._trit_base, entry)

    def moves(self) -> list:
        return [self.move(k) for k in range(len(self))]

    def tiling(self) -> Tiling:
        """An immutable snapshot of the current tiling."""
        return Tiling._from_mate(self.region, self.mate)

    @property
    def hash64(self) -> int:
        """Tiling.hash64 of the current tiling."""
        fold, codes = self._fold, self._codes
        h = fold[self._stale]
        for k in range(self._stale, len(codes)):
            h = _splitmix64(h ^ codes[k])
            fold[k + 1] = h
        self._stale = len(codes)
        return h

    def apply(self, m: Union[FlipMove, TritMove]) -> None:
        """Apply a move available in the current tiling."""
        index = self.region.index
        mate = self.mate
        removed = [(index[d.white], index[d.black]) for d in m.removed]
        if any(mate[w] != b for w, b in removed):
            raise ValueError("stale move: a removed dimer is absent from the tiling")
        changed = [c for pair in removed for c in pair]
        for c in changed:
            for key in list(self._keys_at[c]):
                self._drop(key)
        inserted = [index[d.white] for d in m.inserted]
        n = self.region.n_cells
        for d, w in zip(m.inserted, inserted):
            b = index[d.black]
            mate[w], mate[b] = b, w
            k = self._rank[w]
            self._codes[k] = _splitmix64(w * n + b)
            self._stale = min(self._stale, k)
        if self._flip_moves:
            # flips are keyed by their smaller white cell, so a new flip may
            # belong to an unchanged neighbour with a smaller index
            lower = set(self._scan_flips([(w, mate[w]) for w in inserted]))
            self._scan_flips([(w, mate[w]) for w in lower.difference(inserted)])
        if self._trit_moves:
            cell_anchors = self.region.cube_table.cell_anchors
            self._scan_trits({r for c in changed for r in cell_anchors[c]})

    # -- index maintenance --------------------------------------------------

    def _scan_flips(self, pairs: Iterable[tuple[int, int]]) -> list[int]:
        """Index the flips keyed by these dimers, white cell first; return
        the white cells of their smaller-indexed flip partners."""
        step, mate = self.region.step_table, self.mate
        lower = []
        for w, b in pairs:
            for e, w2, b2 in _slab_partners(step, w, b):
                if mate[w2] != b2:
                    continue
                if w2 < w:
                    lower.append(w2)
                elif w * 6 + e not in self._moves:
                    self._add(w * 6 + e, (w, b, w2, b2), None)
        return lower

    def _scan_trits(self, ranks: Iterable[int]) -> None:
        """Index the trits of the given anchors."""
        base = self._trit_base
        ranks = (r for r in ranks if base + r not in self._moves)
        for r, trio, entry in _cube_trios(self.region.cube_table.cubes, self.mate, ranks):
            self._add(base + r, trio, entry)

    def _add(self, key: int, cells: tuple[int, ...], entry: Optional[tuple]) -> None:
        self._moves[key] = cells, entry
        insort(self._keys, key)
        for c in cells:
            self._keys_at[c].add(key)

    def _drop(self, key: int) -> None:
        cells, _entry = self._moves.pop(key)
        del self._keys[bisect_left(self._keys, key)]
        for c in cells:
            self._keys_at[c].discard(key)


def _key_struct(n_cells: int) -> Struct:
    """The layout of a tiling's packed key: its mate array as n_cells
    entries at the narrowest array width that holds every cell index,
    typecode 'B' up to 256 cells, then 'H', then 'i'."""
    code = "B" if n_cells <= 1 << 8 else "H" if n_cells <= 1 << 16 else "i"
    return Struct("=%d%s" % (n_cells, code))


def _move_reader(region: Region, move_set: frozenset):
    """read(key) -> (handled, counted) over the packed keys of region's
    tilings: the moves _key_components handles from this end, as (key of
    the target, trit count), and how many it only counts. Flips are
    handled where their dimers' axis is below the axis they are stacked
    along, trits where their sign is +1 (so their count is 1). Each target
    is a copy of the key with the moved cells' entries rewritten.

    The move table lists every flip and trit the region allows, once per
    call. Per white cell w, a row maps each black neighbour b, under the
    first direction k reaching it, to the partners (w2, b2) = (step[b][e],
    step[w][e]) of the dimer (w, b) from _slab_partners with w2 > w, split
    into those handled (e's axis above k's) and those counted. Each trio of
    a cube, a _TRIOS entry on six region cells, comes with its inserted
    pairs and sign from the table. A key is read by comparisons alone: w's
    row at mate[w] names the partners to check, a trit takes three checks,
    and handled targets come out in find_flips then find_trits order. A
    pair of non-adjacent cells raises ValueError.
    """
    layout = _key_struct(region.n_cells)
    unpack, code = layout.unpack, layout.format[-1]
    flips = "flip" in move_set
    step = region.step_table
    rows = []
    for w, color in enumerate(region.colors):
        if color == 1:
            continue
        sw = step[w]
        row: dict[int, tuple[tuple, tuple]] = {}
        for k, b in enumerate(sw):
            if b < 0 or b in row:
                continue
            up, across = [], []
            for e, w2, b2 in _slab_partners(step, w, b) if flips else ():
                if w2 > w:
                    (up if DIR_AXIS[e] > DIR_AXIS[k] else across).append((w2, b2))
            row[b] = tuple(up), tuple(across)
        rows.append((w, row))
    plus, minus = [], []
    if "trit" in move_set:
        for cube in region.cube_table.cubes:
            for removed, inserted, sign in _TRIOS:
                trio = _trio(cube, removed)
                # sorted, so a cell off the region (-1) comes first
                if trio[0] < 0:
                    continue
                if sign < 0:
                    minus.append(trio)
                else:
                    plus.append((*trio, [(cube[i], cube[j]) for i, j in inserted]))

    def read(key: bytes) -> tuple[list[tuple[bytes, int]], int]:
        mate = unpack(key)
        base = array(code, key)
        handled = []
        counted = 0
        try:
            for w, row in rows:
                b = mate[w]
                up, across = row[b]
                for w2, b2 in up:
                    if mate[w2] == b2:
                        new = base[:]
                        new[w], new[b2], new[w2], new[b] = b2, w, b, w2
                        handled.append((new.tobytes(), 0))
                for w2, b2 in across:
                    if mate[w2] == b2:
                        counted += 1
        except KeyError:
            raise ValueError("a tiling pairs cells that are not adjacent") from None
        for c1, p1, c2, p2, c3, p3, inserted in plus:
            if mate[c1] == p1 and mate[c2] == p2 and mate[c3] == p3:
                new = base[:]
                for i, j in inserted:
                    new[i], new[j] = j, i
                handled.append((new.tobytes(), 1))
        for c1, p1, c2, p2, c3, p3 in minus:
            if mate[c1] == p1 and mate[c2] == p2 and mate[c3] == p3:
                counted += 1
        return handled, counted

    return read


#: One component of _key_components: its number of tilings, the mate array
#: of its first tiling in input order, the least and greatest trit label
#: relative to that tiling, and whether every edge agrees with the labels.
_KeyComponent = namedtuple("_KeyComponent", "size first low high consistent")


def _key_components(region: Region, mates: Iterable[Sequence[int]], moves: str):
    """The components of the move graph over a complete enumeration of
    region's tilings, given as mate arrays, with each tiling's signed trit
    label, in one pass and without building the graph or a Tiling.

    Each distinct packed mate array (_key_struct) is a node, numbered in
    input order. Each move edge is met once, at the end where _move_reader
    handles it. The reader lists every flip and trit that can occur on the
    region once per call, in a move table, and reads a key's moves off it by
    comparing mate entries, without rescanning the key's geometry. A
    handled move's target is looked up and merged into a weighted
    union-find that keeps each node's signed trit count relative to its
    root (flips add 0, a trit 1). An edge that closes a cycle with a nonzero
    trit sum marks its component inconsistent. The input is closed under
    moves iff every handled target is found and the counted moves balance
    the handled ones, since each handled move u -> v is the reverse of
    exactly one counted move at v; a missing handled target raises
    ValueError at once, and a missing counted one at the end of the pass.

    Returns (index, component, label, groups): index maps each packed mate
    array to its node u, component[u] is the number of its component and
    label[u] its trit label relative to that component's first tiling, and
    groups holds one _KeyComponent per component, in order of first tiling.
    On a consistent component a label is the sum of the trit signs along
    any path of moves from the first tiling, so flips keep the label.
    """
    move_set = _normalize_moves(moves)
    layout = _key_struct(region.n_cells)
    index: dict[bytes, int] = {}
    for mate in mates:
        index.setdefault(layout.pack(*mate), len(index))
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
        path = []
        while parent[u] != u:
            path.append(u)
            u = parent[u]
        label = 0
        for v in reversed(path):  # nearest the root first
            label += offset[v]
            parent[v], offset[v] = u, label
        return u

    read = _move_reader(region, move_set)
    handled = counted = 0
    for u, key in enumerate(index):
        targets, others = read(key)
        handled += len(targets)
        counted += others
        for target, sign in targets:
            v = index.get(target)
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
                continue
            if size[ru] < size[rv]:
                ru, rv, gap = rv, ru, -gap
            parent[rv], offset[rv] = ru, gap
            size[ru] += size[rv]
            consistent[ru] = consistent[ru] and consistent[rv]
    # each handled move u -> v is the reverse of one counted move at v, so
    # a surplus of counted moves means one of them leaves the input (a
    # surplus of handled ones needs a trit that is +1 both ways, and the
    # cycle it closes already marks its component inconsistent)
    if counted > handled:
        raise ValueError("move target missing from the enumerated set")
    for u in range(n):
        find(u)
    # every node now hangs right below its root, or is one; rewrite parent
    # and offset into each node's component number and label. groups[k] is
    # [size, first key, its label from the root, low, high, consistent].
    number: dict[int, int] = {}
    groups = []
    for u, key in enumerate(index):
        root, label = parent[u], offset[u]
        k = number.get(root)
        if k is None:
            k = number[root] = len(groups)
            groups.append([size[root], key, label, 0, 0, consistent[root] == 1])
        g = groups[k]
        label -= g[2]
        g[3], g[4] = min(g[3], label), max(g[4], label)
        parent[u], offset[u] = k, label
    return index, parent, offset, [_KeyComponent(s, layout.unpack(key), low, high, c)
                                   for s, key, _base, low, high, c in groups]


#: One component of labelled_components; see there.
LabelledComponent = namedtuple("LabelledComponent", "tilings labels consistent")


def labelled_components(tilings: Iterable[Tiling], moves: str) -> list[LabelledComponent]:
    """_key_components over the distinct input tilings, in input order: one
    LabelledComponent(tilings, labels, consistent) per component, with its
    tilings in input order and labels[k] the trit label of tilings[k]
    relative to tilings[0]. Components come largest first, ties broken by
    the hash64 of their first tiling; only those first tilings are hashed.
    A tiling that leaves a cell uncovered or covers one twice raises
    ValueError.
    """
    region = None
    nodes: dict[tuple[int, ...], Tiling] = {}
    for t in tilings:
        if region is None:
            region = t.region
        elif t.region != region:
            raise ValueError("tilings belong to different regions")
        mate = t.mate
        # -1 marks an uncovered cell, which no key of _key_struct stands
        # for; with every cell covered, n_cells / 2 pairs cover each once
        if -1 in mate or 2 * len(t.pairs) != len(mate):
            raise ValueError("a tiling does not cover each cell exactly once")
        nodes.setdefault(mate, t)
    if region is None:
        raise ValueError("no tilings given")
    _index, component, label, groups = _key_components(region, nodes, moves)
    members: list[list[Tiling]] = [[] for _ in groups]
    labels: list[list[int]] = [[] for _ in groups]
    for u, t in enumerate(nodes.values()):
        members[component[u]].append(t)
        labels[component[u]].append(label[u])
    out = [LabelledComponent(ts, ls, g.consistent) for ts, ls, g in zip(members, labels, groups)]
    return sorted(out, key=lambda c: (-len(c.tilings), c.tilings[0].hash64))
