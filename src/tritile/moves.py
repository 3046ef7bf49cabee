"""Flips, trits, move graphs, and the signed trit labeling.

A flip exchanges two parallel dimers filling a 2x2x1 slab. A trit exchanges
three pairwise orthogonal dimers inside a 2x2x2 cube whose two uncovered
cells are antipodal; it carries a sign. The sign convention is calibrated so
that applying a positive trit raises the combinatorial twist by exactly 1.
Number the cube's cells 0..7 by position bits, x = 4, y = 2, z = 1 (the
offsets from the cube anchor; a dimer whose cells sit at positions i and
i ^ bit runs along that bit's axis). The move is positive iff the y bit of
the x-dimer, the z bit of the y-dimer and the x bit of the z-dimer sum to
an odd number. That quantity is invariant under translations and proper
rotations, so the sign is well defined on tori as well.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence, Union

from .regions import Cell, Region
from .tilings import Dimer, Tiling, _direction, _splitmix64

# cube offsets; the position of offset (dx, dy, dz) is 4 dx + 2 dy + dz
_OFFSETS = [(dx, dy, dz) for dx in (0, 1) for dy in (0, 1) for dz in (0, 1)]


def _dimer(region: Region, i: int, j: int) -> Dimer:
    """The dimer on the adjacent cells of index i and j, white cell first."""
    if region.colors[i] == 1:
        i, j = j, i
    white, black = region.cells[i], region.cells[j]
    return Dimer(white, black, _direction(region, white, black))


@dataclass(frozen=True)
class FlipMove:
    """Two parallel dimers swapped for the only other pair filling the slab."""

    removed: tuple[Dimer, Dimer]
    inserted: tuple[Dimer, Dimer]

    def reversed(self) -> "FlipMove":
        return FlipMove(removed=self.inserted, inserted=self.removed)


@dataclass(frozen=True)
class TritMove:
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

    Anchors range over every 2x2x2 cube position with at least 7 of its 8
    cells inside the region; a trit needs exactly three dimers of t fully
    inside the cube, one per axis. The two leftover cube cells are then
    automatically antipodal, and any of them lying in the region is covered
    by a dimer that exits the cube. Trits are ordered by anchor; where two
    anchors alias one cube (period-2 torus axes) the smaller one is kept.
    """
    lattice = _lattice(t.region)
    return [_trit_move(t.region, lattice, r, trio) for r, trio in _trits(lattice, t.mate)]


# -- scanners shared by the full scans and WalkState ------------------------

class _Lattice:
    """Index tables of a region that the move scanners read.

    step is the region's step_table: step[i][d] is the index of the cell one
    step from cell i in direction d, or -1 off the region. anchors are the
    sorted 2x2x2 cube anchors with at least 7 cells in the region, cubes[r]
    the cell indices of anchor r's cube in _OFFSETS order (-1 off the
    region), and cell_anchors[i] the anchors whose cube holds cell i.
    """

    __slots__ = ("step", "anchors", "cubes", "cell_anchors")

    def __init__(self, region: Region):
        index = region.index
        self.step = region.step_table
        candidates = {region.reduce((x - o[0], y - o[1], z - o[2]))
                      for (x, y, z) in region.cells for o in _OFFSETS}
        self.anchors: list[Cell] = []
        self.cubes: list[tuple[int, ...]] = []
        cell_anchors: list[list[int]] = [[] for _ in region.cells]
        for a in sorted(candidates):
            cube = tuple(
                index.get(region.reduce((a[0] + o[0], a[1] + o[1], a[2] + o[2])), -1)
                for o in _OFFSETS)
            if cube.count(-1) > 1:
                continue
            for c in cube:
                if c >= 0:
                    cell_anchors[c].append(len(self.cubes))
            self.anchors.append(a)
            self.cubes.append(cube)
        self.cell_anchors = tuple(tuple(r) for r in cell_anchors)


@lru_cache(maxsize=8)
def _lattice(region: Region) -> _Lattice:
    return _Lattice(region)


def _flip_partners(step, mate: Sequence[int], w: int, b: int) -> list[tuple[int, int]]:
    """(direction, white cell) of each dimer parallel to the dimer (w, b)
    one step away, so that the two fill a 2x2x1 slab: a flip.

    Each partner is listed once, under the first direction reaching it (on
    a period-2 axis both signs of the step reach the same dimer).
    """
    out: list[tuple[int, int]] = []
    sw, sb = step[w], step[b]
    for d in range(6):
        pb, pw = sw[d], sb[d]
        if pb == b or pw == w:  # d runs along the dimer
            continue
        if pb < 0 or pw < 0 or mate[pb] != pw:
            continue
        if out and out[-1][1] == pw:
            continue
        out.append((d, pw))
    return out


def _flips(t: Tiling) -> Iterator[tuple[int, int, int, int]]:
    """(w, b, w2, b2) of each flip of t in find_flips order: the dimers
    (w, b) and (w2, b2), white cell first, with w < w2."""
    step = _lattice(t.region).step
    mate = t.mate
    for w, b in t.pairs:
        for _d, w2 in _flip_partners(step, mate, w, b):
            if w2 > w:
                yield w, b, w2, mate[w2]


def _flip_move(region: Region, w: int, b: int, w2: int, b2: int) -> FlipMove:
    return FlipMove(
        removed=(_dimer(region, w, b), _dimer(region, w2, b2)),
        inserted=(_dimer(region, w, b2), _dimer(region, w2, b)),
    )


def _cube_trio(cube: tuple[int, ...], mate: Sequence[int]) -> Optional[tuple]:
    """The sorted (cell, cell) index pairs of a trit in this cube, or None.

    A trit needs exactly three dimers inside the cube, one per axis. Two
    cube cells differ in exactly the offset bits of the axes they differ
    along, so a dimer's axis shows as the XOR of its cells' cube positions.
    """
    pairs = []
    axes = 0
    for i, c in enumerate(cube):
        if c < 0:
            continue
        p = mate[c]
        if c < p and p in cube:
            axes |= i ^ cube.index(p)
            pairs.append((c, p))
    if len(pairs) != 3 or axes != 7:
        return None
    return tuple(sorted(pairs))


def _trits(lattice: _Lattice, mate: Sequence[int]) -> Iterator[tuple[int, tuple]]:
    """(anchor rank, trio) of each trit in find_trits order. A cube that
    two anchors alias (period-2 torus axes) is listed under the first."""
    seen: set[tuple] = set()
    for r, cube in enumerate(lattice.cubes):
        trio = _cube_trio(cube, mate)
        if trio is not None and trio not in seen:
            seen.add(trio)
            yield r, trio


def _trit_swap(cube: tuple[int, ...], trio: tuple) -> tuple[list, list, int]:
    """(removed, inserted, sign) of the trit of this cube's trio, with the
    removed and inserted (cell, cell) index pairs in x, y, z axis order.

    The pair at positions i and i ^ bit runs along bit's axis; indexing the
    trio by that bit raises KeyError unless it holds one dimer per axis.
    The three pair XORs are 4, 2 and 1, so the six covered positions XOR to
    7; all eight XOR to 0, so the two leftover positions XOR to 7 too: they
    are antipodal. The other trio on the same six cells keeps each dimer's
    axis and flips both transverse bits: the dimer at (i, i ^ bit) becomes
    (i ^ 7 ^ bit, i ^ 7).
    """
    at = {}
    for c, p in trio:
        i = cube.index(c)
        at[i ^ cube.index(p)] = i
    removed, inserted = [], []
    for bit in (4, 2, 1):
        i = at[bit]
        removed.append((cube[i], cube[i ^ bit]))
        inserted.append((cube[i ^ 7 ^ bit], cube[i ^ 7]))
    # y bit of the x-dimer + z bit of the y-dimer + x bit of the z-dimer
    odd = ((at[4] >> 1) ^ at[2] ^ (at[1] >> 2)) & 1
    return removed, inserted, 1 if odd else -1


def _trit_move(region: Region, lattice: _Lattice, r: int, trio: tuple) -> TritMove:
    removed, inserted, sign = _trit_swap(lattice.cubes[r], trio)
    return TritMove(
        removed=tuple(_dimer(region, i, j) for i, j in removed),
        inserted=tuple(_dimer(region, i, j) for i, j in inserted),
        anchor=lattice.anchors[r],
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
        self._lattice = _lattice(region)
        self.mate = list(t.mate)
        n = region.n_cells
        self._flip_moves = "flip" in move_set
        self._trit_moves = "trit" in move_set
        # flips: key (white * 6 + direction) of the first removed dimer ->
        # (w, b, w2, b2); trits: anchor rank -> cube trio
        self._flips: dict[int, tuple[int, int, int, int]] = {}
        self._flip_keys: list[int] = []
        self._flips_at: list[set[int]] = [set() for _ in range(n)]
        self._trits: dict[int, tuple] = {}
        self._trit_ranks: list[int] = []
        self._trio_rank: dict[tuple, int] = {}
        self._trits_at: list[set[int]] = [set() for _ in range(n)]
        if self._flip_moves:
            for w, b in t.pairs:
                self._scan_flips(w)
        if self._trit_moves:
            self._scan_trits(range(len(self._lattice.cubes)))
        # Tiling.hash64 folds one code per dimer in white-cell order; keep the
        # codes and every prefix of the fold, so a step refolds only from the
        # first changed dimer on.
        self._rank = {w: k for k, (w, _b) in enumerate(t.pairs)}
        self._codes = [_splitmix64(w * n + b) for w, b in t.pairs]
        self._fold = [_splitmix64(n)] + [0] * len(self._codes)
        self._stale = 0

    def __len__(self) -> int:
        return len(self._flip_keys) + len(self._trit_ranks)

    def move(self, k: int):
        """The k-th available move, 0 <= k < len(self)."""
        nf = len(self._flip_keys)
        if k < nf:
            return _flip_move(self.region, *self._flips[self._flip_keys[k]])
        r = self._trit_ranks[k - nf]
        return _trit_move(self.region, self._lattice, r, self._trits[r])

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
            for key in list(self._flips_at[c]):
                self._drop_flip(key)
            for r in list(self._trits_at[c]):
                self._drop_trit(r)
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
            lower: set[int] = set()
            for w in inserted:
                lower.update(self._scan_flips(w))
            for w in lower.difference(inserted):
                self._scan_flips(w)
        if self._trit_moves:
            lattice = self._lattice
            self._scan_trits(sorted({r for c in changed for r in lattice.cell_anchors[c]}))

    # -- index maintenance --------------------------------------------------

    def _scan_flips(self, w: int) -> list[int]:
        """Index the flips keyed by the dimer at white cell w; return the
        white cells of its smaller-indexed flip partners."""
        mate = self.mate
        b = mate[w]
        lower = []
        for d, w2 in _flip_partners(self._lattice.step, mate, w, b):
            if w2 < w:
                lower.append(w2)
                continue
            key = w * 6 + d
            if key in self._flips:
                continue
            b2 = mate[w2]
            self._flips[key] = (w, b, w2, b2)
            insort(self._flip_keys, key)
            for c in (w, b, w2, b2):
                self._flips_at[c].add(key)
        return lower

    def _drop_flip(self, key: int) -> None:
        w, b, w2, b2 = self._flips.pop(key)
        keys = self._flip_keys
        del keys[bisect_left(keys, key)]
        for c in (w, b, w2, b2):
            self._flips_at[c].discard(key)

    def _scan_trits(self, ranks: Iterable[int]) -> None:
        """Index the trits of the given anchors, taken in increasing order so
        that an aliased cube keeps its smallest anchor."""
        cubes = self._lattice.cubes
        for r in ranks:
            if r in self._trits:
                continue
            trio = _cube_trio(cubes[r], self.mate)
            if trio is None or trio in self._trio_rank:
                continue
            self._trits[r] = trio
            self._trio_rank[trio] = r
            insort(self._trit_ranks, r)
            for pair in trio:
                for c in pair:
                    self._trits_at[c].add(r)

    def _drop_trit(self, r: int) -> None:
        trio = self._trits.pop(r)
        del self._trio_rank[trio]
        ranks = self._trit_ranks
        del ranks[bisect_left(ranks, r)]
        for pair in trio:
            for c in pair:
                self._trits_at[c].discard(r)


@dataclass(frozen=True)
class MoveEdge:
    u: int
    v: int
    kind: str
    sign: int  # trit sign going u -> v; 0 for flips


class MoveGraph:
    """Move graph over a fully enumerated tiling set, keyed by canonical hash."""

    def __init__(self, region: Region, tilings: dict[int, Tiling],
                 edges: Sequence[MoveEdge], moves: frozenset):
        self.region = region
        self.tilings = tilings
        self.edges = tuple(edges)
        self.moves = moves
        self._adj: Optional[dict[int, list[tuple[int, str, int]]]] = None

    @property
    def adjacency(self) -> dict[int, list[tuple[int, str, int]]]:
        if self._adj is None:
            adj: dict[int, list[tuple[int, str, int]]] = {h: [] for h in self.tilings}
            for e in self.edges:
                adj[e.u].append((e.v, e.kind, e.sign))
                adj[e.v].append((e.u, e.kind, -e.sign))
            self._adj = adj
        return self._adj

    def components(self) -> list[list[int]]:
        """Connected components as hash lists, largest first."""
        parent = {h: h for h in self.tilings}

        def find(x: int) -> int:
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        for e in self.edges:
            ru, rv = find(e.u), find(e.v)
            if ru != rv:
                parent[ru] = rv
        groups: dict[int, list[int]] = {}
        for h in self.tilings:
            groups.setdefault(find(h), []).append(h)
        return sorted(groups.values(), key=lambda g: (-len(g), g[0]))

    def component_sizes(self) -> list[int]:
        return [len(g) for g in self.components()]


def _move_targets(t: Tiling, move_set: frozenset) -> Iterator[tuple[tuple[int, ...], str, int]]:
    """(mate array of the target, kind, sign) of each move of t, in
    find_flips then find_trits order."""
    mate = t.mate
    if "flip" in move_set:
        for w, b, w2, b2 in _flips(t):
            new = list(mate)
            new[w], new[b2], new[w2], new[b] = b2, w, b, w2
            yield tuple(new), "flip", 0
    if "trit" in move_set:
        lattice = _lattice(t.region)
        for r, trio in _trits(lattice, mate):
            _removed, inserted, sign = _trit_swap(lattice.cubes[r], trio)
            new = list(mate)
            for i, j in inserted:
                new[i], new[j] = j, i
            yield tuple(new), "trit", sign


def move_graph(tilings: Iterable[Tiling], moves: str) -> MoveGraph:
    """Build the move graph over a complete enumeration of a region's tilings.

    The scan runs in index space. Each input tiling is hashed once and
    indexed by its exact mate array. Moves come from the scans behind
    find_flips and find_trits (_flips, _trits), in their order, and a trit's
    new cells from _trit_swap. A neighbour's mate array is a copy with
    the moved cells' entries rewritten, looked up exactly, so no Tiling is
    built or hashed per edge and a hash64 collision cannot attach an edge to
    the wrong node. Raises ValueError when two different tilings share a
    hash64, since MoveGraph keys its nodes by it.
    """
    move_set = _normalize_moves(moves)
    nodes: dict[int, Tiling] = {}
    keys: dict[tuple[int, ...], int] = {}
    region = None
    for t in tilings:
        if region is None:
            region = t.region
        elif t.region != region:
            raise ValueError("tilings belong to different regions")
        h = t.hash64
        if h in nodes:
            if nodes[h].pairs != t.pairs:
                raise ValueError("two different tilings share the hash %016x" % h)
            continue
        nodes[h] = t
        keys[t.mate] = h
    if region is None:
        raise ValueError("no tilings given")
    edge_keys: set[tuple[int, int, str, int]] = set()
    edges: list[MoveEdge] = []
    for h, t in nodes.items():
        for target, kind, sign in _move_targets(t, move_set):
            h2 = keys.get(target)
            if h2 is None:
                raise ValueError("move target missing from the enumerated set")
            u, v, s = (h, h2, sign) if h <= h2 else (h2, h, -sign)
            key = (u, v, kind, s)
            if key in edge_keys:
                continue
            edge_keys.add(key)
            edges.append(MoveEdge(u, v, kind, s))
    return MoveGraph(region, nodes, edges, move_set)


def bfs_trit_labeling(g: MoveGraph, base: Union[Tiling, int]) -> tuple[dict[int, int], bool]:
    """Integer labels from signed trit counts along a BFS tree from base.

    label(base) = 0; flips leave the label unchanged, a trit edge adds its
    sign. Returns (labels for base's component, consistent), with consistent
    true iff every non-tree edge agrees with the labels, i.e. no cycle in the
    graph has a nonzero signed trit sum.
    """
    start = base.hash64 if isinstance(base, Tiling) else base
    if start not in g.tilings:
        raise ValueError("base tiling is not a node of the graph")
    labels = {start: 0}
    queue = [start]
    adj = g.adjacency
    while queue:
        nxt: list[int] = []
        for u in queue:
            for v, kind, sign in adj[u]:
                if v not in labels:
                    labels[v] = labels[u] + sign
                    nxt.append(v)
        queue = nxt
    consistent = True
    for e in g.edges:
        if e.u in labels and e.v in labels:
            if labels[e.v] - labels[e.u] != e.sign:
                consistent = False
                break
    return labels, consistent
