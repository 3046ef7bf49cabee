"""Flips, trits, move graphs, and the signed trit labeling.

A flip exchanges two parallel dimers filling a 2x2x1 slab. A trit exchanges
three pairwise orthogonal dimers inside a 2x2x2 cube whose two uncovered
cells are antipodal; it carries a sign. The sign convention is calibrated so
that applying a positive trit raises the combinatorial twist by exactly 1:
writing the removed trio's offsets relative to the cube anchor, the move is
positive iff the y-offset of the x-dimer, the z-offset of the y-dimer and
the x-offset of the z-dimer sum to an odd number. That quantity is invariant
under translations and proper rotations, so the sign is well defined on tori
as well.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence, Union

from .regions import Cell, DIR_AXIS, Region
from .tilings import Dimer, Tiling, _direction, _splitmix64

_OFFSETS = [(dx, dy, dz) for dx in (0, 1) for dy in (0, 1) for dz in (0, 1)]


def _make_dimer(region: Region, a: Cell, b: Cell) -> Dimer:
    white, black = (a, b) if region.color(a) == -1 else (b, a)
    return Dimer(white, black, _direction(region, white, black))


@dataclass(frozen=True)
class FlipMove:
    """Two parallel dimers swapped for the only other pair filling the slab."""

    removed: tuple[Dimer, Dimer]
    inserted: tuple[Dimer, Dimer]
    slab_corner: Cell
    dimer_axis: int
    offset_axis: int

    def reversed(self) -> "FlipMove":
        return FlipMove(
            removed=self.inserted,
            inserted=self.removed,
            slab_corner=self.slab_corner,
            dimer_axis=self.offset_axis,
            offset_axis=self.dimer_axis,
        )


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
    region = t.region
    step = _lattice(region).step
    mate = t.mate
    moves: list[FlipMove] = []
    for w, b in t.pairs:
        for d, w2 in _flip_partners(step, mate, w, b):
            if w2 > w:
                moves.append(_flip_move(region, w, b, d, w2, mate[w2]))
    return moves


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
    region = t.region
    lattice = _lattice(region)
    mate = t.mate
    moves: list[TritMove] = []
    seen: set[tuple] = set()
    for a, cube in zip(lattice.anchors, lattice.cubes):
        trio = _cube_trio(cube, mate)
        if trio is None or trio in seen:
            continue
        seen.add(trio)
        moves.append(_trit_move(region, a, trio))
    return moves


# -- scanners shared by the full scans and WalkState ------------------------

class _Lattice:
    """Index tables of a region that the move scanners read.

    step[i][d] is the index of the cell one step from cell i in direction d,
    or -1 off the region. anchors are the sorted 2x2x2 cube anchors with at
    least 7 cells in the region, cubes[r] the cell indices of anchor r's cube
    in _OFFSETS order (-1 off the region), and cell_anchors[i] the anchors
    whose cube holds cell i.
    """

    __slots__ = ("step", "anchors", "cubes", "cell_anchors")

    def __init__(self, region: Region):
        index = region.index
        self.step = tuple(
            tuple(index.get(region.step(cell, d), -1) for d in range(6))
            for cell in region.cells)
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


def _flip_move(region: Region, w: int, b: int, d: int, w2: int, b2: int) -> FlipMove:
    # w < w2: the dimer (w, b) comes first; d carries it onto (w2, b2)
    cells = region.cells
    first = _make_dimer(region, cells[w], cells[b])
    return FlipMove(
        removed=(first, _make_dimer(region, cells[w2], cells[b2])),
        inserted=(_make_dimer(region, cells[w], cells[b2]),
                  _make_dimer(region, cells[w2], cells[b])),
        slab_corner=cells[min(w, b, w2, b2)],
        dimer_axis=first.axis,
        offset_axis=DIR_AXIS[d],
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


def _trit_move(region: Region, a: Cell, trio: tuple) -> TritMove:
    cells = region.cells
    dimers = sorted(
        (_make_dimer(region, cells[c], cells[p]) for c, p in trio),
        key=lambda d: d.axis)
    covered = {c for d in dimers for c in d.cells()}
    leftover = [o for o in _OFFSETS
                if region.reduce((a[0] + o[0], a[1] + o[1], a[2] + o[2])) not in covered]
    assert len(leftover) == 2 and all(
        leftover[0][m] + leftover[1][m] == 1 for m in range(3))
    return TritMove(
        removed=tuple(dimers),
        inserted=tuple(_complement_trio(region, a, dimers)),
        anchor=a,
        sign=1 if _chirality(region, a, dimers) else -1,
    )


def _offset(region: Region, a: Cell, cell: Cell, axis: int) -> int:
    off = cell[axis] - a[axis]
    if region.periods is not None:
        off %= region.periods[axis]
    assert off in (0, 1)
    return off


def _chirality(region: Region, a: Cell, dimers: Sequence[Dimer]) -> int:
    # y-offset of the x-dimer + z-offset of the y-dimer + x-offset of the
    # z-dimer, mod 2; dimers come sorted by axis.
    total = 0
    for k, d in enumerate(dimers):
        total += _offset(region, a, d.white, (k + 1) % 3)
    return total % 2


def _complement_trio(region: Region, a: Cell, dimers: Sequence[Dimer]) -> list[Dimer]:
    # The only other configuration covering the same six cells: each dimer
    # keeps its axis, both transverse offsets flip.
    out = []
    for k, d in enumerate(dimers):
        u, v = [ax for ax in range(3) if ax != k]
        cell0 = [0, 0, 0]
        cell0[k] = a[k]
        cell0[u] = a[u] + 1 - _offset(region, a, d.white, u)
        cell0[v] = a[v] + 1 - _offset(region, a, d.white, v)
        cell1 = list(cell0)
        cell1[k] += 1
        ca = region.reduce(tuple(cell0))
        cb = region.reduce(tuple(cell1))
        out.append(_make_dimer(region, ca, cb))
    return out


def apply_trit(t: Tiling, m: TritMove) -> Tiling:
    return t.replace(m.removed, m.inserted)


def _normalize_moves(moves: Union[str, Iterable[str]]) -> frozenset:
    if isinstance(moves, str):
        aliases = {
            "flip": {"flip"},
            "fliptrit": {"flip", "trit"},
            "flip+trit": {"flip", "trit"},
        }
        if moves not in aliases:
            raise ValueError("moves must be 'flip' or 'flip+trit'")
        return frozenset(aliases[moves])
    s = frozenset(moves)
    if not s or not s <= {"flip", "trit"}:
        raise ValueError("moves must be a nonempty subset of {'flip', 'trit'}")
    return s


class WalkState:
    """A tiling being walked: a mutable mate array plus an index of its moves.

    The index lists the same moves as find_flips + find_trits of the current
    tiling, in the same order (flips only or trits only when `moves` says
    so). A move changes at most 6 cells, so apply() drops the indexed moves
    that touch them and rescans only the inserted dimers for flips and the
    cubes around the changed cells for trits: a step costs work in
    proportion to the move's neighbourhood, not to the tiling.
    """

    def __init__(self, t: Tiling, moves: Union[str, Iterable[str]] = "flip+trit"):
        move_set = _normalize_moves(moves)
        region = t.region
        self.region = region
        self._lattice = _lattice(region)
        self.mate = list(t.mate)
        n = region.n_cells
        self._flip_moves = "flip" in move_set
        self._trit_moves = "trit" in move_set
        # flips: key (white * 6 + direction) of the first removed dimer ->
        # (w, b, direction, w2, b2); trits: anchor rank -> cube trio
        self._flips: dict[int, tuple[int, int, int, int, int]] = {}
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
        return _trit_move(self.region, self._lattice.anchors[r], self._trits[r])

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
            self._flips[key] = (w, b, d, w2, b2)
            insort(self._flip_keys, key)
            for c in (w, b, w2, b2):
                self._flips_at[c].add(key)
        return lower

    def _drop_flip(self, key: int) -> None:
        w, b, _d, w2, b2 = self._flips.pop(key)
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
    region = t.region
    lattice = _lattice(region)
    mate = t.mate
    if "flip" in move_set:
        for w, b in t.pairs:
            for _d, w2 in _flip_partners(lattice.step, mate, w, b):
                if w2 > w:
                    b2 = mate[w2]
                    new = list(mate)
                    new[w], new[b2], new[w2], new[b] = b2, w, b, w2
                    yield tuple(new), "flip", 0
    if "trit" in move_set:
        index = region.index
        seen: set[tuple] = set()
        for a, cube in zip(lattice.anchors, lattice.cubes):
            trio = _cube_trio(cube, mate)
            if trio is None or trio in seen:
                continue
            seen.add(trio)
            m = _trit_move(region, a, trio)
            new = list(mate)
            for d in m.inserted:
                wi, bi = index[d.white], index[d.black]
                new[wi], new[bi] = bi, wi
            yield tuple(new), "trit", m.sign


def move_graph(tilings: Iterable[Tiling], moves: Union[str, Iterable[str]]) -> MoveGraph:
    """Build the move graph over a complete enumeration of a region's tilings.

    The scan runs in index space. Each input tiling is hashed once and
    indexed by its exact mate array. Flips come from _flip_partners over the
    tiling's pairs and trits from _cube_trio over the lattice cubes, in
    find_flips and find_trits order. A neighbour's mate array is a copy with
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
