"""Independent oracles and frozen fixtures shared by the test modules.

Everything here recomputes results from first principles, without going
through the library's own adjacency tables or twist formula, so that the
tests compare two genuinely different code paths.
"""

from collections import deque
from fractions import Fraction

from tritile import (
    Dimer, MoveEdge, MoveGraph, Tiling, TritMove, apply_flip, apply_trit,
    build_box, build_voxel_region, find_flips, find_trits, refine_region,
)
from tritile.heights import INF, HeightField, TilingClass, enumerate_surface_tilings
from tritile.moves import _normalize_moves
from tritile.regions import DIR_AXIS, DIRECTIONS
from tritile.tilings import _direction


def _wrap_delta(a: int, b: int, p) -> int:
    if p is None:
        return b - a
    d = (b - a) % p
    return d if d <= p // 2 else d - p


def adjacent_cells(u, v, periods) -> bool:
    """Face adjacency from raw coordinates only (wrapping on tori)."""
    diffs = []
    for k in range(3):
        p = periods[k] if periods is not None else None
        if p is None:
            d = abs(v[k] - u[k])
        else:
            d = min((v[k] - u[k]) % p, (u[k] - v[k]) % p)
        diffs.append(d)
    return sorted(diffs) == [0, 0, 1]


def raw_step_table(region) -> tuple:
    """Region.step_table from raw coordinates: each cell plus each unit
    vector, wrapped by hand modulo the periods on a torus, looked up in a
    dict of the region's cells (-1 when absent)."""
    position = {c: i for i, c in enumerate(region.cells)}
    periods = region.periods
    table = []
    for cell in region.cells:
        row = []
        for vec in DIRECTIONS:
            other = [c + v for c, v in zip(cell, vec)]
            if periods is not None:
                other = [c % p for c, p in zip(other, periods)]
            row.append(position.get(tuple(other), -1))
        table.append(tuple(row))
    return tuple(table)


def slow_neighbor_table(region) -> tuple:
    """Region.neighbor_table cell by cell through Region.step and the index.

    One entry per unordered adjacent pair per axis: on a period-2 torus the
    +axis and -axis steps reach the same cell and are recorded once, under
    the +axis direction.
    """
    table = []
    for cell in region.cells:
        row = []
        seen = set()
        for d in range(6):
            j = region.index.get(region.step(cell, d))
            if j is None or (j, DIR_AXIS[d]) in seen:
                continue
            seen.add((j, DIR_AXIS[d]))
            row.append((j, d))
        table.append(tuple(row))
    return tuple(table)


def count_matchings(cells, periods=None, parity=0) -> int:
    """Perfect matching count via the Ryser permanent formula.

    Independent of the library: adjacency comes straight from coordinates
    and the count is an inclusion-exclusion sum, not a backtracking search.
    Only usable for small instances (2^#white subsets).
    """
    cells = list(cells)
    blacks = [c for c in cells if (sum(c) + parity) % 2 == 0]
    whites = [c for c in cells if (sum(c) + parity) % 2 == 1]
    if len(blacks) != len(whites):
        return 0
    n = len(whites)
    if n == 0:
        return 1
    if n > 20:
        raise ValueError("Ryser oracle limited to 20 white cells")
    rows = []
    for w in whites:
        mask = 0
        for j, b in enumerate(blacks):
            if adjacent_cells(w, b, periods):
                mask |= 1 << j
        rows.append(mask)
    total = 0
    for s in range(1 << n):
        prod = 1
        bits = bin(s).count("1")
        for mask in rows:
            prod *= bin(mask & s).count("1")
            if prod == 0:
                break
        total += (-1) ** (n - bits) * prod
    return total


def count_planar_matchings(surface) -> int:
    """Matching count for a coquadriculated surface graph, again via Ryser."""
    blacks = [v for v, c in surface.colors.items() if c == 1]
    whites = [v for v, c in surface.colors.items() if c == -1]
    if len(blacks) != len(whites):
        return 0
    n = len(whites)
    if n > 20:
        raise ValueError("Ryser oracle limited to 20 white vertices")
    windex = {v: i for i, v in enumerate(whites)}
    bindex = {v: i for i, v in enumerate(blacks)}
    rows = [0] * n
    for (b, w, _l, _r) in surface.edges:
        rows[windex[w]] |= 1 << bindex[b]
    total = 0
    for s in range(1 << n):
        prod = 1
        bits = bin(s).count("1")
        for mask in rows:
            prod *= bin(mask & s).count("1")
            if prod == 0:
                break
        total += (-1) ** (n - bits) * prod
    return total


def slow_winding(t1, t0, s):
    """wind(t1 - t0) by a BFS over the faces from INF that propagates the
    tiling difference across each edge, then a check of every edge; None
    when the field does not reproduce the difference (different flux)."""
    w = {INF: 0}
    queue = deque([INF])
    while queue:
        f = queue.popleft()
        for i in s.face_edges[f]:
            b, wv, l, r = s.edges[i]
            delta = (i in t1) - (i in t0)
            if f == l:
                g, value = r, w[f] - delta
            else:
                g, value = l, w[f] + delta
            if g not in w:
                w[g] = value
                queue.append(g)
    if len(w) != len(s.all_faces):
        raise ValueError("face graph is not connected")
    for i, (b, wv, l, r) in enumerate(s.edges):
        if w[l] - w[r] != (i in t1) - (i in t0):
            return None
    return HeightField(s, w)


def slow_tiling_classes(s):
    """Flux classes by placing each tiling, in enumeration order, in the
    first group whose first member has a slow_winding to it."""
    groups = []
    for t in enumerate_surface_tilings(s):
        for group in groups:
            if slow_winding(t, group[0], s) is not None:
                group.append(t)
                break
        else:
            groups.append([t])
    return [TilingClass(s, g) for g in groups]


def slow_height_function(t, cls):
    """h_t by its definition: the average of slow_winding(t, u) over the
    members u of the class, as exact fractions."""
    s = cls.surface
    totals = dict.fromkeys(s.all_faces, 0)
    for other in cls.tilings:
        w = slow_winding(t, other, s)
        for f in s.all_faces:
            totals[f] += w[f]
    n = len(cls.tilings)
    return HeightField(s, {f: Fraction(totals[f], n) for f in s.all_faces})


def _det3(a, b, c) -> int:
    return (a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0]))


def _open_overlap(a0, a1, b0, b1) -> bool:
    return a1 > b0 and b1 > a0


def slow_twist(t: Tiling, axis: int) -> int:
    """Literal shadow sum: for each ordered dimer pair (d, d'), a quarter of
    det[v(d'), v(d), e_axis] whenever the open shadow of d's solid, pushed
    along +axis, meets the open solid of d'. Plain loops, no vectorization.
    """
    e = [0, 0, 0]
    e[axis] = 1
    solids = []
    for d in t.dimers:
        lo = [min(d.white[k], d.black[k]) for k in range(3)]
        hi = [lo[k] + 1 + (1 if k == d.axis else 0) for k in range(3)]
        solids.append((lo, hi, d.direction))
    quarters = 0
    for (alo, ahi, va) in solids:
        for (blo, bhi, vb) in solids:
            if (alo, ahi) == (blo, bhi):
                continue
            hit = bhi[axis] > alo[axis]
            for k in range(3):
                if k != axis and not _open_overlap(alo[k], ahi[k], blo[k], bhi[k]):
                    hit = False
            if hit:
                quarters += _det3(vb, va, e)
    assert quarters % 4 == 0
    return quarters // 4


def slow_refine(t: Tiling, k: int) -> Tiling:
    """Literal refinement: every cross-section column of every refined dimer
    listed as a (cell, cell) pair, counted from the white end, then read back
    through Tiling.from_cell_pairs, which checks colours, adjacency and the
    cover pair by pair."""
    scale = 5 ** k
    region2 = refine_region(t.region, k)
    periods = t.region.periods
    pairs = []
    for d in t.dimers:
        axis = d.axis
        sign = d.sign
        if periods is not None and periods[axis] == 2:
            # non-wrapping lift on degenerate axes, matching Tiling.steps
            sign = d.black[axis] - d.white[axis]
        base = [c * scale for c in d.white]
        u, v = [ax for ax in range(3) if ax != axis]
        for du in range(scale):
            for dv in range(scale):
                for m in range(scale):
                    cell_a = list(base)
                    cell_a[u] += du
                    cell_a[v] += dv
                    cell_b = list(cell_a)
                    if sign > 0:
                        cell_a[axis] = base[axis] + 2 * m
                        cell_b[axis] = base[axis] + 2 * m + 1
                    else:
                        cell_a[axis] = base[axis] + scale - 1 - 2 * m
                        cell_b[axis] = base[axis] + scale - 2 - 2 * m
                    pairs.append((tuple(cell_a), tuple(cell_b)))
    return Tiling.from_cell_pairs(region2, pairs)


_TRIO_A = (((0, 0, 1), (1, 0, 1)), ((0, 1, 0), (0, 0, 0)), ((1, 1, 1), (1, 1, 0)))
_TRIO_B = (((0, 1, 0), (1, 1, 0)), ((1, 1, 1), (1, 0, 1)), ((0, 0, 1), (0, 0, 0)))
_REST = (((1, 0, 0), (2, 0, 0)), ((0, 2, 1), (0, 1, 1)), ((2, 1, 0), (2, 2, 0)),
         ((1, 2, 0), (0, 2, 0)), ((2, 0, 1), (2, 1, 1)), ((2, 2, 1), (1, 2, 1)))

_PINWHEEL = (((1, 0, 0), (0, 0, 0)), ((2, 1, 0), (2, 0, 0)),
             ((1, 2, 0), (2, 2, 0)), ((0, 1, 0), (0, 2, 0)),
             ((0, 0, 1), (0, 1, 1)), ((2, 0, 1), (1, 0, 1)),
             ((2, 2, 1), (2, 1, 1)), ((0, 2, 1), (1, 2, 1)),
             ((1, 1, 1), (1, 1, 0)))


def tiling_tA() -> Tiling:
    """3x3x2 tiling holding a one-dimer-per-axis trio in the low cube."""
    r = build_box(3, 3, 2)
    return Tiling.from_cell_pairs(r, _TRIO_A + _REST)


def tiling_tB() -> Tiling:
    """tiling_tA with the low-cube trio rotated to the other chirality."""
    r = build_box(3, 3, 2)
    return Tiling.from_cell_pairs(r, _TRIO_B + _REST)


def pinwheel_N1() -> Tiling:
    """One of the two flip-free 3x3x2 tilings (two pinwheel layers)."""
    r = build_box(3, 3, 2)
    return Tiling.from_cell_pairs(r, _PINWHEEL)


def pinwheel_N2() -> Tiling:
    """Mirror image of pinwheel_N1 through the z = 1/2 plane."""
    r = build_box(3, 3, 2)
    flipped = [((w[0], w[1], 1 - w[2]), (b[0], b[1], 1 - b[2]))
               for (w, b) in _PINWHEEL]
    return Tiling.from_cell_pairs(r, flipped)


def corner_cut_cube():
    """The 3x3x3 box minus one corner: cubes with 7 of 8 cells in the region."""
    return build_voxel_region([(x, y, z) for x in range(3) for y in range(3)
                               for z in range(3) if (x, y, z) != (0, 0, 0)])


def slow_move_graph(tilings, moves) -> MoveGraph:
    """The move graph by applying each found move to a new Tiling and
    looking the target up by its hash64."""
    move_set = _normalize_moves(moves)
    nodes = {t.hash64: t for t in tilings}
    region = next(iter(nodes.values())).region
    edge_keys = set()
    edges = []
    for h, t in nodes.items():
        outgoing = []
        if "flip" in move_set:
            outgoing.extend((apply_flip(t, m), "flip", 0) for m in find_flips(t))
        if "trit" in move_set:
            outgoing.extend((apply_trit(t, m), "trit", m.sign) for m in find_trits(t))
        for t2, kind, sign in outgoing:
            h2 = t2.hash64
            assert h2 in nodes, "move target missing from the enumerated set"
            u, v, s = (h, h2, sign) if h <= h2 else (h2, h, -sign)
            key = (u, v, kind, s)
            if key in edge_keys:
                continue
            edge_keys.add(key)
            edges.append(MoveEdge(u, v, kind, s))
    return MoveGraph(region, nodes, edges, move_set)


_OFFSETS = [(dx, dy, dz) for dx in (0, 1) for dy in (0, 1) for dz in (0, 1)]


def _cell_dimer(region, a, b) -> Dimer:
    white, black = (a, b) if region.color(a) == -1 else (b, a)
    return Dimer(white, black, _direction(region, white, black))


def _offset(region, a, cell, axis: int) -> int:
    off = cell[axis] - a[axis]
    if region.periods is not None:
        off %= region.periods[axis]
    assert off in (0, 1)
    return off


def slow_trit_move(region, anchor, dimers) -> TritMove:
    """The trit removing `dimers` (one per axis, in any order) from the cube
    at `anchor`, in cell coordinates with period arithmetic: the sign from
    the y-offset of the x-dimer, the z-offset of the y-dimer and the
    x-offset of the z-dimer, and each inserted dimer keeping its axis with
    both transverse offsets flipped."""
    dimers = sorted(dimers, key=lambda d: d.axis)
    assert [d.axis for d in dimers] == [0, 1, 2]
    covered = {c for d in dimers for c in d.cells()}
    leftover = [o for o in _OFFSETS
                if region.reduce(tuple(anchor[m] + o[m] for m in range(3))) not in covered]
    assert len(leftover) == 2 and all(
        leftover[0][m] + leftover[1][m] == 1 for m in range(3))
    chirality = sum(_offset(region, anchor, d.white, (k + 1) % 3)
                    for k, d in enumerate(dimers)) % 2
    inserted = []
    for k, d in enumerate(dimers):
        u, v = [ax for ax in range(3) if ax != k]
        cell0 = [0, 0, 0]
        cell0[k] = anchor[k]
        cell0[u] = anchor[u] + 1 - _offset(region, anchor, d.white, u)
        cell0[v] = anchor[v] + 1 - _offset(region, anchor, d.white, v)
        cell1 = list(cell0)
        cell1[k] += 1
        inserted.append(_cell_dimer(region, region.reduce(tuple(cell0)),
                                    region.reduce(tuple(cell1))))
    return TritMove(removed=tuple(dimers), inserted=tuple(inserted),
                    anchor=anchor, sign=1 if chirality else -1)
