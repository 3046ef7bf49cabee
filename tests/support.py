"""Independent oracles and frozen fixtures shared by the test modules.

Everything here recomputes results from first principles, without going
through the library's own adjacency tables or twist formula, so that the
tests compare two genuinely different code paths.
"""

import random
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from tritile import (
    Dimer, Region, Tiling, TritMove, WalkState, apply_flip, apply_trit,
    base_tiling, build_box, build_voxel_region, cutting_surface, diff_cycles,
    find_flips, find_trits, flux, flux_through_surface, refine_region, twist,
)
from tritile import moves as mv
from tritile import heights
from tritile.heights import INF, HeightField, TilingClass, enumerate_surface_tilings
from tritile.moves import LabelledComponent, _normalize_moves
from tritile.fluxtwist import _TANGENT_AXES
from tritile.harness import start_tiling
from tritile.regions import AXIS_NAMES, DIR_AXIS, DIRECTIONS, BudgetExceeded, _coordinate
from tritile.tilings import Pairs, _axis_index, _direction


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


def slow_octant_components(pattern) -> int:
    """The number of face-connected components of a set of offsets in
    {0,1}^3, by union-find over the bit flips that join two offsets."""
    parent = {o: o for o in pattern}

    def root(o):
        while parent[o] != o:
            o = parent[o]
        return o

    for o in pattern:
        for k in range(3):
            flipped = tuple(v ^ (i == k) for i, v in enumerate(o))
            if flipped in parent:
                parent[root(o)] = root(flipped)
    return sum(1 for o in parent if parent[o] == o)


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
    """Per cell, its adjacent cells as (index, direction) pairs in DIRECTIONS
    order, cell by cell through Region.step and the index.

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


def slow_perfect_matchings(rows):
    """The matching search as it was before it dropped matched partners
    from its rows: each option is skipped while its partner is matched.
    Yields the same reused (mate, labels) lists, in the same order."""
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


def surface_rows(s) -> list:
    """The (edge id, partner index) rows of a surface's matching search."""
    index = {v: k for k, v in enumerate(s.vertices)}
    return [[(i, index[s.edges[i][1] if v == s.edges[i][0] else s.edges[i][0]])
             for i in s.vertex_edges[v]] for v in s.vertices]


def slow_enumerate_surface_tilings(s) -> list:
    """enumerate_surface_tilings as it was before its matching bound: always
    a count pass against heights.LISTING_BUDGET, then the listing pass, both
    by slow_perfect_matchings."""
    rows = surface_rows(s)
    count = 0
    for _ in slow_perfect_matchings(rows):
        count += 1
        if count > heights.LISTING_BUDGET:
            raise BudgetExceeded(
                "surface with %d vertices has more than %d tilings, the listing budget"
                % (len(s.vertices), heights.LISTING_BUDGET))
    return sorted((frozenset(labels) for _, labels in slow_perfect_matchings(rows)), key=sorted)


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


def slow_flux(t: Tiling) -> tuple:
    """flux(t) on a torus the long way: per axis, the signed wrap crossings
    of the difference cycles of t against the x-axis brick tiling."""
    periods = t.region.periods
    w = [0, 0, 0]
    for cycle in diff_cycles(t, base_tiling(t.region, 0)).cycles:
        for cell, step in zip(cycle.cells, cycle.steps):
            for k in range(3):
                if step[k] == 1 and cell[k] == periods[k] - 1:
                    w[k] += 1
                elif step[k] == -1 and cell[k] == 0:
                    w[k] -= 1
    return tuple(w)


def slow_modulus(t: Tiling) -> int:
    """modulus(flux(t)) on a torus the long way: the gcd of the flows of t
    through the three cutting surfaces at level 0, flooded vertex by vertex."""
    m = 0
    for k in range(3):
        m = gcd(m, abs(flux_through_surface(t, cutting_surface(t.region, k, 0))))
    return m


def slow_vertex_flow(v, t: Tiling, s) -> int:
    """vertex_flow's reference: flood the eight octants around v between
    walls that hold no square of s, then look at all twelve squares around
    v and note which of their sides the flood reached."""
    region = t.region
    v = region.reduce(v)
    if v not in s._interior_set:
        raise ValueError("vertex %r is not an interior vertex of the surface" % (v,))
    i = region.index[v]
    step = t.steps[i]
    axis = 0 if step[0] else (1 if step[1] else 2)
    sign = step[axis]
    if s.edge_in_surface(v, axis, sign):
        return 0
    v2 = s._norm2(tuple(2 * c for c in v))

    def blocked(o: tuple[int, int, int], m: int) -> bool:
        u, w = [ax for ax in range(3) if ax != m]
        p = list(v2)
        p[u] += o[u]
        p[w] += o[w]
        return s.square_at(p) is not None

    octants = [(sx, sy, sz) for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)]
    start = [o for o in octants if o[axis] == sign]
    flood = set(start)
    stack = list(start)
    while stack:
        o = stack.pop()
        for m in range(3):
            if blocked(o, m):
                continue
            o2 = tuple(-v_ if ax == m else v_ for ax, v_ in enumerate(o))
            if o2 not in flood:
                flood.add(o2)
                stack.append(o2)
    above = below = False
    for k in range(3):
        u, w = ((1, 2), (2, 0), (0, 1))[k]
        for su in (1, -1):
            for sw in (1, -1):
                p = list(v2)
                p[u] += su
                p[w] += sw
                sq = s.square_at(p)
                if sq is None:
                    continue
                o_pos = [0, 0, 0]
                o_pos[u], o_pos[w] = su, sw
                o_pos[k] = sq.orientation
                o_neg = list(o_pos)
                o_neg[k] = -sq.orientation
                if tuple(o_pos) in flood:
                    above = True
                if tuple(o_neg) in flood:
                    below = True
    if above and below:
        raise ValueError("surface does not separate the octants at %r" % (v,))
    if not above and not below:
        raise ValueError("no surface square found around interior vertex %r" % (v,))
    return region.color(v) * (1 if above else -1)


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


def bisect_twist(t: Tiling, axis) -> int:
    """twist's reference for tilings too large for slow_twist: the same
    crossing rule, column by column.

    Quarter turns are accumulated exactly in integers; only dimer pairs along
    the two axes i, j other than the twist axis k interact, via the
    open-shadow crossing rule. An i-dimer with lower cell a crosses a j-dimer
    with lower cell b when b_i is a_i or a_i + 1 and b_j is a_j - 1 or a_j,
    and the pair counts -sign(b_k - a_k) times the product of their signs.
    The j-dimers are bucketed by their column (b_i, b_j), each sorted by
    height with prefix sums of the signs, so every i-dimer bisects at most
    four columns: O(n log n) time and O(n) memory for n dimers, read straight
    off t.pairs by index arithmetic, without the region's cell tables. The
    quarter total is checked to be divisible by 4.
    """
    region = t.region
    if not region.is_box:
        raise ValueError("combinatorial twist requires a box region")
    k = _axis_index(axis)
    i, j = _TANGENT_AXES[k]
    # Cell (x, y, z) has index (x * M + y) * N + z, so a dimer's index
    # difference is the stride of its axis. An axis of size 1 gives the axis
    # before it the same stride, but holds no dimers itself, so it is given
    # the difference 0, which no dimer has. A column is keyed by the index
    # of its lower cell with the k-coordinate zeroed.
    dims = region.dims
    strides = (dims[1] * dims[2], dims[2], 1)
    si, sj, sk = strides[i], strides[j], strides[k]
    nj, nk = dims[j], dims[k]
    di = si if dims[i] > 1 else 0
    dj = sj if nj > 1 else 0
    a_dimers = []
    columns: dict[int, list[tuple[int, int]]] = {}
    for w, b in t.pairs:
        d = b - w
        if d > 0:
            a, sign = w, 1
        else:
            a, sign, d = b, -1, -d
        if d == di:
            ak = a // sk % nk
            a_dimers.append((a - ak * sk, a // sj % nj, ak, sign))
        elif d == dj:
            ak = a // sk % nk
            columns.setdefault(a - ak * sk, []).append((ak, sign))
    prefix: dict[int, tuple[list[int], list[int]]] = {}
    for key, col in columns.items():
        col.sort()
        sums = [0]
        for _h, sign in col:
            sums.append(sums[-1] + sign)
        prefix[key] = ([h for h, _s in col], sums)
    quarters = 0
    for a0, aj, ak, sa in a_dimers:
        # the columns (a_i or a_i + 1, a_j - 1 or a_j); a_i + 1 is the upper
        # cell's, and a_j - 1 exists only when a_j > 0
        keys = (a0, a0 + si, a0 - sj, a0 + si - sj) if aj else (a0, a0 + si)
        turns = 0
        for key in keys:
            entry = prefix.get(key)
            if entry is None:
                continue
            heights, sums = entry
            below = sums[bisect_left(heights, ak)]
            above = sums[-1] - sums[bisect_right(heights, ak)]
            turns += above - below
        quarters -= sa * turns
    if quarters % 4:
        raise RuntimeError(
            "twist internal consistency failure: quarter total %d for %d %s-dimers,"
            " %d %s-dimers around axis %s"
            % (quarters, len(a_dimers), AXIS_NAMES[i],
               sum(len(c) for c in columns.values()), AXIS_NAMES[j], AXIS_NAMES[k]))
    return quarters // 4


def slow_steps(t: Tiling) -> tuple:
    """Tiling.steps as it was read off the Dimers: each dimer's
    Dimer.direction, with the step along a period-2 axis lifted to the raw
    black - white coordinate delta."""
    periods = t.region.periods
    steps = [None] * t.region.n_cells
    for d, (wi, bi) in zip(t.dimers, t.pairs):
        step = list(d.direction)
        if periods is not None and periods[d.axis] == 2:
            step[d.axis] = d.black[d.axis] - d.white[d.axis]
        steps[wi] = tuple(step)
        steps[bi] = tuple(-v for v in step)
    return tuple(steps)


def slow_from_cell_pairs(region, cell_pairs) -> Tiling:
    """Tiling.from_cell_pairs' reference: every cell read through
    _coordinate and reduced, colours read per cell, adjacency checked by
    _direction, pair by pair."""
    mate = [-1] * region.n_cells
    pairs = []
    for a, b in cell_pairs:
        ca = region.reduce(tuple(map(_coordinate, a)))
        cb = region.reduce(tuple(map(_coordinate, b)))
        for c in (ca, cb):
            if c not in region.index:
                raise ValueError("cell %r is not in the region" % (c,))
        if region.color(ca) == -1:
            white, black = ca, cb
        else:
            white, black = cb, ca
        if region.color(white) != -1 or region.color(black) != 1:
            raise ValueError("dimer %r-%r joins same-color cells" % (ca, cb))
        _direction(region, white, black)  # adjacency check
        wi, bi = region.index[white], region.index[black]
        for i in (wi, bi):
            if mate[i] != -1:
                raise ValueError("cell covered twice: %r" % (region.cells[i],))
        mate[wi] = bi
        mate[bi] = wi
        pairs.append((wi, bi))
    for i, m in enumerate(mate):
        if m == -1:
            raise ValueError("cell uncovered: %r" % (region.cells[i],))
    return Tiling(region, pairs)


def slow_checked_pairs(region, pairs) -> list:
    """Tiling(region, pairs)' reference: the (white cell, black cell) pairs
    of (white, black) cell index pairs that match each cell of the region
    exactly once across a face. Raises ValueError for an index outside the
    region, a pair that is not white then black by the colour of each
    cell's coordinate sum, or not adjacent by raw coordinates
    (adjacent_cells), and a cell covered other than once."""
    cells = region.cells
    out = []
    for w, b in pairs:
        if not (0 <= w < len(cells) and 0 <= b < len(cells)):
            raise ValueError("cell index outside the region")
        white, black = cells[w], cells[b]
        if (sum(white) + region.parity) % 2 == 0 or (sum(black) + region.parity) % 2 == 1:
            raise ValueError("not a white cell then a black one")
        if not adjacent_cells(white, black, region.periods):
            raise ValueError("cells share no face")
        out.append((white, black))
    covered = Counter(c for pair in out for c in pair)
    if any(covered[c] != 1 for c in cells):
        raise ValueError("a cell is not covered exactly once")
    return out


def slow_refine(t: Tiling, k: int) -> Tiling:
    """Literal refinement: every cross-section column of every refined dimer
    listed as a (cell, cell) pair, counted from the white end, then read back
    through Tiling.from_cell_pairs, which checks colours, adjacency and the
    cover pair by pair."""
    return Tiling.from_cell_pairs(*slow_refined_cell_pairs(t, k))


def slow_refined_cell_pairs(t: Tiling, k: int) -> tuple:
    """(refined region, cell pairs) of slow_refine: the cells of each
    column of each refined dimer, unreduced on a torus."""
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
    return region2, pairs


_TRIO_A = (((0, 0, 1), (1, 0, 1)), ((0, 1, 0), (0, 0, 0)), ((1, 1, 1), (1, 1, 0)))
_TRIO_B = (((0, 1, 0), (1, 1, 0)), ((1, 1, 1), (1, 0, 1)), ((0, 0, 1), (0, 0, 0)))
_REST = (((1, 0, 0), (2, 0, 0)), ((0, 2, 1), (0, 1, 1)), ((2, 1, 0), (2, 2, 0)),
         ((1, 2, 0), (0, 2, 0)), ((2, 0, 1), (2, 1, 1)), ((2, 2, 1), (1, 2, 1)))

_PINWHEEL = (((1, 0, 0), (0, 0, 0)), ((2, 1, 0), (2, 0, 0)),
             ((1, 2, 0), (2, 2, 0)), ((0, 1, 0), (0, 2, 0)),
             ((0, 0, 1), (0, 1, 1)), ((2, 0, 1), (1, 0, 1)),
             ((2, 2, 1), (2, 1, 1)), ((0, 2, 1), (1, 2, 1)),
             ((1, 1, 1), (1, 1, 0)))


def l_shape_region() -> Region:
    """The L-shaped voxel region: a 4x2x2 bar and a 2x4x2 bar on its end."""
    return build_voxel_region(
        [(x, y, z) for x in range(4) for y in range(2) for z in range(2)]
        + [(x, y, z) for x in range(2) for y in range(2, 6) for z in range(2)])


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


# -- the move graph: labelled_components' reference ---------------------

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


def _rewired(mate: Sequence[int], inserted: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """The mate array after the move that inserts these (cell, cell) pairs."""
    new = list(mate)
    for i, j in inserted:
        new[i], new[j] = j, i
    return tuple(new)


def _move_targets(t: Tiling, move_set: frozenset) -> Iterator[tuple[tuple[int, ...], str, int]]:
    """(mate array of the target, kind, sign) of each move of t, in
    find_flips then find_trits order. The scans are looked up on
    tritile.moves at call time, so a test that patches moves._TRIOS
    reaches this oracle too."""
    mate = t.mate
    if "flip" in move_set:
        for w, b, w2, b2 in mv._flips(t):
            yield _rewired(mate, ((w, b2), (w2, b))), "flip", 0
    if "trit" in move_set:
        cubes = t.region.cube_table.cubes
        for r, (_removed, inserted, sign) in mv._trits(t.region, mate):
            cube = cubes[r]
            yield _rewired(mate, ((cube[i], cube[j]) for i, j in inserted)), "trit", sign


def move_graph(tilings: Iterable[Tiling], moves: str) -> MoveGraph:
    """Build the move graph over a complete enumeration of a region's tilings.

    The scan runs in index space. Each input tiling is hashed once and
    indexed by its exact mate array. Moves come from the scans behind
    find_flips and find_trits (_flips, _trits), in their order, and a trit's
    new cells from its _TRIOS entry. A neighbour's mate array is a copy with
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
        keys[tuple(t.mate)] = h
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


def always_positive_trits(monkeypatch):
    """Make every trit positive in both directions, so that any trit cycle
    has a nonzero signed sum."""
    monkeypatch.setattr(mv, "_TRIOS", tuple((removed, inserted, 1)
                                            for removed, inserted, _sign in mv._TRIOS))


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


def slow_labelled_components(tilings, moves) -> list:
    """labelled_components as it was before it met each move edge once:
    every move of every tiling, from both ends, is looked up and merged
    into the weighted union-find, and a missing target raises at once."""
    move_set = _normalize_moves(moves)
    nodes = []
    keys = {}
    for t in tilings:
        if nodes and t.region != nodes[0].region:
            raise ValueError("tilings belong to different regions")
        mate = tuple(t.mate)
        if mate not in keys:
            keys[mate] = len(nodes)
            nodes.append(t)
    if not nodes:
        raise ValueError("no tilings given")
    n = len(nodes)
    parent = list(range(n))
    offset = [0] * n  # label(u) - label(parent[u])
    size = [1] * n
    consistent = [True] * n

    def find(u):
        path = []
        while parent[u] != u:
            path.append(u)
            u = parent[u]
        label = 0
        for v in reversed(path):
            label += offset[v]
            parent[v], offset[v] = u, label
        return u

    for u, t in enumerate(nodes):
        for target, _kind, sign in _move_targets(t, move_set):
            v = keys.get(target)
            if v is None:
                raise ValueError("move target missing from the enumerated set")
            ru, rv = find(u), find(v)
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
    groups = {}
    for u in range(n):
        groups.setdefault(find(u), []).append(u)
    out = []
    for root, members in groups.items():
        base = offset[members[0]]
        out.append(LabelledComponent([nodes[u] for u in members],
                                     [offset[u] - base for u in members],
                                     consistent[root]))
    return sorted(out, key=lambda c: (-len(c.tilings), c.tilings[0].hash64))


#: Per direction of a dimer (the position of its black cell in its white
#: cell's step row), the directions across its axis, each with whether
#: slow_move_reader handles the flips met there: a flip of two a-dimers
#: stacked along e is handled iff a < e.
_UPWARD = tuple(tuple((d, DIR_AXIS[d] > DIR_AXIS[k]) for d in range(6)
                      if DIR_AXIS[d] != DIR_AXIS[k]) for k in range(6))


def slow_move_reader(region, move_set):
    """read(key) -> (handled, counted): the moves the components engine
    handles at one packed key, as (target key, trit count), and how many
    it only counts, by rescanning the key's geometry: the flips of every
    white cell's dimer along _UPWARD and the trits through moves._trits
    and the moves._TRIOS entries it yields, looked up at call time."""
    layout = mv._key_struct(region.n_cells)
    unpack, code = layout.unpack, layout.format[-1]
    step = region.step_table
    whites = [i for i, c in enumerate(region.colors) if c == -1]
    cubes = region.cube_table.cubes if "trit" in move_set else None

    def read(key):
        mate = unpack(key)
        base = array(code, key)
        handled = []
        counted = 0
        if "flip" in move_set:
            for w in whites:
                b = mate[w]
                sw, sb = step[w], step[b]
                last = -1
                for d, listed in _UPWARD[sw.index(b)]:
                    w2 = sb[d]
                    if w2 >= 0 and mate[w2] == sw[d] and w2 != last:
                        last = w2
                        if w2 <= w:
                            continue
                        if not listed:
                            counted += 1
                            continue
                        b2 = mate[w2]
                        new = base[:]
                        new[w], new[b2], new[w2], new[b] = b2, w, b, w2
                        handled.append((new.tobytes(), 0))
        if cubes is not None:
            for r, (_removed, inserted, sign) in mv._trits(region, mate):
                if sign < 0:
                    counted += 1
                    continue
                new = base[:]
                cube = cubes[r]
                for i, j in inserted:
                    new[cube[i]], new[cube[j]] = cube[j], cube[i]
                handled.append((new.tobytes(), 1))
        return handled, counted

    return read


_OFFSETS = [(dx, dy, dz) for dx in (0, 1) for dy in (0, 1) for dz in (0, 1)]


def _cube_cells(region, anchor) -> list:
    """The coordinates of the cube at anchor, in _OFFSETS order, reduced
    modulo the periods."""
    return [region.reduce((anchor[0] + o[0], anchor[1] + o[1], anchor[2] + o[2]))
            for o in _OFFSETS]


def slow_cube_table(region) -> tuple:
    """Region.cube_table from cell coordinates: every cell minus every cube
    offset, reduced modulo the periods, is a candidate anchor; a candidate
    whose cube has at most one cell off the region, and whose set of cell
    coordinates no earlier candidate's cube has, is kept, in sorted order,
    with its cells looked up in the index one by one."""
    index = region.index
    candidates = {region.reduce((x - o[0], y - o[1], z - o[2]))
                  for (x, y, z) in region.cells for o in _OFFSETS}
    anchors, cubes = [], []
    cell_anchors = [[] for _ in region.cells]
    spans = set()
    for a in sorted(candidates):
        cells = _cube_cells(region, a)
        cube = tuple(index.get(c, -1) for c in cells)
        if cube.count(-1) > 1 or frozenset(cells) in spans:
            continue
        spans.add(frozenset(cells))
        for c in cube:
            if c >= 0:
                cell_anchors[c].append(len(cubes))
        anchors.append(a)
        cubes.append(cube)
    return tuple(anchors), tuple(cubes), tuple(tuple(r) for r in cell_anchors)


def _edge_incidence(cell_set) -> dict:
    """Map each lattice edge key to the present cells incident to it.

    An edge parallel to the axis k at transverse lattice coordinates (u, v)
    starting at height w is keyed (k, u, v, w); up to four cells share it.
    """
    incidence = {}
    for (x, y, z) in cell_set:
        for k in range(3):
            t1, t2 = [ax for ax in range(3) if ax != k]
            base = (x, y, z)
            for du in (0, 1):
                for dv in (0, 1):
                    key = (k, base[t1] + du, base[t2] + dv, base[k])
                    incidence.setdefault(key, []).append((x, y, z))
    return incidence


def slow_link_is_disk(pattern) -> bool:
    """Whether a vertex whose eight surrounding cells present are the
    offsets in pattern has a disk- or sphere-like link: the pattern and its
    complement in {0,1}^3 are each face-connected or empty."""
    return (slow_octant_components(pattern) <= 1
            and slow_octant_components(set(_OFFSETS) - pattern) <= 1)


def slow_manifold_violation(cells) -> Optional[tuple]:
    """(condition, message) of the first local manifold condition that a
    set of cells violates, as build_voxel_region words it, or None.

    Edges first, in key order: an edge is bad when exactly two cells touch
    it and they disagree in both transverse coordinates. Then vertices, in
    order: a vertex is bad when its link is not a disk (slow_link_is_disk).
    """
    cell_set = set(map(tuple, cells))
    for key, incident in sorted(_edge_incidence(cell_set).items()):
        if len(incident) == 2:
            a, b = incident
            if sum(1 for i in range(3) if a[i] != b[i]) == 2:
                return ("non-manifold edge", "non-manifold edge at %r: exactly two cells "
                        "touch only along it" % (key,))
    corners = {(x + dx, y + dy, z + dz) for (x, y, z) in cell_set for (dx, dy, dz) in _OFFSETS}
    for corner in sorted(corners):
        pattern = {o for o in _OFFSETS
                   if tuple(c - 1 + d for c, d in zip(corner, o)) in cell_set}
        if not slow_link_is_disk(pattern):
            return ("non-manifold vertex", "non-manifold vertex at %r: incident cells do "
                    "not form a disk-like link" % (corner,))
    return None


def _cell_dimer(region, a, b) -> Dimer:
    white, black = (a, b) if region.color(a) == -1 else (b, a)
    return Dimer(white, black, _direction(region, white, black))


def aliased_torus_trits(t: Tiling) -> list:
    """find_trits of a torus tiling from the cube list that anchors a cube
    at every cell, so that along a period-2 axis anchors 0 and 1 both span
    the same cells. Each cube's trit is read from cell coordinates: exactly
    three dimers of t inside it, one per axis. A trio that an earlier
    anchor already holds is skipped, so each trio keeps its first anchor."""
    region = t.region
    mate = {}
    for d in t.dimers:
        mate[d.white], mate[d.black] = d.black, d.white
    found, held = [], set()
    for anchor in sorted(product(*(range(p) for p in region.periods))):
        cells = set(_cube_cells(region, anchor))
        inside = {_cell_dimer(region, c, mate[c]) for c in cells if mate[c] in cells}
        if sorted(d.axis for d in inside) != [0, 1, 2] or frozenset(inside) in held:
            continue
        held.add(frozenset(inside))
        found.append(slow_trit_move(region, anchor, inside))
    return found


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


def built(r: Region, name: str) -> bool:
    """Whether the region's table `name` ("cells", "index" or "colors") is
    built, read from the slot itself: plain attribute access would build
    it."""
    try:
        object.__getattribute__(r, name)
    except AttributeError:
        return False
    return True


def slow_base_tiling(region: Region, axis) -> Tiling:
    """tilings.base_tiling as it was before it wrote the mate array by
    index arithmetic: slow_base_mate, with the pairs read off by colour."""
    return Tiling(region, colour_pairs(region, slow_base_mate(region, axis)))


def slow_base_mate(region: Region, axis) -> list:
    """The base tiling's mate array by a loop over the cell coordinates that
    pairs each cell at an even coordinate along the axis with the next one,
    looked up in the index."""
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
    return mate


def slow_lattice_cubes(region) -> tuple:
    """Region.cube_table of a box or torus as it was built with one
    generator per cube: per axis, anchor coordinate k gives the index terms
    of k and k + 1, each cube is the sums of one term per axis, and
    cell_anchors lists, per cell, the ranks of the cubes that hold it."""
    torus = region.periods is not None
    L, M, N = sizes = region.dims or region.periods
    ranges = [range(size if torus and size > 2 else size - 1) for size in sizes]
    terms = [[(k * stride, (k + 1) % size * stride) for k in span]
             for span, size, stride in zip(ranges, sizes, (M * N, N, 1))]
    cubes = [tuple(x + y + z for x in xs for y in ys for z in zs)
             for xs, ys, zs in product(*terms)]
    cell_anchors = [[] for _ in range(region.n_cells)]
    for r, cube in enumerate(cubes):
        for c in cube:
            cell_anchors[c].append(r)
    return tuple(product(*ranges)), tuple(cubes), tuple(map(tuple, cell_anchors))


def slow_random_walk(cfg) -> dict:
    """harness.random_walk as a plain loop: after every step, take a Tiling
    snapshot of the walk state and read its hash64, keeping the first visit
    of each hash."""
    t = start_tiling(cfg.region)
    state = WalkState(t, cfg.moves)
    rng = random.Random(cfg.seed)
    visited = [t.hash64]
    seen = set(visited)
    histogram = Counter()
    tw = twist(t, 2) if cfg.region.is_box else 0
    flux_key = str(tuple(flux(t).components)) if cfg.region.is_torus else None
    steps_taken = 0
    while True:
        if cfg.region.is_box:
            histogram[str(tw)] += 1
        elif cfg.region.is_torus:
            histogram[flux_key] += 1
        if steps_taken == cfg.steps or not len(state):
            break
        m = state.move(rng.randrange(len(state)))
        state.apply(m)
        steps_taken += 1
        if isinstance(m, TritMove):
            tw += m.sign
        h = state.tiling().hash64
        if h not in seen:
            seen.add(h)
            visited.append(h)
    return {
        "steps_requested": cfg.steps,
        "steps_taken": steps_taken,
        "frozen": steps_taken < cfg.steps,
        "distinct_visited": len(seen),
        "visited_hashes": ["%016x" % h for h in visited],
        "histogram": {k: histogram[k] for k in sorted(histogram)},
    }


def _slow_splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) % 2 ** 64
    x = (x ^ x >> 30) * 0xBF58476D1CE4E5B9 % 2 ** 64
    x = (x ^ x >> 27) * 0x94D649BB133111EB % 2 ** 64
    return x ^ x >> 31


def slow_dimer_codes(n_cells: int, pairs) -> list:
    """The dimer codes of Tiling.hash64, one scalar
    splitmix64(w * n_cells + b) per pair (w, b), in order."""
    return [_slow_splitmix64(w * n_cells + b) for w, b in pairs]


def slow_hash64(t: Tiling) -> int:
    """Tiling.hash64 as the scalar fold: h = splitmix64(n), then
    h = splitmix64(h ^ c) for each dimer code c (slow_dimer_codes), with
    splitmix64 written out from its constants rather than the library's."""
    h = _slow_splitmix64(t.region.n_cells)
    for c in slow_dimer_codes(t.region.n_cells, t.pairs):
        h = _slow_splitmix64(h ^ c)
    return h


# -- the tuple-based construction that packed tilings replaced ---------------

class TupleTiling(NamedTuple):
    """A tiling as Tiling held it before its matching was packed: its pairs
    as one sorted tuple of (white, black) cell index pairs, and its mate
    array as a tuple written from them."""

    region: Region
    pairs: tuple
    mate: tuple


def tuple_tiling(region: Region, pairs) -> TupleTiling:
    """The tuple form of these (white, black) index pairs, in any order."""
    pairs = tuple(sorted(pairs))
    mate = [-1] * region.n_cells
    for w, b in pairs:
        mate[w] = b
        mate[b] = w
    return TupleTiling(region, pairs, tuple(mate))


def colour_pairs(region: Region, mate) -> list:
    """(i, mate[i]) for each cell i that the region's colours make white."""
    colors = region.colors
    return [(i, m) for i, m in enumerate(mate) if colors[i] == -1]


def tuple_tiling_of_cells(region: Region, cell_pairs) -> TupleTiling:
    """The tuple form of (cell, cell) pairs: each cell reduced onto a torus
    and looked up in the index, each pair put white cell first by colour."""
    index, colors = region.index, region.colors
    pairs = []
    for a, b in cell_pairs:
        i, j = index[region.reduce(tuple(a))], index[region.reduce(tuple(b))]
        pairs.append((i, j) if colors[i] == -1 else (j, i))
    return tuple_tiling(region, pairs)


def assert_packed_like(t: Tiling, ref: TupleTiling) -> None:
    """t holds the packed form of ref: a Pairs view listing ref's pairs, a
    read-only mate view of ref's mate array, ref's hash64 as the scalar
    fold computes it, and equality with the tilings that Tiling(region,
    pairs) builds from ref's pairs and from t's own view."""
    assert type(t.pairs) is Pairs and t.mate.readonly
    assert t.region == ref.region
    assert len(t.pairs) == len(ref.pairs)
    assert tuple(t.pairs) == ref.pairs and t.pairs == ref.pairs
    assert list(t.mate) == list(ref.mate)
    assert t.hash64 == slow_hash64(ref)
    assert t == Tiling(ref.region, ref.pairs)
    again = Tiling(t.region, t.pairs)
    assert type(again.pairs) is Pairs
    assert again == t and tuple(again.pairs) == ref.pairs and again.hash64 == t.hash64
