"""Flux, discrete surfaces, flux through surfaces, modulus, and twist.

Surfaces live in the dual complex: their vertices are cell centers, drawn
here in doubled coordinates so that a unit square normal to axis k has an
even k-coordinate and odd coordinates along the two tangent axes. Squares
are oriented; the boundary operator follows the right-hand rule around the
normal, and a surface is accepted only when shared edges cancel, so its
orientation is coherent.

The combinatorial twist of a box tiling is a sum of quarter turns over
dimer pairs: a dimer d' inside the open shadow of d along the chosen axis
contributes det[v(d'), v(d), e_axis] / 4. Only pairs along the two other
axes contribute, which the implementation exploits.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import lru_cache
from itertools import product
from math import floor, gcd
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .regions import (
    AXIS_NAMES, Cell, DIRECTIONS, Region, RegionError, _coordinate,
)
from .tilings import (
    LISTING_BUDGET, Tiling, diff_cycles, _axis_index, _budgeted_count, _mates,
)
from .moves import _key_components, _key_struct

_NORMAL_TO_NAME = {(0, 1): "+x", (0, -1): "-x", (1, 1): "+y",
                   (1, -1): "-y", (2, 1): "+z", (2, -1): "-z"}
_NAME_TO_NORMAL = {v: k for k, v in _NORMAL_TO_NAME.items()}

#: (tangent axis pair (u, v) with (u, v, k) cyclic) per normal axis k
_TANGENT_AXES = ((1, 2), (2, 0), (0, 1))

#: a square's corners as offsets along its tangent axes (u, v) from its
#: center, counterclockwise as seen from the + side of its normal axis
_CORNERS = ((-1, -1), (1, -1), (1, 1), (-1, 1))

#: direction index (into DIRECTIONS) of each unit step
_DIRECTION_OF = {d: i for i, d in enumerate(DIRECTIONS)}

#: the eight octants around a dual vertex, as signs along x, y, z
_OCTANTS = tuple(product((1, -1), repeat=3))


class Square(NamedTuple):
    """One oriented unit square of the dual complex.

    center2 is the square's center in doubled dual coordinates (even along
    the normal axis, odd along the tangent axes); orientation is the sign of
    the normal along its axis.
    """

    center2: Cell
    axis: int
    orientation: int

    @property
    def normal(self) -> str:
        return _NORMAL_TO_NAME[(self.axis, self.orientation)]


def _dir_index(axis: int, sign: int) -> int:
    return 2 * axis + (0 if sign > 0 else 1)


class DiscreteSurface:
    """An embedded, coherently oriented discrete surface in a region's dual.

    A side of the surface is a dual edge of one of its squares. Each is kept
    once, under the key _edge gives it: in _edge_set for every side, and in
    _boundary_set for the sides that only one square has.
    """

    def __init__(self, region: Region, squares: Iterable[Square]):
        self.region = region
        self._period2 = None
        if region.periods is not None:
            self._period2 = tuple(2 * p for p in region.periods)
        normalized = []
        by_pos: dict[Cell, Square] = {}
        for sq in squares:
            c2 = tuple(map(_coordinate, sq.center2))
            if len(c2) != 3:
                raise ValueError("square center %r does not have three coordinates"
                                 % (sq.center2,))
            # exact ints: True == 1 and 1.0 == 1 would pass a membership test
            if type(sq.axis) is not int or sq.axis not in (0, 1, 2):
                raise ValueError("square axis %r is not 0, 1 or 2" % (sq.axis,))
            c2 = self._norm2(c2)
            for k in range(3):
                want_even = (k == sq.axis)
                if (c2[k] % 2 == 0) != want_even:
                    raise ValueError(
                        "square center %r does not match normal axis %s"
                        % (sq.center2, AXIS_NAMES[sq.axis]))
            if type(sq.orientation) is not int or sq.orientation not in (1, -1):
                raise ValueError("square orientation must be +1 or -1")
            if c2 in by_pos:
                raise ValueError("duplicate square at %r" % (c2,))
            sq = Square(c2, sq.axis, sq.orientation)
            by_pos[c2] = sq
            normalized.append(sq)
        self.squares: tuple[Square, ...] = tuple(normalized)
        self._by_pos = by_pos
        # flux_through_surface's vertex flows, by (vertex, step of its dimer)
        self._flows: dict[tuple[Cell, Cell], int] = {}
        self._build()

    # -- doubled-coordinate helpers --------------------------------------

    def _norm2(self, p2: Sequence[int]) -> Cell:
        if self._period2 is None:
            return tuple(p2)
        return tuple(v % p for v, p in zip(p2, self._period2))

    def _corner_cell(self, corner2: Cell) -> Cell:
        return self.region.reduce((corner2[0] // 2, corner2[1] // 2, corner2[2] // 2))

    def _sides(self, sq: Square) -> Iterator[tuple[Cell, int]]:
        """The square's directed sides as (corner2, direction index), walking
        its corners counterclockwise as seen from the normal side."""
        u, v = _TANGENT_AXES[sq.axis]
        cycle = _CORNERS if sq.orientation > 0 else _CORNERS[::-1]
        for m, (su, sv) in enumerate(cycle):
            tu, tv = cycle[m - 3]  # the next corner
            p = list(sq.center2)
            p[u] += su
            p[v] += sv
            yield self._norm2(p), _dir_index(u, tu) if tu != su else _dir_index(v, tv)

    def _edge(self, cell: Cell, step: Cell) -> tuple[Cell, int]:
        """The key of the dual edge from a cell along a unit step: the lesser
        of its two directed forms (doubled start, direction index)."""
        (x, y, z), (dx, dy, dz) = cell, step
        d = _DIRECTION_OF[step]
        return min((self._norm2((2 * x, 2 * y, 2 * z)), d),
                   (self._norm2((2 * (x + dx), 2 * (y + dy), 2 * (z + dz))), d ^ 1))

    def _build(self) -> None:
        region = self.region
        keys: dict[tuple[Cell, int], tuple[Cell, int]] = {}  # directed side -> _edge key
        cells = set()
        for sq in self.squares:
            square_sides = list(self._sides(sq))
            for a, _d in square_sides:
                cell = self._corner_cell(a)
                if cell not in region.index:
                    raise ValueError("square corner %r is outside the region" % (cell,))
                cells.add(cell)
            for m, side in enumerate(square_sides):
                if side in keys:
                    raise ValueError(
                        "incoherent orientation: directed edge %r appears twice" % (side,))
                # the side's other directed form leaves the next corner
                keys[side] = min(side, (square_sides[m - 3][0], side[1] ^ 1))
        # an inner side is met once in each direction, a boundary side once
        met = Counter(keys.values())
        boundary = sorted(side for side, key in keys.items() if met[key] == 1)
        self.boundary_edges: tuple[tuple[Cell, int], ...] = tuple(boundary)
        bverts = set()
        for a, d in boundary:
            cell = self._corner_cell(a)
            bverts.add(cell)
            bverts.add(region.step(cell, d))
        self.boundary_vertices: tuple[Cell, ...] = tuple(sorted(bverts))
        self.interior_vertices: tuple[Cell, ...] = tuple(sorted(cells - bverts))
        self._edge_set = set(met)
        self._boundary_set = {keys[side] for side in boundary}
        self._interior_set = set(self.interior_vertices)

    # -- queries -----------------------------------------------------------

    @property
    def is_closed(self) -> bool:
        return not self.boundary_edges

    def square_at(self, center2: Sequence[int]) -> Optional[Square]:
        return self._by_pos.get(self._norm2(center2))

    def edge_in_surface(self, cell: Cell, axis: int, sign: int) -> bool:
        """Is the dual edge from the cell along the signed axis a square side?"""
        return self._edge(cell, DIRECTIONS[_dir_index(axis, sign)]) in self._edge_set

    def edge_on_boundary(self, cell: Cell, axis: int, sign: int) -> bool:
        return self._edge(cell, DIRECTIONS[_dir_index(axis, sign)]) in self._boundary_set

    def to_list(self) -> list[dict]:
        return [
            {"center": list(sq.center2), "normal": sq.normal}
            for sq in self.squares
        ]

    def to_json(self) -> str:
        return json.dumps(self.to_list(), sort_keys=True)


def surface_from_json(text: str, region: Region) -> DiscreteSurface:
    return surface_from_list(json.loads(text), region)


def surface_from_list(items: Sequence[dict], region: Region) -> DiscreteSurface:
    squares = []
    for item in items:
        try:
            axis, orientation = _NAME_TO_NORMAL[item["normal"]]
            center = tuple(item["center"])
        except (KeyError, TypeError):
            raise ValueError(
                "surface square %r is not {\"center\": [x, y, z], \"normal\": one of %s}"
                % (item, ", ".join(_NAME_TO_NORMAL))) from None
        squares.append(Square(center, axis, orientation))
    return DiscreteSurface(region, squares)


def vertex_flow(v: Cell, t: Tiling, s: DiscreteSurface) -> int:
    """color(v) times the side of v's dimer: +1 above S, 0 in S, -1 below.

    v must be an interior vertex of s; the side of the matched neighbor is
    found by flooding the eight octants around v, moving only between
    octants not separated by a square of s, starting from the octants that
    contain the dimer ray. Each square the flood meets tells on which of its
    sides the flood is.
    """
    region = t.region
    v = region.reduce(v)
    if v not in s._interior_set:
        raise ValueError("vertex %r is not an interior vertex of the surface" % (v,))
    step = t.steps[region.index[v]]
    if s._edge(v, step) in s._edge_set:
        return 0
    v2 = s._norm2((2 * v[0], 2 * v[1], 2 * v[2]))
    flood = {o for o in _OCTANTS
             if o[0] * step[0] + o[1] * step[1] + o[2] * step[2] == 1}
    stack = list(flood)
    above = below = False
    while stack:
        o = stack.pop()
        for m in range(3):
            # the square, if any, on the wall normal to m that parts o from
            # its mirror image
            p = [v2[0] + o[0], v2[1] + o[1], v2[2] + o[2]]
            p[m] = v2[m]
            sq = s.square_at(p)
            if sq is None:
                o2 = o[:m] + (-o[m],) + o[m + 1:]
                if o2 not in flood:
                    flood.add(o2)
                    stack.append(o2)
            elif o[m] == sq.orientation:
                above = True
            else:
                below = True
    if above and below:
        raise ValueError("surface does not separate the octants at %r" % (v,))
    if not above and not below:
        raise ValueError("no surface square found around interior vertex %r" % (v,))
    return region.color(v) * (1 if above else -1)


def flux_through_surface(t: Tiling, s: DiscreteSurface) -> int:
    """phi(t; S): the color-weighted flow of t through the surface.

    Requires t to be tangent to s at the boundary: the dimer at every
    boundary vertex must run along a boundary edge. Vacuous for closed
    surfaces. A vertex's flow depends only on the step of its dimer, so
    the surface keeps each vertex_flow it computes for a tiling of its own
    region, by vertex and step; an error is raised again on every call.
    """
    region = t.region
    index, steps = region.index, t.steps
    for v in s.boundary_vertices:
        if s._edge(v, steps[index[v]]) not in s._boundary_set:
            raise ValueError(
                "tiling is not tangent to the surface boundary at vertex %r" % (v,))
    flows = s._flows if region == s.region else {}
    total = 0
    for v in s.interior_vertices:
        key = (v, steps[index[v]])
        flow = flows.get(key)
        if flow is None:
            flow = flows[key] = vertex_flow(v, t, s)
        total += flow
    return total


def closed_box_surface(r: Region, corner: Sequence[int], dims: Sequence[int]) -> DiscreteSurface:
    """The closed boundary surface of a dual sub-box, outward normals.

    corner and dims are in dual-vertex (cell center) coordinates: the box
    spans corner .. corner + dims along each axis and all of its dual
    vertices must be cells of the region. A coordinate that is not an
    integer raises RegionError, and a corner or dims without three
    coordinates ValueError.
    """
    corner = tuple(map(_coordinate, corner))
    dims = tuple(map(_coordinate, dims))
    if len(corner) != 3 or len(dims) != 3:
        raise ValueError("sub-box corner %r and dims %r need three coordinates each"
                         % (corner, dims))
    if any(d < 1 for d in dims):
        raise ValueError("sub-box dimensions must be positive")
    if r.periods is not None and any(d >= p for d, p in zip(dims, r.periods)):
        raise ValueError("sub-box does not embed in the torus")
    for x in range(corner[0], corner[0] + dims[0] + 1):
        for y in range(corner[1], corner[1] + dims[1] + 1):
            for z in range(corner[2], corner[2] + dims[2] + 1):
                if not r.contains((x, y, z)):
                    raise ValueError(
                        "sub-box touches the region boundary: dual vertex %r missing"
                        % ((x, y, z),))
    squares = []
    for k in range(3):
        u, v = _TANGENT_AXES[k]
        for level, orientation in ((corner[k], -1), (corner[k] + dims[k], 1)):
            for i in range(dims[u]):
                for j in range(dims[v]):
                    c2 = [0, 0, 0]
                    c2[k] = 2 * level
                    c2[u] = 2 * (corner[u] + i) + 1
                    c2[v] = 2 * (corner[v] + j) + 1
                    squares.append(Square(tuple(c2), k, orientation))
    return DiscreteSurface(r, squares)


def cutting_surface(r: Region, axis, level: Union[int, float]) -> DiscreteSurface:
    """The closed cutting torus normal to an axis at the given dual plane.

    level is the cell-layer coordinate of the plane (a half-integer primal
    offset c + 1/2 corresponds to integer level c); the surface consists of
    every dual square in that plane, normals along +axis.
    """
    if r.periods is None:
        raise ValueError("cutting surfaces require a torus region")
    k = _axis_index(axis)
    c = floor(level) % r.periods[k]
    u, v = _TANGENT_AXES[k]
    squares = []
    for i in range(r.periods[u]):
        for j in range(r.periods[v]):
            c2 = [0, 0, 0]
            c2[k] = 2 * c
            c2[u] = 2 * i + 1
            c2[v] = 2 * j + 1
            squares.append(Square(tuple(c2), k, 1))
    return DiscreteSurface(r, squares)


class FluxVector:
    """The flux of a tiling: its class in H1 of the region.

    Empty for boxes. On a torus, component k is the signed count of dimers
    crossing the seam plane between coordinates P_k - 1 and 0 of axis k:
    +1 for each whose white cell is at P_k - 1, -1 for each whose white cell
    is at 0. A period-2 axis reads 0, as its dimers are lifted to the
    non-wrapping edge (Tiling.steps). The same pass keeps, for modulus, the
    flow through each axis's cutting surface at level 0.
    """

    __slots__ = ("components", "region", "_phi")

    def __init__(self, components: Sequence[int], region: Region, phi: Sequence[int]):
        self.components = tuple(components)
        self.region = region
        self._phi = tuple(phi)

    def __iter__(self):
        return iter(self.components)

    def __len__(self) -> int:
        return len(self.components)

    def __getitem__(self, i: int) -> int:
        return self.components[i]

    def __eq__(self, other) -> bool:
        if isinstance(other, FluxVector):
            return self.region == other.region and self.components == other.components
        if isinstance(other, tuple):
            return self.components == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.region, self.components))

    def __repr__(self) -> str:
        return "FluxVector%r" % (self.components,)


def flux(t: Tiling) -> FluxVector:
    """Flux(t): the empty vector on a box, the seam-plane counts on a torus.

    On a torus one pass over t.pairs gives both the flux (see FluxVector)
    and phi_k = flux_through_surface(t, cutting_surface(region, k, 0)): the
    sum, over the dimers along k with an end at coordinate 0, of that end's
    colour times its unit step toward the other end. The pass never reads
    the region's cell tables. Raises RegionError on a voxel region.
    """
    region = t.region
    if region.kind == "box":
        return FluxVector((), region, ())
    if region.kind != "torus":
        raise RegionError("kind", "flux unsupported for this region kind")
    # Cell i is (x * M + y) * N + z, so an axis-k step changes the index by
    # stride_k, or by (P_k - 1) * stride_k where it wraps; both are below the
    # next larger stride. On a period-2 axis the two coincide and the step
    # is the raw lift, which never wraps.
    periods = region.periods
    strides = (periods[1] * periods[2], periods[2], 1)
    seam, phi = [0, 0, 0], [0, 0, 0]
    for w, b in t.pairs:
        d = b - w
        size = abs(d)
        k = 0 if size >= strides[0] else 1 if size >= strides[1] else 2
        step = 1 if d > 0 else -1  # the white cell's unit step along k
        if size != strides[k]:
            # a wrap across the seam P_k - 1 | 0 steps against the difference
            step = -step
            seam[k] += step
        elif min(w, b) // strides[k] % periods[k]:
            continue
        # the end at level 0 adds its colour times its step toward the other
        # end: the white end (-1) steps +step, the black end (+1) -step
        phi[k] -= step
    return FluxVector(seam, region, phi)


def modulus(f: FluxVector, r: Optional[Region] = None) -> int:
    """gcd of |phi_k| over the torus's cutting surfaces at level 0, as kept
    by flux; 0 for boxes.

    m = 0 encodes a twist valued in Z; m > 0 a twist valued in Z/mZ.
    """
    if r is not None and r != f.region:
        raise ValueError("flux vector belongs to a different region")
    return gcd(*f._phi)


def twist(t: Tiling, axis) -> int:
    """The combinatorial twist Tw_axis of a box tiling.

    Quarter turns are accumulated exactly in integers; only dimer pairs along
    the two axes i, j other than the twist axis k interact, via the
    open-shadow crossing rule. An i-dimer with lower cell a crosses a j-dimer
    with lower cell b when b_i is a_i or a_i + 1 and b_j is a_j - 1 or a_j,
    and the pair counts -sign(b_k - a_k) times the product of their signs.
    The dimers are bucketed by their level along k, and one sweep up the
    levels keeps, per column (b_i, b_j), the signs of the j-dimers above the
    level minus those below it; each i-dimer reads two or four columns.
    That is O(n) time and memory for n dimers, read straight off t.pairs by
    index arithmetic, without the region's cell tables. The quarter total is
    checked to be divisible by 4; a tiling that fails the check is named by
    its hash64.
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
    i_levels = [[] for _ in range(nk)]
    j_levels = [[] for _ in range(nk)]
    # per column: the j-signs above the swept level minus those below it;
    # before the sweep every j-dimer is above
    rest = [0] * region.n_cells
    for w, b in t.pairs:
        d = b - w
        if d > 0:
            a, sign = w, 1
        else:
            a, sign, d = b, -1, -d
        if d == di:
            ak = a // sk % nk
            i_levels[ak].append((a - ak * sk, a // sj % nj, sign))
        elif d == dj:
            ak = a // sk % nk
            key = a - ak * sk
            rest[key] += sign
            j_levels[ak].append((key, sign))
    quarters = 0
    for a_dimers, j_dimers in zip(i_levels, j_levels):
        # a j-dimer at the level counts neither way while the level is read
        for key, sign in j_dimers:
            rest[key] -= sign
        for a0, aj, sa in a_dimers:
            # the columns (a_i or a_i + 1, a_j - 1 or a_j); a_i + 1 is the
            # upper cell's, and a_j - 1 exists only when a_j > 0
            if aj:
                quarters -= sa * (rest[a0] + rest[a0 + si]
                                  + rest[a0 - sj] + rest[a0 + si - sj])
            else:
                quarters -= sa * (rest[a0] + rest[a0 + si])
        for key, sign in j_dimers:
            rest[key] -= sign
    if quarters % 4:
        raise RuntimeError(
            "twist internal consistency failure: quarter total %d for %d %s-dimers,"
            " %d %s-dimers around axis %s, tiling hash64 %016x"
            % (quarters, sum(map(len, i_levels)), AXIS_NAMES[i],
               sum(map(len, j_levels)), AXIS_NAMES[j], AXIS_NAMES[k], t.hash64))
    return quarters // 4


@lru_cache(maxsize=4)
def _trit_labels(region: Region) -> dict:
    """(component number, trit label, whether the component is consistent)
    of each tiling of the region, keyed by its packed mate array read as one
    little-endian int (moves._key_struct), over the flip and trit moves of
    every tiling the region has. Raises BudgetExceeded above
    tilings.LISTING_BUDGET tilings."""
    _budgeted_count(region, LISTING_BUDGET, "listing")
    index, component, label, groups = _key_components(region, _mates(region), "flip+trit")
    return {key: (component[u], label[u], groups[component[u]].consistent)
            for key, u in index.items()}


def relative_twist(t1: Tiling, t0: Tiling) -> int:
    """TW(t1; t0): twist difference for boxes, trit label difference on
    small tori.

    Requires flux(t1) == flux(t0). On a torus the value is reduced modulo the
    modulus of the common flux class when that modulus is nonzero. A torus
    is labelled over all of its tilings, so one with more than
    tilings.LISTING_BUDGET tilings raises BudgetExceeded.
    """
    if t1.region != t0.region:
        raise ValueError("tilings belong to different regions")
    region = t1.region
    if region.is_box:
        return twist(t1, 0) - twist(t0, 0)
    f1, f0 = flux(t1), flux(t0)
    if f1 != f0:
        raise ValueError("tilings have different flux: %r vs %r"
                         % (f1.components, f0.components))
    labels = _trit_labels(region)
    pack = _key_struct(region.n_cells).pack
    key1, key0 = (int.from_bytes(pack(*t._mate), "little") for t in (t1, t0))
    if key1 not in labels or key0 not in labels:
        raise ValueError("tiling missing from the enumerated move graph")
    comp1, label1, _ = labels[key1]
    comp0, label0, consistent = labels[key0]
    if not consistent:
        raise ValueError("inconsistent trit labeling on this region")
    if comp1 != comp0:
        raise ValueError("tilings are not connected by flips and trits at this scale")
    value = label1 - label0
    m = modulus(f0)
    return value % m if m else value


def surface_predicates(t0: Tiling, t1: Tiling, s: DiscreteSurface) -> dict:
    """The balanced / zero-flux / tangent predicates of a Seifert surface.

    s must be a Seifert surface candidate for (t0, t1): its boundary must
    equal the nontrivial cycles of t1 - t0 (as undirected edge sets).
    """
    system = diff_cycles(t1, t0)
    cycle_edges = {s._edge(cell, step) for cyc in system.nontrivial
                   for cell, step in zip(cyc.cells, cyc.steps)}
    if cycle_edges != s._boundary_set:
        missing = sorted(cycle_edges - s._boundary_set)
        extra = sorted(s._boundary_set - cycle_edges)
        raise ValueError(
            "surface boundary does not match the nontrivial difference cycles:"
            " missing %r, extra %r" % (missing[:4], extra[:4]))

    colors = [t0.region.color(v) for v in s.interior_vertices]
    balanced = sum(colors) == 0
    zero_flux = (flux_through_surface(t0, s) == 0
                 and flux_through_surface(t1, s) == 0)
    tangent0 = _tangent_to_surface(t0, s)
    tangent1 = _tangent_to_surface(t1, s)
    if tangent0 != tangent1:
        raise RuntimeError("tangency must not depend on the side of the pair")
    if tangent0 and not (balanced and zero_flux):
        raise RuntimeError("a tangent surface is balanced and zero-flux")
    return {"balanced": balanced, "zero_flux": zero_flux, "tangent": tangent0}


def _tangent_to_surface(t: Tiling, s: DiscreteSurface) -> bool:
    index, steps = t.region.index, t.steps
    return all(s._edge(v, steps[index[v]]) in s._edge_set
               for v in s.interior_vertices + s.boundary_vertices)
