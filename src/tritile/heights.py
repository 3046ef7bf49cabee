"""Height functions on coquadriculated surfaces and flip connection.

A coquadriculated surface is a bipartite graph embedded in an oriented
surface with boundary so that every complementary component is a square.
Tilings are perfect matchings of that graph. The face set V consists of
the squares plus one extra element INF standing for the boundary; the
winding of a tiling difference is the unique integer field on V that
vanishes at INF and whose boundary coboundary reproduces the difference.

Everything is read off one spanning tree of the face graph per surface, a
BFS from INF built on first use. A tiling t has a potential p(t): zero at
INF and, down each tree edge e, a step of [e in t] (negative when the
parent face is on e's left). Every edge e off the tree has the residual
p(t)[left] - p(t)[right] - [e in t], which is linear in t, so each edge
carries a packed integer code and the signature of t is the sum of the
codes of its edges. Two tilings have a winding, and so the same flux,
exactly when their signatures agree; the winding is then p(t1) - p(t0).
Flux classes are the groups of equal signature, and the height of a class
member is its potential minus the class mean, kept as exact fractions.

Flip connection needs only the pair's own winding w = h1 - h0: the meet
min(h0, h1) lies max(0, -w) below t0 and max(0, w) below t1 on each face,
and each tiling descends to it by flipping down a face of largest remaining
excess, so the path length is the total winding mass.

Listing the tilings of a surface stops with BudgetExceeded past
tilings.LISTING_BUDGET of them.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Iterable, Optional, Sequence, Union

from .regions import BudgetExceeded, _is_int
from .tilings import LISTING_BUDGET, _perfect_matchings

INF = "inf"

FaceId = Union[tuple, str]
SurfaceTiling = frozenset


class CoquadSurface:
    """Explicit vertex / edge / face incidence of a coquadriculated surface.

    colors maps vertex ids to +1 (black) or -1 (white). Each edge is a
    (black, white, left, right) record: an oriented edge from its black to
    its white endpoint with the face ids on either side, INF for the
    boundary component. Every non-INF face must be a square: exactly four
    incident edges forming a 4-cycle.
    """

    __slots__ = ("colors", "vertices", "edges", "faces", "vertex_edges",
                 "face_edges", "all_faces", "_tree")

    def __init__(self, colors: dict, edges: Sequence[tuple],
                 faces: Iterable[FaceId]):
        self.colors = dict(colors)
        self.vertices = tuple(sorted(self.colors))
        if not self.vertices:
            raise ValueError("surface has no vertices")
        for v, c in self.colors.items():
            if c not in (1, -1):
                raise ValueError("vertex %r has color %r, expected +1 or -1" % (v, c))
        face_set = set(faces)
        if INF in face_set:
            face_set.discard(INF)
        self.faces = tuple(sorted(face_set))
        self.all_faces = self.faces + (INF,)
        self.edges = tuple((b, w, l, r) for (b, w, l, r) in edges)
        vertex_edges: dict = {v: [] for v in self.vertices}
        face_edges: dict = {f: [] for f in self.all_faces}
        for i, (b, w, l, r) in enumerate(self.edges):
            if self.colors.get(b) != 1 or self.colors.get(w) != -1:
                raise ValueError("edge %d is not black-to-white" % i)
            for f in (l, r):
                if f != INF and f not in face_set:
                    raise ValueError("edge %d names unknown face %r" % (i, f))
                face_edges[f].append(i)
            vertex_edges[b].append(i)
            vertex_edges[w].append(i)
        self.vertex_edges = {v: tuple(es) for v, es in vertex_edges.items()}
        self.face_edges = {f: tuple(es) for f, es in face_edges.items()}
        self._check_squares()
        self._check_connected()
        self._tree = None

    def _check_squares(self) -> None:
        for f in self.faces:
            es = self.face_edges[f]
            if len(es) != 4:
                raise ValueError("face %r has %d incident edges, expected 4"
                                 % (f, len(es)))
            degree: dict = {}
            for i in es:
                b, w = self.edges[i][0], self.edges[i][1]
                degree[b] = degree.get(b, 0) + 1
                degree[w] = degree.get(w, 0) + 1
            if len(degree) != 4 or any(d != 2 for d in degree.values()):
                raise ValueError("face %r is not bounded by a 4-cycle" % (f,))

    def _check_connected(self) -> None:
        seen = {self.vertices[0]}
        queue = deque(seen)
        while queue:
            v = queue.popleft()
            for i in self.vertex_edges[v]:
                b, w = self.edges[i][0], self.edges[i][1]
                u = w if v == b else b
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
        if len(seen) != len(self.vertices):
            raise ValueError("surface graph is not connected")

    def other_face(self, edge_index: int, face: FaceId) -> FaceId:
        b, w, l, r = self.edges[edge_index]
        return r if face == l else l

    def face_neighbors(self, face: FaceId) -> list:
        return [self.other_face(i, face) for i in self.face_edges[face]]

    def to_dict(self) -> dict:
        return {
            "vertices": [{"id": _id_out(v), "color": self.colors[v]}
                         for v in self.vertices],
            "edges": [{"black": _id_out(b), "white": _id_out(w),
                       "left": _id_out(l), "right": _id_out(r)}
                      for (b, w, l, r) in self.edges],
            "faces": [_id_out(f) for f in self.all_faces],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _id_out(v):
    return list(v) if isinstance(v, tuple) else v


def _id_in(v):
    v = tuple(_id_in(x) for x in v) if isinstance(v, list) else v
    hash(v)  # an id must be hashable: TypeError for a JSON object
    return v


def _surface_items(data: dict, key: str, read, shape: str) -> list:
    """read(item) of each item of the list data[key]; a missing list or an
    item that read cannot take raises ValueError naming it."""
    items = data.get(key)
    if not isinstance(items, list):
        raise ValueError("a surface needs a %r list, not %r" % (key, items))
    out = []
    for item in items:
        try:
            out.append(read(item))
        except (KeyError, TypeError):
            raise ValueError("surface %s item %r is not %s" % (key, item, shape)) from None
    return out


def surface_from_dict(data: dict) -> CoquadSurface:
    """The surface that to_dict wrote. Malformed input raises ValueError
    naming the bad part."""
    if not isinstance(data, dict):
        raise ValueError("a surface must be a JSON object, not %r" % (data,))
    vertices = _surface_items(data, "vertices", lambda v: (_id_in(v["id"]), v["color"]),
                              '{"id": id, "color": 1 or -1}')
    edges = _surface_items(
        data, "edges", lambda e: tuple(_id_in(e[k]) for k in ("black", "white", "left", "right")),
        '{"black": id, "white": id, "left": face, "right": face}')
    faces = _surface_items(data, "faces", _id_in, "a face id")
    return CoquadSurface(dict(vertices), edges, faces)


def surface_from_json(text: str) -> CoquadSurface:
    return surface_from_dict(json.loads(text))


def _planar_cell(c) -> tuple:
    if not (isinstance(c, (tuple, list)) and len(c) == 2 and all(map(_is_int, c))):
        raise ValueError("planar cell %r is not a pair of ints" % (c,))
    return tuple(c)


def build_planar_surface(cells: Iterable[tuple]) -> CoquadSurface:
    """The dual grid graph of a connected, balanced 2D quadriculated region.

    Vertices are the cells, black when the coordinate sum is even. Faces are
    the unit squares with all four surrounding cells present; every other
    side of an edge is the boundary element INF. A cell that is not a pair
    of ints raises ValueError.
    """
    cell_list = sorted(set(map(_planar_cell, cells)))
    if not cell_list:
        raise ValueError("empty region")
    cell_set = set(cell_list)
    colors = {c: (1 if (c[0] + c[1]) % 2 == 0 else -1) for c in cell_list}
    if sum(colors.values()) != 0:
        raise ValueError("unbalanced region")
    seen = {cell_list[0]}
    queue = deque(seen)
    while queue:
        x, y = queue.popleft()
        for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if nb in cell_set and nb not in seen:
                seen.add(nb)
                queue.append(nb)
    if len(seen) != len(cell_list):
        raise ValueError("region is not connected")

    def face_of(point2: tuple) -> FaceId:
        # point2 is a face center in doubled coordinates (both odd)
        m = ((point2[0] - 1) // 2, (point2[1] - 1) // 2)
        corners = (m, (m[0] + 1, m[1]), (m[0], m[1] + 1), (m[0] + 1, m[1] + 1))
        return m if all(c in cell_set for c in corners) else INF

    edges = []
    for cell in cell_list:
        for step in ((1, 0), (0, 1)):
            nbr = (cell[0] + step[0], cell[1] + step[1])
            if nbr not in cell_set:
                continue
            if colors[cell] == 1:
                b, w = cell, nbr
            else:
                b, w = nbr, cell
            # doubled midpoint plus the 90-degree left turn of black-to-white
            s = (w[0] - b[0], w[1] - b[1])
            mid2 = (b[0] + w[0], b[1] + w[1])
            left = face_of((mid2[0] - s[1], mid2[1] + s[0]))
            right = face_of((mid2[0] + s[1], mid2[1] - s[0]))
            edges.append((b, w, left, right))
    faces = {f for e in edges for f in (e[2], e[3]) if f != INF}
    return CoquadSurface(colors, edges, faces)


def enumerate_surface_tilings(s: CoquadSurface) -> list:
    """All perfect matchings of the surface graph, as frozensets of edge ids,
    sorted. Counts them first and raises BudgetExceeded, before listing any,
    when there are more than tilings.LISTING_BUDGET. The search is the one
    enumerate_tilings runs, over s.vertices in order, each trying its edges
    in s.vertex_edges order; matching by edge id keeps parallel edges apart."""
    index = {v: k for k, v in enumerate(s.vertices)}
    rows = [[(i, index[s.edges[i][1] if v == s.edges[i][0] else s.edges[i][0]])
             for i in s.vertex_edges[v]] for v in s.vertices]
    count = 0
    for _ in _perfect_matchings(rows):
        count += 1
        if count > LISTING_BUDGET:
            raise BudgetExceeded(
                "surface with %d vertices has more than %d tilings, the listing budget"
                % (len(s.vertices), LISTING_BUDGET))
    return sorted((frozenset(labels) for _, labels in _perfect_matchings(rows)), key=sorted)


class HeightField:
    """A function on the faces of a coquadriculated surface, zero at INF."""

    __slots__ = ("surface", "values")

    def __init__(self, surface: CoquadSurface, values: dict):
        self.surface = surface
        vals = dict(values)
        vals.setdefault(INF, 0)
        if vals[INF] != 0:
            raise ValueError("height at the boundary element must be 0")
        self.values = vals

    @property
    def integral(self) -> bool:
        return all(_is_integer(x) for x in self.values.values())

    def __getitem__(self, face: FaceId):
        return self.values[face]

    def __eq__(self, other) -> bool:
        if not isinstance(other, HeightField):
            return NotImplemented
        return self.surface is other.surface and self.values == other.values

    def __hash__(self) -> int:
        return hash(frozenset(self.values.items()))

    def __repr__(self) -> str:
        body = ", ".join("%r: %s" % (f, self.values[f]) for f in self.surface.faces)
        return "HeightField({%s})" % body


def _is_integer(x) -> bool:
    # ints and Fractions both carry a denominator
    return getattr(x, "denominator", None) == 1


class _FaceTree:
    """The BFS spanning tree of a surface's face graph from INF.

    steps lists (face, parent, edge, sign) in BFS order: the potential of a
    tiling t is p[face] = p[parent] + sign * [edge in t], sign -1 when the
    parent is on the edge's left. codes[e] is edge e's share of the
    signature: off-tree edge number k has residual p[left] - p[right]
    - [k in t] in balanced base-`base` digit k, and base exceeds twice the
    largest residual, so equal signatures mean equal residuals.
    """

    __slots__ = ("steps", "codes")

    def __init__(self, s: CoquadSurface):
        steps = []
        depth = {INF: 0}
        queue = deque([INF])
        while queue:
            f = queue.popleft()
            for i in s.face_edges[f]:
                b, w, l, r = s.edges[i]
                g, sign = (r, -1) if f == l else (l, 1)
                if g not in depth:
                    depth[g] = depth[f] + 1
                    steps.append((g, f, i, sign))
                    queue.append(g)
        if len(depth) != len(s.all_faces):
            raise ValueError("face graph is not connected")
        # |residual| <= depth[left] + depth[right] + 1 <= 2 * max depth + 1
        base = 4 * max(depth.values()) + 3
        in_tree = {i for (_, _, i, _) in steps}
        net = dict.fromkeys(s.all_faces, 0)
        codes = [0] * len(s.edges)
        weight = 1
        for i, (b, w, l, r) in enumerate(s.edges):
            if i not in in_tree:
                net[l] += weight
                net[r] -= weight
                codes[i] = -weight
                weight *= base
        # a tree edge's code is its sign times the net weight below it
        for g, f, i, sign in reversed(steps):
            codes[i] = sign * net[g]
            net[f] += net[g]
        self.steps = tuple(steps)
        self.codes = tuple(codes)

    def signature(self, t: SurfaceTiling) -> int:
        return sum(map(self.codes.__getitem__, t))

    def potential(self, t: SurfaceTiling) -> dict:
        p = {INF: 0}
        for g, f, i, sign in self.steps:
            p[g] = p[f] + sign if i in t else p[f]
        return p


def _face_tree(s: CoquadSurface) -> _FaceTree:
    if s._tree is None:
        s._tree = _FaceTree(s)
    return s._tree


def winding(t1: SurfaceTiling, t0: SurfaceTiling,
            s: CoquadSurface) -> Optional[HeightField]:
    """wind(t1 - t0): the unique face field with w(INF) = 0 whose coboundary
    is the tiling difference, or None when none exists (different flux).

    It exists exactly when the two signatures agree, and is then the
    difference of the tree potentials."""
    tree = _face_tree(s)
    if tree.signature(t1) != tree.signature(t0):
        return None
    p1, p0 = tree.potential(t1), tree.potential(t0)
    return HeightField(s, {f: p1[f] - p0[f] for f in p1})


class TilingClass:
    """A flux class of surface tilings: windings exist between any two."""

    __slots__ = ("surface", "tilings", "stable", "_members", "_potential_sum")

    def __init__(self, surface: CoquadSurface, tilings: Sequence[SurfaceTiling]):
        self.surface = surface
        self.tilings = tuple(tilings)
        self._members = frozenset(self.tilings)
        covered = set()
        for t in self.tilings:
            covered |= t
        self.stable = covered == set(range(len(surface.edges)))
        self._potential_sum = None

    def __contains__(self, t: SurfaceTiling) -> bool:
        return t in self._members

    def __len__(self) -> int:
        return len(self.tilings)

    def _summed_potential(self) -> dict:
        """The sum over the members of their tree potentials, computed once.
        Raises ValueError when the members do not share one signature."""
        if self._potential_sum is None:
            tree = _face_tree(self.surface)
            signature = tree.signature(self.tilings[0])
            total = dict.fromkeys(self.surface.all_faces, 0)
            for t in self.tilings:
                if tree.signature(t) != signature:
                    raise ValueError("class members must have mutual windings")
                for f, v in tree.potential(t).items():
                    total[f] += v
            self._potential_sum = total
        return self._potential_sum


def tiling_classes(s: CoquadSurface) -> list[TilingClass]:
    """Partition all tilings of s into flux classes by signature; classes in
    order of their first member, tilings in enumeration order."""
    groups: dict = {}
    tilings = enumerate_surface_tilings(s)
    tree = _face_tree(s)
    for t in tilings:
        groups.setdefault(tree.signature(t), []).append(t)
    return [TilingClass(s, g) for g in groups.values()]


def is_stable(cls: TilingClass) -> bool:
    """Every edge of the surface graph belongs to some tiling in the class."""
    return cls.stable


def height_function(t: SurfaceTiling, cls: TilingClass) -> HeightField:
    """h_t, the average winding of t against every member of its class: its
    tree potential minus the class mean."""
    if t not in cls:
        raise ValueError("tiling is not a member of the class")
    s = cls.surface
    total = cls._summed_potential()
    p = _face_tree(s).potential(t)
    n = len(cls.tilings)
    from fractions import Fraction
    return HeightField(s, {f: Fraction(n * p[f] - total[f], n) for f in s.all_faces})


def _flippable(s: CoquadSurface, t: SurfaceTiling, f: FaceId) -> bool:
    """t matches two opposite sides of the square f."""
    inside = [i for i in s.face_edges[f] if i in t]
    if len(inside) != 2:
        return False
    (b0, w0), (b1, w1) = s.edges[inside[0]][:2], s.edges[inside[1]][:2]
    return {b0, w0}.isdisjoint({b1, w1})


def face_flips(s: CoquadSurface, t: SurfaceTiling) -> list:
    """Faces where t matches two opposite sides of the square, sorted."""
    return [f for f in s.faces if _flippable(s, t, f)]


def apply_face_flip(s: CoquadSurface, t: SurfaceTiling, face: FaceId) -> SurfaceTiling:
    if face not in s.face_edges or face == INF:
        raise ValueError("unknown face %r" % (face,))
    if not _flippable(s, t, face):
        raise ValueError("no flip available at face %r" % (face,))
    return t.symmetric_difference(s.face_edges[face])


def flip_connect(t0: SurfaceTiling, t1: SurfaceTiling,
                 cls: TilingClass) -> list:
    """A minimal flip sequence from t0 to t1, as an ordered list of face ids.

    Both tilings descend to the meet min(h0, h1), which lies max(0, -w)
    below t0 and max(0, w) below t1 for their winding w = h1 - h0, and the
    second descent is replayed backwards, so the length equals the total
    absolute winding of t1 - t0. Requires a stable class containing both.
    """
    s = cls.surface
    if not cls.stable:
        raise ValueError("class is not stable")
    if t0 not in cls or t1 not in cls:
        raise ValueError("tiling is not a member of the class")
    w = winding(t1, t0, s)
    if w is None:
        raise ValueError("tilings have different flux")
    down0, t_meet0 = _descend(s, t0, {f: max(0, -w[f]) for f in s.faces})
    down1, t_meet1 = _descend(s, t1, {f: max(0, w[f]) for f in s.faces})
    if t_meet0 != t_meet1:
        raise RuntimeError("both descents must reach the meet tiling")
    seq = down0 + down1[::-1]
    check = t0
    for f in seq:
        check = apply_face_flip(s, check, f)
    if check != t1:
        raise RuntimeError("replayed flip sequence must reach the target")
    return seq


def _descend(s: CoquadSurface, t: SurfaceTiling,
             excess: dict) -> tuple[list, SurfaceTiling]:
    """Flip t down until its height has dropped by excess[f] on each face f.

    Each step flips the first face, in s.faces order, of largest remaining
    excess whose flip lowers the height there: an edge of the face lying in
    t has the face on its left. If there is none, RuntimeError is raised
    rather than a wrong path returned.
    """
    seq = []
    while (top := max(excess.values(), default=0)) > 0:
        for f in s.faces:
            if excess[f] == top and _flippable(s, t, f) and any(
                    i in t and s.edges[i][2] == f for i in s.face_edges[f]):
                break
        else:
            raise RuntimeError("no face of excess %d flips down" % top)
        t = t.symmetric_difference(s.face_edges[f])
        excess[f] -= 1
        seq.append(f)
    return seq, t


def tiling_from_height(h: HeightField, cls: TilingClass) -> SurfaceTiling:
    """The unique tiling whose height function is h.

    h must satisfy the height conditions for the class: zero at INF,
    integer offsets from the class heights, strict neighbor bound.
    """
    s = cls.surface
    ref = cls.tilings[0]
    href = height_function(ref, cls)
    w = {}
    for f in s.all_faces:
        diff = h[f] - href[f]
        if not _is_integer(diff):
            raise ValueError("height field is not an integer offset of the class")
        w[f] = int(diff)
    chosen = []
    for i, (b, wv, l, r) in enumerate(s.edges):
        coeff = (i in ref) + w[l] - w[r]
        if coeff == 1:
            chosen.append(i)
        elif coeff != 0:
            raise ValueError("height field does not define a tiling")
    t = frozenset(chosen)
    degree = {v: 0 for v in s.vertices}
    for i in t:
        degree[s.edges[i][0]] += 1
        degree[s.edges[i][1]] += 1
    if any(d != 1 for d in degree.values()):
        raise ValueError("height field does not define a tiling")
    return t


def pointwise_min(h1: HeightField, h2: HeightField) -> HeightField:
    _check_same_surface(h1, h2)
    return HeightField(h1.surface, {f: min(h1[f], h2[f])
                                    for f in h1.surface.all_faces})


def pointwise_max(h1: HeightField, h2: HeightField) -> HeightField:
    _check_same_surface(h1, h2)
    return HeightField(h1.surface, {f: max(h1[f], h2[f])
                                    for f in h1.surface.all_faces})


def _check_same_surface(h1: HeightField, h2: HeightField) -> None:
    if h1.surface is not h2.surface:
        raise ValueError("height fields live on different surfaces")
