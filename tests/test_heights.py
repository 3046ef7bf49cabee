import random
from collections import deque
from fractions import Fraction

import pytest

from tritile import heights
from tritile.heights import (
    INF, CoquadSurface, HeightField, TilingClass, apply_face_flip,
    build_planar_surface, enumerate_surface_tilings, face_flips, flip_connect,
    height_function, is_stable, pointwise_max, pointwise_min, surface_from_dict,
    surface_from_json, tiling_classes, tiling_from_height, winding,
)
from tritile.regions import BudgetExceeded
from tritile.tilings import LISTING_BUDGET
from support import (
    count_planar_matchings, slow_height_function, slow_tiling_classes,
    slow_winding,
)


def rect(nx, ny):
    return build_planar_surface([(x, y) for x in range(nx) for y in range(ny)])


def annulus():
    cells = [(x, y) for x in range(4) for y in range(4)
             if not (1 <= x <= 2 and 1 <= y <= 2)]
    return build_planar_surface(cells)


def test_two_by_two_surface():
    s = rect(2, 2)
    assert len(s.vertices) == 4
    assert len(s.edges) == 4
    assert s.faces == ((0, 0),)
    assert s.all_faces == ((0, 0), INF)
    assert sum(s.colors.values()) == 0


def test_two_by_two_heights():
    s = rect(2, 2)
    classes = tiling_classes(s)
    assert len(classes) == 1
    cls = classes[0]
    assert len(cls) == 2
    assert is_stable(cls)
    values = sorted(height_function(t, cls)[(0, 0)] for t in cls.tilings)
    assert values == [Fraction(-1, 2), Fraction(1, 2)]
    for t in cls.tilings:
        assert height_function(t, cls)[INF] == 0


def test_one_by_two_degenerate():
    s = build_planar_surface([(0, 0), (1, 0)])
    assert s.faces == ()
    assert enumerate_surface_tilings(s) == [frozenset({0})]


def test_small_rectangle_counts():
    assert len(enumerate_surface_tilings(rect(2, 3))) == 3
    assert rect(2, 3).faces == ((0, 0), (0, 1))
    assert len(enumerate_surface_tilings(rect(4, 4))) == 36


def test_parallel_edges_are_told_apart():
    # the 4-cycle b0-w0-b1-w1 around face f, plus edge 4, a second b0-w0
    # edge with the boundary on both sides. count_planar_matchings merges
    # parallel edges, so the expected lists are written out.
    colors = {"b0": 1, "b1": 1, "w0": -1, "w1": -1}
    edges = [("b0", "w0", "f", INF), ("b0", "w1", INF, "f"),
             ("b1", "w1", "f", INF), ("b1", "w0", INF, "f"),
             ("b0", "w0", INF, INF)]
    s = CoquadSurface(colors, edges, ["f"])
    assert enumerate_surface_tilings(s) == [
        frozenset({0, 2}), frozenset({1, 3}), frozenset({2, 4})]
    assert [len(c) for c in tiling_classes(s)] == [2, 1]


def test_counts_match_permanent_oracle():
    for s in (rect(2, 2), rect(2, 3), rect(4, 4), annulus()):
        assert len(enumerate_surface_tilings(s)) == count_planar_matchings(s)


def test_height_conditions_hold_everywhere():
    # (a) zero at the boundary element, (b) neighbor gap below one,
    # (c) differences of heights are the windings
    s = rect(4, 4)
    cls = tiling_classes(s)[0]
    fields = {t: height_function(t, cls) for t in cls.tilings}
    for t, h in fields.items():
        assert h[INF] == 0
        for f in s.faces:
            for g in s.face_neighbors(f):
                assert abs(h[f] - h[g]) < 1
        for other in cls.tilings:
            w = winding(t, other, s)
            assert all(h[f] - fields[other][f] == w[f] for f in s.all_faces)


def test_height_round_trip():
    s = rect(4, 4)
    cls = tiling_classes(s)[0]
    for t in cls.tilings:
        assert tiling_from_height(height_function(t, cls), cls) == t


def test_flips_are_strict_height_extrema():
    s = rect(4, 4)
    cls = tiling_classes(s)[0]
    for t in cls.tilings:
        h = height_function(t, cls)
        flips = set(face_flips(s, t))
        for f in s.faces:
            nbrs = [h[g] for g in s.face_neighbors(f)]
            extremal = all(h[f] > v for v in nbrs) or \
                all(h[f] < v for v in nbrs)
            assert (f in flips) == extremal


def test_face_flip_moves_height_by_one():
    s = rect(4, 4)
    cls = tiling_classes(s)[0]
    t0 = cls.tilings[0]
    f = face_flips(s, t0)[0]
    t1 = apply_face_flip(s, t0, f)
    w = winding(t1, t0, s)
    assert abs(w[f]) == 1
    assert all(w[g] == 0 for g in s.all_faces if g != f)
    h0, h1 = height_function(t0, cls), height_function(t1, cls)
    assert all(h1[g] - h0[g] == w[g] for g in s.all_faces)


def test_face_flip_guards():
    s = rect(2, 2)
    t = enumerate_surface_tilings(s)[0]
    with pytest.raises(ValueError, match="unknown face"):
        apply_face_flip(s, t, (7, 7))
    s23 = rect(2, 3)
    vert = next(t for t in enumerate_surface_tilings(s23)
                if len(face_flips(s23, t)) == 1)
    blocked = next(f for f in s23.faces if f not in face_flips(s23, vert))
    with pytest.raises(ValueError, match="no flip available"):
        apply_face_flip(s23, vert, blocked)


def test_min_max_form_a_lattice():
    s = rect(4, 4)
    cls = tiling_classes(s)[0]
    fields = [height_function(t, cls) for t in cls.tilings]
    rng = random.Random(3)
    for _ in range(20):
        h1, h2 = rng.sample(fields, 2)
        lo = pointwise_min(h1, h2)
        hi = pointwise_max(h1, h2)
        assert tiling_from_height(lo, cls) in cls
        assert tiling_from_height(hi, cls) in cls
        assert all(lo[f] <= h1[f] <= hi[f] for f in s.all_faces)


def test_pointwise_ops_demand_shared_surface():
    h1 = height_function(enumerate_surface_tilings(rect(2, 2))[0],
                         tiling_classes(rect(2, 2))[0])
    with pytest.raises(ValueError, match="different surfaces"):
        pointwise_min(h1, height_function(enumerate_surface_tilings(rect(2, 2))[0],
                                          tiling_classes(rect(2, 2))[0]))


def test_flip_connect_trivial_and_single():
    s = rect(2, 2)
    cls = tiling_classes(s)[0]
    t0, t1 = cls.tilings
    assert flip_connect(t0, t0, cls) == []
    assert flip_connect(t0, t1, cls) == [(0, 0)]


def test_flip_connect_lengths_are_minimal():
    s = rect(4, 4)
    cls = tiling_classes(s)[0]
    dist = flip_distances(s, cls)
    rng = random.Random(9)
    for _ in range(60):
        t0, t1 = rng.sample(cls.tilings, 2)
        seq = flip_connect(t0, t1, cls)
        w = winding(t1, t0, s)
        mass = sum(abs(w[f]) for f in s.all_faces)
        assert len(seq) == mass == dist[t0][t1]
        cur = t0
        for f in seq:
            cur = apply_face_flip(s, cur, f)
        assert cur == t1


def flip_distances(s, cls):
    dist = {t: flip_distances_from(s, t) for t in cls.tilings}
    assert all(len(row) == len(cls) for row in dist.values())
    return dist


def flip_distances_from(s, start):
    row = {start: 0}
    queue = deque([start])
    while queue:
        t = queue.popleft()
        for f in face_flips(s, t):
            u = apply_face_flip(s, t, f)
            if u not in row:
                row[u] = row[t] + 1
                queue.append(u)
    return row


def rect_6x4():
    return rect(6, 4)


def ring_6x6():
    return build_planar_surface([(x, y) for x in range(6) for y in range(6)
                                 if not (2 <= x < 4 and 2 <= y < 4)])


def l_shape_6x6():
    return build_planar_surface([(x, y) for x in range(6) for y in range(6)
                                 if not (x >= 3 and y >= 2)])


@pytest.mark.parametrize("make, size", [
    (rect_6x4, 281), (l_shape_6x6, 175), (ring_6x6, 1_442)])
def test_flip_connect_matches_bfs_beyond_the_square(make, size):
    # the route from the pair's winding alone, against BFS flip distances
    # from 10 seeded sources, 10 seeded targets each
    s = make()
    cls = max(tiling_classes(s), key=len)
    assert len(cls) == size and cls.stable
    rng = random.Random(size)
    for t0 in rng.sample(cls.tilings, 10):
        dist = flip_distances_from(s, t0)
        assert len(dist) == size
        for t1 in rng.sample(cls.tilings, 10):
            seq = flip_connect(t0, t1, cls)
            w = winding(t1, t0, s)
            assert len(seq) == sum(abs(w[f]) for f in s.faces) == dist[t1]
            cur = t0
            for f in seq:
                cur = apply_face_flip(s, cur, f)
            assert cur == t1


def test_annulus_splits_into_singleton_classes():
    s = annulus()
    assert len(s.vertices) == 12
    assert s.faces == ()
    tilings = enumerate_surface_tilings(s)
    assert len(tilings) == 2
    classes = tiling_classes(s)
    assert [len(c) for c in classes] == [1, 1]
    assert not any(c.stable for c in classes)
    assert winding(tilings[0], tilings[1], s) is None


def test_flip_connect_rejects_flux_mismatch():
    s = annulus()
    t0, t1 = enumerate_surface_tilings(s)
    merged = TilingClass(s, [t0, t1])
    assert merged.stable
    with pytest.raises(ValueError, match="different flux"):
        flip_connect(t0, t1, merged)


def test_height_function_rejects_mixed_flux_class():
    s = annulus()
    t0, t1 = enumerate_surface_tilings(s)
    merged = TilingClass(s, [t0, t1])
    with pytest.raises(ValueError, match="class members must have mutual windings"):
        height_function(t0, merged)


def test_flip_connect_checks_meet_and_replay(monkeypatch):
    # with python -O too: both checks raise rather than assert
    s = rect(4, 4)
    cls = tiling_classes(s)[0]
    t0, t1 = cls.tilings[0], cls.tilings[-1]
    monkeypatch.setattr(heights, "_descend", lambda s, t, excess: ([], t))
    with pytest.raises(RuntimeError, match="meet"):
        flip_connect(t0, t1, cls)
    monkeypatch.setattr(heights, "_descend", lambda s, t, excess: ([], t0))
    with pytest.raises(RuntimeError, match="replayed flip sequence"):
        flip_connect(t0, t1, cls)


def test_flip_connect_rejects_unstable_class():
    cells = [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1)]
    s = build_planar_surface(cells)
    tilings = enumerate_surface_tilings(s)
    assert len(tilings) == 2
    classes = tiling_classes(s)
    assert [len(c) for c in classes] == [2]
    cls = classes[0]
    assert not cls.stable
    with pytest.raises(ValueError, match="not stable"):
        flip_connect(tilings[0], tilings[1], cls)


def test_flip_connect_rejects_foreign_tiling():
    s = rect(2, 2)
    cls = tiling_classes(s)[0]
    with pytest.raises(ValueError, match="not a member"):
        flip_connect(cls.tilings[0], frozenset({0, 1}), cls)
    with pytest.raises(ValueError, match="not a member"):
        height_function(frozenset({0, 1}), cls)


def test_height_field_guards():
    s = rect(2, 2)
    with pytest.raises(ValueError, match="must be 0"):
        HeightField(s, {INF: 1, (0, 0): 0})
    h = HeightField(s, {(0, 0): 1})
    assert h[INF] == 0
    assert h.integral


def test_tiling_from_height_guards():
    s = rect(2, 2)
    cls = tiling_classes(s)[0]
    with pytest.raises(ValueError, match="integer offset"):
        tiling_from_height(HeightField(s, {(0, 0): Fraction(1, 4)}), cls)
    with pytest.raises(ValueError, match="height field"):
        tiling_from_height(HeightField(s, {(0, 0): Fraction(3, 2)}), cls)


def test_surface_serialization_round_trip():
    s = rect(2, 3)
    back = surface_from_json(s.to_json())
    assert back.vertices == s.vertices
    assert back.edges == s.edges
    assert back.all_faces == s.all_faces
    assert enumerate_surface_tilings(back) == enumerate_surface_tilings(s)
    again = surface_from_dict(s.to_dict())
    assert again.colors == s.colors


def test_planar_builder_guards():
    with pytest.raises(ValueError, match="empty"):
        build_planar_surface([])
    with pytest.raises(ValueError, match="unbalanced"):
        build_planar_surface([(0, 0), (1, 0), (0, 1)])
    with pytest.raises(ValueError, match="not connected"):
        build_planar_surface([(0, 0), (1, 0), (5, 5), (6, 5)])


_VERTEX = {"id": [0, 0], "color": 1}


@pytest.mark.parametrize("data, named", [
    ({}, "'vertices' list, not None"),
    ({"vertices": 5, "edges": [], "faces": []}, "'vertices' list, not 5"),
    ([_VERTEX], "must be a JSON object"),
    ({"vertices": [{"id": [0, 0]}], "edges": [], "faces": []},
     "vertices item {'id': [0, 0]}"),
    ({"vertices": [{"id": {"x": 0}, "color": 1}], "edges": [], "faces": []},
     "vertices item {'id': {'x': 0}, 'color': 1}"),
    ({"vertices": [_VERTEX], "edges": [{"black": [0, 0], "left": "inf", "right": "inf"}],
      "faces": []}, "edges item {'black': [0, 0], 'left': 'inf', 'right': 'inf'}"),
    ({"vertices": [_VERTEX], "edges": [], "faces": [{}]}, "faces item {}"),
])
def test_surface_from_dict_names_the_bad_item(data, named):
    # a bare lookup raises KeyError or TypeError, which names no item
    with pytest.raises(ValueError) as exc:
        surface_from_dict(data)
    assert named in str(exc.value)


@pytest.mark.parametrize("cells, named", [
    ([(0,), (1,)], "(0,)"), ([(0, 0, 0), (1, 0, 0)], "(0, 0, 0)"),
    (["ab", "cd"], "'ab'"), ([(0, 0), (1, True)], "(1, True)"),
])
def test_planar_builder_names_a_cell_that_is_not_a_pair_of_ints(cells, named):
    with pytest.raises(ValueError, match="planar cell .* is not a pair of ints") as exc:
        build_planar_surface(cells)
    assert named in str(exc.value)


def test_surface_validation():
    with pytest.raises(ValueError, match="color"):
        CoquadSurface({"a": 2, "b": -1}, [("a", "b", INF, INF)], [])
    with pytest.raises(ValueError, match="black-to-white"):
        CoquadSurface({"a": 1, "b": -1}, [("b", "a", INF, INF)], [])
    with pytest.raises(ValueError, match="unknown face"):
        CoquadSurface({"a": 1, "b": -1}, [("a", "b", "f", INF)], [])
    with pytest.raises(ValueError, match="expected 4"):
        CoquadSurface({"a": 1, "b": -1}, [("a", "b", "f", INF)], ["f"])
    with pytest.raises(ValueError, match="not connected"):
        CoquadSurface({"a": 1, "b": -1, "c": 1, "d": -1},
                      [("a", "b", INF, INF)], [])


DIFFERENTIAL_SURFACES = {
    "square2": lambda: rect(2, 2), "square4": lambda: rect(4, 4),
    "rect6x4": rect_6x4, "ring6x6": ring_6x6, "l_shape": l_shape_6x6,
    "annulus": annulus,
}


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_SURFACES))
def test_signature_classes_match_pairwise_windings(name):
    s = DIFFERENTIAL_SURFACES[name]()
    new, old = tiling_classes(s), slow_tiling_classes(s)
    assert [c.tilings for c in new] == [c.tilings for c in old]
    assert [c.stable for c in new] == [c.stable for c in old]


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_SURFACES))
def test_tree_winding_matches_bfs_winding(name):
    s = DIFFERENTIAL_SURFACES[name]()
    tilings = enumerate_surface_tilings(s)
    rng = random.Random(len(tilings))
    pairs = [(rng.choice(tilings), rng.choice(tilings)) for _ in range(40)]
    classes = tiling_classes(s)
    # first members of different classes: no winding
    pairs += [(a.tilings[0], b.tilings[0]) for a in classes for b in classes
              if a is not b]
    for t1, t0 in pairs:
        assert winding(t1, t0, s) == slow_winding(t1, t0, s)
    if name in ("ring6x6", "annulus"):
        assert len(classes) > 1
        assert any(winding(t1, t0, s) is None for t1, t0 in pairs)


def test_height_function_matches_averaged_windings():
    s = rect(4, 4)
    cls = tiling_classes(s)[0]
    for t in cls.tilings:
        h = height_function(t, cls)
        assert h == slow_height_function(t, cls)
        assert list(h.values) == list(s.all_faces)


def torus_4x4():
    """The 4x4 square grid on a closed torus: every edge has a square on
    both sides, so INF touches no edge and the face graph is disconnected."""
    n = 4
    colors = {(x, y): 1 if (x + y) % 2 == 0 else -1
              for x in range(n) for y in range(n)}
    edges = []
    for (x, y), c in colors.items():
        for dx, dy in ((1, 0), (0, 1)):
            nb = ((x + dx) % n, (y + dy) % n)
            # squares named by their lower-left vertex, left/right of +x or +y
            if dx:
                ahead_left, ahead_right = (x, y), (x, (y - 1) % n)
            else:
                ahead_left, ahead_right = ((x - 1) % n, y), (x, y)
            if c == 1:
                edges.append(((x, y), nb, ahead_left, ahead_right))
            else:
                edges.append((nb, (x, y), ahead_right, ahead_left))
    return CoquadSurface(colors, edges, list(colors))


def test_closed_torus_face_graph_is_disconnected():
    s = torus_4x4()
    tilings = enumerate_surface_tilings(s)
    assert len(tilings) == 272
    with pytest.raises(ValueError, match="face graph is not connected"):
        winding(tilings[0], tilings[1], s)
    with pytest.raises(ValueError, match="face graph is not connected"):
        tiling_classes(s)


@pytest.mark.parametrize("nx, ny", [(1100, 2), (2, 40)])
def test_surface_listing_stops_at_the_budget(nx, ny):
    # 2x1100 once overflowed the recursion; 2x40 has about 1.6e8 tilings
    s = rect(nx, ny)
    with pytest.raises(BudgetExceeded,
                       match="%d vertices .* %d tilings" % (nx * ny, LISTING_BUDGET)):
        enumerate_surface_tilings(s)
