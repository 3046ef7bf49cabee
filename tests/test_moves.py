import random
import re
from collections import Counter
from struct import Struct

import pytest

from tritile import (
    RegionError, Tiling, TritMove, apply_flip, apply_trit, base_tiling, build_box,
    build_torus, build_voxel_region, count_tilings, enumerate_tilings,
    find_flips, find_trits, labelled_components, twist,
)
from tritile.harness import walk_states
from tritile.tilings import _mates
from tritile import moves
from tritile.moves import (
    _TRIOS, WalkState, _handled_moves, _key_components, _key_struct, _move_edges,
    _normalize_moves, _pack_keys,
)
from support import (
    aliased_torus_trits, bfs_trit_labeling, corner_cut_cube, move_graph, pinwheel_N1, pinwheel_N2,
    slow_labelled_components, slow_move_graph, slow_move_reader, slow_trit_move, tiling_tA,
    tiling_tB,
)


def test_no_flip_tilings_have_no_flips():
    assert find_flips(pinwheel_N1()) == []
    assert find_flips(pinwheel_N2()) == []


def test_flip_counts_on_base_tilings():
    assert len(find_flips(base_tiling(build_box(2, 2, 2), 0))) == 4
    assert len(find_flips(base_tiling(build_box(2, 2, 1), 0))) == 1


def test_flip_swaps_orientation_on_smallest_box():
    t = base_tiling(build_box(2, 2, 1), 0)
    u = apply_flip(t, find_flips(t)[0])
    assert {d.axis for d in t.dimers} == {0}
    assert {d.axis for d in u.dimers} == {1}
    assert apply_flip(u, find_flips(u)[0]) == t


def test_flip_moves_are_invertible():
    t = tiling_tB()
    for m in find_flips(t):
        u = apply_flip(t, m)
        back = m.reversed()
        assert back in find_flips(u)
        assert apply_flip(u, back) == t


def test_stale_flip_rejected():
    t = base_tiling(build_box(2, 2, 2), 0)
    m = find_flips(t)[0]
    u = apply_flip(t, m)
    with pytest.raises(ValueError, match="stale move"):
        apply_flip(u, m)


def test_no_trits_in_the_222_box():
    for t in enumerate_tilings(build_box(2, 2, 2)):
        assert find_trits(t) == []


def test_base_tilings_have_no_trits():
    assert find_trits(base_tiling(build_box(3, 3, 2), 2)) == []
    assert find_trits(base_tiling(build_box(4, 4, 4), 1)) == []


def test_trits_of_the_trio_fixture():
    # the central z-dimer completes a one-per-axis trio in all four cubes
    trits = find_trits(tiling_tA())
    assert sorted(m.anchor for m in trits) == \
        [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)]
    assert all(m.sign == 1 for m in trits)


def test_positive_trit_raises_twist_by_one():
    tA = tiling_tA()
    for m in find_trits(tA):
        after = apply_trit(tA, m)
        assert twist(after, 2) - twist(tA, 2) == m.sign == 1


def test_trit_moves_fixture_to_its_image():
    tA = tiling_tA()
    m = next(m for m in find_trits(tA) if m.anchor == (0, 0, 0))
    assert apply_trit(tA, m) == tiling_tB()


def test_trit_reversal_negates_sign():
    tA = tiling_tA()
    m = find_trits(tA)[0]
    back = m.reversed()
    assert back.sign == -m.sign
    u = apply_trit(tA, m)
    assert back in find_trits(u)
    assert apply_trit(u, back) == tA


def test_stale_trit_rejected():
    tA = tiling_tA()
    m = find_trits(tA)[0]
    u = apply_trit(tA, m)
    with pytest.raises(ValueError, match="stale move"):
        apply_trit(u, m)


def test_flip_components_332():
    tilings = list(enumerate_tilings(build_box(3, 3, 2)))
    g = move_graph(tilings, "flip")
    assert g.component_sizes() == [227, 1, 1]
    singles = [comp[0] for comp in g.components() if len(comp) == 1]
    assert {g.tilings[h] for h in singles} == {pinwheel_N1(), pinwheel_N2()}


def test_fliptrit_component_332():
    tilings = list(enumerate_tilings(build_box(3, 3, 2)))
    assert move_graph(tilings, "flip+trit").component_sizes() == [229]


def test_flip_components_smallest_box():
    tilings = list(enumerate_tilings(build_box(2, 2, 1)))
    assert move_graph(tilings, "flip").component_sizes() == [2]


def test_move_graph_rejects_partial_enumeration():
    tilings = list(enumerate_tilings(build_box(2, 2, 2)))
    with pytest.raises(ValueError, match="missing from the enumerated set"):
        move_graph(tilings[:5], "flip")


def test_move_graph_rejects_a_hash_collision():
    tilings = list(enumerate_tilings(build_box(2, 2, 2)))
    tilings[1]._hash64 = tilings[0].hash64
    with pytest.raises(ValueError, match="share the hash %016x" % tilings[0].hash64):
        move_graph(tilings, "flip")


def test_move_graph_accepts_a_repeated_tiling():
    tilings = list(enumerate_tilings(build_box(2, 2, 2)))
    g = move_graph(tilings + tilings[:1], "flip")
    assert list(g.tilings) == [t.hash64 for t in tilings]
    assert g.edges == move_graph(tilings, "flip").edges


def _voxel_subset(seed: int, pairs: int = 6):
    """A tileable region left after removing `pairs` random cell pairs, one
    of each colour, from the 4x3x3 box."""
    rng = random.Random(seed)
    cells = [(x, y, z) for x in range(4) for y in range(3) for z in range(3)]
    for _ in range(pairs):
        for _try in range(50):
            white = rng.choice([c for c in cells if sum(c) % 2])
            black = rng.choice([c for c in cells if not sum(c) % 2])
            rest = [c for c in cells if c not in (white, black)]
            try:
                region = build_voxel_region(rest)
            except RegionError:
                continue
            if count_tilings(region):
                cells = rest
                break
    return build_voxel_region(cells)


_GRAPH_REGIONS = {
    "box-2x2x2": build_box(2, 2, 2),
    "box-3x3x2": build_box(3, 3, 2),
    "box-3x4x2": build_box(3, 4, 2),
    # period-2 axes alias flip partners and trit cubes
    "torus-2x2x2": build_torus(2, 2, 2),
    "torus-2x2x4": build_torus(2, 2, 4),
    "torus-2x4x2": build_torus(2, 4, 2),
    "torus-4x2x2": build_torus(4, 2, 2),
    **{"voxels-%d" % seed: _voxel_subset(seed) for seed in range(6)},
}


@pytest.mark.parametrize("name", list(_GRAPH_REGIONS))
def test_move_graph_matches_the_tiling_path(name):
    region = _GRAPH_REGIONS[name]
    tilings = list(enumerate_tilings(region))
    for moves in ("flip", "flip+trit"):
        fast = move_graph(tilings, moves)
        slow = slow_move_graph(tilings, moves)
        assert fast.edges == slow.edges
        assert list(fast.tilings) == list(slow.tilings)


def test_trit_labeling_matches_twist():
    tilings = list(enumerate_tilings(build_box(3, 3, 2)))
    g = move_graph(tilings, "flip+trit")
    base = base_tiling(build_box(3, 3, 2), 2)
    labels, consistent = bfs_trit_labeling(g, base.hash64)
    assert consistent
    assert labels[base.hash64] == 0
    for t in tilings:
        assert labels[t.hash64] == twist(t, 2) - twist(base, 2)


def test_trit_labels_of_the_no_flip_pair():
    tilings = list(enumerate_tilings(build_box(3, 3, 2)))
    g = move_graph(tilings, "flip+trit")
    base = base_tiling(build_box(3, 3, 2), 2)
    labels, _ = bfs_trit_labeling(g, base.hash64)
    v1 = labels[pinwheel_N1().hash64]
    v2 = labels[pinwheel_N2().hash64]
    assert v1 != 0 and v2 == -v1


def test_flip_only_labels_are_zero():
    tilings = list(enumerate_tilings(build_box(2, 2, 2)))
    g = move_graph(tilings, "flip")
    labels, consistent = bfs_trit_labeling(g, tilings[0].hash64)
    assert consistent
    assert set(labels.values()) == {0}


def test_trit_edge_count_332():
    tilings = list(enumerate_tilings(build_box(3, 3, 2)))
    g = move_graph(tilings, "flip+trit")
    kinds = {e.kind for e in g.edges}
    assert kinds == {"flip", "trit"}
    for e in g.edges:
        if e.kind == "trit":
            assert e.sign in (-1, 1)
        else:
            assert e.sign == 0


def test_trit_move_fields():
    m = find_trits(tiling_tA())[0]
    assert isinstance(m, TritMove)
    assert len(m.removed) == 3 and len(m.inserted) == 3
    assert {d.axis for d in m.removed} == {0, 1, 2}
    assert {d.axis for d in m.inserted} == {0, 1, 2}
    removed_cells = {c for d in m.removed for c in (d.white, d.black)}
    inserted_cells = {c for d in m.inserted for c in (d.white, d.black)}
    assert removed_cells == inserted_cells


_TRIT_TILINGS = {
    **{"box-%dx%dx%d" % dims: lambda dims=dims: enumerate_tilings(build_box(*dims))
       for dims in ((3, 3, 2), (3, 4, 2), (2, 2, 2))},
    # on a period-2 axis anchors 0 and 1 would span the same cells
    **{"torus-%dx%dx%d" % p: lambda p=p: enumerate_tilings(build_torus(*p))
       for p in ((2, 2, 2), (2, 2, 4), (2, 4, 2), (4, 2, 2))},
    "corner-cut-3x3x3": lambda: enumerate_tilings(corner_cut_cube()),
    **{"walk-box-%dx%dx%d" % dims: lambda dims=dims: walk_states(
        build_box(*dims), "flip+trit", 300, 1) for dims in ((4, 4, 4), (5, 6, 4))},
    **{"walk-torus-%dx%dx%d" % p: lambda p=p: walk_states(
        build_torus(*p), "flip+trit", 300, 1)
       for p in ((2, 4, 6), (4, 4, 4), (6, 4, 2), (2, 2, 6))},
}


# no trit on the 2x2x2 box or torus, nor on the walk from the 2x2x6 torus's
# base tiling
_TRITLESS = {"box-2x2x2", "torus-2x2x2", "walk-torus-2x2x6"}


@pytest.mark.parametrize("name", list(_TRIT_TILINGS))
def test_trits_match_the_coordinate_oracle(name):
    found = 0
    for t in _TRIT_TILINGS[name]():
        for m in find_trits(t):
            assert m == slow_trit_move(t.region, m.anchor, m.removed[::-1])
            found += 1
    assert bool(found) != (name in _TRITLESS)


# tori with period-2 axes, where the cube table anchors one cube per
# period-2 axis instead of two on the same cells
_ALIASED_TORI = {
    **{"torus-%dx%dx%d" % p: lambda p=p: enumerate_tilings(build_torus(*p))
       for p in ((2, 2, 2), (2, 2, 4), (2, 4, 2), (4, 2, 2))},
    **{"walk-torus-%dx%dx%d" % p: lambda p=p, steps=steps: walk_states(
        build_torus(*p), "flip+trit", steps, 1)
       for p, steps in (((2, 4, 4), 3000), ((2, 4, 6), 2000), ((2, 2, 6), 2000))},
}


@pytest.mark.parametrize("name", list(_ALIASED_TORI))
def test_trits_match_the_aliased_cube_list(name):
    found = 0
    for t in _ALIASED_TORI[name]():
        trits = find_trits(t)
        assert trits == aliased_torus_trits(t)
        found += len(trits)
    assert bool(found) != (name in _TRITLESS)


@pytest.mark.parametrize("region", [build_box(3, 3, 2), build_torus(2, 2, 4),
                                    corner_cut_cube()], ids=["box", "torus", "voxels"])
def test_flip_scans_leave_the_cube_table_unbuilt(region):
    tilings = list(enumerate_tilings(region))
    t = next(t for t in tilings if find_flips(t))
    move_graph(tilings, "flip")
    state = WalkState(t, "flip")
    state.apply(state.move(0))
    state.moves()
    assert region._cube_table is None
    find_trits(t)
    assert region._cube_table is not None


def test_trio_table_lists_each_trio_of_a_cube_once():
    trios = {}
    for removed, inserted, sign in _TRIOS:
        # one dimer per axis, in x, y, z order, on six distinct positions
        assert [i ^ j for i, j in removed] == [4, 2, 1]
        cells = {p for pair in removed for p in pair}
        assert len(cells) == 6
        # the two positions left out are antipodal
        left = set(range(8)) - cells
        assert sorted(i ^ j for i in left for j in left) == [0, 0, 7, 7]
        # the inserted pattern is the other trio on the same cells
        assert [i ^ j for i, j in inserted] == [4, 2, 1]
        assert {p for pair in inserted for p in pair} == cells
        assert {frozenset(pair) for pair in inserted}.isdisjoint(map(frozenset, removed))
        assert sign in (1, -1)
        trios[frozenset(map(frozenset, removed))] = (frozenset(map(frozenset, inserted)), sign)
    assert len(trios) == len(_TRIOS) == 8
    # ... which the table lists with the opposite sign
    for removed, (inserted, sign) in trios.items():
        assert trios[inserted] == (removed, -sign)


# -- labelled components ----------------------------------------------------

# Every box shape with at most 2,000 tilings, in two orientations, the
# 3x3x2, 3x4x2 and 2x4x4 boxes as the CLI spells them, tori with period-2
# axes, and four voxel regions named by their bounding boxes: a solid torus
# (the 4x4x2 box minus its central 2x2 column, 324 tilings), an L (the 4x4x2
# box minus a 2x2 corner column, 1,560), a 4x3x3 box with a sealed 2-cell
# cavity (14,036) and a 3x2x2 box minus two corners (6).
_SMALL_SHAPES = ((1, 1, 2), (1, 1, 4), (1, 1, 6), (1, 2, 2), (1, 2, 3), (1, 2, 4),
                 (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 4), (1, 4, 5),
                 (1, 4, 6), (1, 5, 6), (2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 2, 5),
                 (2, 2, 6), (2, 3, 3), (2, 3, 4))
_VOXEL_CELLS = {
    "ring": [(x, y, z) for x in range(4) for y in range(4) for z in range(2)
             if not (x in (1, 2) and y in (1, 2))],
    "L": [(x, y, z) for x in range(4) for y in range(4) for z in range(2)
          if not (x >= 2 and y >= 2)],
    "cavity": [(x, y, z) for x in range(4) for y in range(3) for z in range(3)
               if (x, y, z) not in ((1, 1, 1), (2, 1, 1))],
    # two corners off the 3x2x2 box: a 7-cell cube whose off-region cell
    # (-1) would index the last cell if a move read it
    "notch": [(x, y, z) for x in range(3) for y in range(2) for z in range(2)
              if (x, y, z) not in ((0, 0, 1), (2, 0, 0))],
    # 258 cells, past what one byte per cell index holds: the 3x3x2 box
    # with a rod of 240 cells on one corner, which tiles only by itself
    "rod": [(x, y, z) for x in range(3) for y in range(3) for z in range(2)]
           + [(0, 0, z) for z in range(2, 242)],
}
_LABELLED_REGIONS = sorted(
    {("box", d) for shape in _SMALL_SHAPES for d in (shape, shape[::-1])}
    | {("box", (3, 3, 2)), ("box", (3, 4, 2)), ("box", (2, 4, 4)), ("box", (2, 1, 4)),
       ("box", (4, 2, 1)), ("torus", (2, 2, 2)), ("torus", (2, 2, 4)), ("torus", (2, 4, 2)),
       ("torus", (4, 2, 2)), ("ring", (4, 4, 2)), ("L", (4, 4, 2)), ("cavity", (4, 3, 3)),
       ("notch", (3, 2, 2)), ("rod", (3, 3, 242))})


def _labelled_region(kind, dims):
    if kind in _VOXEL_CELLS:
        return build_voxel_region(_VOXEL_CELLS[kind])
    return (build_box if kind == "box" else build_torus)(*dims)


def _key(layout, mate):
    """A packed key read as the engine's int."""
    return int.from_bytes(layout.pack(*mate), "little")


def _read_moves(region, mates, move_set, layout=None):
    """The edge source of the components engine over these mate arrays:
    each key's handled moves as a Counter of (target key, trit count), and
    how many keys in all meet a counted move. layout defaults to the
    region's own key layout."""
    layout = layout or _key_struct(region.n_cells)
    index, columns = _pack_keys(region, mates, layout)
    keys = list(index)
    handled = [Counter() for _ in keys]
    counted = 0
    for delta, sign, hits, others in _move_edges(region, move_set, columns, len(keys),
                                                 layout.size // region.n_cells):
        counted += others
        for u, hit in enumerate(hits):
            if hit:
                handled[u][(keys[u] + delta).to_bytes(layout.size, "little"), sign] += 1
    return handled, counted


@pytest.mark.parametrize("kind, dims", _LABELLED_REGIONS,
                         ids=["%s-%dx%dx%d" % (k, *d) for k, d in _LABELLED_REGIONS])
def test_move_table_reads_what_the_scan_reads(kind, dims):
    """The engine's edge source hands each key the multiset of targets and
    trit counts that the old rescan of the key's geometry handles, and
    counts exactly as many moves in all (it reads all keys at once, so a
    key's moves come in no order of their own)."""
    region = _labelled_region(kind, dims)
    pack = _key_struct(region.n_cells).pack
    mates = [tuple(mate) for mate in _mates(region)]
    for moves in ("flip", "trit", "flip+trit"):
        move_set = _normalize_moves(moves)
        handled, counted = _read_moves(region, mates, move_set)
        slow = [slow_move_reader(region, move_set)(pack(*mate)) for mate in mates]
        assert handled == [Counter(targets) for targets, _others in slow], moves
        assert counted == sum(others for _targets, others in slow), moves


@pytest.mark.parametrize("make", [lambda: build_box(3, 4, 2), lambda: build_torus(2, 2, 4),
                                  corner_cut_cube], ids=["box-3x4x2", "torus-2x2x4", "corner-cut"])
@pytest.mark.parametrize("moves_name", ["flip", "flip+trit"])
def test_handled_moves_name_the_white_cell_first(make, moves_name):
    """_move_edges reads each dimer's column at its first cell, so every
    pair that _handled_moves yields, removed or inserted, starts white."""
    region = make()
    whites = set(region.whites)
    kinds = Counter()
    for removed, inserted, sign in _handled_moves(region, _normalize_moves(moves_name)):
        kinds[sign] += 1
        for w, b in [*removed, *inserted]:
            assert w in whites and b not in whites, (removed, inserted)
    # flips on every region, and trits where the move set has them
    assert kinds[0] and (kinds[1] > 0) == (moves_name == "flip+trit"), kinds


def test_move_edges_at_four_bytes_a_cell():
    """Columns and deltas of keys four bytes a cell wide, packed by hand,
    read the same moves as the one-byte keys of the same tilings."""
    region = build_box(3, 3, 2)
    mates = [tuple(mate) for mate in _mates(region)]
    wide = Struct("<18i")
    index, columns = _pack_keys(region, mates, wide)
    assert list(index) == [sum(m << 32 * c for c, m in enumerate(mate)) for mate in mates]
    step = region.step_table
    for w, column in enumerate(columns):
        if region.colors[w] == 1:
            assert column == 0
            continue
        nbrs = list(dict.fromkeys(b for b in step[w] if b >= 0))
        held = column.to_bytes(len(mates), "little")
        assert list(held) == [1 << nbrs.index(mate[w]) for mate in mates]
    narrow = _key_struct(region.n_cells)
    for moves in ("flip", "flip+trit"):
        move_set = _normalize_moves(moves)
        handled, counted = _read_moves(region, mates, move_set, wide)
        expected, total = _read_moves(region, mates, move_set, narrow)
        assert counted == total
        assert handled == [Counter({(wide.pack(*narrow.unpack(key)), sign): k
                                    for (key, sign), k in c.items()}) for c in expected]
    # one hand-packed flip: the z-dimers (0, 1) and (2, 3) of 3x3x2 side by
    # side along y, turned into the y-dimers (0, 2) and (1, 3); it is
    # handled at the y-dimers, whose axis is below z
    base = list(base_tiling(region, 2).mate)
    assert base[:4] == [1, 0, 3, 2]
    flipped = [2, 3, 0, 1] + base[4:]
    index, columns = _pack_keys(region, [base, flipped], wide)
    assert index == {sum(m << 32 * c for c, m in enumerate(mate)): u
                     for u, mate in enumerate([base, flipped])}
    edges = [(u, delta, sign) for delta, sign, hits, _others in _move_edges(
        region, _normalize_moves("flip"), columns, 2, 4) for u, hit in enumerate(hits) if hit]
    back = (1 - 2 << 0) + (0 - 3 << 32) + (3 - 0 << 64) + (2 - 1 << 96)
    assert (1, back, 0) in edges
    assert (0, -back, 0) not in edges


@pytest.mark.parametrize("n_cells, width", [(8, 1), (300, 2), (70_000, 4)])
def test_key_struct_is_little_endian(n_cells, width):
    layout = _key_struct(n_cells)
    assert layout.size == n_cells * width
    # mostly zeros, so the sum of shifted entries stays cheap on 70,000 cells
    rng = random.Random(n_cells)
    mate = [0] * n_cells
    for c in rng.sample(range(n_cells - 1), min(20, n_cells - 1)) + [n_cells - 1]:
        mate[c] = rng.randrange(n_cells)
    key = layout.pack(*mate)
    assert int.from_bytes(key, "little") == sum(m << 8 * width * c for c, m in enumerate(mate) if m)


@pytest.mark.parametrize("move_set", ["flip", "trit", "flip+trit"])
def test_labelled_components_name_a_non_adjacent_pair(move_set):
    # (0, 0, 0) and (1, 1, 1) have opposite colours but share no face; every
    # Tiling is a perfect matching, so the constructor names the pair before
    # labelled_components could read it
    with pytest.raises(ValueError, match=re.escape("non-adjacent dimer (0, 7)")):
        labelled_components([Tiling(build_box(2, 2, 2), [(0, 7), (1, 3), (2, 6), (4, 5)])],
                            move_set)


def _assert_engine_matches_the_oracle(tilings, moves, expected=None):
    """_key_components over the packed tilings agrees with
    slow_labelled_components (or expected, its result), key by key and
    component by component."""
    layout = _key_struct(tilings[0].region.n_cells)
    index, component, label, groups = _key_components(
        tilings[0].region, (t.mate for t in tilings), moves)
    assert list(index) == [_key(layout, t.mate) for t in tilings]
    if expected is None:
        expected = slow_labelled_components(tilings, moves)
    assert len(groups) == len(expected)
    for c in expected:
        keys = [_key(layout, t.mate) for t in c.tilings]
        g = groups[component[index[keys[0]]]]
        assert (g.size, g.first, g.low, g.high, g.consistent) == (
            len(c.tilings), tuple(c.tilings[0].mate), min(c.labels), max(c.labels),
            c.consistent)
        assert [label[index[key]] for key in keys] == c.labels
    return groups


def test_key_components_on_two_byte_keys():
    tilings = list(enumerate_tilings(_labelled_region("rod", None)))
    assert len(tilings) == 229
    assert _key_struct(tilings[0].region.n_cells).format == "<258H"
    flip = _assert_engine_matches_the_oracle(tilings, "flip")
    assert sorted((g.size for g in flip), reverse=True) == [227, 1, 1]
    [both] = _assert_engine_matches_the_oracle(tilings, "flip+trit")
    assert (both.size, both.low, both.high, both.consistent) == (229, -1, 1, True)


@pytest.mark.parametrize("moves", ["flip", "flip+trit"])
@pytest.mark.parametrize("kind, dims", _LABELLED_REGIONS,
                         ids=["%s-%dx%dx%d" % (k, *d) for k, d in _LABELLED_REGIONS])
def test_labelled_components_match_the_move_graph(kind, dims, moves):
    region = _labelled_region(kind, dims)
    tilings = list(enumerate_tilings(region))
    comps = labelled_components(tilings, moves)
    expected = slow_labelled_components(tilings, moves)
    assert comps == expected
    groups = _assert_engine_matches_the_oracle(tilings, moves, expected)
    g = move_graph(tilings, moves)
    assert [[t.hash64 for t in c.tilings] for c in comps] == g.components()
    assert sorted(grp.size for grp in groups) == sorted(g.component_sizes())
    for c in comps:
        labels, consistent = bfs_trit_labeling(g, c.tilings[0])
        assert c.consistent == consistent
        if consistent:
            assert c.labels == [labels[t.hash64] for t in c.tilings]
        if region.is_box:
            assert consistent
            tws = [twist(t, 2) for t in c.tilings]
            assert [tws[0] + label for label in c.labels] == tws
    # each move edge is handled at exactly one end and counted at the other
    handled, counted = _read_moves(region, [t.mate for t in tilings], _normalize_moves(moves))
    assert sum(sum(c.values()) for c in handled) == counted == len(g.edges)


def test_labelled_components_reject_a_partial_enumeration():
    tilings = list(enumerate_tilings(build_box(3, 3, 2)))
    with pytest.raises(ValueError, match="move target missing"):
        labelled_components(tilings[1:], "flip")


def test_labelled_components_take_a_repeated_tiling_once():
    tilings = list(enumerate_tilings(build_box(3, 3, 2)))
    once = labelled_components(tilings, "flip+trit")
    assert labelled_components(tilings + tilings[::7], "flip+trit") == once
    assert [len(c.tilings) for c in once] == [229]


def test_labelled_components_keep_an_inconsistency_through_a_merge(monkeypatch):
    # {3, 4} closes a cycle with trit sum 2, then joins the larger {0, 1, 2}
    tilings = list(enumerate_tilings(build_box(2, 2, 2)))[:5]
    edges = {0: [(1, 0), (2, 0)], 3: [(4, 1)], 4: [(3, 1), (0, 0)]}
    # every fake edge is handled from the end that lists it, none counted;
    # each is a move of its own, held by one key
    keys = [_key(_key_struct(8), t.mate) for t in tilings]

    def fake_edges(region, move_set, columns, n, width):
        for u, out in edges.items():
            for v, sign in out:
                yield keys[v] - keys[u], sign, bytes(u) + b"\1" + bytes(n - u - 1), 0

    monkeypatch.setattr(moves, "_move_edges", fake_edges)
    [comp] = labelled_components(tilings, "flip+trit")
    assert comp.tilings == tilings
    assert not comp.consistent


# boxes whose keys take one, two and four bytes a cell: the last has more
# cells than two bytes index
@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 65, 2), (2, 16385, 2)])
def test_labelled_components_name_an_uncovered_cell(dims):
    # the constructor names the cell before labelled_components could read
    # the tiling
    region = build_box(*dims)
    # z-dimers on every cell but the last two
    pairs = [(i, i + 1) for i in range(0, region.n_cells - 2, 2)]
    with pytest.raises(ValueError, match=re.escape("cell uncovered: (1, %d, 0)" % (dims[1] - 1))):
        labelled_components([Tiling(region, pairs)], "flip+trit")
    # every cell covered: cells 1 and 2 once more, by a pair that shares no
    # face, and cells 0 and 1 by their own pair again
    pairs.append((region.n_cells - 2, region.n_cells - 1))
    with pytest.raises(ValueError, match=re.escape("non-adjacent dimer (1, 2)")):
        labelled_components([Tiling(region, pairs + [(1, 2)])], "flip")
    with pytest.raises(ValueError, match=re.escape("cell covered twice: (0, 0, 0)")):
        labelled_components([Tiling(region, pairs + [(0, 1)])], "flip")
    # each cell once, but half the pairs start at their black cell
    with pytest.raises(ValueError, match=re.escape("mis-colored dimer (0, 1)")):
        labelled_components([Tiling(region, pairs)], "flip")


@pytest.mark.parametrize("move_set", ["flip", "flip+trit"])
def test_labelled_components_refuse_each_drop_one_set_the_oracle_refuses(move_set):
    tilings = list(enumerate_tilings(build_box(3, 3, 2)))
    # a tiling all of whose moves are handled at itself is reached by the
    # others only through counted moves: only the balance sees it dropped
    read = slow_move_reader(tilings[0].region, _normalize_moves(move_set))
    pack = _key_struct(tilings[0].region.n_cells).pack
    assert any(targets and not others for targets, others in
               (read(pack(*t.mate)) for t in tilings))
    for k in range(len(tilings)):
        part = tilings[:k] + tilings[k + 1:]
        try:
            expected = slow_labelled_components(part, move_set)
        except ValueError as e:
            assert "move target missing" in str(e)
            with pytest.raises(ValueError, match="move target missing"):
                labelled_components(part, move_set)
        else:
            assert labelled_components(part, move_set) == expected


@pytest.mark.parametrize("moves", ["flip", "flip+trit"])
def test_key_components_miss_a_dropped_target_handled_or_counted(moves):
    """A dropped tiling is missed both where another key handles a move to
    it and where the moves that reach it are only counted."""
    region = build_box(3, 3, 2)
    mates = [tuple(mate) for mate in _mates(region)]
    layout = _key_struct(region.n_cells)
    handled, _counted = _read_moves(region, mates, _normalize_moves(moves))
    targets = {key for c in handled for key, _sign in c}
    # a handled target, and a tiling that no key handles a move to
    reached = next(u for u, mate in enumerate(mates) if layout.pack(*mate) in targets)
    counted_only = next(u for u, mate in enumerate(mates)
                        if layout.pack(*mate) not in targets and handled[u])
    for k in (reached, counted_only):
        with pytest.raises(ValueError, match="move target missing"):
            _key_components(region, mates[:k] + mates[k + 1:], moves)


def test_labelled_components_input_checks():
    with pytest.raises(ValueError, match="no tilings"):
        labelled_components([], "flip")
    mixed = [base_tiling(build_box(2, 2, 2), 0), base_tiling(build_box(2, 2, 4), 0)]
    with pytest.raises(ValueError, match="different regions"):
        labelled_components(mixed, "flip")
    with pytest.raises(ValueError, match="moves must be"):
        labelled_components(mixed[:1], {"flip"})
