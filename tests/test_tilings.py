import hashlib
import random
import time
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from tritile import tilings
from tritile import (
    BudgetExceeded, Region, Tiling, apply_flip, base_tiling, build_box,
    build_torus, build_voxel_region, count_tilings, deserialize_tiling,
    diff_cycles, enumerate_tilings, find_flips, refine_region, refine_tiling,
    serialize_tiling,
)
from tritile.harness import walk_states
from support import (
    corner_cut_cube, count_matchings, pinwheel_N1, pinwheel_N2, slow_from_cell_pairs,
    slow_neighbor_table, slow_refine,
)


def test_enumeration_counts_match_permanent_oracle():
    for build, args in ((build_box, (2, 2, 1)), (build_box, (2, 2, 2)),
                        (build_box, (3, 3, 2)), (build_box, (4, 2, 1)),
                        (build_torus, (2, 2, 2)), (build_torus, (2, 2, 4))):
        r = build(*args)
        expected = count_matchings(r.cells, periods=r.periods)
        assert count_tilings(r) == expected, (build.__name__, args)


def test_enumeration_count_on_voxel_region():
    cells = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (2, 0, 0), (3, 0, 0)]
    r = build_voxel_region(cells)
    assert count_tilings(r) == count_matchings(cells) == 2


def _enumerated_count(region) -> int:
    return sum(1 for _ in enumerate_tilings(region))


def test_frontier_count_equals_enumeration_on_boxes_and_tori():
    # period-2 axes list each adjacent pair once in the neighbour table
    for region in (build_box(1, 1, 2), build_box(2, 3, 1), build_box(2, 2, 3),
                   build_box(3, 2, 2), build_box(4, 3, 2), build_box(2, 3, 4),
                   build_torus(2, 2, 2), build_torus(2, 2, 4),
                   build_torus(2, 4, 2)):
        assert count_tilings(region) == _enumerated_count(region), region


_BOX432 = [(x, y, z) for x in range(4) for y in range(3) for z in range(2)]


@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=len(_BOX432) - 1), max_size=6),
       st.sampled_from((0, 1)))
def test_frontier_count_equals_enumeration_on_voxel_subsets(removed, parity):
    # the box minus a few cells: odd, unbalanced and disconnected sets too,
    # so the region is built directly rather than through build_voxel_region
    cells = [c for k, c in enumerate(_BOX432) if k not in removed]
    region = Region("voxels", cells, parity=parity)
    assert count_tilings(region) == _enumerated_count(region)


def test_frontier_count_of_degenerate_regions_is_zero():
    for cells in ([], [(0, 0, 0)], [(0, 0, 0), (1, 1, 0)],
                  [(0, 0, 0), (1, 0, 0), (2, 0, 0)]):
        region = Region("voxels", cells, parity=0)
        assert count_tilings(region) == _enumerated_count(region) == 0, cells


def test_frontier_count_known_values():
    assert count_tilings(build_box(3, 4, 4)) == 10885344
    assert count_tilings(build_box(4, 4, 4)) == 5051532105


def test_frontier_count_stops_at_its_state_budget():
    with pytest.raises(BudgetExceeded, match=r"box 6x6x6.* 1048576 frontier states"):
        count_tilings(build_box(6, 6, 6))


def _no_sweep(region):
    raise AssertionError("the sweep started on %r" % (region,))


@pytest.mark.parametrize("build", [build_box, build_torus], ids=["box", "torus"])
def test_frontier_count_refuses_a_wide_slice_before_building_tables(build, monkeypatch):
    # a 1000x2 slice forces 2^1000 states: refused at once, not after the
    # cell and step tables of 2 million cells are built (about 2 GB, so the
    # sweep itself is made to fail fast)
    monkeypatch.setattr(tilings, "_sweep_order", _no_sweep)
    region = build(1000, 1000, 2)
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match=r"1000x1000x2.* 1048576 frontier states"):
        count_tilings(region)
    assert time.perf_counter() - start < 1
    for name in ("cells", "index", "colors"):
        # the slot itself: plain attribute access would build the table
        with pytest.raises(AttributeError):
            object.__getattribute__(region, name)
    assert region._step_table is None


def _pairs_in_branching_order(region, order):
    """Every tiling's sorted (white, black) pairs, by a backtracking search
    on the lowest uncovered cell that branches over directions in `order`,
    with adjacency from the slow neighbour table."""
    rank = {d: k for k, d in enumerate(order)}
    nbrs = [[j for j, d in sorted(row, key=lambda e: rank[e[1]])]
            for row in slow_neighbor_table(region)]
    white = [c == -1 for c in region.colors]
    mate = [-1] * region.n_cells
    found = set()

    def search(i):
        while i < len(mate) and mate[i] != -1:
            i += 1
        if i == len(mate):
            found.add(tuple(sorted((k, m) for k, m in enumerate(mate) if white[k])))
            return
        for j in nbrs[i]:
            if mate[j] == -1:
                mate[i], mate[j] = j, i
                search(i + 1)
                mate[i] = mate[j] = -1

    search(0)
    return found


def test_enumeration_order_independent():
    r = build_box(3, 3, 2)
    reference = [t.pairs for t in enumerate_tilings(r)]
    assert len(set(reference)) == len(reference) == 229
    rng = random.Random(3)
    for _ in range(3):
        order = list(range(6))
        rng.shuffle(order)
        assert _pairs_in_branching_order(r, order) == set(reference)


# sha256 of repr([t.pairs for t in enumerate_tilings(region)]): the order of
# the listing, pinned so a change to the backtracking search shows.
_ORDER_PINS = {
    "box-3x4x2": (lambda: build_box(3, 4, 2), 1845,
                  "82f2f8e77eca7406b84eda0b4989f6e43dcf2822864e706daef1740125edad79"),
    "torus-2x2x2": (lambda: build_torus(2, 2, 2), 9,
                    "700bb3f2bdcda94b9b6cf17358799742e257bf992fe3c3805feb7a683f5ca9db"),
    "torus-4x2x2": (lambda: build_torus(4, 2, 2), 272,
                    "488fcd4a42f510b11e2b33194ebebfab0d235b312ea8bbc2b3de865dfd43c2a0"),
    "torus-2x4x2": (lambda: build_torus(2, 4, 2), 272,
                    "0c363a8c8f2f74fd1410201a3cf500d62065b23ae4f3624248483005a403eb05"),
    "corner-cut-3x3x3": (corner_cut_cube, 2664,
                         "7706f48c1c171747c31ab1cef32692ea792c066d232b9334320729f61420cdec"),
    # the 4x4x2 box minus a 2x2 corner column
    "L-4x4x2": (lambda: build_voxel_region([(x, y, z) for x in range(4) for y in range(4)
                                            for z in range(2) if not (x >= 2 and y >= 2)]),
                1560, "053bc55de9217f227e7b2bcf22b85e26449dd7e3b3095f79f774a8dcfe40cac0"),
}


@pytest.mark.parametrize("name", sorted(_ORDER_PINS))
def test_enumeration_order_is_pinned(name):
    make, count, digest = _ORDER_PINS[name]
    pairs = [t.pairs for t in enumerate_tilings(make())]
    assert len(pairs) == count
    assert hashlib.sha256(repr(pairs).encode()).hexdigest() == digest


def test_enumeration_hashes_distinct_and_valid():
    r = build_box(3, 3, 2)
    seen = set()
    for t in enumerate_tilings(r):
        assert t.hash64 not in seen
        seen.add(t.hash64)
        covered = sorted(c for d in t.dimers for c in (d.white, d.black))
        assert covered == sorted(r.cells)
    assert len(seen) == 229


def test_base_tiling_box():
    t = base_tiling(build_box(3, 3, 2), 2)
    assert len(t.dimers) == 9
    assert all(d.axis == 2 for d in t.dimers)
    assert all({d.white[2], d.black[2]} == {0, 1} for d in t.dimers)


def test_base_tiling_torus_pairs_low_and_high():
    t = base_tiling(build_torus(4, 4, 4), 0)
    assert len(t.dimers) == 32
    assert all(d.axis == 0 for d in t.dimers)
    assert {tuple(sorted((d.white[0], d.black[0]))) for d in t.dimers} == \
        {(0, 1), (2, 3)}


def test_base_tiling_odd_extent_rejected():
    with pytest.raises(ValueError, match="odd extent along axis x"):
        base_tiling(build_box(3, 3, 2), 0)


def test_from_cell_pairs_validation():
    r = build_box(2, 2, 1)
    good = [((0, 0, 0), (1, 0, 0)), ((1, 1, 0), (0, 1, 0))]
    t = Tiling.from_cell_pairs(r, good)
    assert len(t.dimers) == 2
    with pytest.raises(ValueError, match="cell covered twice"):
        Tiling.from_cell_pairs(r, [((0, 0, 0), (1, 0, 0)),
                                   ((1, 0, 0), (1, 1, 0))])
    with pytest.raises(ValueError, match="not in the region"):
        Tiling.from_cell_pairs(r, [((0, 0, 0), (1, 0, 0)),
                                   ((1, 1, 0), (1, 2, 0))])
    with pytest.raises(ValueError, match="same-color"):
        Tiling.from_cell_pairs(r, [((0, 0, 0), (1, 1, 0)),
                                   ((1, 0, 0), (0, 1, 0))])


def test_from_cell_pairs_refuses_non_integer_coordinates():
    np = pytest.importorskip("numpy")
    r = build_box(2, 2, 1)
    upper = ((0, 1, 0), (1, 1, 0))
    for bad in ((0.6, 0, 0), ("0", 0, 0), (False, 0, 0)):
        with pytest.raises(ValueError, match="is not an integer"):
            Tiling.from_cell_pairs(r, [(bad, (1, 0, 0)), upper])
    lower = (tuple(np.int64(v) for v in (0, 0, 0)), (1, 0, 0))
    assert Tiling.from_cell_pairs(r, [lower, upper]) == base_tiling(r, 0)


def _same_outcome(region, cell_pairs) -> str:
    """Tiling.from_cell_pairs and its oracle build the same tiling or raise
    the same error; returns the error message, or "" for a tiling."""
    try:
        want = slow_from_cell_pairs(region, cell_pairs)
    except Exception as exc:
        with pytest.raises(Exception) as info:
            Tiling.from_cell_pairs(region, cell_pairs)
        assert type(info.value) is type(exc) and str(info.value) == str(exc)
        return str(exc)
    got = Tiling.from_cell_pairs(region, cell_pairs)
    assert got == want and got.mate == want.mate
    return ""


class _Index:
    """An integer by __index__ only: neither equal to nor hashed as an int."""

    def __init__(self, value: int):
        self.value = value

    def __index__(self) -> int:
        return self.value


def test_from_cell_pairs_matches_its_oracle_on_random_input():
    rng = random.Random(5)
    regions = [build_box(3, 3, 2), build_box(4, 4, 2), build_torus(2, 2, 4),
               build_torus(4, 4, 4), build_torus(2, 4, 6), corner_cut_cube()]
    seen = set()
    for region in regions:
        periods = region.periods or (0, 0, 0)
        for t in walk_states(region, "flip+trit", 6, rng.randrange(100)):
            pairs = [(d.white, d.black) if rng.random() < 0.5 else (d.black, d.white)
                     for d in t.dimers]
            rng.shuffle(pairs)
            # other torus lifts, and JSON-style lists
            pairs = [tuple(tuple(v + p * rng.randrange(-2, 3) for v, p in zip(c, periods))
                           for c in pair) for pair in pairs]
            assert _same_outcome(region, pairs) == ""
            assert _same_outcome(region, [[list(a), list(b)] for a, b in pairs]) == ""
            k = rng.randrange(len(pairs))
            broken = [pairs[:k] + pairs[k + 1:],
                      pairs + [pairs[k]],
                      pairs + [pairs[k][::-1]]]
            for _ in range(4):
                cell = tuple(rng.randrange(-1, 5) for _ in range(3))
                pair = list(pairs[k])
                pair[rng.randrange(2)] = cell
                broken.append(pairs[:k] + [tuple(pair)] + pairs[k + 1:])
            for cell_pairs in broken:
                seen.add(_same_outcome(region, cell_pairs).split(" ")[0])
    assert {"", "cell", "dimer", "cells"} <= seen


def test_from_cell_pairs_matches_its_oracle_on_odd_coordinates():
    box, torus = build_box(2, 2, 1), build_torus(2, 2, 2)
    upper = ((0, 1, 0), (1, 1, 0))
    top = [((0, 0, 1), (1, 0, 1)), ((0, 1, 1), (1, 1, 1))]
    for bad in ((True, 0, 0), (False, 0, 0), (0.0, 0, 0), (1.0, 0, 0), ("0", 0, 0),
                ([0], 0, 0)):
        assert "is not an integer" in _same_outcome(box, [(bad, (1, 0, 0)), upper])
        assert "is not an integer" in _same_outcome(torus, [(bad, (1, 0, 0)), upper] + top)
    assert _same_outcome(box, [((0, 0), (1, 0, 0)), upper]) == \
        "cell (0, 0) is not in the region"
    _same_outcome(box, [((0, 0, 0, 0), (1, 0, 0)), upper])
    _same_outcome(torus, [((0, 0, 0, 0), (1, 0, 0)), upper] + top)
    lower = (tuple(map(_Index, (0, 0, 0))), (1, 0, 0))
    assert _same_outcome(box, [lower, upper]) == ""
    assert Tiling.from_cell_pairs(box, [lower, upper]) == base_tiling(box, 0)
    lifted = [((2, 0, 0), (_Index(-1), 0, 0)), ((0, 1, 0), (1, 1, 0)),
              ((0, 0, 1), (1, 0, 1)), ((0, 1, 1), (1, 1, 1))]
    assert _same_outcome(torus, lifted) == ""


@pytest.mark.parametrize("region, cell_pairs, message", [
    (build_box(2, 2, 1), [((0, 0, 0), (1, 0, 0)), ((1, 1, 0), (1, 2, 0))],
     "cell (1, 2, 0) is not in the region"),
    (build_box(2, 2, 1), [((0, 0, 0), (1, 1, 0)), ((1, 0, 0), (0, 1, 0))],
     "dimer (0, 0, 0)-(1, 1, 0) joins same-color cells"),
    (build_box(2, 2, 2), [((0, 0, 0), (1, 1, 1))],
     "cells (1, 1, 1) and (0, 0, 0) are not adjacent"),
    (build_torus(6, 2, 2), [((0, 0, 0), (3, 0, 0))],
     "cells (3, 0, 0) and (0, 0, 0) are not adjacent"),
    (build_box(2, 2, 1), [((0, 0, 0), (1, 0, 0)), ((1, 0, 0), (1, 1, 0))],
     "cell covered twice: (1, 0, 0)"),
    (build_box(2, 2, 1), [((0, 0, 0), (1, 0, 0)), ((0, 1, 0), (0, 0, 0))],
     "cell covered twice: (0, 0, 0)"),
    (build_box(2, 2, 1), [((0, 0, 0), (1, 0, 0))], "cell uncovered: (0, 1, 0)"),
    (build_torus(2, 2, 2), [((2, 0, 0), (3, 0, 0))], "cell uncovered: (0, 0, 1)"),
])
def test_from_cell_pairs_error_messages(region, cell_pairs, message):
    assert _same_outcome(region, cell_pairs) == message


def test_dimer_direction_is_unit_step():
    r = build_box(3, 3, 2)
    for t in (base_tiling(r, 2), pinwheel_N1()):
        for d in t.dimers:
            assert sorted(abs(v) for v in d.direction) == [0, 0, 1]
            assert tuple(d.white[k] + d.direction[k] for k in range(3)) == d.black


def test_period2_direction_representative_is_positive():
    # the stored representative on a period-2 axis is the +axis step,
    # whichever coordinate the white cell sits at
    t = base_tiling(build_torus(2, 2, 4), 0)
    assert {d.direction for d in t.dimers} == {(1, 0, 0)}
    assert {d.white[0] for d in t.dimers} == {0, 1}


def test_period2_geometric_steps_do_not_wrap():
    # the geometric lift used by windings is the raw coordinate delta
    r = build_torus(2, 2, 4)
    t = base_tiling(r, 0)
    for d, (wi, bi) in zip(t.dimers, t.pairs):
        expected = d.black[0] - d.white[0]
        assert t.steps[wi][0] == expected
        assert t.steps[bi][0] == -expected


def test_diff_cycles_self_all_trivial():
    t = base_tiling(build_box(3, 3, 2), 2)
    cs = diff_cycles(t, t)
    assert all(len(c.cells) == 2 for c in cs.cycles)
    assert cs.nontrivial == ()


def test_diff_cycles_flip_pair_one_square():
    t = base_tiling(build_box(2, 2, 1), 0)
    other = apply_flip(t, find_flips(t)[0])
    cs = diff_cycles(other, t)
    nontrivial = [c for c in cs.cycles if len(c.cells) > 2]
    assert len(nontrivial) == 1
    assert len(nontrivial[0].cells) == 4


def test_diff_cycles_no_flip_pair():
    cs = diff_cycles(pinwheel_N1(), pinwheel_N2())
    assert len(cs.cycles) == 3
    assert sum(1 for c in cs.cycles if len(c.cells) == 2) == 1


def test_diff_cycles_alternate_and_even():
    cs = diff_cycles(pinwheel_N1(), pinwheel_N2())
    for c in cs.cycles:
        assert len(c.cells) % 2 == 0
        for m in range(len(c.cells)):
            assert c.sources[m] != c.sources[(m + 1) % len(c.cells)]


def test_diff_cycles_cover_disagreement():
    t1, t0 = pinwheel_N1(), pinwheel_N2()
    cs = diff_cycles(t1, t0)
    in_cycles = {c for cy in cs.cycles for c in cy.cells}
    assert in_cycles == set(t1.region.cells)


def test_refine_identity():
    t = base_tiling(build_box(3, 3, 2), 2)
    assert refine_tiling(t, 0) is t


def test_refine_base_tiling():
    t = refine_tiling(base_tiling(build_box(3, 3, 2), 2), 1)
    assert t.region.dims == (15, 15, 10)
    assert len(t.dimers) == 1125
    assert all(d.axis == 2 for d in t.dimers)
    assert t == base_tiling(t.region, 2)


def test_refine_parallel_and_covering():
    t = pinwheel_N1()
    fine = refine_tiling(t, 1)
    assert fine.region == refine_region(t.region, 1)
    assert len(fine.dimers) == 125 * len(t.dimers)
    covered = sorted(c for d in fine.dimers for c in (d.white, d.black))
    assert covered == sorted(fine.region.cells)
    axes = {d.axis for d in t.dimers}
    assert {d.axis for d in fine.dimers} == axes


def _assert_refines_like_oracle(t: Tiling) -> None:
    fine = refine_tiling(t, 1)
    fine.validate()
    slow = slow_refine(t, 1)
    assert fine == slow and fine.mate == slow.mate


def test_refine_matches_cell_pair_oracle_on_box332():
    for t in enumerate_tilings(build_box(3, 3, 2)):
        _assert_refines_like_oracle(t)


@pytest.mark.parametrize("periods", [(2, 2, 4), (2, 4, 6), (4, 4, 4)])
def test_refine_matches_cell_pair_oracle_on_torus_walks(periods):
    # period-2 axes take the non-wrapping lift; period 4 and 6 wrap
    for t in walk_states(build_torus(*periods), "flip+trit", 24, sum(periods))[::4]:
        _assert_refines_like_oracle(t)


def test_refine_matches_cell_pair_oracle_on_voxels():
    cells = [(x, y, z) for x in range(3) for y in range(3) for z in range(2)
             if (x, y) != (2, 2)] + [(3, 0, 0), (3, 0, 1)]
    region = build_voxel_region(cells, parity=1)
    for t in walk_states(region, "flip+trit", 12, 5)[::3]:
        _assert_refines_like_oracle(t)


def test_refine_rejects_a_broken_cover():
    r = build_box(2, 2, 1)
    w, b = r.index[(1, 0, 0)], r.index[(0, 0, 0)]
    with pytest.raises(ValueError, match="refined cell covered twice"):
        refine_tiling(Tiling(r, [(w, b), (w, b)]), 1)
    with pytest.raises(ValueError, match="refined cell uncovered"):
        refine_tiling(Tiling(r, [(w, b)]), 1)


def test_refine_rejects_a_black_cell_matched_twice():
    # both whites are matched once, so only a check on black cells sees it
    twice = [((1, 0, 0), (0, 0, 0)), ((0, 1, 0), (0, 0, 0))]
    upper = [((0, 0, 1), (1, 0, 1)), ((1, 1, 1), (0, 1, 1))]
    for r, cell_pairs in ((build_box(2, 2, 1), twice), (build_torus(2, 2, 2), twice + upper)):
        pairs = [(r.index[w], r.index[b]) for w, b in cell_pairs]
        with pytest.raises(ValueError, match="refined cell covered twice"):
            refine_tiling(Tiling(r, pairs), 1)


def test_refine_never_wraps_a_column_around_a_box():
    # a hand-built pair (w, w) puts its column above w, past the box's top:
    # the lookup fails as it always did instead of pairing z = 9 with z = 0
    r = build_box(1, 2, 2)
    w = r.index[(0, 0, 1)]
    with pytest.raises(KeyError):
        refine_tiling(Tiling(r, [(w, w), (r.index[(0, 1, 1)], r.index[(0, 1, 0)])]), 1)


@pytest.mark.parametrize("region", [build_box(2, 1, 1), build_torus(2, 2, 2)],
                         ids=["box211", "torus222"])
def test_second_refinement_matches_cell_pair_oracle(region):
    # the torus tiling has x- and z-dimers, with white ends on both sides
    t = list(enumerate_tilings(region))[1 if region.is_torus else 0]
    fine, slow = refine_tiling(t, 2), slow_refine(t, 2)
    assert fine == slow and fine.mate == slow.mate


def test_validate_reads_adjacency_off_the_step_table():
    # cells x = 0..3 in a row: (3, 0) wraps around a period-4 torus axis but
    # not around a box
    box = build_box(4, 1, 1)
    with pytest.raises(ValueError, match="non-adjacent dimer"):
        Tiling(box, [(1, 2), (3, 0)]).validate()
    Tiling(box, [(1, 0), (3, 2)]).validate()
    torus = build_torus(4, 2, 2)
    wrapped = [((x + 1) % 4 * 4 + yz, x * 4 + yz) for x in (1, 3) for yz in range(4)]
    wrapped = [(w, b) if torus.colors[w] == -1 else (b, w) for w, b in wrapped]
    Tiling(torus, wrapped).validate()
    with pytest.raises(ValueError, match="mis-colored dimer"):
        Tiling(box, [(0, 1), (3, 2)]).validate()


def test_refining_a_box_leaves_the_refined_cell_tables_unbuilt():
    t = list(enumerate_tilings(build_box(3, 3, 2)))[100]
    fine = refine_tiling(t, 2)
    assert fine.region.n_cells == len(fine.mate) == 281_250
    for name in ("cells", "index", "colors"):
        # the slot itself: plain attribute access would build the table
        with pytest.raises(AttributeError):
            object.__getattribute__(fine.region, name)
    assert fine.region._step_table is None
    assert fine.region._cube_table is None


def test_a_dropped_refined_tiling_frees_its_region():
    # nothing may keep a refined region, with the tables built on it, alive
    # after its tiling is gone
    t = list(enumerate_tilings(build_box(3, 3, 2)))[100]
    fine = refine_tiling(t, 2)
    fine.validate()
    assert fine.region._step_table is not None
    region = weakref.ref(fine.region)
    del fine
    assert region() is None


def test_serialize_round_trip_base():
    r = build_box(3, 3, 2)
    t = base_tiling(r, 2)
    assert deserialize_tiling(serialize_tiling(t), r).hash64 == t.hash64


def test_deserialize_rejects_bad_matchings():
    import json
    r = build_box(2, 2, 1)
    doc = json.loads(serialize_tiling(base_tiling(r, 0)))
    doc["dimers"] = [[[1, 0, 0], [0, 0, 0]], [[0, 1, 0], [0, 0, 0]]]
    with pytest.raises(ValueError, match="cell covered twice"):
        deserialize_tiling(json.dumps(doc), r)
    doc["dimers"] = [[[1, 0, 0], [0, 0, 0]]]
    with pytest.raises(ValueError, match="cell uncovered"):
        deserialize_tiling(json.dumps(doc), r)


def test_deserialize_region_mismatch():
    t = base_tiling(build_box(2, 2, 1), 0)
    with pytest.raises(ValueError, match="disagrees"):
        deserialize_tiling(serialize_tiling(t), build_box(2, 2, 2))


def _random_state(region, seed: int) -> Tiling:
    rng = random.Random(seed)
    axis = next(k for k in range(3)
                if (region.dims or region.periods)[k] % 2 == 0)
    t = base_tiling(region, axis)
    for _ in range(12):
        flips = find_flips(t)
        if not flips:
            break
        t = apply_flip(t, rng.choice(flips))
    return t


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_serialize_round_trip_random(seed):
    region = build_box(3, 3, 2) if seed % 2 else build_torus(2, 2, 4)
    t = _random_state(region, seed)
    back = deserialize_tiling(serialize_tiling(t), region)
    assert back == t and back.hash64 == t.hash64


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_flip_is_an_involution(seed):
    t = _random_state(build_box(3, 3, 2), seed)
    flips = find_flips(t)
    if not flips:
        return
    m = flips[seed % len(flips)]
    assert apply_flip(apply_flip(t, m), m.reversed()) == t
