import hashlib
import random
import re
from collections import defaultdict
from itertools import islice, product

import pytest

from tritile import (
    BudgetExceeded, DiscreteSurface, FluxVector, RegionError, Square, Tiling, TritMove,
    WalkState, apply_flip, apply_trit,
    base_tiling, build_box, build_torus, build_voxel_region, closed_box_surface,
    cutting_surface, enumerate_tilings, find_flips, find_trits,
    flux, flux_through_surface, mixed_torus_tiling, modulus, refine_tiling,
    relative_twist, surface_from_json, surface_predicates, twist, vertex_flow,
)
from tritile import fluxtwist
from tritile.harness import _EULER_BOXES, walk_states
from tritile.tilings import _mates, diff_cycles
from support import (
    always_positive_trits, bfs_trit_labeling, bisect_twist, move_graph, pinwheel_N1,
    slow_closed_box_squares, slow_cutting_squares, slow_flux, slow_modulus, slow_twist,
    slow_vertex_flow, tiling_tA, tiling_tB,
)


# -- twist ----------------------------------------------------------------

def test_twist_of_base_tilings_is_zero():
    assert twist(base_tiling(build_box(3, 3, 2), 2), 2) == 0
    assert twist(base_tiling(build_box(4, 4, 2), 0), 1) == 0


def test_twist_frozen_fixture_values():
    assert twist(tiling_tA(), 2) == -1
    assert twist(tiling_tB(), 2) == 0
    assert twist(pinwheel_N1(), 2) == 1


def test_twist_matches_literal_shadow_sum():
    # full sweep against the plain-loop oracle, all three axes
    for t in enumerate_tilings(build_box(3, 3, 2)):
        for axis in range(3):
            assert twist(t, axis) == slow_twist(t, axis)


@pytest.mark.parametrize("dims", [(4, 4, 4), (6, 4, 4), (5, 6, 4)])
def test_twist_matches_literal_shadow_sum_on_walk_states(dims):
    states = walk_states(build_box(*dims), "flip+trit", 150, sum(dims))[::3]
    assert states
    for t in states:
        for axis in range(3):
            assert twist(t, axis) == slow_twist(t, axis)


@pytest.mark.parametrize("dims", [(1, 4, 6), (4, 6, 1), (6, 1, 4), (1, 1, 6), (2, 1, 1)])
def test_twist_matches_literal_shadow_sum_on_boxes_with_a_unit_dimension(dims):
    # a unit dimension gives two axes the same index stride
    for t in enumerate_tilings(build_box(*dims)):
        for axis in range(3):
            assert twist(t, axis) == slow_twist(t, axis)


def _mixed_brick(n: int) -> Tiling:
    """The n^3 box tiled by x-dimer bricks below z = n/2 and y-dimer bricks above."""
    pairs = []
    for x, y, z in product(range(n), repeat=3):
        if z < n // 2 and x % 2 == 0:
            pairs.append(((x, y, z), (x + 1, y, z)))
        elif z >= n // 2 and y % 2 == 0:
            pairs.append(((x, y, z), (x, y + 1, z)))
    return Tiling.from_cell_pairs(build_box(n, n, n), pairs)


def test_twist_of_mixed_bricks():
    # slow_twist gives 0 on every axis of the 24^3 brick too, in about 35 s each
    assert [twist(_mixed_brick(24), axis) for axis in range(3)] == [0, 0, 0]
    # a walk from the 8^3 brick: each trit moves the twist by its sign
    state = WalkState(_mixed_brick(8), "flip+trit")
    rng = random.Random(5)
    signed_trits, values = 0, set()
    for step in range(200):
        # the last listed move is a trit whenever there is one; take it half
        # the time
        m = state.move(len(state) - 1)
        if not (isinstance(m, TritMove) and rng.random() < 0.5):
            m = state.move(rng.randrange(len(state)))
        state.apply(m)
        signed_trits += m.sign if isinstance(m, TritMove) else 0
        values.add(signed_trits)
        t = state.tiling()
        assert twist(t, 2) == signed_trits
        if step % 20 == 19:
            assert [slow_twist(t, axis) for axis in range(3)] == [signed_trits] * 3
            assert [twist(t, axis) for axis in range(3)] == [signed_trits] * 3
    assert len(values) > 1


@pytest.mark.parametrize("t", [pinwheel_N1(), tiling_tA()], ids=["pinwheel", "tA"])
def test_twist_matches_literal_shadow_sum_on_refined_tilings(t):
    fine = refine_tiling(t, 1)
    value = slow_twist(fine, 2)
    assert value == twist(t, 2) != 0
    assert [twist(fine, axis) for axis in range(3)] == [value] * 3


def test_twist_leaves_the_refined_cell_tables_unbuilt():
    t = pinwheel_N1()
    fine = refine_tiling(t, 2)
    assert twist(fine, 2) == twist(t, 2) == 1
    for name in ("cells", "index", "colors"):
        # the slot itself: plain attribute access would build the table
        with pytest.raises(AttributeError):
            object.__getattribute__(fine.region, name)
    assert fine.region._step_table is None
    assert fine.region._cube_table is None


def test_twist_survives_second_refinement():
    for t, expected in ((tiling_tA(), -1), (tiling_tB(), 0)):
        fine = refine_tiling(t, 2)
        assert len(fine.pairs) == 125 ** 2 * len(t.pairs)
        assert twist(fine, 2) == twist(t, 2) == expected


def test_twist_matches_the_column_bisect_on_every_tiling_of_box_2x4x4():
    values = set()
    for t in enumerate_tilings(build_box(2, 4, 4)):
        for axis in range(3):
            value = twist(t, axis)
            assert value == bisect_twist(t, axis)
            values.add(value)
    assert values == {-2, -1, 0, 1, 2}


def test_twist_matches_the_column_bisect_on_refined_and_large_tilings():
    for t in enumerate_tilings(build_box(3, 3, 2)):
        fine = refine_tiling(t, 1)
        for axis in range(3):
            assert twist(fine, axis) == bisect_twist(fine, axis)
    for t in (refine_tiling(pinwheel_N1(), 2), _mixed_brick(24)):
        for axis in range(3):
            assert twist(t, axis) == bisect_twist(t, axis)


def test_twist_names_the_tiling_that_fails_its_quarter_check():
    # not a tiling, so taken unchecked: three pairs that cross with a
    # quarter total of 2 about z, and on the other six cells pairs of index
    # difference 1, which share no face but read as z-dimers, which twist
    # about z skips
    mate = [6, 4, 3, 2, 1, 11, 0, 8, 7, 10, 9, 5]
    t = Tiling._from_mate(build_box(2, 2, 3), mate)
    assert tuple(t.pairs) == ((1, 4), (3, 2), (5, 11), (6, 0), (8, 7), (10, 9))
    with pytest.raises(RuntimeError, match="quarter total 2 for 2 x-dimers, 1 y-dimers "
                       "around axis z, tiling hash64 %016x" % t.hash64):
        twist(t, "z")


@pytest.mark.parametrize("axis", [1.0, 2.0, True, "xy", None])
def test_twist_refuses_an_axis_that_is_not_an_int_or_a_name(axis):
    # True == 1 and 1.0 == 1, so a membership test alone would keep them
    with pytest.raises(ValueError, match="axis must be one of x, y, z"):
        twist(base_tiling(build_box(2, 2, 2), 0), axis)


def test_twist_axis_independent():
    for t in enumerate_tilings(build_box(3, 3, 2)):
        assert twist(t, 0) == twist(t, 1) == twist(t, 2)


def test_twist_rejects_non_box():
    with pytest.raises(ValueError, match="requires a box"):
        twist(base_tiling(build_torus(2, 2, 4), 0), 2)


def test_twist_flip_invariant_trit_stepped():
    tilings = list(enumerate_tilings(build_box(3, 3, 2)))
    g = move_graph(tilings, "flip+trit")
    tw = {h: twist(t, 2) for h, t in g.tilings.items()}
    for e in g.edges:
        if e.kind == "flip":
            assert tw[e.v] == tw[e.u]
        else:
            assert tw[e.v] - tw[e.u] == e.sign


# -- relative twist -------------------------------------------------------

def test_relative_twist_box():
    tA, tB = tiling_tA(), tiling_tB()
    assert relative_twist(tA, tA) == 0
    assert relative_twist(tB, tA) == 1
    u = apply_flip(tB, find_flips(tB)[0])
    assert relative_twist(u, tB) == 0


def test_relative_twist_additive_on_triples():
    tilings = list(enumerate_tilings(build_box(3, 3, 2)))
    rng = random.Random(11)
    for _ in range(40):
        t0, t1, t2 = rng.sample(tilings, 3)
        assert relative_twist(t2, t0) == \
            relative_twist(t2, t1) + relative_twist(t1, t0)


def test_relative_twist_torus_flip_pair():
    t = base_tiling(build_torus(2, 2, 4), 0)
    u = apply_flip(t, find_flips(t)[0])
    assert relative_twist(t, t) == 0
    assert relative_twist(u, t) == 0


def test_relative_twist_torus_trit_pair_mod_m():
    # inside the flux (0,0,1) class of torus(2,2,4) the twist lives in Z/2Z
    tr = build_torus(2, 2, 4)
    winding = next(t for t in enumerate_tilings(tr)
                   if flux(t).components == (0, 0, 1))
    assert modulus(flux(winding)) == 2
    trits = find_trits(winding)
    if trits:
        u = apply_trit(winding, trits[0])
        assert relative_twist(u, winding) in (0, 1)


def test_relative_twist_torus_stops_at_the_listing_budget():
    # torus 2x4x4 has 589,185 tilings, counted in milliseconds
    t = base_tiling(build_torus(2, 4, 4), 0)
    with pytest.raises(BudgetExceeded, match="589185 tilings, more than the listing budget"):
        relative_twist(t, t)


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 4), (4, 2, 2)])
def test_relative_twist_on_tori_matches_the_move_graph_labels(dims):
    g = move_graph(list(enumerate_tilings(build_torus(*dims))), "flip+trit")
    # hash64 -> (component, label from the component's first tiling, consistent)
    oracle = {}
    for k, comp in enumerate(g.components()):
        labels, consistent = bfs_trit_labeling(g, comp[0])
        oracle.update((h, (k, labels[h], consistent)) for h in comp)
    tilings = list(g.tilings.values())
    fluxes = {t.hash64: flux(t) for t in tilings}
    bad = []
    for t1 in tilings:
        comp1, label1, _ = oracle[t1.hash64]
        f1 = fluxes[t1.hash64]
        for t0 in tilings:
            comp0, label0, consistent = oracle[t0.hash64]
            f0 = fluxes[t0.hash64]
            if f1 != f0:
                expected = "tilings have different flux: %r vs %r" % (
                    f1.components, f0.components)
            elif not consistent:
                expected = "inconsistent trit labeling on this region"
            elif comp1 != comp0:
                expected = "tilings are not connected by flips and trits at this scale"
            else:
                m = modulus(f0)
                expected = (label1 - label0) % m if m else label1 - label0
            try:
                got = relative_twist(t1, t0)
            except ValueError as e:
                got = str(e)
            if got != expected:
                bad.append((t1.hash64, t0.hash64, got, expected))
    assert bad == []


#: (t1, t0, relative_twist(t1, t0)) on torus 2x2x8, each tiling its place
#: in enumeration order, chosen with random.Random(2) among the tilings of
#: nonzero trit label (-2..2 in the flux (0, 0, +-1) classes, of modulus 2)
#: and recorded before the components engine read moves over all keys at once
_TORUS_228_TWISTS = [
    (9507, 10925, 0), (10780, 32870, 0), (17200, 39363, 0), (9670, 398, 1),
    (9670, 20163, 0), (30579, 23081, 0), (18179, 29781, 0), (14480, 29781, 0),
    (7532, 298, 1), (7532, 14023, 0),
]


def test_relative_twist_on_torus_228_is_pinned():
    region = build_torus(2, 2, 8)
    wanted = {k for t1, t0, _value in _TORUS_228_TWISTS for k in (t1, t0)}
    tilings = {k: Tiling._from_mate(region, mate) for k, mate in enumerate(_mates(region))
               if k in wanted}
    assert [relative_twist(tilings[t1], tilings[t0]) for t1, t0, _value in _TORUS_228_TWISTS] \
        == [value for _t1, _t0, value in _TORUS_228_TWISTS]


def test_relative_twist_refuses_an_inconsistent_torus_labeling(monkeypatch):
    # a trit that is +1 both ways closes a 2-cycle of trit sum 2
    always_positive_trits(monkeypatch)
    t = next(t for t in enumerate_tilings(build_torus(2, 2, 4)) if find_trits(t))
    # a labeling cached before the patch would hide the fault, and one
    # cached under it would leak into later tests
    fluxtwist._trit_labels.cache_clear()
    try:
        with pytest.raises(ValueError, match="inconsistent trit labeling on this region"):
            relative_twist(t, t)
    finally:
        fluxtwist._trit_labels.cache_clear()


def test_relative_twist_rejects_unequal_flux():
    tr = build_torus(2, 2, 4)
    base = base_tiling(tr, 0)
    winding = next(t for t in enumerate_tilings(tr)
                   if flux(t).components == (0, 0, 1))
    with pytest.raises(ValueError, match="different flux"):
        relative_twist(winding, base)


def test_tilings_of_different_regions_are_refused():
    t, u = base_tiling(build_box(2, 2, 2), 0), base_tiling(build_box(2, 2, 4), 0)
    for compare in (diff_cycles, relative_twist):
        with pytest.raises(ValueError, match="tilings belong to different regions"):
            compare(t, u)


# -- flux -----------------------------------------------------------------

def test_flux_vector_is_the_sequence_of_its_components():
    tr = build_torus(2, 2, 4)
    f = flux(next(t for t in enumerate_tilings(tr) if flux(t).components == (0, 0, 1)))
    assert len(f) == 3
    assert list(f) == [0, 0, 1]
    assert (f[0], f[2], f[-1]) == (0, 1, 1)
    assert f == (0, 0, 1) and f != (0, 0, 0)
    assert hash(f) == hash((tr, (0, 0, 1)))
    assert repr(f) == "FluxVector(0, 0, 1)"
    # a value that is neither a FluxVector nor a tuple is never equal
    assert f != [0, 0, 1] and f != 1 and not f == "(0, 0, 1)"


def test_flux_box_empty_vector():
    f = flux(base_tiling(build_box(2, 2, 2), 0))
    assert f.components == ()
    assert modulus(f) == 0


def test_flux_torus_base_zero():
    f = flux(base_tiling(build_torus(4, 4, 4), 0))
    assert f.components == (0, 0, 0)
    assert f == (0, 0, 0)
    assert modulus(f) == 0


def test_flux_mixed_tiling():
    f = flux(mixed_torus_tiling())
    assert abs(f.components[0]) == 8
    assert f.components[1:] == (0, 0)
    assert modulus(f) == 16


def test_flux_voxel_unsupported():
    cells = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (2, 0, 0), (3, 0, 0)]
    t = next(enumerate_tilings(build_voxel_region(cells)))
    with pytest.raises(ValueError, match="unsupported"):
        flux(t)


def test_flux_vector_region_guard():
    f = flux(base_tiling(build_torus(2, 2, 4), 0))
    with pytest.raises(ValueError, match="different region"):
        modulus(f, build_torus(4, 4, 4))


def test_flux_invariant_under_moves_224():
    tr = build_torus(2, 2, 4)
    tilings = list(enumerate_tilings(tr))
    g = move_graph(tilings, "flip+trit")
    fl = {h: flux(t).components for h, t in g.tilings.items()}
    assert len(g.edges) > 0
    for e in g.edges:
        assert fl[e.u] == fl[e.v]


def test_equal_flux_implies_equal_phi_224():
    tr = build_torus(2, 2, 4)
    cuts = [cutting_surface(tr, k, 0) for k in range(3)]
    by_flux = defaultdict(set)
    for t in enumerate_tilings(tr):
        phis = tuple(flux_through_surface(t, s) for s in cuts)
        by_flux[flux(t).components].add(phis)
    assert sorted(by_flux) == \
        [(0, 0, -2), (0, 0, -1), (0, 0, 0), (0, 0, 1), (0, 0, 2)]
    for phis in by_flux.values():
        assert len(phis) == 1


def test_flux_class_sizes_224():
    counts = defaultdict(int)
    for t in enumerate_tilings(build_torus(2, 2, 4)):
        counts[flux(t).components] += 1
    assert counts == {(0, 0, -2): 1, (0, 0, -1): 36, (0, 0, 0): 198,
                      (0, 0, 1): 36, (0, 0, 2): 1}


# -- surfaces -------------------------------------------------------------

def test_closed_box_surface_counts():
    r = build_box(4, 4, 4)
    assert len(closed_box_surface(r, (1, 1, 1), (1, 1, 1)).squares) == 6
    s = closed_box_surface(r, (0, 0, 0), (2, 2, 2))
    assert len(s.squares) == 24
    assert s.is_closed
    assert len(s.interior_vertices) == 26


def test_closed_box_surface_boundary_guard():
    r = build_box(4, 4, 4)
    with pytest.raises(ValueError, match="touches the region boundary"):
        closed_box_surface(r, (0, 0, 0), (4, 2, 2))
    with pytest.raises(ValueError, match="positive"):
        closed_box_surface(r, (1, 1, 1), (0, 1, 1))


def test_closed_box_surface_refuses_a_sub_box_as_wide_as_a_period():
    r = build_torus(4, 4, 4)
    assert closed_box_surface(r, (0, 0, 0), (3, 1, 1)).is_closed
    for dims in ((4, 1, 1), (1, 4, 1), (1, 1, 5)):
        with pytest.raises(ValueError, match="sub-box does not embed in the torus"):
            closed_box_surface(r, (0, 0, 0), dims)


@pytest.mark.parametrize("corner, dims", [
    ((1.7, 1, 1), (1, 1, 1)), ((1, 1, 1), (1, 1.0, 1)), (("1", 1, 1), (1, 1, 1)),
])
def test_closed_box_surface_refuses_non_integer_coordinates(corner, dims):
    # int() would quietly build the surface at x = 1
    with pytest.raises(RegionError, match="not an integer"):
        closed_box_surface(build_box(4, 4, 4), corner, dims)


@pytest.mark.parametrize("corner, dims", [((1, 1, 1), (1, 1)), ((1, 1), (1, 1, 1))])
def test_closed_box_surface_needs_three_coordinates(corner, dims):
    # indexing the short tuple raises IndexError, which names neither
    with pytest.raises(ValueError, match=r"sub-box corner \(1, 1(, 1)?\) and dims "
                                         r"\(1, 1(, 1)?\) need three coordinates each"):
        closed_box_surface(build_box(4, 4, 4), corner, dims)


def test_closed_surface_phi_vanishes():
    r = build_box(4, 4, 4)
    s1 = closed_box_surface(r, (0, 0, 0), (2, 2, 2))
    s2 = closed_box_surface(r, (1, 1, 1), (1, 1, 1))
    t = base_tiling(r, 2)
    assert flux_through_surface(t, s1) == 0
    assert flux_through_surface(t, s2) == 0
    rng = random.Random(5)
    for _ in range(30):
        flips = find_flips(t)
        t = apply_flip(t, rng.choice(flips))
        assert flux_through_surface(t, s1) == 0
        assert flux_through_surface(t, s2) == 0


def test_closed_surface_vertices_are_the_shell():
    r = build_box(4, 4, 4)
    s = closed_box_surface(r, (0, 0, 0), (2, 2, 2))
    shell = {(x, y, z) for x in range(3) for y in range(3) for z in range(3)
             if (x, y, z) != (1, 1, 1)}
    assert set(s.interior_vertices) == shell


def test_cutting_surface_counts():
    assert len(cutting_surface(build_torus(4, 4, 4), 0, 0).squares) == 16
    assert len(cutting_surface(build_torus(2, 4, 6), 2, 0).squares) == 8
    with pytest.raises(ValueError, match="torus"):
        cutting_surface(build_box(2, 2, 2), 0, 0)


@pytest.mark.parametrize("axis", [1.0, True, "q"])
def test_cutting_surface_refuses_an_axis_that_is_not_an_int_or_a_name(axis):
    with pytest.raises(ValueError, match="axis must be one of x, y, z"):
        cutting_surface(build_torus(2, 2, 4), axis, 0)


def test_phi_through_cuts_of_base_tiling():
    tr = build_torus(4, 4, 4)
    t = base_tiling(tr, 0)
    assert flux_through_surface(t, cutting_surface(tr, 0, 0)) == 0
    assert flux_through_surface(t, cutting_surface(tr, 1, 0)) == 0


def test_phi_through_x_cut_of_mixed_tiling():
    tr = build_torus(4, 4, 4)
    assert flux_through_surface(mixed_torus_tiling(),
                                cutting_surface(tr, 0, 0)) == 16


def test_vertex_flow_cases():
    tr = build_torus(4, 4, 4)
    t = base_tiling(tr, 0)
    xcut = cutting_surface(tr, 0, 0)
    # x = 0 cells are all matched toward +x, the cut normal
    assert vertex_flow((0, 0, 0), t, xcut) == 1    # black, above
    assert vertex_flow((0, 1, 0), t, xcut) == -1   # white, above
    ycut = cutting_surface(tr, 1, 0)
    assert vertex_flow((0, 0, 0), t, ycut) == 0    # dimer lies in the cut


def test_vertex_flow_rejects_non_interior_vertex():
    s = DiscreteSurface(build_box(2, 2, 2), [Square((1, 1, 0), 2, 1)])
    t = base_tiling(build_box(2, 2, 2), 2)
    with pytest.raises(ValueError, match="interior vertex"):
        vertex_flow((0, 0, 0), t, s)


def test_flux_through_surface_requires_boundary_tangency():
    s = DiscreteSurface(build_box(2, 2, 2), [Square((1, 1, 0), 2, 1)])
    t = base_tiling(build_box(2, 2, 2), 2)
    with pytest.raises(ValueError, match="not tangent"):
        flux_through_surface(t, s)


def _flows_oracle(t, s) -> int:
    return sum(vertex_flow(v, t, s) for v in s.interior_vertices)


@pytest.mark.parametrize("region", [build_box(8, 8, 8), build_torus(8, 8, 8)], ids=repr)
def test_memoised_flux_through_surface_equals_the_vertex_flow_sum(region):
    boxes = _EULER_BOXES + (((2, 1, 3), (5, 6, 3)),)
    surfaces = [closed_box_surface(region, c, d) for c, d in boxes]
    if region.is_torus:
        surfaces += [cutting_surface(region, k, 3) for k in range(3)]
    states = walk_states(region, "flip+trit", 30, 7)
    for t in states:
        for s in surfaces:
            assert flux_through_surface(t, s) == _flows_oracle(t, s)
    # every kept flow is the one its step gives
    for t in states[::5]:
        for s in surfaces:
            for v in s.interior_vertices:
                assert s._flows[(v, t.steps[region.index[v]])] == vertex_flow(v, t, s)


def test_memoised_flux_through_surface_across_flux_classes():
    tr = build_torus(4, 4, 4)
    cut = cutting_surface(tr, 0, 0)
    for t in (base_tiling(tr, 0), mixed_torus_tiling(), base_tiling(tr, 1), mixed_torus_tiling()):
        assert flux_through_surface(t, cut) == _flows_oracle(t, cut)
    assert flux_through_surface(mixed_torus_tiling(), cut) == 16


def test_memoised_flux_through_surface_raises_on_every_call():
    # a closed surface with one square turned over after its checks: at the
    # square's corners, a dimer that leaves the surface meets both sides
    r = build_box(4, 4, 4)
    s = closed_box_surface(r, (1, 1, 1), (2, 2, 2))
    sq = max(s.squares)  # its corners come last among the vertices
    s._by_pos[sq.center2] = sq._replace(orientation=-sq.orientation)
    raised = 0
    for t in walk_states(r, "flip+trit", 40, 3):
        try:
            want = _flows_oracle(t, s)
        except ValueError as exc:
            assert "does not separate the octants" in str(exc)
            for _ in range(2):
                with pytest.raises(ValueError) as info:
                    flux_through_surface(t, s)
                assert str(info.value) == str(exc)
            raised += 1
            continue
        assert flux_through_surface(t, s) == want
    assert raised and s._flows


def test_surface_validation_errors():
    r = build_box(3, 3, 2)
    with pytest.raises(ValueError, match="does not match normal axis"):
        DiscreteSurface(r, [Square((1, 1, 1), 2, 1)])
    with pytest.raises(ValueError, match="duplicate square"):
        DiscreteSurface(r, [Square((1, 1, 0), 2, 1), Square((1, 1, 0), 2, -1)])
    with pytest.raises(ValueError, match="outside the region"):
        DiscreteSurface(r, [Square((5, 1, 0), 2, 1)])
    with pytest.raises(ValueError, match="incoherent orientation"):
        DiscreteSurface(r, [Square((1, 1, 0), 2, 1), Square((3, 1, 0), 2, -1)])


@pytest.mark.parametrize("center", ["[1.5, 1, 0]", "[true, 1, 0]"])
def test_surface_refuses_non_integer_center_coordinates(center):
    # floor division would quietly put the 1.5 square's corners at x = 0, 1
    text = '[{"center": %s, "normal": "+z"}]' % center
    with pytest.raises(RegionError, match="not an integer"):
        surface_from_json(text, build_box(3, 3, 2))


def test_surface_refuses_a_center_of_two_coordinates():
    with pytest.raises(ValueError, match="does not have three coordinates"):
        DiscreteSurface(build_box(3, 3, 2), [Square((1, 1), 2, 1)])


def test_surface_refuses_an_axis_out_of_range():
    with pytest.raises(ValueError, match="axis 5 is not 0, 1 or 2"):
        DiscreteSurface(build_box(3, 3, 2), [Square((1, 1, 1), 5, 1)])


@pytest.mark.parametrize("square, message", [
    (Square((1, 1, 0), 2, True), "orientation must be"),
    (Square((1, 1, 0), 2, 1.0), "orientation must be"),
    (Square((1, 0, 1), True, 1), "axis True is not 0, 1 or 2"),
], ids=["bool orientation", "float orientation", "bool axis"])
def test_surface_refuses_an_axis_or_orientation_that_is_not_an_int(square, message):
    # True == 1 and 1.0 == 1, so a membership test alone would keep them
    with pytest.raises(ValueError, match=message):
        DiscreteSurface(build_box(3, 3, 2), [square])


@pytest.mark.parametrize("item", [
    {"center": [1, 1, 0], "normal": "+q"}, {"center": [1, 1, 0]}, {"normal": "+z"},
    [[1, 1, 0], "+z"], "+z", {"center": 1, "normal": "+z"},
], ids=["unknown normal", "no normal", "no center", "list", "string", "scalar center"])
def test_surface_from_list_refuses_malformed_squares(item):
    with pytest.raises(ValueError, match="is not {\"center\": \\[x, y, z\\], \"normal\": one of"):
        fluxtwist.surface_from_list([{"center": [1, 1, 0], "normal": "+z"}, item],
                                    build_box(3, 3, 2))


def test_surface_json_round_trip():
    r = build_box(4, 4, 4)
    s = closed_box_surface(r, (0, 0, 0), (2, 2, 2))
    back = surface_from_json(s.to_json(), r)
    assert {(q.center2, q.axis, q.orientation) for q in back.squares} == \
        {(q.center2, q.axis, q.orientation) for q in s.squares}


# the two 3-square corner Seifert surfaces of the trit hexagon of tiling_tA
_TRIT_CORNERS = (
    [Square((0, 1, 1), 0, 1), Square((1, 2, 1), 1, -1), Square((1, 1, 2), 2, -1)],
    [Square((2, 1, 1), 0, 1), Square((1, 0, 1), 1, -1), Square((1, 1, 0), 2, -1)],
)


def _surface_cases() -> list:
    """(name, surface): closed sub-box shells on a box and on tori, every
    cutting surface level of four tori (two with period-2 axes), and open
    patches: a shell without its +z face, a cutting surface without one
    square, a single square and the trit corners."""
    box = build_box(4, 4, 4)
    cases = [("box-4x4x4 shell %r" % (cd,), closed_box_surface(box, *cd))
             for cd in _EULER_BOXES]
    shell = cases[-1][1]
    cases.append(("box-4x4x4 open shell",
                  DiscreteSurface(box, [q for q in shell.squares if q.normal != "+z"])))
    cases.append(("box-4x4x4 square", DiscreteSurface(box, [Square((3, 3, 4), 2, -1)])))
    cases += [("box-3x3x2 trit corner %d" % n, DiscreteSurface(tiling_tA().region, squares))
              for n, squares in enumerate(_TRIT_CORNERS)]
    for periods, shell in (((4, 4, 4), ((3, 3, 3), (2, 2, 2))),
                           ((2, 2, 4), ((1, 0, 3), (1, 1, 2))),
                           ((4, 2, 2), ((3, 1, 1), (2, 1, 1))),
                           ((2, 4, 6), ((0, 1, 2), (1, 3, 4)))):
        tr = build_torus(*periods)
        name = "torus-%dx%dx%d" % periods
        cases.append(("%s shell %r" % (name, shell), closed_box_surface(tr, *shell)))
        for k in range(3):
            cases += [("%s cut %d at %d" % (name, k, level), cutting_surface(tr, k, level))
                      for level in range(periods[k])]
        # normal to the shortest axis, so that its other vertices stay interior
        cut = cutting_surface(tr, periods.index(min(periods)), 1)
        cases.append((name + " open cut", DiscreteSurface(tr, cut.squares[1:])))
    return cases


# sha256 of the boundary edges, boundary and interior vertices of every
# _surface_cases surface, and of edge_in_surface / edge_on_boundary from every
# cell along every step: pinned so a change to how surfaces store their sides
# shows.
_SURFACE_STRUCTURE_PIN = (
    55, "99220c77299e32cdcbed760fa558ac40feaca2c9c89872eca4b3c302ffc19819")


def test_surface_structure_is_pinned():
    cases = _surface_cases()
    rows = []
    for name, s in cases:
        probes = [(c, axis, sign) for c in s.region.cells for axis in range(3)
                  for sign in (1, -1)]
        rows.append((name, s.boundary_edges, s.boundary_vertices, s.interior_vertices,
                     "".join("%d" % s.edge_in_surface(*p) for p in probes),
                     "".join("%d" % s.edge_on_boundary(*p) for p in probes)))
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert (len(cases), digest) == _SURFACE_STRUCTURE_PIN


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


def test_vertex_flow_matches_its_oracle():
    cases = _surface_cases()
    # a shell with one square turned over after its checks, so that the flood
    # meets both sides of the surface at that square's corners
    r = build_box(4, 4, 4)
    turned = closed_box_surface(r, (1, 1, 1), (2, 2, 2))
    sq = max(turned.squares)
    turned._by_pos[sq.center2] = sq._replace(orientation=-sq.orientation)
    cases.append(("turned", turned))
    states = {}
    flows = errors = 0
    for name, s in cases:
        if s.region not in states:
            states[s.region] = walk_states(s.region, "flip+trit", 30, 4)
        for t in states[s.region]:
            for v in s.interior_vertices:
                want = _outcome(slow_vertex_flow, v, t, s)
                assert _outcome(vertex_flow, v, t, s) == want, (name, v)
                flows += 1
                errors += isinstance(want, str)
    assert flows > 20000 and errors


# -- surface predicates ---------------------------------------------------

def test_predicates_flip_pair_unit_square():
    r = build_box(2, 2, 1)
    t0 = base_tiling(r, 0)
    t1 = apply_flip(t0, find_flips(t0)[0])
    s = DiscreteSurface(r, [Square((1, 1, 0), 2, 1)])
    pred = surface_predicates(t0, t1, s)
    assert pred == {"balanced": True, "zero_flux": True, "tangent": True}


def test_predicates_trit_pair_corner_surface():
    # the two 3-square corner Seifert surfaces of the trit hexagon; their
    # single interior vertex is a free cell whose dimer leaves the cube,
    # so neither tiling is tangent and phi sees exactly the trit step
    tA, tB = tiling_tA(), tiling_tB()
    r = tA.region
    delta = twist(tB, 2) - twist(tA, 2)
    for squares in _TRIT_CORNERS:
        s = DiscreteSurface(r, squares)
        pred = surface_predicates(tA, tB, s)
        assert pred == {"balanced": False, "zero_flux": False,
                        "tangent": False}
        assert len(s.interior_vertices) == 1
        # flux around the difference cycle is the same through either
        # surface and for either tiling, and measures the twist step (the
        # shipped boundary convention is the mirror of the trit sign)
        assert flux_through_surface(tA, s) == flux_through_surface(tB, s) \
            == -delta == -1


def test_predicates_closed_cut_crossing_vs_in_plane():
    tr = build_torus(4, 4, 4)
    t = base_tiling(tr, 0)
    crossing = surface_predicates(t, t, cutting_surface(tr, 0, 0))
    assert crossing["balanced"] and crossing["zero_flux"]
    assert not crossing["tangent"]
    in_plane = surface_predicates(t, t, cutting_surface(tr, 1, 0))
    assert in_plane == {"balanced": True, "zero_flux": True, "tangent": True}


def test_predicates_boundary_mismatch_error():
    r = build_box(2, 2, 1)
    t0 = base_tiling(r, 0)
    t1 = apply_flip(t0, find_flips(t0)[0])
    wrong = DiscreteSurface(build_box(2, 2, 2), [Square((1, 1, 2), 2, 1)])
    with pytest.raises(ValueError, match="does not match"):
        surface_predicates(t0, t1, wrong)


@pytest.mark.parametrize("tangent, message", [
    (lambda t, s, first: t is first, "tangency must not depend on the side"),
    (lambda t, s, first: True, "a tangent surface is balanced and zero-flux"),
])
def test_predicates_consistency_checks_raise(monkeypatch, tangent, message):
    # checks, not asserts, so that python -O keeps them
    tA, tB = tiling_tA(), tiling_tB()
    s = DiscreteSurface(tA.region, _TRIT_CORNERS[0])
    monkeypatch.setattr(fluxtwist, "_tangent_to_surface", lambda t, s: tangent(t, s, tA))
    with pytest.raises(RuntimeError, match=message):
        surface_predicates(tA, tB, s)


def test_cutting_surface_is_built_fresh_on_each_call():
    tr = build_torus(4, 4, 2)
    assert cutting_surface(tr, 0, 0) is not cutting_surface(tr, 0, 0)


def test_diff_cycle_winding_matches_flux():
    # flux components are the windings of the difference cycle system
    for t in list(enumerate_tilings(build_torus(2, 2, 4)))[::13]:
        assert slow_flux(t) == flux(t).components


_FLUX_ORACLE_SAMPLES = {
    # period-2 axes; flux classes up to 2 along the period-4 axis, modulus 4
    "period-2_tori_all": lambda: [
        t for dims in ((2, 2, 2), (2, 2, 4), (2, 4, 2), (4, 2, 2))
        for t in enumerate_tilings(build_torus(*dims))],
    # nonzero flux along two axes at once
    "4x4x2_2x4x4_every_211th": lambda: [
        *islice(enumerate_tilings(build_torus(4, 4, 2)), 0, 40_000, 211),
        *islice(enumerate_tilings(build_torus(2, 4, 4)), 0, 20_000, 211)],
    "walks_6x4x2_4x6x8": lambda: [
        *walk_states(build_torus(6, 4, 2), "flip+trit", 60, 1),
        *walk_states(build_torus(4, 6, 8), "flip+trit", 60, 1)],
    # flux (-8, 0, 0) with modulus 16, before and after refinement
    "mixed_and_k1_refined": lambda: [
        mixed_torus_tiling(), refine_tiling(mixed_torus_tiling(), 1)],
}


@pytest.mark.parametrize("sample", sorted(_FLUX_ORACLE_SAMPLES))
def test_flux_and_modulus_match_the_slow_oracles(sample):
    for t in _FLUX_ORACLE_SAMPLES[sample]():
        f = flux(t)
        assert (f.components, modulus(f)) == (slow_flux(t), slow_modulus(t)), t


def test_flux_and_modulus_leave_the_refined_cell_tables_unbuilt():
    fine = refine_tiling(mixed_torus_tiling(), 1)
    f = flux(fine)
    assert (f.components, modulus(f)) == ((-8, 0, 0), 16)
    for name in ("cells", "index", "colors"):
        # the slot itself: plain attribute access would build the table
        with pytest.raises(AttributeError):
            object.__getattribute__(fine.region, name)
    assert fine.region._step_table is None
    assert fine.region._cube_table is None


def test_flux_vector_equality():
    t = base_tiling(build_torus(2, 2, 4), 0)
    f = flux(t)
    assert f == flux(t)
    assert f == (0, 0, 0)
    assert f != (0, 0, 1)
    assert isinstance(f, FluxVector)


# -- surfaces laid plane by plane ------------------------------------------

#: The sub-boxes of box 8^3 whose closed surfaces the benchmark's
#: invariants workload reads, as (corner, dims).
_SUB_BOXES_8 = (((1, 1, 1), (2, 2, 2)), ((0, 0, 0), (4, 4, 4)),
                ((2, 1, 3), (5, 6, 3)), ((0, 0, 0), (7, 7, 7)))


@pytest.mark.parametrize("region, corner, dims",
                         [(build_box(8, 8, 8), c, d) for c, d in _SUB_BOXES_8]
                         + [(build_torus(4, 4, 4), (1, 2, 3), (2, 3, 1))])
def test_closed_box_surface_lays_the_oracle_squares(region, corner, dims):
    s = closed_box_surface(region, corner, dims)
    # the oracle's squares go through the same normalisation onto a torus
    expected = DiscreteSurface(region, slow_closed_box_squares(corner, dims))
    assert s.squares == expected.squares
    assert s.to_list() == expected.to_list()


@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("level", [-1, 0, 2.5, 7])
def test_cutting_surface_lays_the_oracle_squares(axis, level):
    region = build_torus(2, 4, 6)
    s = cutting_surface(region, axis, level)
    expected = DiscreteSurface(region, slow_cutting_squares(region, axis, level))
    assert s.squares == expected.squares
    assert s.to_list() == expected.to_list()


def test_flux_through_a_surface_of_another_region_names_a_missing_vertex():
    s = closed_box_surface(build_box(8, 8, 8), (4, 4, 4), (2, 2, 2))
    small = base_tiling(build_box(4, 4, 4), 0)
    message = re.escape("surface vertex (4, 4, 4) is not a cell of the tiling's region")
    with pytest.raises(ValueError, match=message):
        flux_through_surface(small, s)
    with pytest.raises(ValueError, match=message):
        surface_predicates(small, small, s)
    # every vertex of the surface is a cell of box 10^3
    large = walk_states(build_box(10, 10, 10), "flip+trit", 40, 2)[-1]
    assert flux_through_surface(base_tiling(build_box(10, 10, 10), 0), s) == 0
    assert flux_through_surface(large, s) == 0
