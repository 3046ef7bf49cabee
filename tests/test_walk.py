"""The incremental walk engine against full rescans.

At every step of seeded walks, WalkState's move list must equal
find_flips + find_trits of a freshly built snapshot, its hash must equal
the snapshot's, and the invariants the walk tracks incrementally (twist on
boxes, flux on tori) must equal a full recompute.
"""
import random

import pytest

from tritile import (
    TritMove, WalkState, build_box, build_torus, build_voxel_region,
    find_flips, find_trits, flux, twist,
)
from tritile.harness import start_tiling, walk_states
from support import corner_cut_cube


def _l_shape():
    return build_voxel_region(
        [(x, y, z) for x in range(4) for y in range(2) for z in range(2)]
        + [(x, y, z) for x in range(2) for y in range(2, 6) for z in range(2)])


def _full_scan(t, moves):
    kinds = set(moves.split("+"))
    return (find_flips(t) if "flip" in kinds else []) + \
        (find_trits(t) if "trit" in kinds else [])


def check_walk(region, moves, steps, seed):
    state = WalkState(start_tiling(region), moves)
    rng = random.Random(seed)
    first = state.tiling()
    tw = twist(first, 2) if region.is_box else None
    fl = flux(first).components if region.is_torus else None
    kinds = set()
    for step in range(steps + 1):
        snap = state.tiling()
        assert state.moves() == _full_scan(snap, moves), "step %d" % step
        assert state.hash64 == snap.hash64, "step %d" % step
        if region.is_box:
            assert twist(snap, 2) == tw, "step %d" % step
        if region.is_torus:
            assert flux(snap).components == fl, "step %d" % step
        if step == steps or not len(state):
            break
        m = state.move(rng.randrange(len(state)))
        kinds.add(type(m).__name__)
        state.apply(m)
        if isinstance(m, TritMove):
            tw = tw + m.sign if tw is not None else None
    return kinds


# takes_trits: whether the walk applies at least one trit. The walks on the
# 2x2x2 and 2x2x4 tori and on the two-layer L-shape never meet a trit, so
# they check that the trit index stays empty.
@pytest.mark.parametrize("region, moves, steps, seed, takes_trits", [
    (build_box(4, 4, 4), "flip+trit", 300, 1, True),
    (build_box(4, 4, 4), "flip", 150, 2, False),
    (build_box(3, 4, 2), "flip+trit", 300, 3, True),
    (build_box(6, 4, 4), "flip+trit", 250, 0, True),
    (build_box(5, 6, 4), "flip+trit", 200, 5, True),
    (build_box(5, 6, 4), "flip", 150, 7, False),
    (build_torus(2, 2, 2), "flip+trit", 200, 6, False),
    (build_torus(2, 2, 4), "flip+trit", 300, 0, False),
    (build_torus(2, 4, 6), "flip+trit", 300, 4, True),
    (build_torus(4, 4, 4), "flip+trit", 250, 8, True),
    (build_torus(4, 4, 4), "flip", 100, 9, False),
    (corner_cut_cube(), "flip+trit", 300, 10, True),
    (_l_shape(), "flip+trit", 300, 3, False),
])
def test_index_equals_full_rescan_at_every_step(region, moves, steps, seed, takes_trits):
    kinds = check_walk(region, moves, steps, seed)
    assert "FlipMove" in kinds
    assert ("TritMove" in kinds) == takes_trits


def test_index_equals_full_rescan_on_16_cube():
    check_walk(build_box(16, 16, 16), "flip+trit", 4, 1)


def test_trits_only_walk():
    check_walk(build_box(4, 4, 2), "trit", 20, 0)


def test_aliased_cube_keeps_the_smaller_anchor():
    # on a period-2 axis anchors 0 and 1 span the same cells, and only 0
    # anchors a cube; the step-87 state of this walk has a trit at anchor
    # (0, 2, 5), which (1, 2, 5) must not list a second time
    region = build_torus(2, 4, 6)
    state = WalkState(start_tiling(region))
    rng = random.Random(4)
    anchors_seen = set()
    for _ in range(120):
        trits = [m for m in state.moves() if isinstance(m, TritMove)]
        anchors = [m.anchor for m in trits]
        assert len({frozenset(d.cells() for d in m.removed) for m in trits}) == len(trits)
        assert anchors == sorted(anchors)
        anchors_seen.update(anchors)
        state.apply(state.move(rng.randrange(len(state))))
    assert (0, 2, 5) in anchors_seen
    assert (1, 2, 5) not in anchors_seen


def _reference_walk(region, moves, steps, seed):
    """The walk as a plain loop over full rescans and Tiling.replace."""
    rng = random.Random(seed)
    t = start_tiling(region)
    out = []
    for _ in range(steps):
        options = _full_scan(t, moves)
        if not options:
            break
        m = options[rng.randrange(len(options))]
        t = t.replace(m.removed, m.inserted)
        out.append(t)
    return out


@pytest.mark.parametrize("region, moves", [
    (build_box(4, 4, 4), "flip+trit"),
    (build_torus(2, 2, 4), "flip+trit"),
    (build_box(3, 3, 2), "flip"),
])
def test_walk_states_match_the_reference_walk(region, moves):
    assert walk_states(region, moves, 60, 11) == _reference_walk(region, moves, 60, 11)


def test_apply_rejects_a_stale_move():
    state = WalkState(start_tiling(build_box(2, 2, 2)))
    m = state.move(0)
    state.apply(m)
    with pytest.raises(ValueError, match="stale move"):
        state.apply(m)


def test_unknown_move_set_rejected():
    with pytest.raises(ValueError):
        WalkState(start_tiling(build_box(2, 2, 2)), "swap")


@pytest.mark.parametrize("moves", [{"flip"}, ["flip", "trit"], None])
def test_move_set_must_be_a_name(moves):
    with pytest.raises(ValueError, match="moves must be"):
        WalkState(start_tiling(build_box(2, 2, 2)), moves)
