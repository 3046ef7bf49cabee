"""The incremental walk engine against full rescans.

At every step of seeded walks, WalkState's move list must equal
find_flips + find_trits of a freshly built snapshot, and the invariants the
walk tracks incrementally (twist on boxes, flux on tori) must equal a full
recompute. The hashes a VisitedHashes batches from the dimers each step
inserts must equal a snapshot's hash64 read after every step, and the
index-space WalkState.step must insert the same dimers, with the same sign,
as apply(move(k)), and leave the same move index.
"""
import random

import pytest

from tritile import (
    TritMove, WalkConfig, WalkState, build_box, build_torus,
    find_flips, find_trits, flux, random_walk, twist,
)
from tritile import harness
from tritile.harness import start_tiling, walk_states
from tritile.moves import VisitedHashes, _lane_hashes
from support import (
    built, corner_cut_cube, l_shape_region, slow_dimer_codes, slow_random_walk,
)


def _full_scan(t, moves):
    kinds = set(moves.split("+"))
    return (find_flips(t) if "flip" in kinds else []) + \
        (find_trits(t) if "trit" in kinds else [])


def check_walk(region, moves, steps, seed):
    state = WalkState(start_tiling(region), moves)
    # the same walk in index space, one WalkState.step per apply(move(k))
    twin = WalkState(start_tiling(region), moves)
    rng = random.Random(seed)
    first = state.tiling()
    tw = twist(first, 2) if region.is_box else None
    fl = flux(first).components if region.is_torus else None
    visited = VisitedHashes(first)
    snapshot_hashes = []
    kinds = set()
    for step in range(steps + 1):
        snap = state.tiling()
        assert state.moves() == _full_scan(snap, moves), "step %d" % step
        snapshot_hashes.append(snap.hash64)
        if region.is_box:
            assert twist(snap, 2) == tw, "step %d" % step
        if region.is_torus:
            assert flux(snap).components == fl, "step %d" % step
        if step == steps or not len(state):
            break
        k = rng.randrange(len(state))
        m = state.move(k)
        kinds.add(type(m).__name__)
        inserted = state.apply(m)
        assert twin.step(k) == (m.sign if isinstance(m, TritMove) else 0, inserted), \
            "step %d" % step
        assert (twin.mate, twin._keys, twin._moves) == (state.mate, state._keys, state._moves), \
            "step %d" % step
        visited.add(inserted)
        if isinstance(m, TritMove):
            tw = tw + m.sign if tw is not None else None
    assert visited.hashes() == list(dict.fromkeys(snapshot_hashes))
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
    (l_shape_region(), "flip+trit", 300, 3, False),
])
def test_index_equals_full_rescan_at_every_step(region, moves, steps, seed, takes_trits):
    kinds = check_walk(region, moves, steps, seed)
    assert "FlipMove" in kinds
    assert ("TritMove" in kinds) == takes_trits


@pytest.mark.parametrize("region", [build_box(16, 16, 16), build_torus(2, 4, 6)],
                         ids=["box-16x16x16", "torus-2x4x6"])
def test_random_walk_builds_no_cell_table(region):
    # index space end to end: the base tiling, the steps and the cube
    # anchors all come from index arithmetic
    random_walk(WalkConfig(region, "flip+trit", 50, 1))
    assert not any(built(region, name) for name in ("cells", "index", "colors"))


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


# (region, moves, steps, seed, distinct states or None)
@pytest.mark.parametrize("region, moves, steps, seed, distinct", [
    # 201 states, hashed in four batches of 64
    (build_box(16, 16, 16), "flip+trit", 200, 1, None),
    (build_torus(4, 4, 4), "flip+trit", 500, 3, 470),
    (build_box(3, 3, 2), "flip", 200, 1, 109),
    (build_torus(2, 2, 6), "flip+trit", 300, 1, None),
    (l_shape_region(), "flip+trit", 300, 3, None),
    (build_box(4, 4, 4), "flip+trit", 0, 0, 1),
    # no trit fits in the 2x2x2 box, so the walk freezes at step 0
    (build_box(2, 2, 2), "trit", 20, 0, 1),
    # 64 and 128 states: the last batch is full, so the final fold is empty
    (build_box(3, 3, 2), "flip+trit", 63, 2, None),
    (build_box(3, 3, 2), "flip+trit", 127, 2, None),
], ids=["box-16x16x16", "torus-4x4x4", "box-3x3x2-flip", "torus-2x2x6", "l-shape",
        "zero-steps", "frozen-at-start", "one-full-batch", "two-full-batches"])
def test_random_walk_matches_the_snapshot_oracle(region, moves, steps, seed, distinct):
    cfg = WalkConfig(region, moves, steps, seed)
    report = random_walk(cfg)
    assert report == slow_random_walk(cfg)
    if distinct is not None:
        assert report["distinct_visited"] == distinct
    assert report["frozen"] == (region.dims == (2, 2, 2))


@pytest.mark.parametrize("sizes", [(4, 4, 4), (16, 16, 16)], ids=["box-4x4x4", "box-16x16x16"])
def test_box_walk_starts_at_twist_zero_without_computing_it(monkeypatch, sizes):
    # a box walk starts at its base tiling, whose twist is 0; the oracle
    # still computes the start tiling's twist itself
    cfg = WalkConfig(build_box(*sizes), "flip+trit", 100, 2)
    expected = slow_random_walk(cfg)

    def no_twist(*args):
        raise AssertionError("random_walk computed a twist")

    monkeypatch.setattr(harness, "twist", no_twist)
    assert random_walk(cfg) == expected


def _codes(t):
    return slow_dimer_codes(t.region.n_cells, t.pairs)


@pytest.mark.parametrize("lanes", [1, 2, 63, 64, 65])
def test_lane_fold_equals_tiling_hash64(lanes):
    # every third move undoes the one before, so lane 1 returns to the base
    # codes; lane 0 also names a rank whose code does not change
    state = WalkState(start_tiling(build_box(4, 4, 4)))
    base = _codes(state.tiling())
    rng = random.Random(lanes)
    previous, changes, snapshots = base, [], []
    for lane in range(lanes):
        m = m.reversed() if lane % 3 == 1 else state.move(rng.randrange(len(state)))
        state.apply(m)
        snapshots.append(state.tiling())
        codes = _codes(snapshots[-1])
        changes.append({k: c for k, (c, p) in enumerate(zip(codes, previous)) if c != p})
        previous = codes
    assert changes[0] and 5 not in changes[0]
    changes[0][5] = base[5]
    if lanes > 1:
        assert _codes(snapshots[1]) == base
    assert _lane_hashes(64, base, changes) == [t.hash64 for t in snapshots]
