"""Random walks, verification suites, and reproducible reports.

Every report is a plain dict that serializes byte-identically for the same
inputs: no timestamps, keys sorted at the serialization layer, checks
sorted by id rather than completion order. Suites draw random tilings from
seeded walks started at the base tiling; the verified properties hold for
every tiling, so walk uniformity is irrelevant.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple

from .regions import Region, RegionError, build_box, build_torus
from .tilings import (
    Tiling, base_tiling, count_tilings, enumerate_tilings, refine_tiling,
)
from .moves import (
    VisitedHashes, WalkState, apply_flip, apply_trit, find_flips, find_trits,
    labelled_components,
)
from .fluxtwist import (
    closed_box_surface, cutting_surface, flux,
    flux_through_surface, modulus, twist,
)
from . import heights


class WalkConfig(NamedTuple):
    """A reproducible random-walk specification."""

    region: Region
    moves: str = "flip+trit"
    steps: int = 100
    seed: int = 0


def start_tiling(region: Region) -> Tiling:
    """Where walks and the CLI start: the base tiling along the first even
    axis of a box or torus, the first enumerated tiling of a voxel region.
    Raises RegionError (a ValueError) for a region with no tilings."""
    if region.kind in ("box", "torus"):
        extents = region.dims if region.kind == "box" else region.periods
        axis = next(k for k in range(3) if extents[k] % 2 == 0)
        return base_tiling(region, axis)
    t = next(iter(enumerate_tilings(region)), None)
    if t is None:
        raise RegionError("tileable", "%r has no tilings" % (region,))
    return t


def _check_steps(steps) -> None:
    # bool is an int subclass, but True is not a step count
    if type(steps) is not int or steps < 0:
        raise ValueError("steps must be a nonnegative int, not %r" % (steps,))


def _walk(state: WalkState, steps: int, seed: int) -> Iterator:
    """Apply up to `steps` moves to the state, each drawn uniformly from the
    available ones, and yield (sign, inserted) of each, as WalkState.step
    returns them. Stops early at a tiling with no moves."""
    rng = random.Random(seed)
    for _ in range(steps):
        if not len(state):
            return
        yield state.step(rng.randrange(len(state)))


def random_walk(cfg: WalkConfig) -> dict:
    """Walk the move graph uniformly over available moves at each step.

    Returns the trajectory summary: distinct visited count, a histogram of
    the recorded invariant (twist for boxes, flux for tori), and a frozen
    flag when a state with no available moves is reached.

    The walk runs on a moves.WalkState, which updates its move index around
    each move instead of rescanning the tiling, so a step costs work in
    proportion to the move's neighbourhood. Each step is taken in index
    space (WalkState.step): no move or Dimer is built, and on a box or
    torus neither the region's cell tables nor per-cell cube anchors are
    (the base tiling comes from index arithmetic too). A moves.VisitedHashes
    takes the dimers each step inserts and hashes the states in batches,
    each in one pass over the dimers, deduplicated batch by batch. A box
    walk starts at its base tiling, of twist 0; flips keep the twist and
    each trit moves it by its sign, and flux is constant under both moves.
    Raises ValueError for a step count that is not a nonnegative int.
    """
    _check_steps(cfg.steps)
    t = start_tiling(cfg.region)
    state = WalkState(t, cfg.moves)
    visited = VisitedHashes(t)
    histogram: Counter = Counter()
    is_box, is_torus = cfg.region.is_box, cfg.region.is_torus
    tw = 0
    flux_key = str(tuple(flux(t).components)) if is_torus else None

    def note() -> None:
        if is_box:
            histogram[str(tw)] += 1
        elif is_torus:
            histogram[flux_key] += 1

    note()
    steps_taken = 0
    for sign, inserted in _walk(state, cfg.steps, cfg.seed):
        steps_taken += 1
        tw += sign
        visited.add(inserted)
        note()
    hashes = visited.hashes()
    return {
        "steps_requested": cfg.steps,
        "steps_taken": steps_taken,
        "frozen": steps_taken < cfg.steps,
        "distinct_visited": len(hashes),
        "visited_hashes": ["%016x" % h for h in hashes],
        "histogram": {k: histogram[k] for k in sorted(histogram)},
    }


def walk_states(region: Region, moves: str, steps: int, seed: int) -> list[Tiling]:
    """The tiling after each of the first `steps` moves of a seeded walk.
    Raises ValueError for a step count that is not a nonnegative int."""
    _check_steps(steps)
    state = WalkState(start_tiling(region), moves)
    return [state.tiling() for _step in _walk(state, steps, seed)]


# -- verification suites -------------------------------------------------

def _check(check_id: str, passed: bool, detail: str = "") -> dict:
    out = {"id": check_id, "passed": bool(passed)}
    if detail:
        out["detail"] = detail
    return out


_EULER_BOXES = (((1, 1, 1), (1, 1, 1)),
                ((0, 0, 0), (2, 2, 2)),
                ((0, 0, 0), (3, 3, 3)))


def _counting_identity(region: Region, corner, dims) -> tuple[int, int]:
    surface_b = surface_w = inner_b = inner_w = 0
    for x in range(corner[0], corner[0] + dims[0] + 1):
        for y in range(corner[1], corner[1] + dims[1] + 1):
            for z in range(corner[2], corner[2] + dims[2] + 1):
                on_surface = (x in (corner[0], corner[0] + dims[0])
                              or y in (corner[1], corner[1] + dims[1])
                              or z in (corner[2], corner[2] + dims[2]))
                black = region.color((x, y, z)) == 1
                if on_surface:
                    surface_b += black
                    surface_w += not black
                else:
                    inner_b += black
                    inner_w += not black
    return 2 * inner_b + surface_b, 2 * inner_w + surface_w


def euler_suite(seed: int = 0) -> list[dict]:
    """phi(t; S) = 0 over closed sub-box surfaces of the 4x4x4 box."""
    region = build_box(4, 4, 4)
    tilings = walk_states(region, "flip+trit", 100, seed)
    surfaces = [closed_box_surface(region, c, d) for c, d in _EULER_BOXES]
    checks = []
    for j, (corner, dims) in enumerate(_EULER_BOXES):
        lhs, rhs = _counting_identity(region, corner, dims)
        checks.append(_check("euler/identity/s%d" % j, lhs == rhs,
                             "2b_int+b_s=%d, 2w_int+w_s=%d" % (lhs, rhs)))
    for i, t in enumerate(tilings):
        for j, s in enumerate(surfaces):
            phi = flux_through_surface(t, s)
            checks.append(_check("euler/phi/t%03d/s%d" % (i, j), phi == 0,
                                 "" if phi == 0 else "phi=%d" % phi))
    return sorted(checks, key=lambda c: c["id"])


class _Box332(NamedTuple):
    region: Region
    tilings: tuple
    flip: list  # labelled_components of the flip moves
    both: list  # and of the flip and trit moves
    twists: dict


@lru_cache(maxsize=None)
def _box332() -> _Box332:
    region = build_box(3, 3, 2)
    tilings = tuple(enumerate_tilings(region))
    flip = labelled_components(tilings, "flip")
    both = labelled_components(tilings, "flip+trit")
    twists = {t.hash64: twist(t, 2) for t in tilings}
    return _Box332(region, tilings, flip, both, twists)


def twist_suite(seed: int = 0) -> list[dict]:
    """Flip and trit behavior of the twist over the full 3x3x2 move graph."""
    data = _box332()
    del seed
    flip_bad = trit_bad = flips = trits = 0
    for t in data.tilings:
        h = t.hash64
        # each edge once, from the end with the smaller hash
        for m in find_flips(t):
            h2 = apply_flip(t, m).hash64
            if h < h2:
                flips += 1
                flip_bad += data.twists[h2] != data.twists[h]
        for m in find_trits(t):
            h2 = apply_trit(t, m).hash64
            if h < h2:
                trits += 1
                trit_bad += data.twists[h2] - data.twists[h] != m.sign
    axis_bad = sum(1 for t in data.tilings
                   if not twist(t, 0) == twist(t, 1) == twist(t, 2))
    base = base_tiling(data.region, 2)
    comp = next(c for c in data.both if base in c.tilings)
    zero = comp.labels[comp.tilings.index(base)]
    labels = {t.hash64: label - zero for t, label in zip(comp.tilings, comp.labels)}
    label_bad = sum(1 for t in data.tilings
                    if labels.get(t.hash64) !=
                    data.twists[t.hash64] - data.twists[base.hash64])
    checks = [
        _check("twist/flip-edges", flip_bad == 0,
               "%d flip edges, %d with nonzero twist change" % (flips, flip_bad)),
        _check("twist/trit-edges", trit_bad == 0,
               "%d trit edges, %d violating the signed step" % (trits, trit_bad)),
        _check("twist/axis-independence", axis_bad == 0,
               "%d of %d tilings with axis disagreement" % (axis_bad, len(data.tilings))),
        _check("twist/labels-consistent", comp.consistent),
        _check("twist/labels-match", label_bad == 0,
               "%d label mismatches" % label_bad),
    ]
    return sorted(checks, key=lambda c: c["id"])


def refine_suite(seed: int = 0) -> list[dict]:
    """Twist and flux preserved under one refinement step."""
    data = _box332()
    checks = []
    for i, t in enumerate(data.tilings):
        expected = data.twists[t.hash64]
        tw = twist(refine_tiling(t, 1), 2)
        checks.append(_check("refine/twist/t%03d" % i, tw == expected,
                             "" if tw == expected else
                             "refined twist %d, original %d" % (tw, expected)))
    torus = build_torus(2, 2, 4)
    samples = walk_states(torus, "flip+trit", 40, seed)[::4][:10]
    if not samples:
        samples = [start_tiling(torus)]
    for i, t in enumerate(samples):
        before = tuple(flux(t).components)
        after = tuple(flux(refine_tiling(t, 1)).components)
        checks.append(_check("refine/flux/t%02d" % i, after == before,
                             "" if after == before else
                             "flux %r refines to %r" % (before, after)))
    return sorted(checks, key=lambda c: c["id"])


def heightfn_suite(seed: int = 0) -> list[dict]:
    """Height conditions and flip connection on the 4x4 planar surface."""
    del seed
    s = heights.build_planar_surface([(x, y) for x in range(4) for y in range(4)])
    classes = heights.tiling_classes(s)
    checks = [
        _check("heightfn/class-count", len(classes) == 1,
               "%d classes" % len(classes)),
    ]
    cls = classes[0]
    checks.append(_check("heightfn/tiling-count", len(cls) == 36,
                         "%d tilings" % len(cls)))
    checks.append(_check("heightfn/stable", cls.stable))
    cond_bad = 0
    hfields = {t: heights.height_function(t, cls) for t in cls.tilings}
    for t, h in hfields.items():
        if h[heights.INF] != 0:
            cond_bad += 1
            continue
        ok = True
        for f in s.faces:
            for g in s.face_neighbors(f):
                if abs(h[f] - h[g]) >= 1:
                    ok = False
        for other in cls.tilings:
            w = heights.winding(t, other, s)
            for f in s.all_faces:
                if (h[f] - hfields[other][f]) != w[f]:
                    ok = False
        cond_bad += not ok
    checks.append(_check("heightfn/conditions", cond_bad == 0,
                         "%d tilings violating (a)/(b)/(c)" % cond_bad))

    dist = _flip_distances(s, cls)
    path_bad = 0
    pairs = 0
    for i, t0 in enumerate(cls.tilings):
        for t1 in cls.tilings[i + 1:]:
            pairs += 1
            seq = heights.flip_connect(t0, t1, cls)
            w = heights.winding(t1, t0, s)
            mass = sum(abs(w[f]) for f in s.all_faces)
            if len(seq) != mass or len(seq) != dist[(t0, t1)]:
                path_bad += 1
    checks.append(_check("heightfn/flip-connect", path_bad == 0,
                         "%d of %d pairs with wrong path length" % (path_bad, pairs)))
    return sorted(checks, key=lambda c: c["id"])


def _flip_distances(s, cls) -> dict:
    from collections import deque
    adj: dict = {t: [] for t in cls.tilings}
    tset = set(cls.tilings)
    for t in cls.tilings:
        for f in heights.face_flips(s, t):
            u = heights.apply_face_flip(s, t, f)
            if u in tset:
                adj[t].append(u)
    dist = {}
    for src in cls.tilings:
        d = {src: 0}
        queue = deque([src])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if y not in d:
                    d[y] = d[x] + 1
                    queue.append(y)
        for dst, k in d.items():
            dist[(src, dst)] = k
    return dist


def mixed_torus_tiling() -> Tiling:
    """A torus(4,4,4) tiling with nonzero flux: x-columns paired in two
    staggered patterns depending on the column's base color."""
    region = build_torus(4, 4, 4)
    pairs = []
    for y in range(4):
        for z in range(4):
            if (y + z) % 2 == 0:
                pairs.append(((0, y, z), (1, y, z)))
                pairs.append(((2, y, z), (3, y, z)))
            else:
                pairs.append(((1, y, z), (2, y, z)))
                pairs.append(((3, y, z), (0, y, z)))
    return Tiling.from_cell_pairs(region, pairs)


def counts_suite(seed: int = 0) -> list[dict]:
    """Ground-truth counts, components, torus flux, and connectivity."""
    del seed
    checks = []
    n332 = count_tilings(build_box(3, 3, 2))
    n222 = count_tilings(build_box(2, 2, 2))
    n221 = count_tilings(build_box(2, 2, 1))
    checks.append(_check("counts/box332", n332 == 229, "count %d" % n332))
    checks.append(_check("counts/box222", n222 == 9, "count %d" % n222))
    checks.append(_check("counts/box221", n221 == 2, "count %d" % n221))

    data = _box332()
    sizes = [len(c.tilings) for c in data.flip]
    checks.append(_check("components/flip332", sizes == [227, 1, 1],
                         "sizes %r" % (sizes,)))
    both = [len(c.tilings) for c in data.both]
    checks.append(_check("components/fliptrit332", both == [229],
                         "sizes %r" % (both,)))

    torus = build_torus(4, 4, 4)
    base = base_tiling(torus, 0)
    fb = flux(base)
    checks.append(_check("flux/base", tuple(fb.components) == (0, 0, 0)
                         and modulus(fb) == 0,
                         "flux %r modulus %d" % (fb.components, modulus(fb))))
    t_star = mixed_torus_tiling()
    fs = flux(t_star)
    phi = flux_through_surface(t_star, cutting_surface(torus, 0, 0))
    checks.append(_check("flux/mixed", abs(fs.components[0]) == 8
                         and fs.components[1:] == (0, 0)
                         and phi == 16 and modulus(fs) == 16,
                         "flux %r phi_x %d modulus %d" % (fs.components, phi, modulus(fs))))
    return sorted(checks, key=lambda c: c["id"])


SUITES: dict[str, Callable[[int], list[dict]]] = {
    "counts": counts_suite,
    "euler": euler_suite,
    "twist": twist_suite,
    "refine": refine_suite,
    "heightfn": heightfn_suite,
}


def verify(suite: str, seed: int = 0) -> tuple[list[dict], bool]:
    """Run one named suite (or all of them); checks sorted by id."""
    if suite == "all":
        checks = []
        for name in sorted(SUITES):
            checks.extend(SUITES[name](seed))
        checks.sort(key=lambda c: c["id"])
    elif suite in SUITES:
        checks = SUITES[suite](seed)
    else:
        raise ValueError("unknown suite %r" % (suite,))
    return checks, all(c["passed"] for c in checks)
