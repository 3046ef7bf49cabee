"""Desk-scale acceptance gate.

Each test covers one numbered criterion, prints a single pass/fail line,
and enforces the stated runtime budget where one is given.
"""
import time
from collections import deque
from fractions import Fraction

from tritile import (
    base_tiling, build_box, build_torus, cutting_surface, enumerate_tilings,
    find_flips, flux, flux_through_surface, mixed_torus_tiling, modulus,
    twist, verify,
)
from tritile import heights
from support import bfs_trit_labeling, count_matchings, move_graph


def verdict(num: int, ok: bool, detail: str) -> bool:
    print("criterion %02d %s: %s" % (num, "PASS" if ok else "FAIL", detail))
    return ok


def test_criterion_01_enumeration_ground_truth():
    start = time.perf_counter()
    counts = {}
    for dims in ((3, 3, 2), (2, 2, 2), (2, 2, 1)):
        region = build_box(*dims)
        got = sum(1 for _ in enumerate_tilings(region))
        counts[dims] = (got, count_matchings(region.cells))
    elapsed = time.perf_counter() - start
    ok = (counts[(3, 3, 2)] == (229, 229)
          and counts[(2, 2, 2)] == (9, 9)
          and counts[(2, 2, 1)] == (2, 2)
          and elapsed < 10)
    assert verdict(1, ok, "229/9/2 tilings, oracle agreement, %.2fs" % elapsed)


def test_criterion_02_flip_components():
    start = time.perf_counter()
    tilings = list(enumerate_tilings(build_box(3, 3, 2)))
    g = move_graph(tilings, "flip")
    comps = g.components()
    sizes = sorted(len(c) for c in comps)
    singletons = [g.tilings[c[0]] for c in comps if len(c) == 1]

    def mirror(t):
        return {frozenset(((d.white[1], d.white[0], d.white[2]),
                           (d.black[1], d.black[0], d.black[2])))
                for d in t.dimers}

    frozen = all(find_flips(t) == [] for t in singletons)
    mirrored = len(singletons) == 2 and mirror(singletons[0]) == \
        {frozenset((d.white, d.black)) for d in singletons[1].dimers}
    elapsed = time.perf_counter() - start
    ok = sizes == [1, 1, 227] and frozen and mirrored and elapsed < 30
    assert verdict(2, ok, "3 components %s, frozen mirror singletons, %.2fs"
                   % (sizes, elapsed))


def test_criterion_03_twist_on_move_edges():
    start = time.perf_counter()
    tilings = list(enumerate_tilings(build_box(3, 3, 2)))
    g = move_graph(tilings, "flip+trit")
    tw = {h: twist(t, 2) for h, t in g.tilings.items()}
    violations = 0
    flips = trits = 0
    for e in g.edges:
        delta = tw[e.v] - tw[e.u]
        if e.kind == "flip":
            flips += 1
            violations += delta != 0
        else:
            trits += 1
            violations += delta not in (-1, 1) or delta != e.sign
    elapsed = time.perf_counter() - start
    ok = violations == 0 and flips > 0 and trits > 0 and elapsed < 60
    assert verdict(3, ok, "%d flip + %d trit edges, %d violations, %.2fs"
                   % (flips, trits, violations, elapsed))


def test_criterion_04_axis_independence_integrality():
    bad = 0
    checked = 0
    for dims in ((3, 3, 2), (2, 2, 2)):
        for t in enumerate_tilings(build_box(*dims)):
            values = [twist(t, axis) for axis in range(3)]
            checked += 1
            if len(set(values)) != 1 or not all(isinstance(v, int) for v in values):
                bad += 1
    ok = bad == 0 and checked == 229 + 9
    assert verdict(4, ok, "Tw_x = Tw_y = Tw_z in Z on %d tilings, %d violations"
                   % (checked, bad))


def test_criterion_05_bfs_labeling_agrees():
    region = build_box(3, 3, 2)
    tilings = list(enumerate_tilings(region))
    g = move_graph(tilings, "flip+trit")
    base = base_tiling(region, 2)
    labels, consistent = bfs_trit_labeling(g, base)
    offset = twist(base, 2)
    exact = len(labels) == 229 and all(
        labels[t.hash64] == twist(t, 2) - offset for t in tilings)
    ok = consistent and exact
    assert verdict(5, ok, "cycle-consistent labels equal Tw - Tw(base) on %d tilings"
                   % len(labels))


def test_criterion_06_flux_vanishes_on_closed_surfaces():
    start = time.perf_counter()
    checks, passed = verify("euler")
    phi = [c for c in checks if c["id"].startswith("euler/phi/")]
    identity = [c for c in checks if c["id"].startswith("euler/identity/")]
    elapsed = time.perf_counter() - start
    ok = (passed and len(phi) >= 300 and len(identity) == 3
          and all(c["passed"] for c in checks) and elapsed < 60)
    assert verdict(6, ok, "%d phi = 0 checks + %d counting identities, %.2fs"
                   % (len(phi), len(identity), elapsed))


def test_criterion_07_torus_flux_machinery():
    region = build_torus(4, 4, 4)
    base = base_tiling(region, 0)
    star = mixed_torus_tiling()
    shifted = 0
    for y in range(4):
        for z in range(4):
            spans = {frozenset((d.white[0], d.black[0])) for d in star.dimers
                     if d.white[1:] == (y, z)}
            shifted += frozenset((3, 0)) in spans
    phi = flux_through_surface(star, cutting_surface(region, 0, 0))
    f_base, f_star = flux(base), flux(star)
    ok = (f_base.components == (0, 0, 0) and modulus(f_base) == 0
          and shifted == 8
          and phi == 2 * shifted == 16
          and abs(f_star.components[0]) == shifted
          and f_star.components[1:] == (0, 0)
          and modulus(f_star) == 16)
    assert verdict(7, ok, "base flux (0,0,0) m=0; t* has %d rewired columns, "
                   "phi=%d, flux %s, m=%d"
                   % (shifted, phi, list(f_star.components), modulus(f_star)))


def test_criterion_08_refinement_invariance():
    start = time.perf_counter()
    checks, passed = verify("refine")
    tw = [c for c in checks if c["id"].startswith("refine/twist/")]
    fl = [c for c in checks if c["id"].startswith("refine/flux/")]
    elapsed = time.perf_counter() - start
    ok = (passed and len(tw) == 229 and len(fl) == 10
          and all(c["passed"] for c in checks) and elapsed < 600)
    assert verdict(8, ok, "twist kept on %d refined tilings, flux on %d torus "
                   "samples, %.2fs" % (len(tw), len(fl), elapsed))


def test_criterion_09_single_fliptrit_component():
    tilings = list(enumerate_tilings(build_box(3, 3, 2)))
    g = move_graph(tilings, "flip+trit")
    sizes = [len(c) for c in g.components()]
    ok = sizes == [229]
    assert verdict(9, ok, "flip+trit component sizes %s" % sizes)


def test_criterion_10_height_functions():
    start = time.perf_counter()
    s = heights.build_planar_surface(
        [(x, y) for x in range(4) for y in range(4)])
    cls = heights.tiling_classes(s)[0]
    fields = {t: heights.height_function(t, cls) for t in cls.tilings}

    conditions = True
    for t, h in fields.items():
        conditions &= h[heights.INF] == 0
        for f in s.faces:
            conditions &= all(abs(h[f] - h[g]) < 1
                              for g in s.face_neighbors(f))
        for other in cls.tilings:
            w = heights.winding(t, other, s)
            conditions &= all(h[f] - fields[other][f] == w[f]
                              for f in s.all_faces)

    dist = {t: {t: 0} for t in cls.tilings}
    for t0 in cls.tilings:
        row = dist[t0]
        queue = deque([t0])
        while queue:
            t = queue.popleft()
            for f in heights.face_flips(s, t):
                u = heights.apply_face_flip(s, t, f)
                if u not in row:
                    row[u] = row[t] + 1
                    queue.append(u)

    pairs = bad = 0
    for i, t0 in enumerate(cls.tilings):
        for t1 in cls.tilings[i + 1:]:
            pairs += 1
            seq = heights.flip_connect(t0, t1, cls)
            w = heights.winding(t1, t0, s)
            mass = sum(abs(w[f]) for f in s.all_faces)
            replay = t0
            for f in seq:
                replay = heights.apply_face_flip(s, replay, f)
            if replay != t1 or len(seq) != mass or len(seq) != dist[t0][t1]:
                bad += 1
    elapsed = time.perf_counter() - start
    ok = (len(cls) == 36 and conditions and pairs == 630 and bad == 0
          and elapsed < 60)
    assert verdict(10, ok, "36 tilings, conditions hold, %d/%d minimal paths, "
                   "%.2fs" % (pairs - bad, pairs, elapsed))
