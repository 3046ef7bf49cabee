"""The four workloads: seeded inputs, one timed task each, and output checks.

Each workload is a pair of functions. `setup(seed)` builds every input the
task needs (regions, tilings, walk states, pair lists) from the seed alone.
`task(inputs, rec)` does the workload's work once, checks every output
against pinned references through `rec.check`, and returns the number of
work units it completed. Library calls go through module attributes at call
time, so a traced run sees them.

Why these four: each one puts nearly all of its time in different layers.

- walk: `moves` and `Tiling.replace` on one large tiling (the ROADMAP's 16^3
  scale goal); nothing in `heights` or refinement.
- count: enumeration of many small tilings, plus the move graph over them;
  `moves` is scanned per small tiling, unlike walk.
- invariants: `fluxtwist` and refinement on large and refined tilings.
- heights: planar height functions and flip paths, which nothing else calls.
"""

from __future__ import annotations

import random

import tritile
from tritile import harness, heights

WALK_STEPS = 10
HEIGHT_PAIRS = 10

# Pinned references. 535,229 tilings of the 2x4x5 box agree with the Ryser
# permanent oracle in tests/support.py (count_matchings), which confirms it
# in about 5 s; it is pinned here rather than recomputed on every run.
COUNT_245 = 535229
COMPONENTS_342 = {"flip": [1825, 5, 5, 5, 5], "fliptrit": [1845]}
REFINED_K2_DIMERS = 140625
MIXED_TORUS = {"flux_abs": (8, 0, 0), "modulus": 16}
HEIGHT_CLASSES = {"rect6x4": [281], "ring6x6": [1442, 1, 1]}

# Closed sub-box surfaces (corner, dims) in the dual of the 8^3 box.
SURFACES_8 = (((1, 1, 1), (2, 2, 2)), ((0, 0, 0), (4, 4, 4)),
              ((2, 1, 3), (5, 6, 3)), ((0, 0, 0), (7, 7, 7)))


# -- walk ---------------------------------------------------------------------

def setup_walk(seed: int) -> dict:
    return {"argv": ["sample", "box", "16", "16", "16", "--moves", "fliptrit",
                     "--steps", str(WALK_STEPS), "--seed", str(seed)]}


def task_walk(inputs: dict, rec) -> int:
    payload = rec.cli("sample", inputs["argv"])
    hashes = payload["visited_hashes"]
    rec.check("walk/steps-taken", payload["steps_taken"] == WALK_STEPS)
    rec.check("walk/histogram-total", sum(payload["histogram"].values()) == WALK_STEPS + 1)
    # The report promises each visited state once, in first-visit order; this
    # guards that contract of harness.random_walk, which dedups as it walks.
    rec.check("walk/visited-unique",
              len(set(hashes)) == len(hashes) == payload["distinct_visited"])
    rec.check("walk/visited-bound", payload["distinct_visited"] <= WALK_STEPS + 1)
    return payload["steps_taken"]


# -- count --------------------------------------------------------------------

def setup_count(seed: int) -> dict:
    tail = ["--seed", str(seed)]
    return {
        "enumerate": ["enumerate", "box", "2", "4", "5", "--count-only"] + tail,
        "components": {m: ["components", "box", "3", "4", "2", "--moves", m] + tail
                       for m in ("flip", "fliptrit")},
    }


def task_count(inputs: dict, rec) -> int:
    payload = rec.cli("enumerate", inputs["enumerate"])
    rec.check("count/box245", payload["count"] == COUNT_245)
    units = payload["count"]
    for moves, argv in inputs["components"].items():
        payload = rec.cli("components-" + moves, argv)
        sizes = [c["size"] for c in payload["components"]]
        rec.check("count/components342-" + moves, sizes == COMPONENTS_342[moves])
        units += payload["num_tilings"]
    return units


# -- invariants ---------------------------------------------------------------

def _mixed_brick_24() -> "tritile.Tiling":
    """The 24^3 box tiled by x-dimer bricks below z = 12 and y-dimer bricks above."""
    pairs = []
    for z in range(24):
        for y in range(24):
            for x in range(24):
                if z < 12 and x % 2 == 0:
                    pairs.append(((x, y, z), (x + 1, y, z)))
                elif z >= 12 and y % 2 == 0:
                    pairs.append(((x, y, z), (x, y + 1, z)))
    return tritile.Tiling.from_cell_pairs(tritile.build_box(24, 24, 24), pairs)


def setup_invariants(seed: int) -> dict:
    rng = random.Random(seed)
    box332 = list(tritile.enumerate_tilings(tritile.build_box(3, 3, 2)))
    box8 = tritile.build_box(8, 8, 8)
    return {
        "brick24": _mixed_brick_24(),
        "box332": box332,
        "k2_source": box332[rng.randrange(len(box332))],
        "torus_states": harness.walk_states(tritile.build_torus(8, 8, 8), "flip+trit", 8,
                                            rng.randrange(2**31)),
        "box_states": harness.walk_states(box8, "flip+trit", 8, rng.randrange(2**31)),
        "surfaces": [tritile.closed_box_surface(box8, c, d) for c, d in SURFACES_8],
        "mixed_torus": harness.mixed_torus_tiling(),
    }


def task_invariants(inputs: dict, rec) -> int:
    twist, flux, modulus = tritile.twist, tritile.flux, tritile.modulus
    units = 0

    brick = [twist(inputs["brick24"], axis) for axis in range(3)]
    rec.check("invariants/brick24-axis-independent", brick[0] == brick[1] == brick[2])
    units += 3

    refined = []
    for i, t in enumerate(inputs["box332"]):
        before = twist(t, 2)
        after = twist(tritile.refine_tiling(t, 1), 2)
        rec.check("invariants/refine332-t%03d" % i, before == after)
        refined.append(after)
    units += 2 * len(refined)

    k2 = tritile.refine_tiling(inputs["k2_source"], 2)
    rec.check("invariants/refine-k2-dimers", len(k2.pairs) == REFINED_K2_DIMERS)
    units += 1

    torus = []
    for i, t in enumerate(inputs["torus_states"]):
        f = flux(t)
        m = modulus(f)
        rec.check("invariants/torus8-s%02d" % i, f.components == (0, 0, 0) and m == 0)
        torus.append([list(f.components), m])
    f = flux(inputs["mixed_torus"])
    m = modulus(f)
    rec.check("invariants/mixed-torus",
              tuple(abs(c) for c in f.components) == MIXED_TORUS["flux_abs"]
              and m == MIXED_TORUS["modulus"])
    torus.append([list(f.components), m])
    units += 2 * len(torus)

    phis = []
    for i, t in enumerate(inputs["box_states"]):
        for j, s in enumerate(inputs["surfaces"]):
            phi = tritile.flux_through_surface(t, s)
            rec.check("invariants/phi-t%02d-s%d" % (i, j), phi == 0)
            phis.append(phi)
    units += len(phis)

    rec.result("invariants", {"brick24": brick, "refined332": refined,
                              "k2": "%016x" % k2.hash64, "torus": torus, "phi": phis})
    return units


# -- heights ------------------------------------------------------------------

def setup_heights(seed: int) -> dict:
    rng = random.Random(seed)
    rect = [(x, y) for x in range(6) for y in range(4)]
    ring = [(x, y) for x in range(6) for y in range(6) if not (2 <= x < 4 and 2 <= y < 4)]
    return {
        name: {"surface": heights.build_planar_surface(cells),
               # positions in [0, 1), scaled to the class size in the task
               "pairs": [(rng.random(), rng.random()) for _ in range(HEIGHT_PAIRS)]}
        for name, cells in (("rect6x4", rect), ("ring6x6", ring))
    }


def task_heights(inputs: dict, rec) -> int:
    paths = {}
    units = 0
    for name, data in inputs.items():
        s = data["surface"]
        classes = heights.tiling_classes(s)
        sizes = sorted((len(c) for c in classes), reverse=True)
        rec.check("heights/%s-classes" % name, sizes == HEIGHT_CLASSES[name])
        cls = max((c for c in classes if c.stable), key=len)
        n = len(cls)
        lengths = []
        for k, (u, v) in enumerate(data["pairs"]):
            i, j = int(u * n), int(v * (n - 1))
            j += j >= i  # a second, distinct tiling
            t0, t1 = cls.tilings[i], cls.tilings[j]
            seq = heights.flip_connect(t0, t1, cls)
            w = heights.winding(t1, t0, s)
            mass = sum(abs(w[f]) for f in s.all_faces)
            rec.check("heights/%s-pair%02d" % (name, k), len(seq) == mass)
            lengths.append(len(seq))
        paths[name] = lengths
        units += len(lengths)
    rec.result("heights", paths)
    return units


WORKLOADS = {
    "walk": (setup_walk, task_walk),
    "count": (setup_count, task_count),
    "invariants": (setup_invariants, task_invariants),
    "heights": (setup_heights, task_heights),
}
