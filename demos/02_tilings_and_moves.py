"""Enumerate tilings and walk between them with flips and trits.

A tiling is a perfect matching of the dual graph: every cube is covered by
exactly one domino. Flips rotate two parallel dominoes inside a 2x2x1 slab;
trits rotate three mutually orthogonal dominoes inside a 2x2x2 cube and
carry a sign.
"""
from collections import Counter

from tritile import (
    apply_flip, apply_trit, base_tiling, build_box, enumerate_tilings,
    find_flips, find_trits, labelled_components,
)

region = build_box(3, 3, 2)
tilings = list(enumerate_tilings(region))
print("3x3x2 box has", len(tilings), "tilings")

t = base_tiling(region, 2)
print("base tiling: all dominoes along z,",
      Counter(d.axis for d in t.dimers))

flips = find_flips(t)
print("available flips:", len(flips))
u = apply_flip(t, flips[0])
print("after one flip:", Counter(d.axis for d in u.dimers))

# Trits need three orthogonal dominoes in a 2x2x2 cube, so the base
# tiling has none; hunt for a tiling that admits one.
with_trit = next(tt for tt in tilings if find_trits(tt))
m = find_trits(with_trit)[0]
print("found a trit at anchor", m.anchor, "with sign", m.sign)
v = apply_trit(with_trit, m)
print("trit exchanges", len(m.removed), "dominoes for", len(m.inserted))

# The components of the move graph over all tilings: flips alone leave two
# frozen tilings stranded, adding trits makes the space connected.
flip_comps = labelled_components(tilings, "flip")
print("flip components:", [len(c.tilings) for c in flip_comps])
full_comps = labelled_components(tilings, "flip+trit")
print("flip+trit components:", [len(c.tilings) for c in full_comps])

frozen = [c.tilings[0] for c in flip_comps if len(c.tilings) == 1]
print("frozen tilings admit no flips:",
      [len(find_flips(f)) for f in frozen])

# Each tiling's label counts the trit signs along any path from its
# component's first tiling; on a box it is the twist difference.
[full] = full_comps
print("trit labels range over", min(full.labels), "..", max(full.labels))
