"""Build the three kinds of regions and poke at their structure.

A region is a finite set of unit cubes, checkerboard-colored, that forms a
manifold with boundary: boxes, tori with even periods, and free-form voxel
sets. Every tiling question downstream starts from one of these.
"""
from tritile import RegionError, build_box, build_torus, build_voxel_region, refine_region

box = build_box(3, 3, 2)
print("3x3x2 box:", len(box.cells), "cells,",
      sum(1 for c in box.cells if box.color(c) == 1), "black")

# Boundary faces are exposed unit squares; the box has its six sides.
print("boundary faces:", len(box.boundary_faces()))

torus = build_torus(4, 4, 4)
print("4x4x4 torus boundary faces:", len(torus.boundary_faces()))
# A step table row names the cell one step away in each of the six
# directions, -1 off the region; on this torus all six are distinct cells.
print("every torus cell has 6 neighbors:",
      all(min(row) >= 0 and len(set(row)) == 6 for row in torus.step_table))

# An L of six cubes: three along x, then a step up in y.
ell = build_voxel_region([
    (0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (0, 1, 0), (1, 1, 0),
])
print("L region cells:", len(ell.cells))

# The validator rejects anything that cannot carry a tiling or is not a
# manifold: unbalanced colors, edge-touching cubes, disconnected pieces.
for bad, cells in [
    ("unbalanced", [(0, 0, 0), (1, 0, 0), (0, 1, 0)]),
    ("edge touch", [(0, 0, 0), (1, 1, 0)]),
    ("two islands", [(0, 0, 0), (1, 0, 0), (4, 0, 0), (5, 0, 0)]),
]:
    try:
        build_voxel_region(cells)
    except RegionError as exc:
        print("rejected (%s): %s" % (bad, exc))

# Refinement scales every cube to a 5x5x5 block of subcubes.
fine = refine_region(box, 1)
print("refined box dims:", fine.dims, "cells:", len(fine.cells))

print("serialized form round-trips through JSON:",
      len(box.to_json()), "bytes")
