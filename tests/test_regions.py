import pickle
import random
import tracemalloc
from array import array
from collections import Counter
from itertools import product

import pytest

from tritile import (
    BudgetExceeded, Region, RegionError, build_box, build_torus, build_voxel_region,
    enumerate_tilings, refine_region, region_from_dict, region_from_json,
)
from support import (
    built, corner_cut_cube, raw_step_table, slow_cube_table, slow_lattice_cubes,
    slow_link_is_disk, slow_manifold_violation, slow_neighbor_table, slow_octant_components,
)
from tritile.moves import _cube_anchor
from tritile.regions import (
    _BLOCK, CELL_LIMIT, CUBE_OFFSETS, _component_count, _index_array, _is_manifold_block,
    _lattice_whites,
)
from tritile.tilings import Pairs, _neighbor_rows


def _indices(table):
    """The cell indices of an (index, direction) neighbour table."""
    return [tuple(j for j, _d in row) for row in table]


def test_box_basic():
    r = build_box(3, 3, 2)
    assert r.kind == "box"
    assert r.n_cells == 18
    assert r.dims == (3, 3, 2)
    assert sum(r.colors) == 0
    assert r.color((0, 0, 0)) == 1
    assert r.color((1, 0, 0)) == -1


def test_box_all_odd_rejected():
    with pytest.raises(RegionError) as exc:
        build_box(3, 3, 3)
    assert exc.value.condition == "balance"
    assert "unbalanced" in str(exc.value)


def test_box_one_even_dimension_accepted():
    assert build_box(3, 1, 2).n_cells == 6
    assert build_box(1, 1, 2).n_cells == 2


def test_torus_444():
    r = build_torus(4, 4, 4)
    assert r.n_cells == 64
    for row in r.step_table:
        assert min(row) >= 0 and len(set(row)) == 6
    assert all(len(row) == 6 for row in _neighbor_rows(r))
    assert r.boundary_faces() == ()


def test_torus_222_degenerate_simple_graph():
    r = build_torus(2, 2, 2)
    assert r.n_cells == 8
    # wrap in both directions reaches the same cell; one entry per axis
    for row in r.step_table:
        assert row[0::2] == row[1::2] and len(set(row)) == 3
    for row in _neighbor_rows(r):
        assert len(row) == 3 and len(set(row)) == 3


def test_torus_odd_period_rejected():
    with pytest.raises(RegionError) as exc:
        build_torus(3, 4, 4)
    assert exc.value.condition == "parity"


def test_voxel_cube_matches_box():
    cells = [(x, y, z) for x in range(2) for y in range(2) for z in range(2)]
    v = build_voxel_region(cells)
    b = build_box(2, 2, 2)
    assert v.cells == b.cells
    assert v.colors == b.colors
    # same adjacency structure cell for cell, direction for direction, and
    # the same cubes from the lookup and the arithmetic builders
    assert v.step_table == b.step_table
    assert_same_cube_table(b, read_cube_table(v))


def test_voxel_from_box_cells_isomorphic():
    b = build_box(3, 2, 2)
    v = build_voxel_region(b.cells)
    assert v.n_cells == b.n_cells
    assert v.step_table == b.step_table
    assert_same_cube_table(b, read_cube_table(v))


def read_cube_table(region):
    """region.cube_table as an (anchors, cubes, cell_anchors) triple of
    lists, each anchor read off its cube as _trit_move reads it."""
    table = region.cube_table
    return [[_cube_anchor(region, cube) for cube in table.cubes], list(table.cubes),
            [table.cell_anchors[i] for i in range(len(table.cell_anchors))]]


def assert_same_cube_table(region, expected):
    """region.cube_table equals expected, an (anchors, cubes, cell_anchors)
    triple, element by element: on a box or torus table.cell_anchors
    answers each read by index arithmetic, and no table stores the anchors,
    which _cube_anchor reads off each cube's cells."""
    anchors, cubes, cell_anchors = expected
    table = region.cube_table
    assert table._fields == ("cubes", "cell_anchors")
    assert read_cube_table(region) == [list(anchors), list(cubes), list(cell_anchors)]


def test_voxel_nonmanifold_edge_rejected():
    # two 2x2x2 cubes sharing exactly one edge (diagonal contact)
    cube1 = [(x, y, z) for x in range(2) for y in range(2) for z in range(2)]
    cube2 = [(x + 2, y + 2, z) for x in range(2) for y in range(2) for z in range(2)]
    with pytest.raises(RegionError) as exc:
        build_voxel_region(cube1 + cube2)
    assert exc.value.condition == "non-manifold edge"


def test_voxel_nonmanifold_vertex_rejected():
    # the 2x2x2 cube minus two antipodal cells: the six left are
    # face-connected, but the two missing octants around the centre vertex
    # are not
    cells = [(x, y, z) for x in range(2) for y in range(2) for z in range(2)
             if (x, y, z) not in ((0, 0, 0), (1, 1, 1))]
    with pytest.raises(RegionError) as exc:
        build_voxel_region(cells)
    assert exc.value.condition == "non-manifold vertex"


def test_voxel_unbalanced_rejected():
    cells = [(x, y, z) for x in range(2) for y in range(2) for z in range(2)]
    cells.remove((1, 1, 1))
    with pytest.raises(RegionError) as exc:
        build_voxel_region(cells)
    assert exc.value.condition == "balance"
    assert "4" in str(exc.value) and "3" in str(exc.value)


def test_voxel_disconnected_rejected():
    cells = [(0, 0, 0), (1, 0, 0), (4, 0, 0), (5, 0, 0)]
    with pytest.raises(RegionError) as exc:
        build_voxel_region(cells)
    assert exc.value.condition == "connectivity"


def test_voxel_empty_and_duplicate_rejected():
    with pytest.raises(RegionError) as exc:
        build_voxel_region([])
    assert exc.value.condition == "empty"
    with pytest.raises(RegionError) as exc:
        build_voxel_region([(0, 0, 0), (0, 0, 0)])
    assert exc.value.condition == "duplicate"


def test_voxel_parity_flag():
    cells = [(0, 0, 0), (1, 0, 0)]
    assert build_voxel_region(cells, parity=0).color((0, 0, 0)) == 1
    assert build_voxel_region(cells, parity=1).color((0, 0, 0)) == -1


@pytest.mark.parametrize("bad", [True, 1.0, "1"])
def test_voxel_parity_flag_must_be_the_integer_0_or_1(bad):
    with pytest.raises(RegionError) as exc:
        build_voxel_region([(0, 0, 0), (1, 0, 0)], parity=bad)
    assert exc.value.condition == "parity"


def test_adjacency_symmetric_and_alternating():
    for r in (build_box(3, 3, 2), build_torus(2, 2, 4),
              build_voxel_region([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)])):
        steps = r.step_table
        for i, row in enumerate(steps):
            for d, j in enumerate(row):
                if j >= 0:
                    assert steps[j][d ^ 1] == i
                    assert r.colors[i] == -r.colors[j]


def test_interior_edges_have_four_cells():
    # every edge strictly inside a box or torus touches exactly 4 cells
    r = build_box(4, 3, 2)
    counts = {}
    for (x, y, z) in r.cells:
        for corner in ((x, y, z), (x + 1, y, z), (x, y + 1, z), (x + 1, y + 1, z)):
            counts[(corner, "z")] = counts.get((corner, "z"), 0) + 1
    interior = [k for k, n in counts.items()
                if 0 < k[0][0] < 4 and 0 < k[0][1] < 3]
    assert interior and all(counts[k] == 4 for k in interior)


def test_neighbor_table_is_built_on_first_access():
    # the step table is built once, on first access; the neighbour rows that
    # enumeration and counting read are derived from it
    r = refine_region(build_box(2, 2, 1), 1)
    assert r._step_table is None and r._cube_table is None
    table = r.step_table
    assert len(table) == r.n_cells and r.step_table is table
    assert table[0] == (r.index[(1, 0, 0)], -1, r.index[(0, 1, 0)], -1,
                        r.index[(0, 0, 1)], -1)
    assert _neighbor_rows(r)[0] == (r.index[(1, 0, 0)], r.index[(0, 1, 0)],
                                    r.index[(0, 0, 1)])
    assert r._cube_table is None


@pytest.mark.parametrize("build, sizes", [
    (build_box, (1, 2, 3)), (build_box, (2, 2, 1)), (build_box, (3, 4, 5)),
    (build_torus, (2, 2, 2)), (build_torus, (2, 4, 6)), (build_torus, (4, 4, 4)),
    (build_torus, (6, 4, 2)),
])
def test_lattice_neighbor_table_matches_the_voxel_builder(build, sizes):
    # the step table by index arithmetic, before any cell table is built;
    # the neighbour rows derived from it keep the rows and order of the old
    # voxel loop, with period-2 axes listed once under +axis
    r = build(*sizes)
    steps = r.step_table
    assert not any(built(r, name) for name in ("cells", "index", "colors"))
    assert steps == raw_step_table(r)
    assert _neighbor_rows(r) == _indices(slow_neighbor_table(r))


def _l_shape():
    return build_voxel_region(
        [(x, y, z) for x in range(4) for y in range(2) for z in range(2)]
        + [(x, y, z) for x in range(2) for y in range(2, 6) for z in range(2)])


@pytest.mark.parametrize("region", [corner_cut_cube(), _l_shape()],
                         ids=["corner-cut-cube", "l-shape"])
def test_voxel_tables_match_the_oracles(region):
    assert region.step_table == raw_step_table(region)
    assert _neighbor_rows(region) == _indices(slow_neighbor_table(region))


@pytest.mark.parametrize("make", [
    lambda: build_box(1, 2, 3), lambda: build_box(3, 4, 5), lambda: build_box(16, 16, 16),
    lambda: build_torus(2, 2, 2), lambda: build_torus(2, 4, 6),
    lambda: build_torus(6, 4, 2), lambda: build_torus(4, 4, 4),
    corner_cut_cube, _l_shape,
], ids=["box-1x2x3", "box-3x4x5", "box-16x16x16", "torus-2x2x2", "torus-2x4x6",
        "torus-6x4x2", "torus-4x4x4", "corner-cut-cube", "l-shape"])
def test_cube_table_matches_the_coordinate_oracle(make):
    r = make()
    table = r.cube_table
    assert r.cube_table is table
    if r.kind != "voxels":
        # arithmetic on the sizes alone
        assert not any(built(r, name) for name in ("cells", "index", "colors"))
        assert r._step_table is None
    assert_same_cube_table(r, slow_cube_table(r))


def test_cube_anchor_of_a_cube_without_its_corner_cell():
    # the corner-cut cube's cube at (0, 0, 0) has no position-0 cell, so its
    # anchor is read off position 1, the cell (0, 0, 1)
    r = corner_cut_cube()
    cube = r.cube_table.cubes[0]
    assert cube[0] == -1 and r.cells[cube[1]] == (0, 0, 1)
    assert _cube_anchor(r, cube) == (0, 0, 0)


@pytest.mark.parametrize("build, sizes", [
    (build_box, (1, 2, 4)), (build_box, (3, 4, 5)), (build_torus, (2, 2, 2)),
    (build_torus, (2, 4, 6)),
])
def test_lattice_cube_anchors_read_like_tuples(build, sizes):
    # negative indices count from the end, reads past either end raise
    # IndexError, and iteration stops at the end
    seq = build(*sizes).cube_table.cell_anchors
    items = list(seq)
    assert len(items) == len(seq)
    if items:
        assert seq[-1] == items[-1] and seq[-len(seq)] == items[0]
    for k in (len(seq), -len(seq) - 1):
        with pytest.raises(IndexError):
            seq[k]


@pytest.mark.parametrize("make", [
    lambda: build_box(16, 16, 16), lambda: build_box(1, 4, 3), lambda: build_box(3, 1, 2),
    lambda: build_box(2, 5, 1), lambda: build_box(2, 2, 2), lambda: build_box(2, 3, 4),
    lambda: build_torus(2, 2, 4), lambda: build_torus(4, 2, 2), lambda: build_torus(2, 4, 2),
    lambda: build_torus(2, 4, 6),
], ids=["box-16x16x16", "box-1x4x3", "box-3x1x2", "box-2x5x1", "box-2x2x2", "box-2x3x4",
        "torus-2x2x4", "torus-4x2x2", "torus-2x4x2", "torus-2x4x6"])
def test_cube_table_matches_the_generator_per_cube_build(make):
    assert_same_cube_table(make(), slow_lattice_cubes(make()))

def test_boundary_faces_read_the_step_table():
    r = build_box(3, 2, 1)
    faces = r.boundary_faces()
    assert len(faces) == 2 * (3 * 2 + 3 * 1 + 2 * 1)
    assert faces[:3] == (((0, 0, 0), 1), ((0, 0, 0), 3), ((0, 0, 0), 4))
    assert all(r.step_table[r.index[c]][d] == -1 for c, d in faces)


def test_box_and_torus_cell_tables_are_built_on_first_access():
    r = build_torus(2, 4, 6)
    assert r.n_cells == 48
    assert not any(built(r, name) for name in ("cells", "index", "colors"))
    assert r.cells[17] == (0, 2, 5) and r.index[(0, 2, 5)] == 17
    assert r.colors[17] == -1
    assert all(built(r, name) for name in ("cells", "index", "colors"))
    assert r.cells == tuple(sorted(r.cells))
    # a plain Region again: attribute reads skip the __getattr__ hook
    assert type(r) is Region


def test_index_array_equals_range_whatever_was_asked_before():
    sizes = (0, 1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5)
    for n in sizes + sizes[::-1]:
        a = _index_array(n)
        assert a == array("i", range(n))
        # the array is the caller's: writing into it leaves the kept indices
        a[:] = array("i", [-1]) * n
        assert _index_array(n) == array("i", range(n))


def _lattices():
    """Every balanced box in 1..7 x 1..5 x 1..5, every torus with periods in
    2, 4, 6, and two regions of more cells than one doubled run of
    _lattice_whites spans."""
    boxes = [build_box(*s) for s in product(range(1, 8), range(1, 6), range(1, 6))
             if s[0] * s[1] * s[2] % 2 == 0]
    tori = [build_torus(*s) for s in product((2, 4, 6), repeat=3)]
    return boxes + tori + [build_box(40, 30, 30), build_torus(2, 150, 150)]


def test_lattice_whites_are_the_cells_coloured_white():
    for region in _lattices():
        assert region.whites == array("i", [i for i, c in enumerate(region.colors) if c == -1])


def test_lattice_whites_peak_under_one_and_a_half_times_their_size():
    tracemalloc.start()
    try:
        whites = _lattice_whites((64, 64, 64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(whites) == 64 ** 3 // 2
    assert peak < 1.5 * len(whites) * whites.itemsize


def test_region_equality_ignores_built_tables():
    a, b = build_box(2, 2, 2), build_box(2, 2, 2)
    assert a == b and hash(a) == hash(b)
    assert a.cells and built(a, "cells") and not built(b, "cells")
    assert a == b and hash(a) == hash(b)
    box, torus = build_box(2, 2, 2), build_torus(2, 2, 2)
    voxels = build_voxel_region(box.cells)
    assert box != torus and box != voxels and torus != voxels
    assert voxels == build_voxel_region(reversed(box.cells))


def test_refine_box_dims():
    r = refine_region(build_box(2, 2, 1), 1)
    assert r.kind == "box"
    assert r.dims == (10, 10, 5)
    assert r.n_cells == 4 * 125


def test_refine_identity_and_composition():
    r = build_box(2, 2, 1)
    assert refine_region(r, 0) is r
    assert refine_region(refine_region(r, 1), 1) == refine_region(r, 2)


@pytest.mark.parametrize("k", [True, 1.0, -1, None])
def test_refine_region_refuses_a_count_that_is_not_a_nonnegative_int(k):
    with pytest.raises(ValueError, match="refinement count must be a nonnegative int"):
        refine_region(build_box(2, 2, 1), k)


def test_refine_stops_at_its_cell_budget():
    assert refine_region(build_box(3, 3, 2), 2).n_cells == 281_250
    with pytest.raises(BudgetExceeded, match=r"8 x 125\^3 cells, more than the "
                       r"refinement budget of 1000000"):
        refine_region(build_box(2, 2, 2), 3)
    with pytest.raises(BudgetExceeded):
        refine_region(build_torus(2, 2, 2), 10**9)


def test_refine_preserves_corner_and_center_colors():
    r = build_box(2, 2, 2)
    fine = refine_region(r, 1)
    for cell in r.cells:
        base = tuple(5 * v for v in cell)
        center = tuple(5 * v + 2 for v in cell)
        corner_far = tuple(5 * v + 4 for v in cell)
        assert fine.color(base) == r.color(cell)
        assert fine.color(center) == r.color(cell)
        assert fine.color(corner_far) == r.color(cell)


def test_refine_torus_periods():
    fine = refine_region(build_torus(2, 2, 4), 1)
    assert fine.periods == (10, 10, 20)


def test_region_json_round_trip():
    for r in (build_box(3, 3, 2), build_torus(4, 4, 4),
              build_voxel_region([(0, 0, 0), (1, 0, 0)], parity=1)):
        assert region_from_json(r.to_json()) == r


@pytest.mark.parametrize("data, key", [
    ({"kind": "box", "dims": [2, 2, 2], "bogus": 1}, "'bogus'"),
    ({"kind": "box", "dims": [2, 2, 2], "parity": 5}, "'parity'"),
    ({"kind": "torus", "periods": [2, 2, 4], "dims": [2, 2, 4]}, "'dims'"),
    ({"kind": "voxels", "cells": [[0, 0, 0], [1, 0, 0]], "parity": 0, "Cells": []},
     "'Cells'"),
], ids=["box", "box-parity", "torus", "voxels"])
def test_region_from_dict_refuses_an_unknown_key(data, key):
    with pytest.raises(RegionError, match="unknown key %s" % key) as exc:
        region_from_dict(data)
    assert exc.value.condition == "keys"
    # without the stray key the same object is a region
    region = region_from_dict({k: v for k, v in data.items() if k != key.strip("'")})
    assert region_from_dict(region.to_dict()) == region


@pytest.mark.parametrize("kind", [["box"], {"box": 1}, None, 3])
def test_region_from_dict_refuses_a_kind_that_is_not_a_name(kind):
    # an unhashable kind is refused as unknown, not by a TypeError
    with pytest.raises(ValueError, match="unknown region kind"):
        region_from_dict({"kind": kind, "dims": [2, 2, 2]})


def test_region_json_voxels_sorted():
    v = build_voxel_region([(1, 0, 0), (0, 0, 0)])
    assert v.to_dict()["cells"] == [[0, 0, 0], [1, 0, 0]]


@pytest.mark.parametrize("build", [build_box, build_torus], ids=["box", "torus"])
def test_box_and_torus_past_the_cell_limit_are_refused(build):
    # a packed tiling keeps up to 2 n - 1 in a signed 4-byte lane, so 2^30
    # cells is the most; neither call builds a table
    r = build(2**10, 2**10, 2**10)
    assert r.n_cells == CELL_LIMIT == 2**30
    assert not built(r, "cells") and r._step_table is None
    with pytest.raises(RegionError) as exc:
        build(2**10, 2**10, 2**10 + 2)
    assert exc.value.condition == "dimension"
    assert str(exc.value) == "%s 1024 1024 1026 has %d cells, more than the limit of %d" % (
        r.kind, 2**20 * 1026, 2**30)


@pytest.mark.parametrize("build, sizes",
                         [(build_box, (2**31, 1, 1)), (build_torus, (2, 2, 2**31))],
                         ids=["box", "torus"])
def test_a_size_past_the_coordinate_range_is_past_the_cell_limit(build, sizes):
    # every other box size is at least 1 and every torus period at least 2,
    # so a size above 2^31 - 1 means more than 2^30 cells
    with pytest.raises(RegionError) as exc:
        build(*sizes)
    assert exc.value.condition == "dimension"
    n = sizes[0] * sizes[1] * sizes[2]
    assert str(exc.value) == "%s %d %d %d has %d cells, more than the limit of %d" % (
        build.__name__[len("build_"):], *sizes, n, CELL_LIMIT)


def test_region_from_dict_refuses_what_is_not_an_object():
    with pytest.raises(RegionError, match="region must be a JSON object"):
        region_from_dict("x")


def test_box_rejects_bool_dimension():
    with pytest.raises(RegionError) as exc:
        build_box(True, 2, 2)
    assert exc.value.condition == "dimension"


@pytest.mark.parametrize("bad", [0.7, 1.0, "x", True])
def test_voxel_rejects_non_integer_coordinates(bad):
    with pytest.raises(RegionError) as exc:
        build_voxel_region([(bad, 0, 0), (2, 0, 0)])
    assert exc.value.condition == "dimension"


def test_voxel_fractional_coordinates_are_not_truncated():
    with pytest.raises(RegionError) as exc:
        build_voxel_region([(0.7, 0, 0), (1.2, 0, 0)])
    assert exc.value.condition == "dimension"


@pytest.mark.parametrize("bad", [5, None, [5, 6], [(0, 0), (1, 0)]])
def test_voxel_rejects_malformed_cell_lists(bad):
    with pytest.raises(RegionError) as exc:
        build_voxel_region(bad)
    assert exc.value.condition == "dimension"


def test_voxel_accepts_numpy_integer_coordinates():
    np = pytest.importorskip("numpy")
    v = build_voxel_region([(np.int64(0), 0, 0), (np.int32(1), 0, 0)])
    assert v.cells == ((0, 0, 0), (1, 0, 0))
    assert all(type(c) is int for cell in v.cells for c in cell)


@pytest.mark.parametrize("build", [lambda: build_box(2, 2, 2), lambda: build_torus(2, 2, 4),
                                   corner_cut_cube], ids=["box", "torus", "voxels"])
@pytest.mark.parametrize("tables", [False, True], ids=["unbuilt", "built"])
def test_regions_and_their_tilings_pickle(build, tables):
    # a box or torus pickles as its sizes, whether its tables are built or not
    region = build()
    if tables:
        region.cells, region.step_table
    again = pickle.loads(pickle.dumps(region))
    assert again == region and hash(again) == hash(region)
    assert again.to_dict() == region.to_dict()
    assert built(again, "cells") == (region.kind == "voxels")
    assert again.cells == region.cells and again.step_table == region.step_table
    t = next(enumerate_tilings(region))
    copy = pickle.loads(pickle.dumps(t))
    assert copy == t and copy.hash64 == t.hash64 and list(copy.mate) == list(t.mate)
    assert type(copy.pairs) is Pairs and copy.pairs._mate is copy._mate


def test_manifold_block_verdict_matches_the_oracle_on_every_mask():
    for mask in range(256):
        pattern = {o for p, o in enumerate(CUBE_OFFSETS) if mask >> p & 1}
        assert _is_manifold_block(mask) == slow_link_is_disk(pattern), mask


def _random_voxel_sets(count: int, seed: int):
    """count seeded random subsets of the n^3 grid, n in 2..4, at a random
    density and shifted by a random offset, each with a random parity."""
    rng = random.Random(seed)
    while count:
        n, density = rng.choice((2, 3, 4)), rng.random()
        shift = [rng.randrange(-3, 4) for _ in range(3)]
        cells = [(x + shift[0], y + shift[1], z + shift[2])
                 for x in range(n) for y in range(n) for z in range(n) if rng.random() < density]
        if cells:
            count -= 1
            yield cells, rng.randrange(2)


def test_voxel_checks_and_cube_tables_match_the_scan_oracles():
    """On random voxel sets build_voxel_region refuses exactly what the
    edge and vertex scans of slow_manifold_violation refuse, with the same
    condition and message, or passes them on to the connectivity and
    balance checks; every accepted region's cube table is the coordinate
    oracle's."""
    outcomes = Counter()
    for cells, parity in _random_voxel_sets(600, seed=34):
        expected = slow_manifold_violation(cells)
        try:
            region = build_voxel_region(cells, parity)
        except RegionError as exc:
            outcomes[exc.condition] += 1
            if expected is None:
                assert exc.condition in ("connectivity", "balance"), cells
            else:
                assert (exc.condition, str(exc)) == expected, cells
            continue
        assert expected is None, cells
        outcomes["accepted"] += 1
        assert_same_cube_table(region, slow_cube_table(region))
    # every outcome is met, acceptance included
    assert set(outcomes) == {"non-manifold edge", "non-manifold vertex", "connectivity",
                             "balance", "accepted"}, outcomes
    assert outcomes["accepted"] >= 30, outcomes


def test_component_count_matches_the_bit_flip_oracle_on_every_octant_pattern():
    counts = []
    for mask in range(256):
        pattern = {o for i, o in enumerate(CUBE_OFFSETS) if mask >> i & 1}
        counts.append(_component_count(pattern))
        assert counts[-1] == slow_octant_components(pattern)
    # the empty pattern, and the four cells of one colour, apart
    assert counts[0] == 0 and max(counts) == 4
