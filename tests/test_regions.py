import pytest

from tritile import (
    BudgetExceeded, Region, RegionError, build_box, build_torus, build_voxel_region,
    refine_region, region_from_json,
)
from support import corner_cut_cube, raw_step_table, slow_neighbor_table


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
    assert not r.degenerate_adjacency
    for i in range(r.n_cells):
        assert len(r.neighbors(i)) == 6
    assert r.boundary_faces() == ()


def test_torus_222_degenerate_simple_graph():
    r = build_torus(2, 2, 2)
    assert r.n_cells == 8
    assert r.degenerate_adjacency
    # wrap in both directions reaches the same cell; one entry per axis
    for i in range(r.n_cells):
        assert len(r.neighbors(i)) == 3
        assert len({j for j, _d in r.neighbors(i)}) == 3


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
    # same adjacency structure cell for cell
    for i in range(8):
        assert sorted(j for j, _d in v.neighbors(i)) == \
            sorted(j for j, _d in b.neighbors(i))


def test_voxel_from_box_cells_isomorphic():
    b = build_box(3, 2, 2)
    v = build_voxel_region(b.cells)
    assert v.n_cells == b.n_cells
    for i in range(b.n_cells):
        assert sorted(j for j, _d in v.neighbors(i)) == \
            sorted(j for j, _d in b.neighbors(i))


def test_voxel_nonmanifold_edge_rejected():
    # two 2x2x2 cubes sharing exactly one edge (diagonal contact)
    cube1 = [(x, y, z) for x in range(2) for y in range(2) for z in range(2)]
    cube2 = [(x + 2, y + 2, z) for x in range(2) for y in range(2) for z in range(2)]
    with pytest.raises(RegionError) as exc:
        build_voxel_region(cube1 + cube2)
    assert exc.value.condition == "non-manifold edge"


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
        for i in range(r.n_cells):
            for j, _d in r.neighbors(i):
                assert i in {k for k, _e in r.neighbors(j)}
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
    r = refine_region(build_box(2, 2, 1), 1)
    assert r._step_table is None and r._neighbor_table is None
    table = r.neighbor_table
    assert len(table) == r.n_cells and r.neighbor_table is table
    assert r.step_table is r.step_table
    assert r.neighbors(0) == ((r.index[(1, 0, 0)], 0), (r.index[(0, 1, 0)], 2),
                              (r.index[(0, 0, 1)], 4))


@pytest.mark.parametrize("build, sizes", [
    (build_box, (1, 2, 3)), (build_box, (2, 2, 1)), (build_box, (3, 4, 5)),
    (build_torus, (2, 2, 2)), (build_torus, (2, 4, 6)), (build_torus, (4, 4, 4)),
    (build_torus, (6, 4, 2)),
])
def test_lattice_neighbor_table_matches_the_voxel_builder(build, sizes):
    # the step table by index arithmetic, before any cell table is built;
    # neighbor_table keeps the rows and order of the old voxel loop, with
    # period-2 axes listed once under +axis
    r = build(*sizes)
    steps = r.step_table
    assert not any(_built(r, name) for name in ("cells", "index", "colors"))
    assert steps == raw_step_table(r)
    assert r.neighbor_table == slow_neighbor_table(r)


@pytest.mark.parametrize("region", [
    corner_cut_cube(),
    build_voxel_region([(x, y, z) for x in range(4) for y in range(2) for z in range(2)]
                       + [(x, y, z) for x in range(2) for y in range(2, 6) for z in range(2)]),
], ids=["corner-cut-cube", "l-shape"])
def test_voxel_tables_match_the_oracles(region):
    assert region.step_table == raw_step_table(region)
    assert region.neighbor_table == slow_neighbor_table(region)


def test_boundary_faces_read_the_step_table():
    r = build_box(3, 2, 1)
    faces = r.boundary_faces()
    assert len(faces) == 2 * (3 * 2 + 3 * 1 + 2 * 1)
    assert faces[:3] == (((0, 0, 0), 1), ((0, 0, 0), 3), ((0, 0, 0), 4))
    assert all(r.step_table[r.index[c]][d] == -1 for c, d in faces)


def _built(r: Region, name: str) -> bool:
    # read the slot itself: plain attribute access would build the table
    try:
        object.__getattribute__(r, name)
    except AttributeError:
        return False
    return True


def test_box_and_torus_cell_tables_are_built_on_first_access():
    r = build_torus(2, 4, 6)
    assert r.n_cells == 48
    assert not any(_built(r, name) for name in ("cells", "index", "colors"))
    assert r.cells[17] == (0, 2, 5) and r.index[(0, 2, 5)] == 17
    assert r.colors[17] == -1
    assert all(_built(r, name) for name in ("cells", "index", "colors"))
    assert r.cells == tuple(sorted(r.cells))
    # a plain Region again: attribute reads skip the __getattr__ hook
    assert type(r) is Region


def test_region_equality_ignores_built_tables():
    a, b = build_box(2, 2, 2), build_box(2, 2, 2)
    assert a == b and hash(a) == hash(b)
    assert a.cells and _built(a, "cells") and not _built(b, "cells")
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
    assert not fine.degenerate_adjacency


def test_region_json_round_trip():
    for r in (build_box(3, 3, 2), build_torus(4, 4, 4),
              build_voxel_region([(0, 0, 0), (1, 0, 0)], parity=1)):
        assert region_from_json(r.to_json()) == r


def test_region_json_voxels_sorted():
    v = build_voxel_region([(1, 0, 0), (0, 0, 0)])
    assert v.to_dict()["cells"] == [[0, 0, 0], [1, 0, 0]]


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
