"""End-to-end checks of the command line tool and the verification harness.

The CLI is exercised through main() so argparse failures surface as
SystemExit and reports can be parsed straight from captured stdout.
"""
import hashlib
import json
import os
import re
import subprocess
import sys
import time

import pytest

from tritile import (
    RegionError, WalkConfig, mixed_torus_tiling, build_box, build_torus,
    build_voxel_region, enumerate_tilings, labelled_components, random_walk,
    serialize_tiling, tiling_from_dict, twist, verify,
)
import tritile
from tritile import tilings
from tritile.cli import main
from tritile.harness import SUITES, start_tiling, walk_states
from support import always_positive_trits, bfs_trit_labeling, move_graph


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == 0
    return json.loads(out)


def test_enumerate_count_only(capsys):
    doc = run_json(capsys, "enumerate", "box", "3", "3", "2", "--count-only")
    assert doc["tool"] == "tritile"
    assert doc["seed"] == 0
    assert doc["command"] == \
        "tritile enumerate box 3 3 2 --count-only --seed 0 --format json"
    assert doc["report"]["count"] == 229
    assert "tilings" not in doc["report"]


def test_enumerate_full_dump(capsys):
    doc = run_json(capsys, "enumerate", "box", "2", "2", "2")
    assert doc["report"]["count"] == 9
    entries = doc["report"]["tilings"]
    assert len(entries) == 9
    assert entries[0]["hash"] == "eb45babcd8ff1ea9"
    assert all(len(e["dimers"]) == 4 for e in entries)
    assert len({e["hash"] for e in entries}) == 9


def test_enumerate_rejects_all_odd_box(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "box", "3", "3", "3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid region" in err
    assert "all box dimensions are odd" in err


def test_enumerate_csv_golden(capsys):
    code, out = run(capsys, "enumerate", "box", "2", "2", "1", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# tool: tritile"
    assert lines[1].startswith("# version: ")
    assert lines[2] == "# command: tritile enumerate box 2 2 1 --seed 0 --format csv"
    assert lines[3] == "# seed: 0"
    assert lines[4] == "index,hash"
    assert lines[5] == "0,ca35bfd562545449"
    assert lines[6] == "1,b882315999e61bbe"


def test_enumerate_voxel_file(capsys, tmp_path):
    spec = tmp_path / "cube.json"
    cells = [[x, y, z] for x in range(2) for y in range(2) for z in range(2)]
    spec.write_text(json.dumps({"kind": "voxels", "cells": cells, "parity": 0}))
    doc = run_json(capsys, "enumerate", "voxels", str(spec), "--count-only")
    assert doc["report"]["count"] == 9
    assert doc["report"]["region"]["kind"] == "voxels"


@pytest.mark.parametrize("content", [
    None, "{not json", '{"cells": 5}', '{"cells": "x"}',
    '{"cells": [[0.7, 0, 0], [1.2, 0, 0]]}',
])
def test_enumerate_bad_voxel_file_is_a_usage_error(capsys, tmp_path, content):
    spec = tmp_path / "region.json"
    if content is not None:
        spec.write_text(content)
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "voxels", str(spec)])
    assert exc.value.code == 2
    assert "invalid region" in capsys.readouterr().err


def test_components_flip_only(capsys):
    doc = run_json(capsys, "components", "box", "3", "3", "2",
                   "--moves", "flip")
    comps = doc["report"]["components"]
    assert [c["size"] for c in comps] == [227, 1, 1]
    assert [(c["min_twist"], c["max_twist"]) for c in comps] == \
        [(0, 0), (-1, -1), (1, 1)]
    assert doc["report"]["num_tilings"] == 229


def test_components_with_trits(capsys):
    doc = run_json(capsys, "components", "box", "2", "2", "1")
    assert [c["size"] for c in doc["report"]["components"]] == [2]
    assert doc["report"]["moves"] == "flip+trit"


def test_invariants_torus_base(capsys):
    doc = run_json(capsys, "invariants", "torus", "2", "2", "4")
    rep = doc["report"]
    assert rep["flux"] == [0, 0, 0]
    assert rep["modulus"] == 0
    assert rep["twist"] is None


def test_invariants_from_tiling_file(capsys, tmp_path):
    path = tmp_path / "winding.json"
    path.write_text(serialize_tiling(mixed_torus_tiling()))
    doc = run_json(capsys, "invariants", "torus", "4", "4", "4",
                   "--tiling", str(path))
    rep = doc["report"]
    assert rep["flux"] == [-8, 0, 0]
    assert rep["modulus"] == 16
    assert rep["twist"] is None
    assert rep["hash"] == "b4a3cef103d33aa9"


def test_invariants_box_twist(capsys):
    doc = run_json(capsys, "invariants", "box", "3", "3", "2")
    assert doc["report"]["flux"] == []
    assert doc["report"]["modulus"] == 0
    assert doc["report"]["twist"] == 0


def test_invariants_rejects_bad_tiling_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(SystemExit) as exc:
        main(["invariants", "box", "2", "2", "2", "--tiling", str(path)])
    assert exc.value.code == 2
    assert "invalid tiling file" in capsys.readouterr().err


@pytest.mark.parametrize("region, content", [
    ("box", None),
    ("box", '{"region": {"kind": "box"}, "dimers": []}'),
    ("box", '{"region": {"kind": "torus", "periods": 4}, "dimers": []}'),
    ("box", '{"region": {"kind": "box", "dims": [2, 2, 1]}}'),
    ("box", '[]'),
    ("box", '{"dimers": [5]}'),
    ("box", '{"dimers": [[5, 6]]}'),
    ("torus", '{"dimers": [[[0, 0], [1, 0]]]}'),
    ("box", '{"dimers": [[[0.6, 0, 0], [1.4, 0, 0]], [[0, 1, 0], [1, 1, 0]]]}'),
])
def test_invariants_bad_tiling_file_is_a_usage_error(capsys, tmp_path, region, content):
    path = tmp_path / "tiling.json"
    if content is not None:
        path.write_text(content)
    sizes = ["2", "2", "1"] if region == "box" else ["2", "2", "2"]
    with pytest.raises(SystemExit) as exc:
        main(["invariants", region] + sizes + ["--tiling", str(path)])
    assert exc.value.code == 2
    assert "invalid tiling file" in capsys.readouterr().err


def test_enumerate_count_only_stops_at_the_state_budget(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "box", "6", "6", "6", "--count-only"])
    assert exc.value.code == 2
    assert "more than 1048576 frontier states" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["enumerate", "box", "1000", "1000", "2", "--count-only"],
    ["enumerate", "torus", "1000", "1000", "2", "--count-only"],
    ["components", "box", "1000", "1000", "2"],
])
def test_a_wide_slice_stops_at_the_state_budget_at_once(capsys, monkeypatch, argv):
    def no_sweep(region):  # a sweep of 2 million cells would take about 2 GB
        raise AssertionError("the sweep started on %r" % (region,))
    monkeypatch.setattr(tilings, "_sweep_order", no_sweep)
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert time.perf_counter() - start < 1
    assert exc.value.code == 2
    assert "1000x1000x2) needs more than 1048576 frontier states" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["enumerate"])
def test_listing_commands_stop_at_the_tiling_budget(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "box", "2", "4", "5"])
    assert exc.value.code == 2
    assert ("has 535229 tilings, more than the listing budget of 100000"
            in capsys.readouterr().err)


def test_a_full_listing_stops_where_components_go_on(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "box", "3", "4", "3"])
    assert exc.value.code == 2
    assert ("has 117805 tilings, more than the listing budget of 100000"
            in capsys.readouterr().err)
    doc = run_json(capsys, "components", "box", "3", "4", "3", "--moves", "flip")
    comps = doc["report"]["components"]
    assert doc["report"]["num_tilings"] == 117805
    assert [c["size"] for c in comps] == [109781, 4011, 4011, 1, 1]
    assert [(c["min_twist"], c["max_twist"]) for c in comps] == [
        (0, 0), (-1, -1), (1, 1), (-2, -2), (2, 2)]


def test_components_stop_at_the_components_budget(capsys):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["components", "box", "4", "4", "4"])
    assert time.perf_counter() - start < 1
    assert exc.value.code == 2
    assert ("has 5051532105 tilings, more than the components budget of 1000000"
            in capsys.readouterr().err)


def test_refine_round_trip(capsys):
    doc = run_json(capsys, "refine", "box", "3", "3", "2", "-k", "1")
    rep = doc["report"]
    assert sorted(rep) == ["k", "refined", "region"]
    assert rep["k"] == 1
    refined = tiling_from_dict(rep["refined"])
    assert refined.region.dims == (15, 15, 10)
    assert twist(refined, 2) == 0


def test_voxel_file_parity_must_be_an_integer(capsys, tmp_path):
    spec = tmp_path / "pair.json"
    spec.write_text(json.dumps({"cells": [[0, 0, 0], [1, 0, 0]], "parity": True}))
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "voxels", str(spec)])
    assert exc.value.code == 2
    assert "invalid region" in capsys.readouterr().err


def test_sample_rejects_negative_steps(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sample", "box", "2", "2", "2", "--steps", "-3"])
    assert exc.value.code == 2
    assert "steps must be nonnegative" in capsys.readouterr().err


def test_random_walk_rejects_negative_steps():
    with pytest.raises(ValueError, match="nonnegative"):
        random_walk(WalkConfig(region=build_box(2, 2, 2), steps=-3))


@pytest.mark.parametrize("steps", [2.5, True, -3])
def test_walks_refuse_a_step_count_that_is_not_a_nonnegative_int(steps):
    # unchecked, 2.5 raises TypeError mid-walk, True walks one step, and
    # walk_states returns [] for -3
    region = build_box(3, 3, 2)
    message = re.escape("steps must be a nonnegative int, not %r" % (steps,))
    with pytest.raises(ValueError, match=message):
        random_walk(WalkConfig(region=region, steps=steps))
    with pytest.raises(ValueError, match=message):
        walk_states(region, "flip", steps, 0)


def test_refine_rejects_negative_k(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["refine", "box", "2", "2", "2", "-k", "-1"])
    assert exc.value.code == 2
    assert "nonnegative" in capsys.readouterr().err


def test_refine_stops_at_the_cell_budget(capsys):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["refine", "box", "2", "2", "2", "-k", "3"])
    assert exc.value.code == 2
    assert time.perf_counter() - start < 2.0
    assert ("needs 8 x 125^3 cells, more than the refinement budget of 1000000"
            in capsys.readouterr().err)


# balanced and face-connected, yet without a single tiling
UNTILEABLE_CELLS = [[0, 0, 1], [0, 1, 0], [0, 1, 1], [0, 2, 1], [1, 1, 0],
                    [1, 1, 1], [2, 0, 0], [2, 1, 0], [2, 1, 1], [2, 2, 0]]


def test_start_tiling_refuses_an_untileable_region():
    with pytest.raises(RegionError, match="has no tilings") as exc:
        start_tiling(build_voxel_region(UNTILEABLE_CELLS))
    assert exc.value.condition == "tileable"


@pytest.mark.parametrize("command", ["invariants", "refine", "sample", "components"])
def test_untileable_region_is_a_usage_error(capsys, tmp_path, command):
    spec = tmp_path / "untileable.json"
    spec.write_text(json.dumps({"cells": UNTILEABLE_CELLS}))
    with pytest.raises(SystemExit) as exc:
        main([command, "voxels", str(spec)])
    assert exc.value.code == 2
    assert "has no tilings" in capsys.readouterr().err


# one region of each shape: a box, a period-2 torus, a contractible voxel
# region, a solid torus (the 4x4x2 box minus its central 2x2 column) and a
# 4x3x3 box with a sealed 2-cell cavity
REGION_SHAPES = {
    "box": ["box", "2", "2", "2"],
    "torus": ["torus", "2", "2", "2"],
    "contractible": [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [2, 0, 0], [3, 0, 0]],
    "ring": [[x, y, z] for x in range(4) for y in range(4) for z in range(2)
             if not (x in (1, 2) and y in (1, 2))],
    "cavity": [[x, y, z] for x in range(4) for y in range(3) for z in range(3)
               if [x, y, z] not in ([1, 1, 1], [2, 1, 1])],
}


# enumerate counts only: listing the cavity's 14,036 tilings writes a 45 MB
# report, and components lists them all anyway
@pytest.mark.parametrize("command", [["enumerate", "--count-only"], ["components"],
                                     ["invariants"], ["refine"], ["sample"]],
                         ids=lambda c: c[0])
@pytest.mark.parametrize("shape", list(REGION_SHAPES))
def test_every_command_runs_on_every_region_shape(capsys, tmp_path, shape, command):
    region = REGION_SHAPES[shape]
    if not isinstance(region[0], str):
        spec = tmp_path / "region.json"
        spec.write_text(json.dumps(region))
        region = ["voxels", str(spec)]
    # flux, and so invariants, is defined on boxes and tori only
    unsupported = command[0] == "invariants" and region[0] == "voxels"
    if unsupported:
        with pytest.raises(SystemExit) as exc:
            main(command[:1] + region + command[1:])
        assert exc.value.code == 2
        assert "invalid region: flux unsupported" in capsys.readouterr().err
    else:
        assert main(command[:1] + region + command[1:]) == 0


def test_sample_walk_report(capsys):
    doc = run_json(capsys, "sample", "box", "2", "2", "1",
                   "--steps", "100", "--seed", "7")
    rep = doc["report"]
    assert rep["steps_taken"] == 100
    assert rep["distinct_visited"] == 2
    assert rep["frozen"] is False
    assert rep["histogram"] == {"0": 101}
    assert doc["seed"] == 7


_L_SHAPE = ([[x, y, z] for x in range(4) for y in range(2) for z in range(2)]
            + [[x, y, z] for x in range(2) for y in range(2, 6) for z in range(2)])


# sha256 of the JSON report of each seeded walk. The torus 2 4 6 walk meets
# cubes named by two anchors along its period-2 axis.
@pytest.mark.parametrize("argv, digest", [
    (["box", "4", "4", "4", "--steps", "300", "--seed", "1"],
     "c94ed4a1d31ffd9ae6b738076b37b7fa0c338ffec2bdad25831c29e7c63fa98f"),
    (["torus", "2", "4", "6", "--steps", "300", "--seed", "4"],
     "6b616adaa21e5f172e1bc266a135e336382d950ff7be0d97ff504a65f404cce6"),
    (["torus", "2", "2", "4", "--steps", "200"],
     "47b97785494abd78a781d30da965dbe5c8145d908c5794086f201c75b3828db4"),
    (["box", "5", "6", "4", "--moves", "flip", "--steps", "200", "--seed", "7"],
     "9a59dcbc73a65a72da9e99d62abecdc4520e40963362c4599ceeb9b2202b5a73"),
    (["voxels", "L_SHAPE", "--steps", "300", "--seed", "3"],
     "4901b5adb8b917138c440cdd7b5c201a286df639c414fc7d6fb7e1fea939722c"),
])
def test_sample_report_bytes_are_pinned(capsys, tmp_path, argv, digest):
    spec = tmp_path / "l_shape.json"
    spec.write_text(json.dumps({"cells": _L_SHAPE}))
    argv = [str(spec) if a == "L_SHAPE" else a for a in argv]
    code, out = run(capsys, "sample", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# sha256 of refine reports, pinned when refinement of boxes and tori moved
# to index arithmetic
@pytest.mark.parametrize("argv, digest", [
    (["box", "3", "3", "2", "-k", "1"],
     "01b59b8936a217ba6d618da7be6894d92c609cbc47f67bf0dc053d2ab050e949"),
    (["box", "3", "3", "2", "-k", "1", "--format", "csv"],
     "32f03c92c227e9bcb9f72bf5a5706c0e560647cd2b52a7921dce05cfcd3da261"),
    (["torus", "2", "2", "4", "-k", "1"],
     "70a7e0067287e34ff5d3a3397208527bf3f3bb76d7ded560d0151ff2993fcb89"),
    (["torus", "2", "2", "4", "-k", "1", "--format", "csv"],
     "ec541fb221cb19c75019f1f7ae524cee678c78e0239b0874228287526801688d"),
])
def test_refine_report_bytes_are_pinned(capsys, argv, digest):
    code, out = run(capsys, "refine", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_reports_are_deterministic(capsys):
    first = run(capsys, "sample", "torus", "2", "2", "4", "--steps", "50")
    second = run(capsys, "sample", "torus", "2", "2", "4", "--steps", "50")
    assert first == second


def test_out_file_has_unix_newlines(capsys, tmp_path):
    path = tmp_path / "report.csv"
    code, out = run(capsys, "enumerate", "box", "2", "2", "1",
                    "--format", "csv", "--out", str(path))
    assert code == 0
    assert out == ""
    raw = path.read_bytes()
    assert b"\r" not in raw
    raw.decode("utf-8")


@pytest.mark.parametrize("target", ["dir", "missing/dir/r.json"])
def test_out_to_an_unwritable_path_is_a_usage_error(capsys, tmp_path, target):
    path = tmp_path / target
    if target == "dir":
        path.mkdir()
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "box", "2", "2", "1", "--out", str(path)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot write --out %s" % path in captured.err


_SMALL_L = ([[x, y, z] for x in range(3) for y in range(2) for z in range(2)]
            + [[x, y, z] for x in range(2) for y in range(2, 4) for z in range(2)])


# sha256 of reports whose bytes follow the enumeration order or the walk's
# move order, both read off the region's step table; recorded before the
# step table replaced the separate neighbour and step builders.
@pytest.mark.parametrize("argv, digest", [
    (["verify", "all", "--seed", "0"],
     "09c01369fbb67bbc6e0a342aa1e9e60ce3d895b325e79aa51e6450d0c2e2864a"),
    (["verify", "all", "--seed", "3"],
     "cd5a163bffc6ebe825a1f4786b1ded59018a8e6247c597d0f671543280832c4a"),
    (["components", "box", "3", "4", "2", "--moves", "flip"],
     "28d79bb15eb8e993be41548a1e3e3f2570e8ed5bc28b1953ac6eeff4e8d33eb5"),
    (["components", "box", "3", "4", "2", "--moves", "fliptrit"],
     "ab826dbb47f1627ecc027c37bffdc7e3dc3f0e54ce11c81f7216ab8e6c8e5728"),
    (["enumerate", "box", "2", "2", "2"],
     "e46e79663764cf42e2b6475fb1691ed210b5e33c919557b5c1a1dd2dba3e902f"),
    (["enumerate", "voxels", "SMALL_L"],
     "d01868ee9c4478b32fbf868e3ae1ce28f80910f1c903eb1c4a93a2c3e47336c8"),
    (["sample", "voxels", "SMALL_L", "--steps", "200", "--seed", "2"],
     "0551c1cf69f4f4aadd76761aca4d4e873b954656b453675b6a49ac8e323564f2"),
    (["sample", "voxels", "SMALL_L", "--moves", "flip", "--steps", "200", "--seed", "2"],
     "43d681b5c7b446ace52a467eea508dd420b55fcc315f484ca58ddc4157704598"),
    # recorded while components still built the move graph and took a
    # twist per tiling
    (["components", "torus", "2", "2", "4", "--moves", "flip"],
     "13ac0eb9e32e0b1499e20e74821d334ef4d3d29023c3efc34e65dbd1b4b3247a"),
    (["components", "torus", "2", "2", "4", "--moves", "fliptrit"],
     "534bc994722bc8235815eb77de2f0e5ba9f362343ef8fe7e706dd9c3200d8c84"),
    (["components", "voxels", "SMALL_L", "--moves", "flip"],
     "cae1d20b4163feba40a9a02a69ad03714691adf0c9a90b6f0270561e84093801"),
    (["components", "voxels", "SMALL_L", "--moves", "fliptrit"],
     "6f5004f0376ffcde72646c7a79edf5b72b2576073f5038202516ae0e81681439"),
    (["components", "box", "1", "2", "4", "--format", "csv"],
     "0cfb6635c5403217e0ad97fd192cc9366eed8be50c16c9e3a10564a4b3d974b8"),
    # four components of 128 tilings, ordered by the hash tie-break alone
    (["components", "box", "2", "4", "4", "--moves", "flip"],
     "a1596a8a8865324032018f0b8061c656cef52382a2972aff76636156e252d177"),
    # tori with period-2 y and z, and x and z, axes (torus 2 2 4 above has
    # x and y), where aliased flip partners and aliased cubes are dropped
    (["components", "torus", "4", "2", "2", "--moves", "fliptrit"],
     "262a5f2aca84af33fee016680cc50a68f5827a526710f1a54316cc06302c167b"),
    (["components", "torus", "2", "4", "2", "--moves", "fliptrit"],
     "1dd40d4ed9c22fb7a04c53a7c84c4ec199015391b71bbc552ac88682a7eb25b1"),
    (["components", "box", "2", "4", "4", "--moves", "fliptrit"],
     "c361dd5edc2b0cedb1c23d74af9ba3e724822face7c433f10e7c102c0979743f"),
    # seeded walks under both move sets, recorded before the trio table
    # and the one WalkState index; the tori have period-2 axes, where
    # aliased flip partners and aliased cubes are dropped
    (["sample", "box", "4", "4", "4", "--moves", "flip", "--seed", "1"],
     "ec7be1695dc9bbf6f479142af3b808598e7280d73b6c79a0988c4ef54666a6b0"),
    (["sample", "box", "4", "4", "4", "--moves", "fliptrit", "--seed", "1"],
     "73669253e3db976e6f9cb61309b025cafb0222df52303ae8558619e042990935"),
    (["sample", "torus", "2", "4", "6", "--moves", "flip", "--seed", "1"],
     "44d6a69c1d941eddad23c3585ea8f13bca1fae8e10ddebff892410d4ca61929a"),
    (["sample", "torus", "2", "4", "6", "--moves", "fliptrit", "--seed", "1"],
     "f38ae6e53100057d912ee77040f6ee9d5c5760c1ad8109f42364d141b3ddd3bd"),
    (["sample", "torus", "2", "2", "6", "--moves", "flip", "--seed", "1"],
     "9063d6de1a578d896eea644eb6331c61972853557e6532075eb3f0569970c742"),
    (["sample", "torus", "2", "2", "6", "--moves", "fliptrit", "--seed", "1"],
     "2db65065385711580de83a05f3a1ef353eff13238af6a258bca1e4de61d00cdd"),
    # the command and format pairs not pinned above, recorded before the
    # report envelope was written once for every command; mixed.json holds
    # mixed_torus_tiling()
    (["invariants", "box", "3", "3", "2"],
     "4fab96e691e4603638d0e8c4ea9885110ccf27f8ef2a9fc30482d2f505736ba5"),
    (["invariants", "box", "3", "3", "2", "--format", "csv"],
     "6f9f715949a4013c130617eca5b5230d534250fd358fdc720039d00bd9ac4233"),
    (["invariants", "torus", "4", "4", "4", "--tiling", "mixed.json"],
     "346bfa191eb0ff56b4dadc0515d046401479980bbc36750ca8a9f8f4809e0084"),
    (["invariants", "torus", "4", "4", "4", "--tiling", "mixed.json", "--format", "csv"],
     "9773a6a4c7e2306e8bc8cd4efe67f77a338da2c4f6e054030ae506dbbe18cbfc"),
    (["sample", "box", "3", "3", "2", "--format", "csv"],
     "f23d3ab12057ae61765967ec704e58878646bcd2452fdc2a36fd2ae33c6bfff9"),
    (["verify", "counts", "--format", "csv"],
     "ec9d6ea0b4908cf42aa7a9da75bfcfc6aa46e0db9fa0b50353b2bb4dbdabdd0a"),
    (["enumerate", "box", "3", "3", "2", "--count-only", "--format", "csv"],
     "c2a7c1a182c6f1b64b445b1fcb8eb82a6eba4bb3cb397cb0833783ac4ff98f02"),
])
def test_report_bytes_are_pinned(capsys, tmp_path, monkeypatch, argv, digest):
    spec = tmp_path / "small_l.json"
    spec.write_text(json.dumps({"cells": _SMALL_L}))
    # a tiling file's name is part of the embedded command, so it is named
    # relative to the working directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mixed.json").write_text(serialize_tiling(mixed_torus_tiling()))
    argv = [str(spec) if a == "SMALL_L" else a for a in argv]
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_out_file_bytes_equal_the_stdout_bytes(capsys, tmp_path):
    argv = ["invariants", "box", "3", "3", "2", "--format", "csv"]
    path = tmp_path / "report.csv"
    code, out = run(capsys, *argv, "--out", str(path))
    assert (code, out) == (0, "")
    code, out = run(capsys, *argv)
    assert code == 0
    assert path.read_bytes() == out.encode("utf-8")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "6f9f715949a4013c130617eca5b5230d534250fd358fdc720039d00bd9ac4233"


def test_inconsistent_trit_labels_are_flagged(monkeypatch):
    always_positive_trits(monkeypatch)
    tilings = list(enumerate_tilings(build_box(3, 3, 2)))
    comps = labelled_components(tilings, "flip+trit")
    labels, consistent = bfs_trit_labeling(move_graph(tilings, "flip+trit"), tilings[0])
    assert [c.consistent for c in comps] == [consistent] == [False]


def test_components_refuses_inconsistent_labels_on_a_box(monkeypatch, capsys):
    always_positive_trits(monkeypatch)
    with pytest.raises(RuntimeError, match="inconsistent trit labels"):
        main(["components", "box", "3", "3", "2"])
    assert capsys.readouterr().out == ""


def test_components_refuses_inconsistent_labels_with_asserts_stripped():
    src = os.path.dirname(os.path.dirname(tritile.__file__))
    code = ("from tritile import moves; from tritile.cli import main; "
            "moves._TRIOS = tuple((removed, inserted, 1) "
            "for removed, inserted, _sign in moves._TRIOS); "
            "main(['components', 'box', '3', '3', '2'])")
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "RuntimeError: components: inconsistent trit labels" in proc.stderr


def test_verify_counts_cli(capsys):
    doc = run_json(capsys, "verify", "counts")
    rep = doc["report"]
    assert rep["suite"] == "counts"
    assert rep["passed"] is True
    ids = [c["id"] for c in rep["checks"]]
    assert "counts/box332" in ids
    assert "flux/mixed" in ids
    assert all(c["passed"] for c in rep["checks"])


def test_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bogus"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_euler_suite_check_shape():
    checks, passed = verify("euler")
    assert passed
    assert len(checks) == 303
    ids = [c["id"] for c in checks]
    assert sum(i.startswith("euler/identity/") for i in ids) == 3
    assert sum(i.startswith("euler/phi/") for i in ids) == 300


def test_twist_suite_passes():
    checks, passed = verify("twist")
    assert passed
    assert {c["id"] for c in checks} == {
        "twist/flip-edges", "twist/trit-edges", "twist/axis-independence",
        "twist/labels-consistent", "twist/labels-match",
    }


def test_heightfn_suite_passes():
    checks, passed = verify("heightfn")
    assert passed
    assert {c["id"] for c in checks} == {
        "heightfn/class-count", "heightfn/tiling-count", "heightfn/stable",
        "heightfn/conditions", "heightfn/flip-connect",
    }


def test_refine_suite_passes():
    checks, passed = verify("refine")
    assert passed
    assert all(c["passed"] for c in checks)


def test_verify_all_composes_every_suite():
    checks, passed = verify("all")
    assert passed
    total = sum(len(SUITES[name](0)) for name in SUITES)
    assert len(checks) == total
    assert [c["id"] for c in checks] == sorted(c["id"] for c in checks)


def test_verify_unknown_suite_raises():
    with pytest.raises(ValueError, match="unknown suite"):
        verify("nope")


def test_sample_starts_on_boxes_odd_along_x(capsys):
    # the walk must start from a base tiling along some even axis
    doc = run_json(capsys, "sample", "box", "3", "3", "2", "--steps", "10")
    assert doc["report"]["steps_taken"] == 10


def test_long_walk_covers_every_tiling():
    cfg = WalkConfig(region=build_box(3, 3, 2), steps=4000, seed=0)
    out = random_walk(cfg)
    assert out["distinct_visited"] == 229
    assert not out["frozen"]


def test_random_walk_is_reproducible():
    cfg = WalkConfig(region=build_torus(2, 2, 4), steps=40, seed=3)
    assert random_walk(cfg) == random_walk(cfg)
    hist = random_walk(cfg)["histogram"]
    assert sum(hist.values()) == 41


def test_random_walk_flip_only_box():
    cfg = WalkConfig(region=build_box(2, 2, 2), moves="flip", steps=30, seed=1)
    out = random_walk(cfg)
    assert out["steps_taken"] == 30
    assert not out["frozen"]
    assert set(out["histogram"]) == {"0"}
    assert len(out["visited_hashes"]) == out["distinct_visited"]


DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


@pytest.mark.parametrize("demo", sorted(f for f in os.listdir(DEMOS) if f.endswith(".py")))
def test_demo_runs(demo):
    src = os.path.dirname(os.path.dirname(tritile.__file__))
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, demo)],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr


def test_import_does_not_load_numpy():
    src = os.path.dirname(os.path.dirname(tritile.__file__))
    code = ("import sys, tritile, tritile.cli; "
            "print(any(m.startswith('numpy') for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True).stdout
    assert out.strip() == "False"
