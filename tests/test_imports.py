"""Every module-level import of the package is read by its own module, the
package exports exactly what its __init__ imports, importing it loads none
of the costly standard modules, and its records are named tuples."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tritile
from tritile import (
    Square, WalkConfig, base_tiling, build_box, diff_cycles, enumerate_tilings,
    find_flips, find_trits,
)
from tritile.harness import _Box332

SRC = Path(__file__).resolve().parent.parent / "src" / "tritile"


def _imported_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_module_level_imports_are_referenced(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    referenced = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for name in _imported_names(tree) if name not in referenced] == []


def test_package_exports_exactly_what_it_imports():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    assert sorted(tritile.__all__) == sorted([*_imported_names(tree), "__version__"])


def test_importing_the_cli_loads_no_costly_standard_module():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = ("import sys, tritile, tritile.cli; "
            "print(*sorted({'dataclasses', 'inspect', 'fractions'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == ""


def _records():
    t = base_tiling(build_box(2, 2, 1), 0)
    trit_tiling = next(u for u in enumerate_tilings(build_box(3, 3, 2)) if find_trits(u))
    return {
        "Dimer": (t.dimers[0],
                  "Dimer(white=(0, 1, 0), black=(1, 1, 0), direction=(1, 0, 0))"),
        "Cycle": (diff_cycles(t, t).cycles[0],
                  "Cycle(cells=((0, 0, 0), (1, 0, 0)), steps=((1, 0, 0), (-1, 0, 0)),"
                  " sources=(0, 1))"),
        "FlipMove": (find_flips(t)[0],
                     "FlipMove(removed=(Dimer(white=(0, 1, 0), black=(1, 1, 0),"
                     " direction=(1, 0, 0)), Dimer(white=(1, 0, 0), black=(0, 0, 0),"
                     " direction=(-1, 0, 0))), inserted=(Dimer(white=(0, 1, 0),"
                     " black=(0, 0, 0), direction=(0, -1, 0)), Dimer(white=(1, 0, 0),"
                     " black=(1, 1, 0), direction=(0, 1, 0))))"),
        "TritMove": (find_trits(trit_tiling)[0],
                     "TritMove(removed=(Dimer(white=(0, 1, 0), black=(1, 1, 0),"
                     " direction=(1, 0, 0)), Dimer(white=(1, 1, 1), black=(1, 2, 1),"
                     " direction=(0, 1, 0)), Dimer(white=(0, 2, 1), black=(0, 2, 0),"
                     " direction=(0, 0, -1))), inserted=(Dimer(white=(0, 2, 1),"
                     " black=(1, 2, 1), direction=(1, 0, 0)), Dimer(white=(0, 1, 0),"
                     " black=(0, 2, 0), direction=(0, 1, 0)), Dimer(white=(1, 1, 1),"
                     " black=(1, 1, 0), direction=(0, 0, -1))), anchor=(0, 1, 0), sign=1)"),
        "Square": (Square((1, 1, 0), 2, 1), "Square(center2=(1, 1, 0), axis=2, orientation=1)"),
        "WalkConfig": (WalkConfig(build_box(2, 2, 2)),
                       "WalkConfig(region=Region(box 2x2x2), moves='flip+trit', steps=100,"
                       " seed=0)"),
        "_Box332": (_Box332(build_box(3, 3, 2), (), [], [], {}),
                    "_Box332(region=Region(box 3x3x2), tilings=(), flip=[], both=[],"
                    " twists={})"),
    }


@pytest.mark.parametrize("name", sorted(_records()))
def test_records_are_frozen_named_tuples(name):
    record, text = _records()[name]
    assert repr(record) == text
    assert record == tuple(record)
    if name == "_Box332":
        with pytest.raises(TypeError):  # it holds lists and a dict
            hash(record)
    else:
        assert hash(record) == hash(tuple(record))
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("name", ["FlipMove", "TritMove"])
def test_moves_reverse_and_round_trip(name):
    m, _text = _records()[name]
    back = m.reversed()
    assert type(back) is type(m)
    assert (back.removed, back.inserted) == (m.inserted, m.removed)
    assert back.reversed() == m
    if name == "TritMove":
        assert back.sign == -m.sign and back.anchor == m.anchor
