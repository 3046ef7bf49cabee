"""Command-line front end.

Grammar: tritile <enumerate|components|invariants|refine|sample|verify>
[region] [flags]. Reports are deterministic: the exact canonical command
and seed are embedded, keys are sorted, and no timestamps appear, so
re-running the embedded command reproduces the output byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Optional, Sequence

from . import __version__
from .regions import (
    _REGION_KEYS, Region, RegionError, _refuse_unknown_keys, build_box, build_torus,
    build_voxel_region,
)
from .tilings import (
    COMPONENTS_BUDGET, LISTING_BUDGET, BudgetExceeded, Tiling, count_tilings,
    deserialize_tiling, enumerate_tilings, refine_tiling, tiling_to_dict,
    _budgeted_count, _cell_pairs, _mates,
)
from .moves import _key_components
from .fluxtwist import flux, modulus, twist
from .harness import WalkConfig, random_walk, start_tiling, verify


def _parse_region(tokens: Sequence[str], parser: argparse.ArgumentParser) -> Region:
    kind = tokens[0]
    if kind == "box" or kind == "torus":
        if len(tokens) != 4:
            parser.error("invalid region spec at position %d: %s takes 3 sizes"
                         % (len(tokens), kind))
        sizes = []
        for i, tok in enumerate(tokens[1:], start=1):
            try:
                sizes.append(int(tok))
            except ValueError:
                parser.error("invalid region spec at position %d: %r is not an integer"
                             % (i, tok))
        build = build_box if kind == "box" else build_torus
        return build(*sizes)
    if kind == "voxels":
        if len(tokens) != 2:
            parser.error("invalid region spec at position %d: voxels takes a file"
                         % (len(tokens),))
        try:
            with open(tokens[1], "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            parser.error("invalid region file %s: %s" % (tokens[1], exc))
        if isinstance(data, dict):
            _refuse_unknown_keys(data, _REGION_KEYS["voxels"], "a voxel file")
            if data.get("kind", "voxels") != "voxels":
                raise RegionError("kind", "a voxel file has kind %r, not 'voxels'"
                                  % (data["kind"],))
            return build_voxel_region(data.get("cells"), data.get("parity", 0))
        return build_voxel_region(data)
    parser.error("invalid region spec at position 0: unknown kind %r" % (kind,))
    raise AssertionError("unreachable")


def _region_tokens(region: Region) -> str:
    if region.kind == "box":
        return "box %d %d %d" % region.dims
    if region.kind == "torus":
        return "torus %d %d %d" % region.periods
    return "voxels"


def _load_tiling(path: Optional[str], region: Region,
                 parser: argparse.ArgumentParser) -> Tiling:
    if path is None:
        return start_tiling(region)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return deserialize_tiling(fh.read(), region)
    except (OSError, ValueError) as exc:
        parser.error("invalid tiling file %s: %s" % (path, exc))
    raise AssertionError("unreachable")


def _report(command: str, seed: int, payload: dict) -> dict:
    return {
        "tool": "tritile",
        "version": __version__,
        "command": command,
        "seed": seed,
        "report": payload,
    }


def _emit(report: dict, rows: list[list], header: list[str], args,
          parser: argparse.ArgumentParser) -> None:
    if args.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for key in ("tool", "version", "command", "seed"):
            buf.write("# %s: %s\n" % (key, report[key]))
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        parser.error("cannot write %s: %s" % ("--out " + args.out if args.out else "stdout",
                                               exc.strerror or exc))


def _command(args, *parts: str) -> str:
    tail = " ".join(p for p in parts if p)
    return ("tritile %s --seed %d --format %s" % (tail, args.seed, args.format))


def main(argv: Optional[Sequence[str]] = None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", default=None)
    common.add_argument("--format", choices=("json", "csv"), default="json")

    parser = argparse.ArgumentParser(
        prog="tritile",
        description="domino tilings of boxes, tori, and voxel regions")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_enum = sub.add_parser("enumerate", parents=[common],
                            help="enumerate all tilings of a region")
    p_enum.add_argument("region", nargs="+")
    p_enum.add_argument("--count-only", action="store_true")

    p_comp = sub.add_parser("components", parents=[common],
                            help="connected components of the move graph")
    p_comp.add_argument("region", nargs="+")
    p_comp.add_argument("--moves", choices=("flip", "fliptrit"), default="fliptrit")

    p_inv = sub.add_parser("invariants", parents=[common],
                           help="flux, modulus, and twist of a tiling")
    p_inv.add_argument("region", nargs="+")
    p_inv.add_argument("--tiling", default=None, metavar="FILE")

    p_ref = sub.add_parser("refine", parents=[common],
                           help="refine a tiling 5x per axis, k times")
    p_ref.add_argument("region", nargs="+")
    p_ref.add_argument("--tiling", default=None, metavar="FILE")
    p_ref.add_argument("-k", type=int, default=1)

    p_sample = sub.add_parser("sample", parents=[common],
                              help="seeded random walk over the move graph")
    p_sample.add_argument("region", nargs="+")
    p_sample.add_argument("--moves", choices=("flip", "fliptrit"), default="fliptrit")
    p_sample.add_argument("--steps", type=int, default=100)

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run a verification suite")
    p_verify.add_argument("suite", choices=("counts", "euler", "twist",
                                            "refine", "heightfn", "all"))

    args = parser.parse_args(argv)
    try:
        return _run(args, parser)
    except RegionError as exc:
        parser.error("invalid region: %s" % exc)
    except BudgetExceeded as exc:
        parser.error(str(exc))
    raise AssertionError("unreachable")


def _run(args, parser: argparse.ArgumentParser) -> int:
    # Each command builds only its command-line tail, its payload and its
    # CSV rows and header; the report envelope is written once, at the end.
    region = None if args.cmd == "verify" else _parse_region(args.region, parser)
    tail = [] if region is None else [_region_tokens(region)]
    if args.cmd in ("components", "sample"):
        moveset = "flip" if args.moves == "flip" else "flip+trit"
        tail.append("--moves %s" % args.moves)
    if args.cmd in ("invariants", "refine"):
        if args.cmd == "refine" and args.k < 0:
            parser.error("refinement count must be nonnegative")
        t = _load_tiling(args.tiling, region, parser)
        tail.append("--tiling %s" % args.tiling if args.tiling else "")
    header = ["key", "value"]

    if args.cmd == "enumerate":
        if args.count_only:
            tail.append("--count-only")
            count = count_tilings(region)
            payload: dict = {"count": count}
            rows = [[count]]
            header = ["count"]
        else:
            _budgeted_count(region, LISTING_BUDGET, "listing")
            tilings = list(enumerate_tilings(region))
            payload = {"count": len(tilings), "tilings": [
                {"hash": "%016x" % t.hash64, "dimers": _cell_pairs(t)} for t in tilings]}
            rows = [[i, "%016x" % t.hash64] for i, t in enumerate(tilings)]
            header = ["index", "hash"]

    elif args.cmd == "components":
        if not _budgeted_count(region, COMPONENTS_BUDGET, "components"):
            parser.error("invalid region: %r has no tilings" % (region,))
        index, _component, _label, groups = _key_components(region, _mates(region), moveset)
        firsts = [Tiling._from_mate(region, g.first) for g in groups]
        comps = []
        for g, first in sorted(zip(groups, firsts), key=lambda gf: (-gf[0].size, gf[1].hash64)):
            entry: dict = {"size": g.size}
            if region.is_box:
                # flips keep the twist and a trit moves it by its sign, so
                # the labels offset the twist of the component's first tiling
                if not g.consistent:
                    raise RuntimeError("components: inconsistent trit labels on a box"
                                       " component of %d tilings" % g.size)
                base = twist(first, 2)
                entry["min_twist"] = base + g.low
                entry["max_twist"] = base + g.high
            else:
                entry["min_twist"] = None
                entry["max_twist"] = None
            comps.append(entry)
        payload = {"moves": moveset, "num_tilings": len(index), "components": comps}
        rows = [[i, c["size"], c["min_twist"], c["max_twist"]]
                for i, c in enumerate(comps)]
        header = ["component", "size", "min_twist", "max_twist"]

    elif args.cmd == "invariants":
        f = flux(t)
        payload = {
            "hash": "%016x" % t.hash64,
            "flux": list(f.components),
            "modulus": modulus(f),
            "twist": twist(t, 2) if region.is_box else None,
        }
        rows = [["flux", json.dumps(list(f.components))],
                ["modulus", payload["modulus"]],
                ["twist", payload["twist"]]]

    elif args.cmd == "refine":
        tail.append("-k %d" % args.k)
        refined = refine_tiling(t, args.k)
        payload = {"k": args.k, "refined": tiling_to_dict(refined)}
        rows = [["k", args.k], ["dimers", len(refined.pairs)]]

    elif args.cmd == "sample":
        if args.steps < 0:
            parser.error("steps must be nonnegative")
        tail.append("--steps %d" % args.steps)
        cfg = WalkConfig(region=region, moves=moveset, steps=args.steps,
                         seed=args.seed)
        payload = random_walk(cfg)
        payload["moves"] = moveset
        rows = [["steps_taken", payload["steps_taken"]],
                ["distinct_visited", payload["distinct_visited"]],
                ["frozen", payload["frozen"]]]
        rows.extend(["hist:%s" % k, v] for k, v in payload["histogram"].items())

    else:  # verify
        checks, passed = verify(args.suite, args.seed)
        tail.append(args.suite)
        payload = {"suite": args.suite, "passed": passed, "checks": checks}
        rows = [[c["id"], c["passed"], c.get("detail", "")] for c in checks]
        header = ["id", "passed", "detail"]

    if region is not None:
        payload["region"] = region.to_dict()
    report = _report(_command(args, args.cmd, *tail), args.seed, payload)
    _emit(report, rows, header, args, parser)
    return 1 if args.cmd == "verify" and not payload["passed"] else 0


if __name__ == "__main__":
    sys.exit(main())
