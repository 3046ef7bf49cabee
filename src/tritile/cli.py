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
from .regions import Region, RegionError, build_box, build_torus, build_voxel_region
from .tilings import (
    COMPONENTS_BUDGET, LISTING_BUDGET, BudgetExceeded, Tiling, count_tilings,
    deserialize_tiling, enumerate_tilings, refine_tiling, tiling_to_dict,
    _budgeted_count, _mates,
)
from .moves import _key_components
from .fluxtwist import flux, modulus, twist
from .harness import WalkConfig, random_walk, start_tiling, verify


def _parse_region(tokens: Sequence[str], parser: argparse.ArgumentParser) -> Region:
    if not tokens:
        parser.error("invalid region spec at position 0: missing region kind")
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
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            parser.error("cannot write --out %s: %s" % (args.out, exc.strerror or exc))
    else:
        sys.stdout.write(text)


def _command(args, *parts: str) -> str:
    tail = " ".join(str(p) for p in parts if p != "")
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
    if args.cmd == "enumerate":
        region = _parse_region(args.region, parser)
        flag = "--count-only" if args.count_only else ""
        if args.count_only:
            count = count_tilings(region)
            payload: dict = {"region": region.to_dict(), "count": count}
            rows = [[count]]
            header = ["count"]
        else:
            _budgeted_count(region, LISTING_BUDGET, "listing")
            tilings = list(enumerate_tilings(region))
            payload = {"region": region.to_dict(), "count": len(tilings)}
            payload["tilings"] = [
                {"hash": "%016x" % t.hash64,
                 "dimers": tiling_to_dict(t)["dimers"]}
                for t in tilings
            ]
            rows = [[i, "%016x" % t.hash64] for i, t in enumerate(tilings)]
            header = ["index", "hash"]
        report = _report(_command(args, "enumerate", _region_tokens(region), flag),
                         args.seed, payload)
        _emit(report, rows, header, args, parser)
        return 0

    if args.cmd == "components":
        region = _parse_region(args.region, parser)
        moveset = "flip" if args.moves == "flip" else "flip+trit"
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
        payload = {
            "region": region.to_dict(),
            "moves": moveset,
            "num_tilings": len(index),
            "components": comps,
        }
        report = _report(
            _command(args, "components", _region_tokens(region),
                     "--moves %s" % args.moves),
            args.seed, payload)
        rows = [[i, c["size"], c["min_twist"], c["max_twist"]]
                for i, c in enumerate(comps)]
        _emit(report, rows, ["component", "size", "min_twist", "max_twist"], args, parser)
        return 0

    if args.cmd == "invariants":
        region = _parse_region(args.region, parser)
        t = _load_tiling(args.tiling, region, parser)
        f = flux(t)
        payload = {
            "region": region.to_dict(),
            "hash": "%016x" % t.hash64,
            "flux": list(f.components),
            "modulus": modulus(f),
            "twist": twist(t, 2) if region.is_box else None,
        }
        tail = "--tiling %s" % args.tiling if args.tiling else ""
        report = _report(
            _command(args, "invariants", _region_tokens(region), tail),
            args.seed, payload)
        rows = [["flux", json.dumps(list(f.components))],
                ["modulus", payload["modulus"]],
                ["twist", payload["twist"]]]
        _emit(report, rows, ["key", "value"], args, parser)
        return 0

    if args.cmd == "refine":
        region = _parse_region(args.region, parser)
        if args.k < 0:
            parser.error("refinement count must be nonnegative")
        t = _load_tiling(args.tiling, region, parser)
        refined = refine_tiling(t, args.k)
        payload = {
            "region": region.to_dict(),
            "k": args.k,
            "refined": tiling_to_dict(refined),
        }
        tail = "--tiling %s" % args.tiling if args.tiling else ""
        report = _report(
            _command(args, "refine", _region_tokens(region),
                     ("%s -k %d" % (tail, args.k)).strip()),
            args.seed, payload)
        rows = [["k", args.k], ["dimers", len(refined.pairs)]]
        _emit(report, rows, ["key", "value"], args, parser)
        return 0

    if args.cmd == "sample":
        region = _parse_region(args.region, parser)
        if args.steps < 0:
            parser.error("steps must be nonnegative")
        moveset = "flip" if args.moves == "flip" else "flip+trit"
        cfg = WalkConfig(region=region, moves=moveset, steps=args.steps,
                         seed=args.seed)
        payload = random_walk(cfg)
        payload["region"] = region.to_dict()
        payload["moves"] = moveset
        report = _report(
            _command(args, "sample", _region_tokens(region),
                     "--moves %s --steps %d" % (args.moves, args.steps)),
            args.seed, payload)
        rows = [["steps_taken", payload["steps_taken"]],
                ["distinct_visited", payload["distinct_visited"]],
                ["frozen", payload["frozen"]]]
        rows.extend(["hist:%s" % k, v] for k, v in payload["histogram"].items())
        _emit(report, rows, ["key", "value"], args, parser)
        return 0

    if args.cmd == "verify":
        checks, passed = verify(args.suite, args.seed)
        payload = {"suite": args.suite, "passed": passed, "checks": checks}
        report = _report(_command(args, "verify", args.suite), args.seed, payload)
        rows = [[c["id"], c["passed"], c.get("detail", "")] for c in checks]
        _emit(report, rows, ["id", "passed", "detail"], args, parser)
        return 0 if passed else 1

    parser.error("unknown command")
    return 2


if __name__ == "__main__":
    sys.exit(main())
