"""Command-line surface tying the library together.

Analytic subcommands print a JSON run report on stdout:

    {"schema": "sigdef/1", "command": ..., "result": ..., "elapsed_ms": ...,
     "seed": ...}

``gen`` and ``switch`` emit .sg text, ``dot`` emits DOT text, both for
piping.  Diagnostics go to stderr.  Exit codes: 0 success, 1 mismatch or
violated check, 2 usage/parse error, 3 exhaustive bound exceeded.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from typing import Sequence

from . import oracle, sgio
from .core import (
    Coloration,
    SignedGraph,
    classify_two_chromatic,
    covers_positive,
    deficiency,
    is_stable,
    switch,
)
from .maxdef import maxdef

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_BOUND = 3


def _load(path: str) -> SignedGraph:
    with open(path, "r", encoding="utf-8") as handle:
        return sgio.parse_sg(handle.read())


def _coloration_json(g: SignedGraph, kappa: Coloration) -> dict:
    count, unused = deficiency(kappa)
    return {
        "colors": {g.labels[v]: c for v, c in enumerate(kappa.colors)},
        "k": kappa.k,
        "uses_zero": kappa.uses_zero,
        "deficiency": count,
        "unused": sorted(unused),
    }


def _run_report(args) -> int:
    """Shared path of the JSON-reporting subcommands: parse the input file,
    if the command takes one, then time ``args.report(args, g)`` and print
    the payload it returns; ``elapsed_ms`` leaves parsing out.  The builder
    returns ``(payload, exit code)``, with payload None to print nothing."""
    g = _load(args.file) if "file" in args else None
    started = time.perf_counter()
    result, code = args.report(args, g)
    if result is not None:
        report = {
            "schema": "sigdef/1",
            "command": args.command,
            "argv": list(getattr(args, "_argv", [])),
            "result": result,
            "elapsed_ms": round((time.perf_counter() - started) * 1000.0, 3),
            "seed": getattr(args, "seed", None),
        }
        print(json.dumps(report))
    return code


def _split_labels(raw: str) -> list[str]:
    return [part for part in raw.split(",") if part]


def _cmd_maxdef(args, g: SignedGraph) -> tuple[dict, int]:
    if not args.assume_chromatic_3 and g.n > oracle.DEFAULT_EXHAUSTIVE_BOUND:
        print(
            f"note: {g.n} vertices exceed the exhaustive bound of "
            f"{oracle.DEFAULT_EXHAUSTIVE_BOUND}; the 3-chromatic precondition "
            "is not verified",
            file=sys.stderr,
        )
    result = maxdef(g, assume_chromatic_3=args.assume_chromatic_3)
    payload = result.to_json()
    if args.trace:
        payload["trace"] = [entry.to_json() for entry in result.trace]
    return payload, EXIT_OK


def _cmd_chromatic(args, g: SignedGraph) -> tuple[dict, int]:
    return {"chi": oracle.chromatic_number(g)}, EXIT_OK


def _cmd_deficiency(args, g: SignedGraph) -> tuple[dict, int]:
    rep = oracle.deficiency_report(g)
    payload = {
        "chi": rep.chi,
        "range": sorted(rep.range),
        "max": rep.max_deficiency,
        "min": rep.min_deficiency,
        "witness_max": _coloration_json(g, rep.witness_max),
        "witness_min": _coloration_json(g, rep.witness_min),
    }
    return payload, EXIT_OK


def _cmd_classify2(args, g: SignedGraph) -> tuple[dict | None, int]:
    chi = oracle.chromatic_number(g)
    if chi != 2:
        print(f"error: graph is {chi}-chromatic, not 2-chromatic", file=sys.stderr)
        return None, EXIT_VIOLATION
    case = classify_two_chromatic(g)
    payload = {"case": case.name, "M": case.max_deficiency, "m": case.min_deficiency}
    return payload, EXIT_OK


def _cmd_switch(args) -> int:
    g = _load(args.file)
    ids = g.ids_of(_split_labels(args.set))
    sys.stdout.write(sgio.serialize_sg(switch(g, ids)))
    return EXIT_OK


def _cmd_switching_range(args, g: SignedGraph) -> tuple[dict, int]:
    rep = oracle.switching_report(g)
    witnesses = {
        str(d): {
            "switch_set": list(g.labels_of(A)),
            "coloration": _coloration_json(g, kappa),
        }
        for d, (A, kappa) in sorted(rep.witnesses.items())
    }
    return {"chi": rep.chi, "range": sorted(rep.range), "witnesses": witnesses}, EXIT_OK


def _cmd_cover_check(args, g: SignedGraph) -> tuple[dict, int]:
    ids = g.ids_of(_split_labels(args.cover))
    stable = is_stable(g, ids)
    covers = covers_positive(g, ids)
    ok = stable and covers
    payload = {"stable": stable, "covers_positive": covers, "ok": ok}
    return payload, EXIT_OK if ok else EXIT_VIOLATION


def _cmd_gen(args) -> int:
    if args.general:
        if args.vertices is None:
            print("error: --general requires --vertices", file=sys.stderr)
            return EXIT_USAGE
        g = sgio.generate_general(
            args.vertices,
            args.edge_prob,
            args.neg_prob,
            args.seed,
            double_prob=args.double_prob,
        )
    else:
        if args.pairs is None:
            print("error: --pairs is required (or use --general)", file=sys.stderr)
            return EXIT_USAGE
        g = sgio.generate_matched(args.pairs, args.neg_prob, args.seed)
    sys.stdout.write(sgio.serialize_sg(g))
    return EXIT_OK


def _cmd_dot(args) -> int:
    g = _load(args.file)
    highlight = g.ids_of(_split_labels(args.cover)) if args.cover else frozenset()
    sys.stdout.write(sgio.export_dot(g, highlight))
    return EXIT_OK


def _crosscheck_instance(rng: random.Random, max_pairs: int, index: int) -> SignedGraph:
    # Alternate matched-form instances (the contraction-heavy paths) with
    # general ones (exercising the flattening).
    if index % 2 == 0:
        pairs = rng.randint(1, min(max_pairs, oracle.DEFAULT_PAIR_BOUND))
        return sgio.generate_matched(pairs, rng.uniform(0.0, 0.5), rng.getrandbits(32))
    n = rng.randint(2, oracle.DEFAULT_SWITCHING_BOUND)
    return sgio.generate_general(
        n,
        rng.uniform(0.1, 0.8),
        rng.uniform(0.1, 0.9),
        rng.getrandbits(32),
        double_prob=0.05,
    )


def _cmd_crosscheck(args, _: None) -> tuple[dict, int]:
    rng = random.Random(args.seed)
    mismatches = 0
    compared = 0
    refused = 0
    chromatic3 = 0
    invariant_checks = 0
    for index in range(args.count):
        g = _crosscheck_instance(rng, args.max_pairs, index)
        if g.positive_edge_count == 0:
            try:
                maxdef(g, assume_chromatic_3=True)
            except ValueError:
                refused += 1
                continue
            print("error: graph without positive edges was not refused",
                  file=sys.stderr)
            mismatches += 1
            continue
        truth = oracle.stable_positive_cover(g)
        result = maxdef(g, assume_chromatic_3=True, validate=True)
        invariant_checks += result.checks
        compared += 1
        expected = 1 if truth is not None else 0
        if result.value != expected:
            mismatches += 1
            print(
                f"mismatch on instance {index}: procedure said {result.value}, "
                f"enumeration said {expected}\n{sgio.serialize_sg(g)}",
                file=sys.stderr,
            )
        if g.n <= oracle.DEFAULT_EXHAUSTIVE_BOUND:
            if oracle.chromatic_number(g) == 3:
                chromatic3 += 1
    payload = {
        "instances": args.count,
        "compared": compared,
        "refused_no_positive_edge": refused,
        "chromatic3_certified": chromatic3,
        "invariant_checks": invariant_checks,
        "mismatches": mismatches,
    }
    return payload, EXIT_OK if mismatches == 0 else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigdef", description="Deficiency analysis of signed graphs"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("maxdef", help="decide the maximum deficiency (0 or 1)")
    p.add_argument("file")
    p.add_argument("--trace", action="store_true", help="include the step trace")
    p.add_argument(
        "--assume-chromatic-3",
        action="store_true",
        help="skip the exhaustive 3-chromatic precondition check",
    )
    p.set_defaults(func=_run_report, report=_cmd_maxdef)

    p = sub.add_parser("chromatic", help="exact chromatic number (small graphs)")
    p.add_argument("file")
    p.set_defaults(func=_run_report, report=_cmd_chromatic)

    p = sub.add_parser("deficiency", help="deficiency range with witnesses")
    p.add_argument("file")
    p.set_defaults(func=_run_report, report=_cmd_deficiency)

    p = sub.add_parser("classify2", help="closed-form 2-chromatic classification")
    p.add_argument("file")
    p.set_defaults(func=_run_report, report=_cmd_classify2)

    p = sub.add_parser("switch", help="switch a vertex set, print the .sg result")
    p.add_argument("file")
    p.add_argument("--set", required=True, help="comma-separated vertex labels")
    p.set_defaults(func=_cmd_switch)

    p = sub.add_parser("switching-range", help="deficiencies across all switchings")
    p.add_argument("file")
    p.set_defaults(func=_run_report, report=_cmd_switching_range)

    p = sub.add_parser("cover-check", help="verify a stable cover of E+")
    p.add_argument("file")
    p.add_argument("--cover", required=True, help="comma-separated vertex labels")
    p.set_defaults(func=_run_report, report=_cmd_cover_check)

    p = sub.add_parser("gen", help="generate a seeded random graph as .sg")
    p.add_argument("--pairs", type=int, help="matched pairs (matched mode)")
    p.add_argument("--neg-prob", type=float, default=0.2)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--general", action="store_true", help="arbitrary signed graph")
    p.add_argument("--vertices", type=int, help="vertex count (general mode)")
    p.add_argument("--edge-prob", type=float, default=0.4)
    p.add_argument("--double-prob", type=float, default=0.0)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("dot", help="export DOT (positive solid, negative dashed)")
    p.add_argument("file")
    p.add_argument("--cover", help="comma-separated labels to box")
    p.set_defaults(func=_cmd_dot)

    p = sub.add_parser(
        "crosscheck",
        help="random equivalence runs of the decision procedure vs. enumeration",
    )
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--max-pairs", type=int, default=8)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_run_report, report=_cmd_crosscheck)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    args._argv = list(argv) if argv is not None else sys.argv[1:]
    try:
        return args.func(args)
    except sgio.SgParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except oracle.BoundExceededError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except oracle.NotThreeChromaticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
