"""Command-line laboratory.

Exit codes: 0 all checks passed / objects produced, 1 at least one
failing record (or a missing isomorphism where one was asserted),
2 usage or validation error, an exceeded size cap, or a scan worker that
died, 3 search budget exhausted on a decisive pair. Worker count for scans
comes from MDL_THREADS.
"""
from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path

from . import caps
from ._version import __version__
from .digraph import build_digraph
from .errors import MdlabError
from .field import FieldCtx, _smallest_factor, extension_field
from .harness import (
    emit_report,
    report_exit_code,
    run_conjecture_scan,
    run_exercise_scan,
    run_theorem_scan,
)
from .iso import (
    EXHAUSTED,
    FOUND,
    POWER_MAP,
    SEARCH,
    certificate_to_json,
    decide_iso,
    unit_orbit,
)
from .patterns import count_looped_arc, count_pattern, parse_pattern
from .poly import distinct_root_count, trinomial

USAGE_ERROR = 2
BUDGET_EXHAUSTED = 3


def _field(args) -> FieldCtx:
    return extension_field(args.p, args.k)  # rejects k < 1


def _parse_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected M,N but got {text!r}")
    return int(parts[0]), int(parts[1])


def _emit(report, args) -> None:
    """Report to stdout, or to --out through a temp file in the same
    directory that replaces the target only once it is complete."""
    if not args.out:
        emit_report(report, args.format, sys.stdout)
        return
    target = Path(args.out)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.", suffix=".tmp")
    try:
        with open(fd, "w", encoding="utf-8", newline="") as handle:
            emit_report(report, args.format, handle)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp makes 0600; give open()'s mode
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _cmd_build(args) -> int:
    ctx = _field(args)
    D = build_digraph(ctx, args.m, args.n)
    print(f"D({ctx.q};{D.m},{D.n}): {D.order} vertices, {D.arc_count} arcs, "
          f"{len(D.loop_indices())} loops")
    if args.dot:
        Path(args.dot).write_text(D.to_dot(), encoding="utf-8")
        print(f"dot written to {args.dot}")
    return 0


def _cmd_roots(args) -> int:
    ctx = _field(args)
    f = trinomial(ctx, args.degree, ctx.element(args.a), ctx.element(args.b))
    result = distinct_root_count(ctx, f, method=args.method)
    print(f"distinct roots: {result.distinct}")
    if args.list:
        if result.roots is None:
            print("roots list unavailable (gcd method does not enumerate)")
        else:
            print("roots:", " ".join(str(r) for r in result.roots))
    return 0


def _cmd_count_k(args) -> int:
    ctx = _field(args)
    D = build_digraph(ctx, args.m, args.n)
    print(count_looped_arc(D))
    return 0


def _cmd_count_pattern(args) -> int:
    ctx = _field(args)
    D = build_digraph(ctx, args.m, args.n)
    pattern = parse_pattern(Path(args.pattern).read_text(encoding="utf-8"))
    result = count_pattern(D, pattern)
    print(f"injections={result.injections} aut={result.aut} "
          f"subdigraphs={result.subdigraphs}")
    return 0


def _cmd_iso(args) -> int:
    ctx = _field(args)
    m1, n1 = args.d1
    m2, n2 = args.d2
    D1 = build_digraph(ctx, m1, n1)
    D2 = build_digraph(ctx, m2, n2)
    same_orbit = unit_orbit(ctx.q, D1.m, D1.n) == unit_orbit(ctx.q, D2.m, D2.n)
    print(f"unit orbits {'match' if same_orbit else 'differ'}")

    decision = decide_iso(D1, D2, args.budget)
    if decision.stage == POWER_MAP:
        print(f"isomorphic via power map k={decision.power_k}")
        print("certificate:", certificate_to_json(decision.certificate))
        return 0

    if decision.stage != SEARCH:
        print("not isomorphic (fingerprints differ)")
        return 1 if same_orbit else 0

    if decision.status == FOUND:
        print(f"isomorphic (search, {decision.expansions} expansions)")
        print("certificate:", certificate_to_json(decision.certificate))
        return 0
    if decision.status == EXHAUSTED:
        print(f"undecided: budget exhausted after {decision.expansions} expansions "
              "(fingerprint-only evidence: fingerprints equal)")
        return BUDGET_EXHAUSTED
    print(f"not isomorphic (search exhausted all assignments, "
          f"{decision.expansions} expansions)")
    # a same-orbit pair must be isomorphic, so this would refute the
    # power-map mechanism itself
    return 1 if same_orbit else 0


def _cmd_theorem(args) -> int:
    report = run_theorem_scan(args.pmax, with_digraphs=args.digraphs)
    _emit(report, args)
    return report_exit_code(report)


def _parse_prime_power(token: str) -> tuple[int, int]:
    """Accept explicit p^k or a bare prime power like 8 (-> 2^3)."""
    if "^" in token:
        p, k = token.split("^")
        return int(p), int(k)
    q = int(token)
    if q < 2:
        raise ValueError(f"{token!r} is not a prime power")
    p = _smallest_factor(q) or q
    k = 0
    rest = q
    while rest % p == 0:
        rest //= p
        k += 1
    if rest != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, k


def _cmd_exercise(args) -> int:
    fields = [_parse_prime_power(tok.strip()) for tok in args.fields.split(",")]
    report = run_exercise_scan(fields)
    _emit(report, args)
    return report_exit_code(report)


def _cmd_conjecture(args) -> int:
    ctx = _field(args)
    report = run_conjecture_scan(ctx, budget=args.budget)
    _emit(report, args)
    return report_exit_code(report)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdlab",
        description="Monomial digraph laboratory: build digraphs, count "
                    "roots and patterns, search isomorphisms, run scans.",
    )
    parser.add_argument("--version", action="version", version=f"mdlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_field_args(sp, with_k=True):
        sp.add_argument("--p", type=int, required=True, help="characteristic (prime)")
        if with_k:
            sp.add_argument("--k", type=int, default=1, help="extension degree (default 1)")

    def add_report_args(sp):
        sp.add_argument("--out", help="write the report to this path (default stdout)")
        sp.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")

    sp = sub.add_parser("build", help="construct D(q;m,n), optionally export DOT")
    add_field_args(sp)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--dot", help="write DOT text to this path (q <= %d)" % caps.MAX_DOT_ORDER)
    sp.set_defaults(func=_cmd_build)

    sp = sub.add_parser("roots", help="count distinct roots of X^D + aX + b")
    add_field_args(sp)
    sp.add_argument("--degree", type=int, required=True)
    sp.add_argument("--a", type=int, required=True,
                    help="element code; negatives reduced mod p on prime fields")
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--list", action="store_true", help="also print the roots")
    sp.add_argument("--method", choices=("bruteforce", "gcd", "both", "auto"),
                    default="auto")
    sp.set_defaults(func=_cmd_roots)

    sp = sub.add_parser("count-k",
                        help="count two-loops-plus-arc subdigraphs of D(p;m,n)")
    add_field_args(sp, with_k=False)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(func=_cmd_count_k, k=1)

    sp = sub.add_parser("count-pattern",
                        help="count a pattern literal file inside D(q;m,n)")
    add_field_args(sp)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--pattern", required=True,
                    help="pattern literal: order line, then one 's t' arc per line")
    sp.set_defaults(func=_cmd_count_pattern)

    sp = sub.add_parser("iso", help="decide isomorphism of two digraphs over GF(q)")
    add_field_args(sp)
    sp.add_argument("--d1", type=_parse_pair, required=True, metavar="M1,N1")
    sp.add_argument("--d2", type=_parse_pair, required=True, metavar="M2,N2")
    sp.add_argument("--budget", type=int, default=caps.DEFAULT_SEARCH_BUDGET)
    sp.set_defaults(func=_cmd_iso)

    sp = sub.add_parser("theorem", help="scan reciprocal-exponent root counts")
    sp.add_argument("--pmax", type=int, required=True)
    sp.add_argument("--digraphs", action="store_true",
                    help="also check digraph pattern counts for p <= 13")
    add_report_args(sp)
    sp.set_defaults(func=_cmd_theorem)

    sp = sub.add_parser("exercise", help="scan the prime-power trinomial identity")
    sp.add_argument("--fields", required=True,
                    help="comma-separated prime powers, e.g. 4,5,7,8,9 or 2^2,3^2")
    add_report_args(sp)
    sp.set_defaults(func=_cmd_exercise)

    sp = sub.add_parser("conjecture", help="scan unit-orbit isomorphism consistency")
    add_field_args(sp)
    sp.add_argument("--budget", type=int, default=caps.DEFAULT_SEARCH_BUDGET)
    add_report_args(sp)
    sp.set_defaults(func=_cmd_conjecture)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (MdlabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
