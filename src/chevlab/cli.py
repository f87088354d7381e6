"""Batch command-line entry point.

Commands: relations, centralizer, prooflab, chain, sha, decompose, eval.
Exit codes: 0 all checks PASS, 1 any FAIL, 2 usage, parse or resource
errors (a cap exceeded, memory exhausted), 3 INCONCLUSIVE outcomes only.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import decomp, prooflab, shacheck
from .chevgroup import (RealizationError, build_basis, default_realization,
                        evaluate_word, parse_word, trace_poly)
from .exactring import PRIME_BOUND, RingError, RingSpec, is_prime
from .rootsys import SYSTEMS, positive_roots


def _prime(text: str) -> int:
    """The argparse type of every --prime option."""
    p = int(text)
    if p >= PRIME_BOUND:
        raise argparse.ArgumentTypeError(
            f"{text} is not below {PRIME_BOUND}, where primality is decided"
            " exactly")
    if not is_prime(p):
        raise argparse.ArgumentTypeError(f"{text} is not a prime")
    return p


def _positive(text: str) -> int:
    """The argparse type of the --cap and --power options."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return n


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first ``dispatch``."""
    parser = argparse.ArgumentParser(
        prog="chevlab",
        description="exact computations in low-rank adjoint Chevalley groups")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, system="optional"):
        if system:
            p.add_argument("--system", choices=SYSTEMS,
                           required=system == "required")
        p.add_argument("--output", choices=("text", "json-lines"),
                       default="text")
        p.add_argument("--no-timing", action="store_true")

    def cap(p):
        p.add_argument("--cap", type=_positive, default=shacheck.DEFAULT_CAP,
                       help="largest group order to enumerate")

    p = sub.add_parser("relations", help="print the commutator tables")
    common(p)

    p = sub.add_parser("prooflab", help="run the built-in identity catalog")
    common(p)
    p.add_argument("--filter", default=None, help="glob on record names")
    p.add_argument("--mutants", action="store_true",
                   help="also run the one-coefficient mutants")

    p = sub.add_parser("chain", help="run the G2 entry-constraint chain")
    common(p, system=None)

    p = sub.add_parser("centralizer", help="centralizer parametrizations")
    common(p)
    cap(p)
    p.add_argument("--prime", type=_prime, default=None,
                   help="also brute-force over F_p")

    p = sub.add_parser("sha", help="brute-force Sha-rigidity certification")
    common(p, system="required")
    cap(p)
    p.add_argument("--prime", type=_prime, required=True)

    p = sub.add_parser("decompose", help="Gauss or Bruhat decomposition")
    common(p, system="required")
    p.add_argument("--prime", type=_prime, required=True)
    p.add_argument("--power", type=_positive, default=1,
                   help="decompose over Z/p^k (Gauss only)")
    p.add_argument("--bruhat", action="store_true")
    p.add_argument("word")

    p = sub.add_parser("eval", help="evaluate a word to a matrix")
    common(p, system="required")
    p.add_argument("--realization",
                   choices=("adjoint", "pgl3", "a1std"), default=None)
    p.add_argument("--prime", type=_prime, default=None)
    p.add_argument("--vars", default="",
                   help="comma-separated polynomial variables")
    p.add_argument("word")
    return parser


def _emit(obj, args, text_line=None):
    if args.output == "json-lines":
        print(json.dumps(obj, sort_keys=True))
    else:
        print(text_line if text_line is not None else obj)


def _emit_report(report, args):
    obj = report.to_obj(timing=not args.no_timing)
    line = f"{report.verdict:12s} {report.name}"
    if report.verdict not in ("PASS", "SKIPPED") and report.residual:
        line += f"  [{report.residual}]"
    if report.detail and args.output == "text":
        line += f"  ({report.detail})"
    _emit(obj, args, line)


def _systems(args):
    return [args.system] if args.system else list(SYSTEMS)


def cmd_relations(args):
    systems = _systems(args)
    for tag, relations in zip(systems, prooflab.commutator_tables(*systems)):
        for rel in relations:
            if args.output == "json-lines":
                _emit({"system": tag,
                       "g": list(rel.g.coords), "d": list(rel.d.coords),
                       "factors": [[i_, j_, list(r.coords), c]
                                   for i_, j_, r, c in rel.factors]},
                      args)
            else:
                print(f"{tag}: {rel.format()}")
        tp = trace_poly(build_basis(tag), positive_roots(tag)[0])
        _emit({"system": tag, "long_root_trace": repr(tp)}, args,
              f"{tag}: tr(x(a,t) x(-a,s)) = {tp!r}")
    return []


def cmd_prooflab(args):
    reports = prooflab.run_catalog(*_systems(args), name_filter=args.filter,
                                   mutants=args.mutants)
    if not reports:
        raise ValueError(f"--filter {args.filter!r} matches no record")
    for report in reports:
        _emit_report(report, args)
    return reports


def cmd_chain(args):
    reports = prooflab.entry_chain_g2()
    for r in reports:
        _emit_report(r, args)
    return reports


def cmd_centralizer(args):
    # every check runs before any is printed, so an error line stands alone
    reports = []
    for tag in _systems(args):
        reports.append(
            prooflab.centralizer_check(prooflab.standard_family(tag)))
        if args.prime:
            name = f"{tag}-centralizer-bruteforce-p{args.prime}"
            try:
                count, _ = prooflab.centralizer_bruteforce(
                    tag, args.prime, cap=args.cap)
                reports.append(prooflab.Report(name, "PASS",
                                               detail=f"count {count}"))
            except prooflab.CentralizerMismatch as exc:
                reports.append(prooflab.Report(name, "FAIL", str(exc)))
    for report in reports:
        _emit_report(report, args)
    return reports


def cmd_sha(args):
    rep = shacheck.sha_report(args.system, args.prime, cap=args.cap)
    if args.no_timing:
        rep.pop("seconds", None)
    verdict = rep["verdict"]
    if rep["hypothesis_violated"]:
        verdict = f"{verdict} (HYPOTHESIS-VIOLATED: p={rep['p']})"
    _emit(rep, args,
          f"{verdict:12s} sha {rep['system']}/F_{rep['p']}: order"
          f" {rep['group_order']}, {rep['class_count']} classes,"
          f" {rep['cp_endo_count']} class-preserving ="
          f" {rep['inner_count']} inner")
    return [prooflab.Report(f"sha-{args.system}-p{args.prime}",
                            rep["verdict"])]


def cmd_decompose(args):
    spec = RingSpec("modular", modulus=args.prime ** args.power)
    word = parse_word(args.word, args.system, spec)
    if args.bruhat:
        if args.power != 1:
            raise RingError("Bruhat decomposition works over a field")
        fact = decomp.bruhat_bruteforce(word, args.system, args.prime)
        _emit({"weyl_word": list(fact.weyl_word),
               "factorization": fact.word().format_text()}, args,
              f"PASS         {args.word} = {fact.word().format_text()}"
              f"  [weyl {fact.weyl_word}]")
    else:
        if args.system != "A1":
            raise RingError("constructive Gauss decomposition is A1-only")
        basis = build_basis(args.system)
        M = evaluate_word(word, basis, default_realization(args.system),
                          spec=spec)
        fact = decomp.gauss_decompose_a1(M, basis)
        _emit({"factorization": fact.word().format_text()}, args,
              f"PASS         {args.word} = {fact.word().format_text()}")
    return [prooflab.Report("decompose", "PASS")]


def cmd_eval(args):
    if args.prime:
        spec = RingSpec("modular", modulus=args.prime)
    else:
        names = tuple(v.strip() for v in args.vars.split(",") if v.strip())
        spec = RingSpec("poly", names)
    basis = build_basis(args.system)
    realization = args.realization or default_realization(args.system)
    word = parse_word(args.word, args.system, spec)
    M = evaluate_word(word, basis, realization, spec=spec)
    if args.output == "json-lines":
        _emit({"entries": [[repr(e) for e in row] for row in M.rows]}, args)
    else:
        for row in M.rows:
            print("[" + ", ".join(repr(e) for e in row) + "]")
    return []


def dispatch(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handler = {
        "relations": cmd_relations,
        "prooflab": cmd_prooflab,
        "chain": cmd_chain,
        "centralizer": cmd_centralizer,
        "sha": cmd_sha,
        "decompose": cmd_decompose,
        "eval": cmd_eval,
    }[args.command]
    try:
        reports = handler(args)
    except (RingError, RealizationError, ValueError, KeyError,
            decomp.NoFactorization, decomp.ElementNotInGroup,
            shacheck.CapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"error: out of memory in {args.command}"
              f" (system {getattr(args, 'system', None)},"
              f" prime {getattr(args, 'prime', None)},"
              f" cap {getattr(args, 'cap', None)})", file=sys.stderr)
        return 2
    verdicts = {r.verdict for r in reports}
    if "FAIL" in verdicts:
        return 1
    if "INCONCLUSIVE" in verdicts:
        return 3
    return 0


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
