"""Command-line surface.

Exit codes: 0 success, 1 usage, 2 expression/document parse error, 3 engine
error (orientation, non-termination, Ore shape), 4 verification failure.
Reports go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import (ExponentOverflow, NonTermination, NotOreShaped,
                     OracleDivergence, OracleOverflow, OrientationError,
                     ParamError, ParseError, QheisError, SchemaError,
                     UnknownFamily)
from .families import FAMILIES, catalog, extract_ore, family_ids
from .presfile import load_presentation_file
from .printer import format_expr
from .rewrite import check_confluence, normalize, reduce_trace
from .ncpoly import commutator
from . import verify as verify_mod

USAGE_ERROR, PARSE_ERROR, ENGINE_ERROR, VERIFY_ERROR = 1, 2, 3, 4


def _load_algebra(spec):
    if spec in FAMILIES:
        return catalog(spec)
    if os.path.exists(spec):
        return load_presentation_file(spec)
    raise UnknownFamily(f"{spec!r} is neither a family id nor a presentation file")


def _print_poly(poly, style, scope=None):
    print(format_expr(poly, style, scope=scope))


def _cmd_normalize(args):
    pres = _load_algebra(args.algebra)
    poly = pres.parse(args.expr)
    sysm = pres.system()
    if args.trace:
        steps = reduce_trace(poly, sysm)
        for origin, pos, snapshot in steps:
            print(f"# {origin} @ {pos}: "
                  f"{format_expr(snapshot, 'plain', scope=pres)}",
                  file=sys.stderr)
        result = steps[-1][2] if steps else poly
    else:
        result = normalize(poly, sysm)
    _print_poly(result, args.format, scope=pres)
    return 0


def _cmd_commutator(args):
    pres = _load_algebra(args.algebra)
    a = pres.parse(args.a)
    b = pres.parse(args.b)
    _print_poly(normalize(commutator(a, b), pres.system()), args.format,
                scope=pres)
    return 0


def _cmd_verify(args):
    reports = verify_mod.run_suite(args.suite, k=args.k)
    print(verify_mod.render_table(reports))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(verify_mod.reports_to_json(reports))
        print(f"wrote {args.report}", file=sys.stderr)
    return 0 if verify_mod.suite_ok(reports) else VERIFY_ERROR


def _cmd_confluence(args):
    pres = _load_algebra(args.algebra)
    report = check_confluence(pres.system())
    verdict = "confluent" if report.confluent else "NOT confluent"
    print(f"{pres.name}: {verdict} ({report.checked} ambiguities checked)")
    for cp in report.unresolved:
        print(f"unresolved {cp.overlap_word!r} via {cp.left_rule} / {cp.right_rule}")
        print(f"  left:  {format_expr(cp.left_result)}")
        print(f"  right: {format_expr(cp.right_result)}")
    return 0 if report.confluent else VERIFY_ERROR


def _cmd_ore(args):
    pres = _load_algebra(args.algebra)
    tower = [s.strip() for s in args.tower.split(",") if s.strip()]
    ore = extract_ore(pres, tower)
    print(f"{pres.name}: tower {' < '.join(g.sym for g in ore.tower)}")
    for (mover, over), sig in sorted(ore.sigma.items()):
        delt = ore.delta[(mover, over)]
        print(f"sigma_{mover}({over}) = {format_expr(sig)}    "
              f"delta_{mover}({over}) = {format_expr(delt)}")
    return 0


def _cmd_families(_args):
    for fam in family_ids():
        _, signature, description = FAMILIES[fam]
        sig = f"({signature})" if signature else ""
        print(f"{fam}{sig}: {description}")
    return 0


def _cmd_repl(args):
    pres = _load_algebra(args.algebra) if args.algebra else None
    print("qheis repl; commands: algebra <id|file>, normalize <expr>, "
          "trace <expr>, commutator <expr> ; <expr>, quit", file=sys.stderr)
    stream = sys.stdin
    while True:
        if pres is not None:
            print(f"[{pres.name}] ", end="", file=sys.stderr, flush=True)
        line = stream.readline()
        if not line:
            return 0
        line = line.strip()
        if not line:
            continue
        cmd, _, rest = line.partition(" ")
        try:
            if cmd in ("quit", "exit"):
                return 0
            if cmd == "algebra":
                pres = _load_algebra(rest.strip())
                print(f"algebra set to {pres.name}")
                continue
            if pres is None:
                print("no algebra selected; use: algebra <id|file>",
                      file=sys.stderr)
                continue
            if cmd == "normalize":
                print(format_expr(pres.normalize(rest), scope=pres))
            elif cmd == "trace":
                poly = pres.parse(rest)
                steps = reduce_trace(poly, pres.system())
                for origin, pos, snap in steps:
                    print(f"{origin} @ {pos}: {format_expr(snap, scope=pres)}")
                if not steps:
                    print(format_expr(poly, scope=pres))
            elif cmd == "commutator":
                a, _, b = rest.partition(";")
                result = normalize(commutator(pres.parse(a), pres.parse(b)),
                                   pres.system())
                print(format_expr(result, scope=pres))
            else:
                print(f"unknown command {cmd!r}", file=sys.stderr)
        except QheisError as exc:
            print(f"error: {exc}", file=sys.stderr)


def build_parser():
    ap = argparse.ArgumentParser(prog="qheis",
                                 description="exact rewriting engine for "
                                             "q-deformed Heisenberg algebras")
    sub = ap.add_subparsers(dest="command", required=True)

    norm = sub.add_parser("normalize", help="normal form of an expression")
    norm.add_argument("--algebra", required=True)
    norm.add_argument("--expr", required=True)
    norm.add_argument("--trace", action="store_true")
    norm.add_argument("--format", choices=("plain", "latex", "machine"),
                      default="plain")
    norm.set_defaults(func=_cmd_normalize)

    comm = sub.add_parser("commutator", help="normalized commutator [a, b]")
    comm.add_argument("--algebra", required=True)
    comm.add_argument("--a", required=True)
    comm.add_argument("--b", required=True)
    comm.add_argument("--format", choices=("plain", "latex", "machine"),
                      default="plain")
    comm.set_defaults(func=_cmd_commutator)

    ver = sub.add_parser("verify", help="run the verification corpus")
    ver.add_argument("--suite", default="all",
                     help="all, a family id, or a case id")
    ver.add_argument("--report", help="write the machine-readable report here")
    ver.add_argument("--k", type=int, default=10,
                     help="maximum power-identity exponent")
    ver.set_defaults(func=_cmd_verify)

    conf = sub.add_parser("confluence", help="local confluence report")
    conf.add_argument("--algebra", required=True)
    conf.set_defaults(func=_cmd_confluence)

    ore = sub.add_parser("ore", help="sigma/delta table of an Ore tower")
    ore.add_argument("--algebra", required=True)
    ore.add_argument("--tower", required=True,
                     help="comma-separated generator symbols, earliest first")
    ore.set_defaults(func=_cmd_ore)

    fam = sub.add_parser("families", help="list the algebra catalog")
    fam.set_defaults(func=_cmd_families)

    repl = sub.add_parser("repl", help="interactive session")
    repl.add_argument("--algebra")
    repl.set_defaults(func=_cmd_repl)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ParseError, SchemaError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    except (UnknownFamily, ParamError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (OrientationError, NonTermination, NotOreShaped, OracleOverflow,
            OracleDivergence, ExponentOverflow) as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return ENGINE_ERROR
    except QheisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ENGINE_ERROR


if __name__ == "__main__":
    sys.exit(main())
