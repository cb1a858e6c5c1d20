"""Command-line surface.

Exit codes: 0 success, 1 usage, 2 expression/document parse error, 3 engine
error (orientation, non-termination, Ore shape), 4 verification failure.
Reports go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import (ExponentOverflow, NonTermination, ParamError,
                     ParseError, QheisError, SchemaError, UnknownFamily)
from .families import FAMILIES, catalog, extract_ore, family_ids
from .presfile import load_presentation_file
from .printer import format_expr
from .rewrite import check_confluence, normalize
from .ncpoly import commutator
from . import verify as verify_mod

USAGE_ERROR, PARSE_ERROR, ENGINE_ERROR, VERIFY_ERROR = 1, 2, 3, 4


def _load_algebra(spec):
    """Catalog family or presentation file; a file the OS cannot read is a
    usage error."""
    if spec in FAMILIES:
        return catalog(spec)
    if os.path.isfile(spec):
        try:
            return load_presentation_file(spec)
        except OSError as exc:
            raise ParamError(f"cannot read {spec}: {exc.strerror or exc}") from exc
    raise UnknownFamily(f"{spec!r} is neither a family id nor a presentation file")


def _print_step(step):
    """A step ``(rule id, position, polynomial)`` on stderr, scoped by the
    polynomial's alphabet: the rewrite system's, with every generator."""
    origin, pos, poly = step
    print(f"# {origin} @ {pos}: {format_expr(poly, scope=poly)}",
          file=sys.stderr)


def _confluence_note(pres):
    """One stderr line when the presentation's own rules, which normalize
    and commutator reduce by, are not confluent, or when the critical pairs
    do not reduce: the printed form may then not be canonical."""
    try:
        if pres.confluent():
            return
        why = "are not confluent"
    except (NonTermination, ExponentOverflow) as exc:
        why = f"have no confluence verdict ({exc})"
    print(f"note: the rules of {pres.name} {why}; the printed form may not "
          f"be canonical", file=sys.stderr)


def _reduce_and_print(pres, poly, style="plain", trace=False):
    """Reduce ``poly`` by the presentation's own rules and print it: with
    ``trace``, each step on stderr as it is made, then the note of
    ``_confluence_note``, then the result on stdout.  The one path of
    normalize, trace and commutator in both front ends."""
    result = normalize(poly, pres.system(), _print_step if trace else None)
    _confluence_note(pres)
    print(format_expr(result, style, scope=pres))
    return 0


def _cmd_normalize(args):
    pres = _load_algebra(args.algebra)
    return _reduce_and_print(pres, pres.parse(args.expr), args.format,
                             args.trace)


def _cmd_commutator(args):
    pres = _load_algebra(args.algebra)
    a, b = pres.parse(args.a), pres.parse(args.b)
    return _reduce_and_print(pres, commutator(a, b), args.format)


def _cmd_verify(args):
    reports = verify_mod.run_suite(args.suite, k=args.k)
    print(verify_mod.render_table(reports))
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(verify_mod.reports_to_json(reports))
        except OSError as exc:
            raise ParamError(f"cannot write {args.report}: "
                             f"{exc.strerror or exc}") from exc
        print(f"wrote {args.report}", file=sys.stderr)
    return 0 if verify_mod.suite_ok(reports) else VERIFY_ERROR


def _cmd_confluence(args):
    pres = _load_algebra(args.algebra)
    report = check_confluence(pres.system())
    verdict = "confluent" if report.confluent else "NOT confluent"
    print(f"{pres.name}: {verdict} ({report.checked} ambiguities checked)")
    for cp in report.unresolved:
        print(f"unresolved {cp.overlap_word!r} via {cp.left_rule} / {cp.right_rule}")
        print(f"  left:  {format_expr(cp.left_result, scope=pres)}")
        print(f"  right: {format_expr(cp.right_result, scope=pres)}")
    return 0 if report.confluent else VERIFY_ERROR


def _cmd_ore(args):
    pres = _load_algebra(args.algebra)
    tower = [s.strip() for s in args.tower.split(",") if s.strip()]
    ore = extract_ore(pres, tower)
    print(f"{pres.name}: tower {' < '.join(g.sym for g in ore.tower)}")
    for (mover, over), sig in sorted(ore.sigma.items()):
        delt = ore.delta[(mover, over)]
        print(f"sigma_{mover}({over}) = {format_expr(sig, scope=pres)}    "
              f"delta_{mover}({over}) = {format_expr(delt, scope=pres)}")
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
            if cmd in ("normalize", "trace"):
                _reduce_and_print(pres, pres.parse(rest), trace=cmd == "trace")
            elif cmd == "commutator":
                a, _, b = rest.partition(";")
                _reduce_and_print(pres, commutator(pres.parse(a), pres.parse(b)))
            else:
                print(f"unknown command {cmd!r}", file=sys.stderr)
        except QheisError as exc:
            _report(exc)


def _report(exc):
    """Print a QheisError on stderr as its category and message, and a
    NonTermination's last steps in the format of --trace; its exit code."""
    if isinstance(exc, (ParseError, SchemaError)):
        code, category = PARSE_ERROR, "parse error"
    elif isinstance(exc, (UnknownFamily, ParamError)):
        code, category = USAGE_ERROR, "usage error"
    else:
        code, category = ENGINE_ERROR, "engine error"
    print(f"{category}: {exc}", file=sys.stderr)
    for step in getattr(exc, "chain", ())[-5:]:
        _print_step(step)
    return code


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
                     help="maximum power-identity exponent, "
                          f"1 to {verify_mod.MAX_K}")
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
    except QheisError as exc:
        return _report(exc)


if __name__ == "__main__":
    sys.exit(main())
