"""Line-oriented presentation file format.

A document looks like::

    qheis-presentation 1
    name: wess
    order: deglex
    generator: Lambda_inv
    generator: Lambda
    generator: p
    generator: x
    inverse: Lambda Lambda_inv
    opaque: D_jk
    param: n = -1
    relation: x_p : q^(1/2)*x*p - q^(-1/2)*p*x - i*hbar*Lambda
    meta: q_domain = real, q != 0

Generator precedence is the order of the ``generator:`` lines.  A generator
spelled ``x_1`` is the indexed generator x with index 1.  Parameters are
coefficient expressions, polynomial expressions over the declared
generators, the literal ``opaque``, or a bare integer.  Loading a saved
presentation reproduces it exactly.
"""

from __future__ import annotations

import re

from .coeffs import Coefficient
from .errors import ParseError, QheisError, SchemaError
from .families import Presentation
from .ncpoly import Generator, NCPoly
from .parser import parse_expr
from .printer import format_coefficient, format_expr

_HEADER = "qheis-presentation 1"
_GEN_RE = re.compile(r"^([A-Za-z][A-Za-z0-9_]*?)(?:_(\d+))?$")


def _split_sym(sym):
    m = _GEN_RE.match(sym)
    if m is None:
        raise SchemaError(f"bad generator name {sym!r}", path="generator")
    name, idx = m.group(1), m.group(2)
    return name, int(idx) if idx is not None else None


def save_presentation(pres):
    """Serialize a Presentation to document text."""
    lines = [_HEADER, f"name: {pres.name}", f"order: {pres.order_kind}"]
    for g in sorted(pres.generators, key=lambda g: g.precedence):
        lines.append(f"generator: {g.sym}")
    for g, ginv in pres.inverse_pairs:
        lines.append(f"inverse: {g.sym} {ginv.sym}")
    for k in sorted(pres.parameters):
        v = pres.parameters[k]
        if v == "opaque":
            lines.append(f"opaque: {k}")
        elif isinstance(v, Coefficient):
            lines.append(f"param: {k} = {format_coefficient(v)}")
        elif isinstance(v, NCPoly):
            lines.append(f"param: {k} = {format_expr(v, 'plain', scope=pres)}")
        else:
            lines.append(f"param: {k} = {v}")
    for label, poly in pres.relations:
        lines.append(f"relation: {label} : {format_expr(poly, 'plain', scope=pres)}")
    for k in sorted(pres.metadata):
        lines.append(f"meta: {k} = {pres.metadata[k]}")
    return "\n".join(lines) + "\n"


def load_presentation(text):
    """Parse document text back into a Presentation."""
    lines = [ln.rstrip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines or lines[0].strip() != _HEADER:
        raise SchemaError(f"missing header line {_HEADER!r}", path="header")
    name = None
    order = "deglex"
    gens = []
    inverses = []
    params = {}
    raw_params = []
    relations = []
    metadata = {}
    for lineno, ln in enumerate(lines[1:], start=2):
        if ":" not in ln:
            raise SchemaError(f"line {lineno}: expected 'key: value'",
                              path=f"line[{lineno}]")
        key, _, rest = ln.partition(":")
        key = key.strip()
        rest = rest.strip()
        if key == "name":
            name = rest
        elif key == "order":
            if rest not in ("deglex", "invlex"):
                raise SchemaError(f"line {lineno}: unknown order {rest!r}",
                                  path="order")
            order = rest
        elif key == "generator":
            gname, idx = _split_sym(rest)
            gens.append(Generator(gname, idx, len(gens)))
        elif key == "inverse":
            parts = rest.split()
            if len(parts) != 2:
                raise SchemaError(f"line {lineno}: inverse needs two generators",
                                  path="inverse")
            inverses.append(tuple(parts))
        elif key == "opaque":
            params[rest] = "opaque"
        elif key == "param":
            pname, _, pval = rest.partition("=")
            raw_params.append((pname.strip(), pval.strip(), lineno))
        elif key == "relation":
            label, _, expr = rest.partition(":")
            label = label.strip()
            if not label or not expr.strip():
                raise SchemaError(f"line {lineno}: relation needs 'label : expr'",
                                  path=f"relation[{label or lineno}]")
            relations.append((label, expr.strip(), lineno))
        elif key == "meta":
            mkey, _, mval = rest.partition("=")
            metadata[mkey.strip()] = mval.strip()
        else:
            raise SchemaError(f"line {lineno}: unknown key {key!r}",
                              path=f"line[{lineno}]")
    if name is None:
        raise SchemaError("document has no name line", path="name")
    try:
        # params holds the opaque names only, until the param lines are read
        scope = Presentation(name, gens, (), parameters=params)
    except QheisError as exc:
        raise SchemaError(str(exc), path="presentation") from exc
    gmap = scope.generator_map
    for pname, pval, lineno in raw_params:
        try:
            poly = parse_expr(pval, scope)
        except ParseError as exc:
            raise SchemaError(f"param {pname}: {exc}", path=f"param[{pname}]") from exc
        if any(poly._terms):  # a word with letters
            params[pname] = poly
        elif pval.lstrip("-").isdigit():
            # bare integers stay integers so signatures round-trip
            params[pname] = int(pval)
        else:
            params[pname] = poly.coefficient(())
    pairs = []
    for a, b in inverses:
        if a not in gmap or b not in gmap:
            missing = a if a not in gmap else b
            raise SchemaError(f"inverse pair uses undeclared generator {missing}",
                              path="inverse")
        pairs.append((gmap[a], gmap[b]))
    rels = []
    for label, expr, lineno in relations:
        try:
            rels.append((label, parse_expr(expr, scope)))
        except ParseError as exc:
            raise SchemaError(f"relation {label}: {exc}",
                              path=f"relation[{label}]") from exc
    try:
        return Presentation(name, gens, rels, inverse_pairs=pairs,
                            parameters=params, metadata=metadata,
                            order_kind=order)
    except Exception as exc:
        raise SchemaError(str(exc), path="presentation") from exc


def load_presentation_file(path):
    """Presentation of a ``.qpres`` file; text that is not UTF-8 raises
    SchemaError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path} is not UTF-8 text: {exc}",
                              path="document") from exc
    return load_presentation(text)


def save_presentation_file(pres, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(save_presentation(pres))
