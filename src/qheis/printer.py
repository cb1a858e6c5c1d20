"""Deterministic rendering of polynomials and coefficients.

Three styles: ``plain`` (ASCII, re-parseable), ``latex`` (hatted generators,
\\hbar), and ``machine`` (loss-free JSON).  Terms print in display order:
longer words first, then by the precedence sequence.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import groupby

from .coeffs import Coefficient, G_ONE, GaussRational, _mono
from .errors import QheisError, SchemaError
from .ncpoly import Generator, NCPoly, Word, _display_items


def _mono_sorted(poly):
    """Items of a ``{tuple monomial: GaussRational}`` view, leading first
    under lex order on the variable names."""
    varlist = sorted({v for m in poly for v, _ in m})

    def exponents(mc):
        exps = dict(mc[0])
        return [exps.get(v, 0) for v in varlist]

    return sorted(poly.items(), key=exponents, reverse=True)


def _gauss_is_negative(g):
    if g.re:
        return g.re < 0
    return g.im < 0


def _exp_plain(base, steps, half_based):
    if half_based:
        if steps % 2:
            return f"{base}^({steps}/2)"
        steps //= 2
    if steps == 1:
        return base
    return f"{base}^{steps}"


def _var_plain(var, exp, raw=frozenset()):
    # base variables are used verbatim when the alphabet shadows q or p
    if var == "s":
        return _exp_plain("s", exp, False) if "s" in raw else _exp_plain("q", exp, True)
    if var == "t":
        return _exp_plain("t", exp, False) if "t" in raw else _exp_plain("p", exp, True)
    if var == "h":
        return _exp_plain("hbar", exp, False)
    return _exp_plain(var, exp, False)


def _var_latex(var, exp):
    if var == "s":
        base, e = "q", Fraction(exp, 2)
    elif var == "t":
        base, e = "p", Fraction(exp, 2)
    elif var == "h":
        base, e = r"\hbar", Fraction(exp)
    else:
        if "_" in var:
            head, _, tail = var.partition("_")
            base = f"{head}_{{{tail}}}"
        else:
            base = var
        e = Fraction(exp)
    if e == 1:
        return base
    return f"{base}^{{{e}}}"


_VAR_ORDER = {"h": 0, "s": 1, "t": 2}


def _scalar_mono(g, mono, latex=False, raw=frozenset()):
    """Factor list for scalar*monomial; the caller has made g's sign
    positive."""
    parts = []
    if g.re and g.im:
        parts.append(f"({g})")
    elif g.im:
        if g.im != 1:
            parts.append(str(g.im))
        parts.append("i")
    elif g.re != 1:
        parts.append(str(g.re))
    for v, e in sorted(mono, key=lambda ve: (_VAR_ORDER.get(ve[0], 3), ve[0])):
        parts.append(_var_latex(v, e) if latex else _var_plain(v, e, raw))
    if not parts:
        parts.append("1")
    return parts


def _join(parts, latex=False):
    return " ".join(parts) if latex else "*".join(parts)


def _poly_sum_body(poly, latex=False, raw=frozenset()):
    """Sum rendering with embedded signs, no common-factor extraction."""
    out = []
    for m, g in _mono_sorted(poly):
        neg = _gauss_is_negative(g)
        body = _join(_scalar_mono(-g if neg else g, m, latex, raw), latex)
        if not out:
            out.append(("-" if neg else "") + body)
        else:
            out.append(("- " if neg else "+ ") + body)
    return " ".join(out)


def _num_body(num, latex=False, raw=frozenset()):
    """(negative, factor list) for a numerator polynomial."""
    items = _mono_sorted(num)
    if len(items) == 1:
        m, g = items[0]
        neg = _gauss_is_negative(g)
        return neg, _scalar_mono(-g if neg else g, m, latex, raw)
    all_imag = all(not g.re for _, g in items)
    vals = [(m, GaussRational(g.im) if all_imag else g) for m, g in items]
    lead_neg = _gauss_is_negative(vals[0][1])
    if lead_neg:
        vals = [(m, -g) for m, g in vals]
    mins = dict(vals[0][0])
    for m, _ in vals[1:]:
        cur = dict(m)
        mins = {v: min(e, cur.get(v, 0)) for v, e in mins.items() if v in cur}
    content = _mono((v, e) for v, e in mins.items() if e > 0)
    inv = tuple((v, -e) for v, e in content)
    rest = {_mono(m + inv): g for m, g in vals} if inv else dict(vals)
    parts = []
    if all_imag:
        parts.append("i")
    if content:
        parts.extend(_scalar_mono(G_ONE, content, latex, raw))
    parts.append(f"({_poly_sum_body(rest, latex, raw)})")
    return lead_neg, parts


def _coeff_parts(c, latex=False, raw=frozenset()):
    """(negative, factor list) for a coefficient."""
    if c.is_zero:
        return False, ["0"]
    neg, parts = _num_body(c.num, latex, raw)
    # a canonical one-term denominator is the unit
    if len(c._den) > 1:
        den_body = _poly_sum_body(c.den, latex, raw)
        if latex:
            joined = _join(parts, latex)
            return neg, [f"\\frac{{{joined}}}{{{den_body}}}"]
        if parts == ["1"]:
            parts = []
        parts.append(f"({den_body})^-1")
    return neg, parts


def format_coefficient(c, latex=False):
    neg, parts = _coeff_parts(c, latex)
    return ("-" if neg else "") + _join(parts, latex)


def _run_lengths(s, letters):
    return [(letters[ord(ch)], len(list(run))) for ch, run in groupby(s)]


def _word_plain(s, letters):
    return [g.sym if k == 1 else f"{g.sym}^{k}" for g, k in _run_lengths(s, letters)]


_LATEX_SPECIAL = {
    "Lambda": r"\hat{\Lambda}",
    "Lambda_inv": r"\hat{\Lambda}^{-1}",
    "u_inv": r"\hat{u}^{-1}",
    "xbar": r"\overline{\hat{x}}",
}


def _gen_latex(g):
    base = _LATEX_SPECIAL.get(g.name, rf"\hat{{{g.name}}}")
    if g.index is not None:
        base += f"_{{{g.index}}}"
    return base


def _word_latex(s, letters):
    out = []
    for g, k in _run_lengths(s, letters):
        base = _gen_latex(g)
        out.append(base if k == 1 else f"{base}^{{{k}}}")
    return out


def format_expr(poly, style="plain", scope=None):
    """Render a polynomial deterministically in the requested style.

    When the alphabet shadows the central symbol q or p with a generator of
    the same name, the central variable is printed as its base square root
    (s or t) so the plain form stays unambiguous and re-parseable.  Pass the
    presentation as ``scope`` to use its full alphabet for that decision;
    otherwise the letters that occur in the polynomial's words decide.
    """
    if style == "machine":
        return _format_machine(poly)
    if style not in ("plain", "latex"):
        raise ValueError(f"unknown style {style!r}")
    latex = style == "latex"
    if poly.is_zero:
        return "0"
    if scope is not None:
        gen_names = {g.name for g in getattr(scope, "generator_map", {}).values()}
    else:
        gen_names = {g.name for g in poly.letters()}
    raw = frozenset(base for name, base in (("q", "s"), ("p", "t"))
                    if name in gen_names)
    letters = poly.alphabet.letters
    out = []
    for s, c in _display_items(poly):
        neg, cparts = _coeff_parts(c, latex, raw)
        wparts = (_word_latex if latex else _word_plain)(s, letters)
        if wparts and cparts == ["1"]:
            body = _join(wparts, latex)
        elif wparts:
            body = _join(cparts + wparts, latex)
        else:
            body = _join(cparts, latex)
        if not out:
            out.append(("-" if neg else "") + body)
        else:
            out.append(("- " if neg else "+ ") + body)
    return " ".join(out)


# -- machine format ---------------------------------------------------------

def _poly_json(p):
    return [[list(m), str(g.re), str(g.im)] for m, g in _mono_sorted(p)]


def _format_machine(poly):
    terms = []
    for s, c in _display_items(poly):
        terms.append({
            "word": [[g.name, g.index, g.precedence] for g in poly.alphabet.word(s)],
            "num": _poly_json(c.num),
            "den": _poly_json(c.den),
        })
    return json.dumps({"format": "qheis-poly-v1", "terms": terms},
                      separators=(",", ":"))


def _machine_poly(entries):
    return {_mono(m): GaussRational(Fraction(re), Fraction(im))
            for m, re, im in entries}


def parse_machine(text):
    """Inverse of the machine format.  A malformed document raises
    SchemaError, whose ``path`` names the part that failed."""
    path = "document"
    try:
        data = json.loads(text)
        path = "format"
        if data.get("format") != "qheis-poly-v1":
            raise ValueError("not a qheis machine-format polynomial")
        path = "terms"
        terms = {}
        for n, t in enumerate(data["terms"]):
            path = f"terms[{n}].word"
            word = Word(tuple(Generator(name, i, pr) for name, i, pr in t["word"]))
            path = f"terms[{n}].num"
            num = _machine_poly(t["num"])
            path = f"terms[{n}].den"
            den = _machine_poly(t["den"])
            path = f"terms[{n}]"
            terms[word] = Coefficient(num, den)
        path = "terms"  # the words' letters form one alphabet
        return NCPoly(terms)
    except (QheisError, ValueError, TypeError, LookupError, AttributeError,
            RecursionError) as exc:
        raise SchemaError(f"machine format, {path}: {exc}", path=path) from exc
