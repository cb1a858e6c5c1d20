"""Deterministic rendering of polynomials and coefficients.

Three styles: ``plain`` (ASCII, re-parseable), ``latex`` (hatted generators,
\\hbar), and ``machine`` (loss-free JSON).  Terms print in display order:
longer words first, then by the precedence sequence.

Every coefficient polynomial prints through one term path on its packed
monomial keys (``coeffs``).  Several terms are ordered lex on the variable
names, whatever the interning order, by the keys' exponent fields read
from the int in name order (``_lex_rows``); a numerator's content is their
field-wise minimum where positive, divided out by int subtraction.  A term
prints as the reduced ratios of its ``(a, b, d)`` triple, then its
monomial's text from ``_mono_text``, a memo of at most ``MONO_MEMO_SIZE``
monomials keyed by packed key (one monomial for the life of the process),
style and the base variables printed raw.  The machine style reads a longer
polynomial's (variable, exponent) pairs straight from the fields, as its
raw monomials can outnumber the memo.  Each alphabet keeps its letters'
plain, LaTeX and machine texts (``Alphabet.texts``) from its first print,
and a word prints as runs of those texts.  A scope's raw base variables are
kept beside them, so they are worked out once per presentation.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import groupby
from math import gcd

from .coeffs import (EXP_LIMIT, Coefficient, _FIELD, _masks, _mono,
                     _name_fields, _t_neg, _unpack)
from .errors import QheisError, SchemaError
from .ncpoly import Generator, NCPoly, Word, _display_items


def _ratio_str(n, d):
    """``str(Fraction(n, d))`` for d > 0, with no Fraction built."""
    g = gcd(n, d)
    if g != 1:
        n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


def _t_str(t):
    """``(re +/- |im|*i)`` for a triple with real and imaginary parts."""
    a, b, d = t
    imag = "i" if abs(b) == d else f"{_ratio_str(abs(b), d)}*i"
    return f"({_ratio_str(a, d)} {'+' if b > 0 else '-'} {imag})"


def _lex_rows(poly):
    """``_name_fields`` of a packed polynomial, and a row ``(fields, key,
    triple)`` per term, leading first under lex order on the names: the
    key's exponents plus ``EXP_LIMIT`` in name order, read from the int."""
    off = _masks(max(max(poly), -min(poly)))[0]
    names = _name_fields(poly, off)
    return names, sorted([([((m + off) >> sh) & _FIELD for _, sh in names],
                           m, t) for m, t in poly.items()], reverse=True)


def _negative(t):
    a, b, _ = t
    return a < 0 if a else b < 0


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
        base, e = "q", _ratio_str(exp, 2)
    elif var == "t":
        base, e = "p", _ratio_str(exp, 2)
    elif var == "h":
        base, e = r"\hbar", str(exp)
    else:
        if "_" in var:
            head, _, tail = var.partition("_")
            base = f"{head}_{{{tail}}}"
        else:
            base = var
        e = str(exp)
    if e == "1":
        return base
    return f"{base}^{{{e}}}"


_VAR_ORDER = {"h": 0, "s": 1, "t": 2}


def _scalar_parts(t):
    """Factor list of a positive scalar triple, empty for 1."""
    a, b, d = t
    if a and b:
        return [_t_str(t)]
    if b:
        return ["i"] if b == d else [_ratio_str(b, d), "i"]
    return [] if a == d else [_ratio_str(a, d)]


# distinct monomials whose texts ``_mono_text`` keeps; a plain pass over the
# growth normal forms needs 360, and the bound keeps a long run's memory flat
MONO_MEMO_SIZE = 512


@lru_cache(maxsize=MONO_MEMO_SIZE)
def _mono_text(m, style, raw):
    """The text of the packed monomial ``m`` in ``style``: for ``plain``
    and ``latex`` its factor list, hbar, then q, then p, then the other
    variables by name; for ``machine`` its (variable, exponent) pairs."""
    mono = _unpack(m)
    if style == "machine":
        return mono
    mono = sorted(mono, key=lambda ve: (_VAR_ORDER.get(ve[0], 3), ve[0]))
    if style == "latex":
        return tuple([_var_latex(v, e) for v, e in mono])
    return tuple([_var_plain(v, e, raw) for v, e in mono])


def _join(parts, latex=False):
    return " ".join(parts) if latex else "*".join(parts)


def _signed_sum(items):
    """``a + b - c`` of (negative, text) items."""
    out = []
    for neg, body in items:
        if not out:
            out.append(("-" if neg else "") + body)
        else:
            out.append(("- " if neg else "+ ") + body)
    return " ".join(out)


def _term(m, t, style, raw):
    """(negative, factor list) of the term ``t * m``: the scalar parts of
    the triple made positive, then the text of the packed monomial."""
    neg = _negative(t)
    parts = _scalar_parts(_t_neg(t) if neg else t)
    if m:
        parts += _mono_text(m, style, raw)
    return neg, parts or ["1"]


def _sum_text(terms, style, raw):
    """Sum of ``(packed monomial, triple)`` terms, each with its sign."""
    latex = style == "latex"
    out = []
    for m, t in terms:
        neg, parts = _term(m, t, style, raw)
        out.append((neg, _join(parts, latex)))
    return _signed_sum(out)


def _num_body(num, style, raw):
    """(negative, factor list) for a packed numerator: one term as it is,
    several as a sum in parentheses after their common factors: ``i`` when
    every term is imaginary, the leading term's sign and the content."""
    if len(num) == 1:
        (m, t), = num.items()
        return _term(m, t, style, raw)
    names, rows = _lex_rows(num)
    # the content, each variable's least exponent where positive; dividing
    # by it is one int subtraction and keeps the lex order of the terms
    content = 0
    for (_, sh), low in zip(names, map(min, zip(*[row[0] for row in rows]))):
        if low > EXP_LIMIT:
            content += (low - EXP_LIMIT) << sh
    terms = [(m - content, t) for _, m, t in rows]
    all_imag = not any(a for _, (a, _, _) in terms)
    lead_neg = _negative(terms[0][1])
    if all_imag:
        terms = [(m, (b, 0, d)) for m, (_, b, d) in terms]
    if lead_neg:
        terms = [(m, _t_neg(t)) for m, t in terms]
    parts = ["i"] if all_imag else []
    if content:
        parts += _mono_text(content, style, raw)
    parts.append(f"({_sum_text(terms, style, raw)})")
    return lead_neg, parts


def _coeff_parts(c, latex=False, raw=frozenset()):
    """(negative, factor list) for a coefficient."""
    if c.is_zero:
        return False, ["0"]
    style = "latex" if latex else "plain"
    neg, parts = _num_body(c._num, style, raw)
    # a canonical one-term denominator is the unit
    if len(c._den) > 1:
        den_body = _sum_text(((m, t) for _, m, t in _lex_rows(c._den)[1]),
                             style, raw)
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


def _texts(alphabet):
    """``(plain, latex, raw, machine)`` of an alphabet, made on its first
    print and kept on it as ``texts``: each letter's plain and LaTeX text in
    code order, the base variables (s, t) that print verbatim because a
    letter is named q or p, and each letter's machine-format entry."""
    texts = alphabet.texts
    if texts is None:
        letters = alphabet.letters
        texts = alphabet.texts = (
            tuple([g.sym for g in letters]),
            tuple([_gen_latex(g) for g in letters]),
            _raw({g.name for g in letters}),
            tuple([(g.name, g.index, g.precedence) for g in letters]))
    return texts


def _raw(names):
    return frozenset(base for name, base in (("q", "s"), ("p", "t"))
                     if name in names)


def _word_parts(s, letters, latex):
    """Factor list of the code string ``s``: a run of k equal letters is
    the letter's text to the k-th power."""
    out = []
    for ch, run in groupby(s):
        text = letters[ord(ch)]
        k = len(list(run))
        if k == 1:
            out.append(text)
        else:
            out.append(f"{text}^{{{k}}}" if latex else f"{text}^{k}")
    return out


def format_expr(poly, style="plain", scope=None):
    """Render a polynomial deterministically in the requested style.

    When the alphabet shadows the central symbol q or p with a generator of
    the same name, the central variable is printed as its base square root
    (s or t) so the plain form stays unambiguous and re-parseable.  Pass the
    presentation (or a polynomial) as ``scope`` to use its whole alphabet;
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
        raw = _texts(scope.alphabet)[2]
    else:
        raw = _raw({g.name for g in poly.letters()})
    letters = _texts(poly.alphabet)[latex]
    out = []
    for s, c in _display_items(poly):
        neg, cparts = _coeff_parts(c, latex, raw)
        if not s:
            body = _join(cparts, latex)
        elif cparts == ["1"]:
            body = _join(_word_parts(s, letters, latex), latex)
        else:
            body = _join(cparts + _word_parts(s, letters, latex), latex)
        out.append((neg, body))
    return _signed_sum(out)


# -- machine format ---------------------------------------------------------

def _poly_json(p):
    if len(p) == 1:
        (m, (a, b, d)), = p.items()
        return [[_mono_text(m, "machine", None), _ratio_str(a, d),
                 _ratio_str(b, d)]]
    # several terms: the (variable, exponent) pairs straight from the
    # fields, as long numerators hold more monomials than the memo
    names, rows = _lex_rows(p)
    return [[[(v, f - EXP_LIMIT) for (v, _), f in zip(names, fields)
              if f != EXP_LIMIT], _ratio_str(a, d), _ratio_str(b, d)]
            for fields, _, (a, b, d) in rows]


def _format_machine(poly):
    letters = _texts(poly.alphabet)[3]
    terms = []
    for s, c in _display_items(poly):
        terms.append({
            "word": [letters[ord(ch)] for ch in s],
            "num": _poly_json(c._num),
            "den": _poly_json(c._den),
        })
    return json.dumps({"format": "qheis-poly-v1", "terms": terms},
                      separators=(",", ":"))


def _machine_poly(entries):
    return {_mono(m): Coefficient.from_gauss(re, im) for m, re, im in entries}


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
