"""Golden bytes of the printer.

Every normal form stored under ``perfbench/expected`` (read only) and a set
of edge-case coefficients are formatted in the plain, latex and machine
styles, with and without the presentation as ``scope``; one sha256 over all
of that text is pinned.  The same digest must come out of a process that
interns the opaque central variables in the reverse order.  A property test
draws long coefficients and checks that their text reads back and lists
the terms in lex order on the variable names.
"""

import functools
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qheis
from qheis import catalog, format_expr, load_presentation_file, parse_expr
from qheis.coeffs import Coefficient
from qheis.presfile import load_presentation
from qheis.printer import (MONO_MEMO_SIZE, _mono_text, format_coefficient,
                           parse_machine)

C = Coefficient
ROOT = Path(__file__).resolve().parent.parent
EXPECTED = ROOT / "perfbench" / "expected"
EXAMPLES = ROOT / "docs" / "examples"
MACHINE_PREFIX = '{"format":"qheis-poly-v1"'
OPAQUE_NAMES = ("A", "D_21", "D_jk", "zz")

GOLDEN_SHA256 = "67b18c6550c3081031d7e593624e834384e326429cddd8931d72da902fb21dbc"


@functools.cache
def _presentation(key):
    """``family``, ``family:variant`` or an example ``.qpres`` file."""
    if key.endswith(".qpres"):
        return load_presentation_file(str(EXAMPLES / key))
    family, _, variant = key.partition(":")
    return catalog(family, variant=variant) if variant else catalog(family)


def _is_presentation_key(key):
    return key.endswith(".qpres") or key.partition(":")[0] in qheis.family_ids()


def _stored_forms(node, pres=None):
    """(presentation key or None, machine text) of every stored normal form,
    in document order; a ``pres`` field or a presentation-named key gives
    the presentation of what it holds."""
    if isinstance(node, str):
        if node.startswith(MACHINE_PREFIX):
            yield pres, node
    elif isinstance(node, list):
        for item in node:
            yield from _stored_forms(item, pres)
    elif isinstance(node, dict):
        pres = node.get("pres", pres)
        for key, value in node.items():
            yield from _stored_forms(value, key if _is_presentation_key(key)
                                     else pres)


def _edge_coefficients():
    q, p, h = C.q_power(1), C.p_power(1), C.hbar_power(1)
    half = Fraction(1, 2)
    d_jk, d_21, a, zz = (C.opaque(n) for n in ("D_jk", "D_21", "A", "zz"))
    return [
        # real and imaginary parts that reduce separately: (2 + i)/2
        C.from_gauss(1, half),
        C.from_gauss(Fraction(3, 4), Fraction(-5, 6)) * q,
        C.from_gauss(Fraction(-1, 3), half) * C.q_power(half),
        # fractional pure imaginary, negative leading terms
        C.from_gauss(0, Fraction(-3, 4)) * C.q_power(Fraction(3, 2)),
        C.from_gauss(0, Fraction(2, 5)) * h,
        -C.from_gauss(2) * q + 1,
        C.from_gauss(Fraction(-7, 3)) * p**-1 - h * C.from_gauss(0, 1),
        # all-imaginary numerators with monomial content
        C.imag() * q * (C.q_power(half) + Fraction(2, 3)) * h,
        C.from_gauss(0, -2) * h**2 * (q**3 - p) * d_jk,
        # multi-term denominators
        (q - 1).inverse(),
        (C.from_gauss(2, 1) * q + h) / (q**2 + p**-1 + 1),
        C.imag() * h * q / (C.q_power(half) - C.q_power(-half)),
        -(q + C.from_gauss(0, 3)) / ((q - 1) * (p + h)),
        # opaque symbols
        d_jk,
        d_21**-2 * a + zz * q,
        (d_jk + a * C.from_gauss(0, half)) / (d_21 - 1),
        # the base roots s and t, which a shadowing alphabet prints raw
        C.monomial({"s": 3, "t": -1}) * C.from_gauss(Fraction(5, 2)),
        C.monomial({"s": 1}) - C.monomial({"t": 2, "h": -1}),
        (C.monomial({"t": 1}) + 1) / (C.monomial({"s": 1}) + 1),
    ]


def _edge_polys():
    """(presentation, polynomial) pairs: each edge coefficient on a short
    word in an alphabet that shadows q or p (wess: p; qhbar: p) and in one
    that does not (gaddis)."""
    out = []
    for key, word in (("wess", ("x", "p")), ("qhbar", ("p", "x")),
                      ("gaddis", ("x", "z", "y"))):
        pres = _presentation(key)
        w = pres.poly(*word)
        first = pres.poly(word[0])
        for c in _edge_coefficients():
            out.append((pres, w * c))
            out.append((pres, first * c - w + c))
    return out


def golden_lines():
    lines = []
    for name in ("corpus", "growth", "layers", "session", "words"):
        with open(EXPECTED / f"{name}.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        for key, text in _stored_forms(doc):
            poly = parse_machine(text)
            scopes = (None,) if key is None else (None, _presentation(key))
            for scope in scopes:
                for style in ("plain", "latex", "machine"):
                    lines.append(format_expr(poly, style, scope=scope))
    for pres, poly in _edge_polys():
        for scope in (None, pres):
            for style in ("plain", "latex", "machine"):
                lines.append(format_expr(poly, style, scope=scope))
    for c in _edge_coefficients():
        lines.append(format_coefficient(c))
        lines.append(format_coefficient(c, latex=True))
        lines.append(repr(c))
    return lines


# one-term coefficients, parsed with no scope, so that p is the central p
ONE_TERM_TEXTS = ("1", "-1", "p", "p^(1/2)", "-p^-3", "2*q^(-1/2)*hbar*p^3",
                  "-i*t^3", "3/4*q*p^-1", "hbar^-2", "-i", "(2 + i)*q",
                  "-5/7*i*s*t")


def _one_term_polys():
    """(label, polynomial, scope): each one-term coefficient on a word of
    wess and of qhbar, whose generator p shadows the central p, of gaddis,
    whose alphabet does not, on a wess word with no scope (the letters in
    use decide) and alone."""
    w, qh, g = (_presentation(key) for key in ("wess", "qhbar", "gaddis"))
    out = []
    for text in ONE_TERM_TEXTS:
        c = qheis.parse_expr(text).coefficient(())
        out += [(f"wess|{text}", w.poly("p") * c, w),
                (f"qhbar|{text}", qh.poly("x", "x") * c, qh),
                (f"gaddis|{text}", g.poly("y", "x") * c, g),
                (f"wess-letters|{text}", w.poly("x", "p", "p") * c, None),
                (f"none|{text}", qheis.NCPoly.from_scalar(c), None)]
    return out


def one_term_outputs(interleaved):
    """``{label|style: text}`` for ``_one_term_polys``.  Interleaved, the
    scopes and styles alternate from one call to the next; otherwise each
    style prints every polynomial before the next style starts."""
    cases = _one_term_polys()
    styles = ("plain", "latex", "machine")
    if interleaved:
        order = [(case, style) for case in cases for style in styles]
    else:
        order = [(case, style) for style in styles for case in cases]
    return {f"{label}|{style}": format_expr(poly, style, scope=scope)
            for (label, poly, scope), style in order}


def golden_digest():
    text = "\n".join(golden_lines())
    return hashlib.sha256(text.encode()).hexdigest()


class TestPrinterGolden:
    def test_covers_every_stored_normal_form(self):
        counts = {}
        for name in ("corpus", "growth", "layers", "session", "words"):
            with open(EXPECTED / f"{name}.json", encoding="utf-8") as fh:
                forms = list(_stored_forms(json.load(fh)))
            assert forms and all(key is not None for key, _ in forms)
            counts[name] = len(forms)
        assert sum(counts.values()) == 649

    @pytest.mark.hashseed
    def test_golden_bytes_pinned(self):
        assert golden_digest() == GOLDEN_SHA256

    @pytest.mark.hashseed
    def test_golden_bytes_independent_of_interning_order(self):
        # the opaque names are interned in reverse order before anything
        # else, so they take the low packed fields in the opposite order
        code = ("import runpy, sys\n"
                "from qheis import Coefficient\n"
                f"for name in {tuple(reversed(OPAQUE_NAMES))!r}:\n"
                "    Coefficient.opaque(name)\n"
                "mod = runpy.run_path(sys.argv[1])\n"
                "print(mod['golden_digest']())\n")
        src = str(Path(qheis.__file__).resolve().parent.parent)
        out = subprocess.run([sys.executable, "-c", code, __file__],
                             capture_output=True, text=True, check=True,
                             timeout=300, env=dict(os.environ, PYTHONPATH=src))
        assert out.stdout.strip() == GOLDEN_SHA256


@pytest.mark.hashseed
class TestPrinterMemo:
    """Each term's monomial prints from a bounded memo of monomial texts,
    keyed by style and by the base variables a scope prints raw."""

    def test_one_term_coefficients_match_a_fresh_process(self):
        here = one_term_outputs(interleaved=True)
        assert here["wess|p|plain"] == "t^2*p"
        assert here["gaddis|p|plain"] == "p*y*x"
        assert here["wess-letters|p^(1/2)|plain"] == "t*x*p^2"
        assert here["none|p^(1/2)|plain"] == "p^(1/2)"
        assert here["qhbar|-5/7*i*s*t|latex"] == r"-5/7 i q^{1/2} p^{1/2} \hat{x}^{2}"
        code = ("import json, runpy, sys\n"
                "mod = runpy.run_path(sys.argv[1])\n"
                "print(json.dumps(mod['one_term_outputs'](False)))\n")
        src = str(Path(qheis.__file__).resolve().parent.parent)
        out = subprocess.run([sys.executable, "-c", code, __file__],
                             capture_output=True, text=True, check=True,
                             timeout=300, env=dict(os.environ, PYTHONPATH=src))
        assert json.loads(out.stdout) == here

    def test_memo_stays_bounded(self):
        assert _mono_text.cache_info().maxsize == MONO_MEMO_SIZE
        for k in range(2, MONO_MEMO_SIZE + 100):
            c = C.hbar_power(k) * C.q_power(-k)
            poly = qheis.NCPoly.from_scalar(c)
            assert format_expr(poly) == f"hbar^{k}*q^-{k}"
            assert format_expr(poly, "latex") == f"\\hbar^{{{k}}} q^{{-{k}}}"
            assert parse_machine(format_expr(poly, "machine")) == poly
        assert _mono_text.cache_info().currsize <= MONO_MEMO_SIZE
        # the growth normal forms' long numerators hold more raw monomials
        # than the memo, but fewer once the content is divided out: a second
        # round of prints in one style finds every monomial in the memo
        with open(EXPECTED / "growth.json", encoding="utf-8") as fh:
            forms = [(_presentation(key), parse_machine(text))
                     for key, text in _stored_forms(json.load(fh))]
        for style in ("plain", "latex", "machine"):
            for _ in range(2):
                before = _mono_text.cache_info()
                for pres, poly in forms:
                    format_expr(poly, style, scope=pres)
            after = _mono_text.cache_info()
            assert after.misses == before.misses
            assert after.currsize <= MONO_MEMO_SIZE


def _opaque_presentation(name, generators):
    lines = ["qheis-presentation 1", f"name: {name}"]
    lines += [f"generator: {g}" for g in generators]
    lines += [f"opaque: {o}" for o in OPAQUE_NAMES]
    return load_presentation("\n".join(lines) + "\n")


# generators q and p shadow both central roots, so s and t print raw
SHADOWING = _opaque_presentation("shadowing", ("q", "p"))
NOT_SHADOWING = _opaque_presentation("not_shadowing", ("x",))

_VARS = ("s", "t", "h") + OPAQUE_NAMES
_MONOS = st.dictionaries(st.sampled_from(_VARS),
                         st.integers(-4, 4).filter(bool), max_size=4).map(
    lambda d: tuple(sorted(d.items())))
_RATIOS = st.fractions(-5, 5, max_denominator=6).filter(bool)
# real, imaginary and complex (re, im) pairs
_GAUSS = st.one_of(_RATIOS.map(lambda r: (r, 0)), _RATIOS.map(lambda r: (0, r)),
                   st.tuples(_RATIOS, _RATIOS))


def _poly(terms, imaginary):
    return C({m: C.from_gauss(*((0, re or im) if imaginary else (re, im)))
              for m, (re, im) in terms.items()})


@st.composite
def _coefficients(draw):
    """2 to 40 numerator terms, some all imaginary, some with a monomial
    factor common to every term, over an optional multi-term
    denominator."""
    num = _poly(draw(st.dictionaries(_MONOS, _GAUSS, min_size=2, max_size=40)),
                draw(st.booleans()))
    content = draw(_MONOS)
    num *= C.monomial({v: abs(e) for v, e in content})
    if draw(st.booleans()):
        return num
    den = _poly(draw(st.dictionaries(_MONOS, _GAUSS, min_size=2, max_size=4)),
                False)
    return num / den


def _lex_sorted(monos):
    """Tuple monomials leading first, lex on the variable names: their
    exponent vectors over every name they use, in name order, descending."""
    names = sorted({v for m in monos for v, _ in m})
    return sorted(monos, reverse=True,
                  key=lambda m: [dict(m).get(v, 0) for v in names])


def _outside_parens(text, sep):
    """Pieces of ``text`` split at each ``sep`` outside parentheses."""
    out, depth, start, i = [], 0, 0, 0
    while i < len(text):
        if text[i] in "()":
            depth += 1 if text[i] == "(" else -1
        elif not depth and text.startswith(sep, i):
            out.append(text[start:i])
            start = i = i + len(sep)
            continue
        i += 1
    return out + [text[start:]]


def _plain_sum_monos(text):
    """Monomials of the terms of a parenthesized plain sum, in print
    order."""
    terms = [t for piece in _outside_parens(text[1:-1], " + ")
             for t in _outside_parens(piece, " - ")]
    monos = []
    for term in terms:
        (mono,) = parse_expr(term.lstrip("-"), NOT_SHADOWING).coefficient(()).num
        monos.append(mono)
    return monos


@pytest.mark.hashseed
class TestPrinterTermPath:
    """Long coefficients: their text reads back to their value, and their
    terms print in lex order on the variable names."""

    @settings(max_examples=100, deadline=None)
    @given(_coefficients())
    def test_reads_back_in_lex_order(self, c):
        for pres, letter in ((SHADOWING, "q"), (NOT_SHADOWING, "x")):
            poly = pres.poly(letter) * c
            assert parse_expr(format_expr(poly, scope=pres), pres) == poly
        machine = format_expr(poly, "machine")
        assert parse_machine(machine) == poly
        (term,) = json.loads(machine)["terms"]
        for part in ("num", "den"):
            monos = [tuple(map(tuple, m)) for m, _, _ in term[part]]
            assert monos == _lex_sorted(monos)
        # the plain factors end with the numerator's sum, after its common
        # factors, then the inverse of the denominator's
        text = format_expr(qheis.NCPoly.from_scalar(c), scope=NOT_SHADOWING)
        factors = _outside_parens(text.removeprefix("-"), "*")
        sums = []
        if len(c.den) > 1:
            assert factors[-1].endswith(")^-1")
            sums.append(factors.pop().removesuffix("^-1"))
        if len(c.num) > 1:
            sums.append(factors.pop())
        for text in sums:
            assert text.startswith("(") and text.endswith(")")
            monos = _plain_sum_monos(text)
            assert monos == _lex_sorted(monos)
