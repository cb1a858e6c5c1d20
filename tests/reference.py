"""Independent references for the engine's kernels.

Word-level rewriting: words here are ``Word`` tuples, keyed by
``TermOrder.code_key`` over the system's alphabet joined with the input's
letters; the engine rewrites code strings and keeps its heap keys itself.  Tests hold ``normalize`` and ``reduce_trace`` to
``reference_reduce``, and the basis checks use ``is_irreducible``.

Expression values: ``evaluate`` gives the value of an expression tree from
public ``NCPoly`` arithmetic, factor by factor, and ``expression_text`` its
text in the parser's grammar; tests hold ``parse_expr`` to the pair.
"""

import functools
from collections import deque
from fractions import Fraction

from qheis import NCPoly
from qheis.coeffs import Coefficient
from qheis.errors import NonTermination
from qheis.ncpoly import Alphabet, Word, commutator


@functools.cache
def _rule_table(system):
    by_lhs = {r.lhs: r for r in system.rules}
    return by_lhs, sorted({len(lhs) for lhs in by_lhs})


def redexes(system, word):
    """Every ``(pos, rule)`` whose lhs occurs in ``word`` at ``pos``:
    leftmost position first, and at each position the shortest lhs
    first."""
    by_lhs, lengths = _rule_table(system)
    n = len(word)
    for pos in range(n):
        for L in lengths:
            if pos + L > n:
                break
            r = by_lhs.get(word[pos:pos + L])
            if r is not None:
                yield pos, r


def first_redex(system, word):
    return next(redexes(system, word), None)


def is_irreducible(system, word):
    return first_redex(system, word) is None


def apply_at(terms, word, pos, rule):
    """One rewrite step, in place on the term dict ``terms``: replace
    ``word`` and its coefficient by the rewrite of its occurrence of
    rule.lhs at ``pos``."""
    coeff = terms.pop(word)
    prefix, suffix = word[:pos], word[pos + len(rule.lhs):]
    for rw, rc in rule.rhs.terms.items():
        nw = Word(prefix + rw + suffix)
        old = terms.get(nw)
        s = (Coefficient.zero() if old is None else old) + coeff * rc
        if s.is_zero:
            terms.pop(nw, None)
        else:
            terms[nw] = s


def reference_reduce(poly, system, trace):
    """The full-scan strategy: every step rescans all terms for the largest
    reducible word, ties going to the earliest word in dict order."""
    terms = dict(poly.terms)
    alphabet = Alphabet((*system.alphabet.letters, *(g for w in terms for g in w)))
    chain = deque(maxlen=5)
    while True:
        best = best_key = None
        for w in terms:
            k = system.order.code_key(alphabet.encode(w), alphabet)
            if best_key is not None and k <= best_key:
                continue
            m = first_redex(system, w)
            if m is not None:
                best, best_key, (pos, rule) = w, k, m
        if best is None:
            return NCPoly(terms)
        if len(trace) == system.step_limit:
            raise NonTermination(f"step limit {system.step_limit} exceeded",
                                 chain=chain)
        apply_at(terms, best, pos, rule)
        chain.append((rule.origin, pos, NCPoly(terms)))
        trace.append(chain[-1])


# ---------------------------------------------------------------------------
# Expression trees.  An expression is ``(negate, [(op, term), ...])`` with op
# "+" or "-" (the first one is not written), a term is a list of factors and
# a factor is ``(atom, exponent)``, the exponent a text such as "2", "-1" or
# "(1/2)", or None.  An atom is ``("gen", name)``, ``("num", text)``,
# ``("sym", name)`` for a central or opaque symbol, ``("paren", expr)`` or
# ``("comm", expr, expr)``.
# ---------------------------------------------------------------------------

_CENTRALS = {"i": Coefficient.imag(), "hbar": Coefficient.hbar_power(1),
             "q": Coefficient.q_power(1), "p": Coefficient.p_power(1),
             "s": Coefficient.q_power(Fraction(1, 2)),
             "t": Coefficient.p_power(Fraction(1, 2))}


def expression_text(expr):
    negate, terms = expr
    out = "-" if negate else ""
    for n, (op, term) in enumerate(terms):
        out += (f" {op} " if n else "") + "*".join(map(_factor_text, term))
    return out


def _factor_text(factor):
    atom, exp = factor
    if atom[0] == "paren":
        text = f"({expression_text(atom[1])})"
    elif atom[0] == "comm":
        text = f"[{expression_text(atom[1])}, {expression_text(atom[2])}]"
    else:
        text = atom[1]
    return text if exp is None else f"{text}^{exp}"


def evaluate(expr, pres):
    """The value of ``expr`` over the presentation ``pres``: generators are
    ``pres.poly`` words and scalars ``NCPoly.from_scalar`` values."""
    negate, terms = expr
    value = None
    for op, term in terms:
        t = _term_value(term, pres)
        if value is None:
            value = -t if negate else t
        else:
            value = value + t if op == "+" else value - t
    return value


def _term_value(term, pres):
    value = _factor_value(term[0], pres)
    for factor in term[1:]:
        value = value * _factor_value(factor, pres)
    return value


def _factor_value(factor, pres):
    atom, exp = factor
    kind = atom[0]
    if kind == "gen":
        base = pres.poly(atom[1])
    elif kind == "num":
        base = NCPoly.from_scalar(Fraction(atom[1]))
    elif kind == "sym":
        name = atom[1]
        base = NCPoly.from_scalar(Coefficient.opaque(name) if name in pres.opaque_names
                                  else _CENTRALS[name])
    elif kind == "paren":
        base = evaluate(atom[1], pres)
    else:
        base = commutator(evaluate(atom[1], pres), evaluate(atom[2], pres))
    if exp is None:
        return base
    e = Fraction(exp.strip("()"))
    if kind == "sym" and atom[1] in ("q", "p"):
        make = Coefficient.q_power if atom[1] == "q" else Coefficient.p_power
        return NCPoly.from_scalar(make(e))
    # a power of a scalar (no word but the empty one) may be negative
    if all(len(w) == 0 for w in base.terms):
        return NCPoly.from_scalar(base.coefficient(()) ** int(e))
    return base ** int(e)
