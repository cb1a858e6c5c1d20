"""Word-level rewriting, the independent reference for the engine's kernel.

Words here are ``Word`` tuples and orders come from ``TermOrder.key``; the
engine rewrites code strings over an alphabet and compares precedence ranks.
Tests hold ``normalize`` and ``reduce_trace`` to ``reference_reduce``, and
the basis checks use ``is_irreducible``.
"""

import functools
from collections import deque

from qheis import NCPoly
from qheis.coeffs import Coefficient
from qheis.errors import NonTermination
from qheis.ncpoly import Word


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
    chain = deque(maxlen=5)
    while True:
        best = best_key = None
        for w in terms:
            k = system.order.key(w)
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
