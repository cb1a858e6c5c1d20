"""Oriented rewriting: compile relations to rules, normalize, check confluence.

Relations ``poly = 0`` are oriented by picking the order-maximal word as the
left-hand side; the rule rewrites it to the remaining (smaller) terms.  Two
term orders are provided:

* ``deglex``  - word length first, then the precedence sequence from the
  left.  Every catalog family with length-nonincreasing relations uses it.
* ``invlex``  - number of out-of-order adjacent-precedence pairs first, then
  length, then the precedence sequence.  Needed when a relation trades one
  inversion for extra low letters, as in h*x -> x*f(h) with deg f >= 2.

Normalization applies, deterministically, the first matching rule at the
leftmost position of the largest reducible word; among words of equal order
key the one inserted into the term dict first wins.  The next redex comes
from a heap of the reducible words, each keyed and matched once when it
enters the polynomial, so a step costs O(|rhs| log terms) and not a rescan of
every term.

Inside ``normalize`` a word is a ``str`` with one character (its code) per
distinct generator, so hashing, slicing, concatenation and matching run in
C; ``Word`` and ``NCPoly`` appear only at entry, at exit and in trace and
chain snapshots.  Each system builds its code tables on its first
normalization, not in ``__init__``, so loading a presentation costs nothing
extra.  The tables are:

* the code of each letter some rule mentions; a letter no rule mentions gets
  a code in a per-call copy, so nothing leaks into the system;
* each lhs code with its rule and its rhs as code strings;
* one regex of the escaped lhs codes joined by ``|``, shortest first: a
  search returns the leftmost position and, there, the shortest lhs, which
  is ``first_redex``;
* two ``str.translate`` tables from codes to precedence ranks, ascending and
  descending, so that a heap key is ``(-len, descending ranks)`` for deglex
  and ``(-inversions, -len, descending ranks)`` for invlex, with the
  inversions counted on the ascending ranks.  Tied precedences share a rank.

The word-level API (``redexes``, ``first_redex``, ``is_irreducible``,
``_apply_at``, ``TermOrder.key``) stays on ``Word`` tuples: the brute-force
oracle and the inclusion ambiguities of critical pairs take every redex, and
it is the independent reference the tests hold the code-string kernel to.

Local confluence is checked by resolving every overlap and inclusion
ambiguity of the rule set (the diamond lemma; none is longer than
2*(longest lhs) - 1, so all are checked).  With termination this certifies
unique normal forms and that the irreducible words form a linear basis.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush

from .coeffs import Coefficient
from .errors import NonTermination, OrientationError
from .ncpoly import NCPoly, Word, _ncpoly

DEFAULT_STEP_LIMIT = 10_000


@dataclass(frozen=True, slots=True)
class TermOrder:
    """Well-ordering of words used to orient rules and steer normalization."""

    kind: str = "deglex"

    def __post_init__(self):
        if self.kind not in ("deglex", "invlex"):
            raise ValueError(f"unknown term order {self.kind!r}")

    def key(self, word):
        precs = tuple(g.precedence for g in word)
        if self.kind == "deglex":
            return (len(word), precs)
        inv = 0
        for i in range(len(precs)):
            pi = precs[i]
            for j in range(i + 1, len(precs)):
                if pi > precs[j]:
                    inv += 1
        return (inv, len(word), precs)

    def greater(self, w1, w2):
        return self.key(w1) > self.key(w2)

    def __repr__(self):
        return f"TermOrder({self.kind!r})"


@dataclass(frozen=True)
class RewriteRule:
    lhs: Word
    rhs: NCPoly
    origin: str

    def __repr__(self):
        return f"{self.lhs!r} -> {self.rhs!r}  [{self.origin}]"


class RewriteSystem:
    """Validated, immutable collection of oriented rules."""

    __slots__ = ("rules", "order", "step_limit", "_by_lhs", "_lengths", "_codes")

    def __init__(self, rules, order=None, step_limit=DEFAULT_STEP_LIMIT):
        order = order or TermOrder("deglex")
        rules = tuple(rules)
        by_lhs = {}
        for r in rules:
            if len(r.lhs) < 2:
                raise OrientationError(
                    f"rule {r.origin}: left side {r.lhs!r} is shorter than two letters"
                )
            if r.lhs in by_lhs:
                raise OrientationError(
                    f"rules {by_lhs[r.lhs].origin} and {r.origin} share the left side "
                    f"{r.lhs!r}"
                )
            lk = order.key(r.lhs)
            for w in r.rhs.terms:
                if not lk > order.key(w):
                    raise OrientationError(
                        f"rule {r.origin}: right-side word {w!r} is not smaller than "
                        f"{r.lhs!r}"
                    )
            by_lhs[r.lhs] = r
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "step_limit", int(step_limit))
        object.__setattr__(self, "_by_lhs", by_lhs)
        object.__setattr__(self, "_lengths", tuple(sorted({len(r.lhs) for r in rules})))
        object.__setattr__(self, "_codes", None)

    def __setattr__(self, name, value):
        raise AttributeError("RewriteSystem is immutable")

    def redexes(self, word):
        """Every ``(pos, rule)`` whose lhs occurs in ``word`` at ``pos``:
        leftmost position first, and at each position the shortest lhs
        first."""
        n = len(word)
        for pos in range(n):
            for L in self._lengths:
                if pos + L > n:
                    break
                r = self._by_lhs.get(word[pos:pos + L])
                if r is not None:
                    yield pos, r

    def first_redex(self, word):
        return next(self.redexes(word), None)

    def is_irreducible(self, word):
        return self.first_redex(word) is None

    def _code_tables(self):
        """``(letters, code, desc, asc, search, by_lhs)``, built on the first
        call: the letters the rules mention, in code order, and their
        tables (see ``_alphabet``); ``search`` finds the first redex of a
        code string, and ``by_lhs`` maps each lhs code to its rule and the
        rule's rhs as a tuple of ``(code, Coefficient)`` pairs, with None
        for a coefficient 1."""
        if self._codes is None:
            letters = list(dict.fromkeys(
                g for r in self.rules for w in (r.lhs, *r.rhs.terms) for g in w))
            code, desc, asc = _alphabet(letters)
            by_lhs = {}
            for r in self.rules:
                rhs = tuple((_encode(code, w), None if c == 1 else c)
                            for w, c in r.rhs.terms.items())
                by_lhs[_encode(code, r.lhs)] = (r, rhs)
            # "(?!)" never matches: the pattern of a system without rules
            pattern = "|".join(map(re.escape, sorted(by_lhs, key=len))) or "(?!)"
            object.__setattr__(self, "_codes", (letters, code, desc, asc,
                                                re.compile(pattern).search, by_lhs))
        return self._codes

    def __repr__(self):
        return f"RewriteSystem({len(self.rules)} rules, {self.order.kind})"


def orient_relation(label, poly, order):
    """The rule ``lead -> lead - poly/lc`` of the relation ``poly = 0``, with
    ``lead`` the unique order-maximal word of ``poly`` and lc its coefficient.
    A zero relation, a tied maximal word or a one-letter ``lead`` raises
    OrientationError."""
    if poly.is_zero:
        raise OrientationError(f"relation {label} is identically zero")
    words = list(poly.terms)
    lead = max(words, key=order.key)
    lk = order.key(lead)
    if sum(1 for w in words if order.key(w) == lk) > 1:
        raise OrientationError(f"relation {label} has no unique maximal word")
    if len(lead) < 2:
        raise OrientationError(
            f"relation {label}: maximal word {lead!r} is shorter than two letters"
        )
    lc = poly.terms[lead]
    return RewriteRule(Word(lead), NCPoly.from_word(lead) - poly * lc.inverse(), label)


def orient(presentation, step_limit=DEFAULT_STEP_LIMIT):
    """Compile a presentation's relations into a RewriteSystem.

    Each relation becomes a rule by ``orient_relation``.  Declared inverse
    pairs contribute the two cancellation rules g*g_inv -> 1 and
    g_inv*g -> 1 unless equivalent relations are already listed.  Exact
    duplicates and relations whose leading word is empty or a single letter
    are rejected loudly: they are presentation typos.
    """
    order = TermOrder(presentation.order_kind)
    rules = []
    seen = {}
    for label, poly in presentation.relations:
        rule = orient_relation(label, poly, order)
        prev = seen.get(rule.lhs)
        if prev is not None and prev.rhs == rule.rhs:
            raise OrientationError(
                f"relations {prev.origin} and {label} orient to the same rule"
            )
        seen.setdefault(rule.lhs, rule)
        rules.append(rule)
    for g, ginv in presentation.inverse_pairs:
        for a, b, tag in ((g, ginv, f"unit:{g.sym}*{ginv.sym}"),
                          (ginv, g, f"unit:{ginv.sym}*{g.sym}")):
            lhs = Word((a, b))
            if lhs not in {r.lhs for r in rules}:
                rules.append(RewriteRule(lhs, NCPoly.one(), tag))
    return RewriteSystem(rules, order, step_limit)


def _apply_at(terms, word, pos, rule):
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


def _alphabet(letters):
    """Codes and rank tables of ``letters``: ``code`` maps the i-th letter
    to ``chr(i)``; ``asc`` and ``desc`` translate each code to the rank of
    its precedence among the letters' distinct precedences, counted from
    the lowest and from the highest."""
    code = {g: chr(i) for i, g in enumerate(letters)}
    precs = sorted({g.precedence for g in letters})
    rank = {p: r for r, p in enumerate(precs)}
    top = len(precs) - 1
    asc = str.maketrans({c: chr(rank[g.precedence]) for g, c in code.items()})
    desc = str.maketrans({c: chr(top - rank[g.precedence]) for g, c in code.items()})
    return code, desc, asc


def _encode(code, word):
    return "".join([code[g] for g in word])


def _inversions(ranks):
    """Number of pairs i < j with ranks[i] > ranks[j]."""
    inv = 0
    seen = []  # the characters right of the current one, sorted
    for c in reversed(ranks):
        k = bisect_left(seen, c)
        inv += k
        seen.insert(k, c)
    return inv


def _reduce(poly, sys, trace):
    letters, code, desc, asc, search, by_lhs = sys._code_tables()
    words = {}  # code string -> Word: the input's own Words, then decoded ones
    terms = {}
    for w, c in poly.terms.items():
        try:
            s = _encode(code, w)
        except KeyError:
            # letters no rule mentions get codes in a per-call copy
            letters = letters + [g for g in dict.fromkeys(w) if g not in code]
            code, desc, asc = _alphabet(letters)
            s = _encode(code, w)
        words[s] = w
        terms[s] = c

    def word(s):
        w = words.get(s)
        if w is None:
            w = words[s] = Word(map(letters.__getitem__, map(ord, s)))
        return w

    # Max-heap of the reducible words in ``terms`` by order key; ties go to
    # the smaller insertion number, i.e. to the earlier word in dict order.
    # A word removed from ``terms`` (and maybe re-inserted under a new
    # number) leaves a stale entry, skipped through ``live``.
    heap = []
    live = {}
    seq = 0
    invlex = sys.order.kind == "invlex"

    def enter(w):
        nonlocal seq
        m = search(w)
        if m is not None:
            seq += 1
            live[w] = seq
            if invlex:
                key = (-_inversions(w.translate(asc)), -len(w), w.translate(desc))
            else:
                key = (-len(w), w.translate(desc))
            heappush(heap, (key, seq, w, m))

    for w in terms:
        enter(w)
    steps = 0
    limit = sys.step_limit
    # NCPoly snapshots of the last steps, for NonTermination.chain
    chain = deque(maxlen=5)
    while heap:
        _, n, best, m = heappop(heap)
        if live[best] != n or best not in terms:
            continue
        steps += 1
        if steps > limit:
            raise NonTermination(f"step limit {limit} exceeded", chain=chain)
        rule, rhs = by_lhs[m.group()]
        pos = m.start()
        # the step always cancels the rewritten word
        coeff = terms.pop(best)
        prefix, suffix = best[:pos], best[m.end():]
        for rw, rc in rhs:
            nw = prefix + rw + suffix
            c = coeff if rc is None else coeff * rc
            old = terms.get(nw)
            if old is None:
                terms[nw] = c
                enter(nw)
                continue
            s = old + c
            if s.is_zero:
                del terms[nw]
            else:
                terms[nw] = s
        if trace is not None or steps > limit - chain.maxlen:
            snap = (rule.origin, pos,
                    _ncpoly({word(s): c for s, c in terms.items()}))
            chain.append(snap)
            if trace is not None:
                trace.append(snap)
    return _ncpoly({word(s): c for s, c in terms.items()})


def normalize(poly, sys):
    """Fixed point of rule application; canonical form when the system is
    confluent."""
    return _reduce(poly, sys, None)


def reduce_trace(poly, sys):
    """All reduction steps as (rule id, position, intermediate polynomial).

    Replaying the trace ends at ``normalize(poly, sys)``.
    """
    trace = []
    _reduce(poly, sys, trace)
    return trace


@dataclass(frozen=True)
class CriticalPair:
    overlap_word: Word
    left_rule: str
    right_rule: str
    left_result: NCPoly
    right_result: NCPoly
    resolved: bool

    def __repr__(self):
        status = "resolved" if self.resolved else "UNRESOLVED"
        return (f"CriticalPair({self.overlap_word!r}; {self.left_rule} / "
                f"{self.right_rule}; {status})")


def critical_pairs(sys):
    """All overlap and inclusion ambiguities of the rule set.

    For every word in which two rule left sides overlap, both one-step
    results are computed and the pair is resolved when their normal forms
    agree.
    """
    out = []
    one = Coefficient.one()

    def add(w, r1, r2, p2):
        left, right = {w: one}, {w: one}
        _apply_at(left, w, 0, r1)
        _apply_at(right, w, p2, r2)
        left, right = NCPoly(left), NCPoly(right)
        resolved = normalize(left, sys) == normalize(right, sys)
        out.append(CriticalPair(w, r1.origin, r2.origin, left, right, resolved))

    for r1 in sys.rules:
        l1 = r1.lhs
        for r2 in sys.rules:
            l2 = r2.lhs
            # suffix of r1.lhs equals prefix of r2.lhs
            for k in range(1, min(len(l1), len(l2))):
                if l1[len(l1) - k:] == l2[:k]:
                    add(Word(l1 + l2[k:]), r1, r2, len(l1) - k)
        # another lhs inside r1.lhs
        for pos, r2 in sys.redexes(l1):
            if r2 is not r1:
                add(l1, r1, r2, pos)
    out.sort(key=lambda cp: (sys.order.key(cp.overlap_word), cp.left_rule,
                             cp.right_rule))
    return out


@dataclass(frozen=True)
class ConfluenceReport:
    confluent: bool
    unresolved: tuple
    checked: int

    def __repr__(self):
        verdict = "confluent" if self.confluent else "NOT confluent"
        return (f"{verdict} ({self.checked} ambiguities, "
                f"{len(self.unresolved)} unresolved)")


def check_confluence(sys):
    pairs = critical_pairs(sys)
    unresolved = tuple(p for p in pairs if not p.resolved)
    return ConfluenceReport(not unresolved, unresolved, len(pairs))
