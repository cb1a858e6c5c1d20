"""Oriented rewriting: compile relations to rules, normalize, check confluence.

Relations ``poly = 0`` are oriented by picking the order-maximal word as the
left-hand side; the rule rewrites it to the remaining (smaller) terms.  Two
term orders are provided:

* ``deglex``  - word length first, then the precedence sequence from the
  left.  Every catalog family with length-nonincreasing relations uses it.
* ``invlex``  - number of inversions first (pairs of letters, adjacent or
  not, whose precedences are out of order), then length, then the
  precedence sequence.  Needed when a relation trades one inversion for
  extra low letters, as in h*x -> x*f(h) with deg f >= 2.

Normalization applies, deterministically, the first matching rule at the
leftmost position of the largest reducible word; among words of equal order
key the one inserted into the term dict first wins.  A heap holds the
reducible words, each keyed and matched once when it enters the polynomial,
so a step costs O(|rhs| log terms) word operations and not a rescan of every
term; no word is kept once rewritten, so memory follows the polynomial,
not the steps.  Under invlex the inversion count in the key of a word that
a step makes comes from the rewritten word's count and the right-side
word's inversion delta (``_inversion_delta``, built with the system): a
few ``str.count`` calls on the prefix and suffix, where a count from
scratch costs time quadratic in the word's length.  Input words, and every
word when the input has letters outside the system's alphabet, are counted
from scratch, as are the keys of ``orient_relation``, ``code_key`` and
``critical_pairs``.  The coefficients are accumulated in place
(``coeffs._addmul``): a step adds coeff*rc into the numerator dict of each
right-side word, at a cost linear in the terms of coeff and with no new
Coefficient.  The call owns these dicts: a word keeps the Coefficient it
came with (input and rule coefficients are never written) until a step
first writes it, which copies its numerator once.  Coefficients are built
only for the output and the trace snapshots, one per written term.  A
coefficient with a multi-term denominator, and a rule coefficient of
several terms, go through Coefficient arithmetic in the same loop.  A step past the system's
``step_limit`` raises NonTermination.  So does, in the systems ``complete``
builds while it runs, a step that enters a word longer than
WORD_LENGTH_LIMIT (or the input's longest word): under invlex a rule such
as h*x -> x*h^2 lengthens words, and completion would otherwise reduce
ever longer ones.  ``normalize`` on any other system has no such limit, as
a finite normal form may need long words (gha's h*x^10 is x^10*h^1024).

``normalize`` is linear, NF(a + c*b) = NF(a) + c*NF(b), also when the
system is not confluent.  Each word has one fixed one-step reduct, by the
first rule at its leftmost redex, so the word-level reductions have no
ambiguity, and a terminating reduction system without ambiguities reduces
every element to one normal form, linearly in it (Bergman 1978, the diamond
lemma).

Words are code strings over the system's alphabet, its presentation's (see
``ncpoly``).  A regex of the left sides, shortest first, finds the leftmost
redex and there the shortest left side; order keys compare the alphabet's
precedence ranks.

Local confluence is checked by resolving every overlap and inclusion
ambiguity of the rule set (the diamond lemma; none is longer than
2*(longest lhs) - 1, so all are checked).  With termination this certifies
unique normal forms and that the irreducible words form a linear basis.
``complete`` adds the unresolved ambiguities as rules until none is left, so
an ideal's members are exactly what normalizes to zero.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from collections import deque
from heapq import heappop, heappush
from itertools import chain

from ._record import Record
from .coeffs import Coefficient, _addmul, _frozen, _unit_term
from .errors import NonTermination, OrientationError, ParamError
from .ncpoly import Alphabet, _ncpoly, _over

DEFAULT_STEP_LIMIT = 10_000
# The longest word a step inside ``complete`` may enter, unless the input
# has a longer one.  Under deglex no step lengthens a word; under invlex a
# step can, and a relation such as h*x -> x*h^2 then grows words without
# bound.
WORD_LENGTH_LIMIT = 1024


class TermOrder(Record, frozen=True):
    """Well-ordering of words used to orient rules and steer normalization."""

    __slots__ = ("kind",)

    def __init__(self, kind="deglex"):
        if kind not in ("deglex", "invlex"):
            raise ParamError(f"unknown term order {kind!r}")
        self._set(kind)

    def key(self, word):
        """Sort key of a Word."""
        return self._key(tuple(g.precedence for g in word))

    def code_key(self, s, alphabet):
        """Sort key of a code string over ``alphabet``; within one alphabet
        it orders words as ``key`` does."""
        return self._key(s.translate(alphabet.asc))

    def _key(self, ranks):
        if self.kind == "deglex":
            return (len(ranks), ranks)
        return (_inversions(ranks), len(ranks), ranks)

    def __repr__(self):
        return f"TermOrder({self.kind!r})"


class RewriteRule(Record, frozen=True):
    __slots__ = ("lhs", "rhs", "origin")

    def __init__(self, lhs, rhs, origin):
        self._set(lhs, rhs, origin)

    def __repr__(self):
        return f"{self.lhs!r} -> {self.rhs!r}  [{self.origin}]"


class RewriteSystem:
    """Validated, immutable collection of oriented rules, over the join of
    the alphabets of their sides: the right sides' alphabets in rule order,
    then the left sides' letters, each letter at its first occurrence."""

    __slots__ = ("rules", "order", "step_limit", "alphabet", "_by_lhs",
                 "_lengths", "_search", "_word_limit")

    def __init__(self, rules, order=None, step_limit=DEFAULT_STEP_LIMIT):
        order = order or TermOrder("deglex")
        rules = tuple(rules)
        alphabets = [r.rhs.alphabet for r in rules]
        letters = tuple(dict.fromkeys(chain(*(a.letters for a in alphabets),
                                            *(r.lhs for r in rules))))
        # one name of two precedences raises AlphabetError
        alphabet = next((a for a in alphabets if a.letters == letters),
                        None) or Alphabet(letters)
        invlex = order.kind == "invlex"
        # lhs code -> (rule, rhs as (code, Coefficient, its _unit_term,
        # its _inversion_delta under invlex or else None))
        by_lhs = {}
        for r in rules:
            if len(r.lhs) < 2:
                raise OrientationError(
                    f"rule {r.origin}: left side {r.lhs!r} is shorter than two letters"
                )
            lhs = alphabet.encode(r.lhs)
            if lhs in by_lhs:
                prev = by_lhs[lhs][0]
                raise OrientationError(
                    f"relations {prev.origin} and {r.origin} orient to the same rule"
                    if prev.rhs == r.rhs else f"rules {prev.origin} and "
                    f"{r.origin} share the left side {r.lhs!r}")
            lk = order.code_key(lhs, alphabet)
            _, rhs = _over(alphabet, r.rhs)
            for s in rhs:
                if not lk > order.code_key(s, alphabet):
                    raise OrientationError(
                        f"rule {r.origin}: right-side word {alphabet.word(s)!r} is "
                        f"not smaller than {r.lhs!r}"
                    )
            by_lhs[lhs] = (r, tuple(
                (s, c, _unit_term(c),
                 _inversion_delta(lhs, s, alphabet.asc) if invlex else None)
                for s, c in rhs.items()))
        # "(?!)" never matches: the pattern of a system without rules
        pattern = "|".join(map(re.escape, sorted(by_lhs, key=len))) or "(?!)"
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "step_limit", int(step_limit))
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "_by_lhs", by_lhs)
        object.__setattr__(self, "_lengths", tuple(sorted({len(s) for s in by_lhs})))
        object.__setattr__(self, "_search", re.compile(pattern).search)
        # WORD_LENGTH_LIMIT in the systems of a running completion
        object.__setattr__(self, "_word_limit", None)

    def __setattr__(self, name, value):
        raise AttributeError("RewriteSystem is immutable")

    def __reduce__(self):
        # rebuilt from its rules: the default slot-state restore would go
        # through __setattr__
        return RewriteSystem, (self.rules, self.order, self.step_limit)

    def redexes(self, s):
        """Every ``(pos, lhs)`` with a left side ``lhs`` at ``pos`` of the code
        string ``s``: leftmost first, and at a position shortest first."""
        n = len(s)
        for pos in range(n):
            for L in self._lengths:
                if pos + L > n:
                    break
                lhs = s[pos:pos + L]
                if lhs in self._by_lhs:
                    yield pos, lhs

    def __repr__(self):
        return f"RewriteSystem({len(self.rules)} rules, {self.order.kind})"


_ONE = Coefficient.one()


def _reduct(sys, s, pos, lhs):
    """Term dict of the one-step rewrite of the word ``s`` (coefficient 1)
    at the occurrence of the left side ``lhs`` at ``pos``."""
    prefix, suffix = s[:pos], s[pos + len(lhs):]
    return {prefix + rw + suffix: rc for rw, rc, _, _ in sys._by_lhs[lhs][1]}


def orient_relation(label, poly, order):
    """The rule ``lead -> lead - poly/lc`` of the relation ``poly = 0``, with
    ``lead`` the unique order-maximal word of ``poly`` and lc its coefficient.
    A zero relation, a tied maximal word or a one-letter ``lead`` raises
    OrientationError."""
    if poly.is_zero:
        raise OrientationError(f"relation {label} is identically zero")
    alphabet = poly.alphabet
    keys = [order.code_key(s, alphabet) for s in poly._terms]
    lk = max(keys)
    if keys.count(lk) > 1:
        raise OrientationError(f"relation {label} has no unique maximal word")
    lead = list(poly._terms)[keys.index(lk)]
    if len(lead) < 2:
        raise OrientationError(
            f"relation {label}: maximal word {alphabet.word(lead)!r} is shorter "
            f"than two letters"
        )
    lc = poly._terms[lead]
    return RewriteRule(alphabet.word(lead),
                       _ncpoly({lead: _ONE}, alphabet) - poly * lc.inverse(), label)


def orient(presentation):
    """The RewriteSystem of a presentation's ``all_relation_polys()``, each
    relation oriented by ``orient_relation``; two with one leading word are
    rejected, as typos or a pair to solve first."""
    order = TermOrder(presentation.order_kind)
    return RewriteSystem([orient_relation(label, poly, order)
                          for label, poly in presentation.all_relation_polys()],
                         order)


def _inversions(ranks):
    """Number of pairs i < j with ranks[i] > ranks[j]."""
    inv = 0
    seen = []  # the items right of the current one, sorted
    for c in reversed(ranks):
        k = bisect_left(seen, c)
        inv += k
        seen.insert(k, c)
    return inv


def _inversion_delta(lhs, rw, asc):
    """``(d, below, above)`` of the right-side word ``rw`` of the left side
    ``lhs``, code strings whose letters ``asc`` ranks: for every prefix p
    and suffix s over the alphabet, inv(p+rw+s) is inv(p+lhs+s) + d plus
    k*p.count(c) for each ``(c, k)`` of ``below`` and k*s.count(c) for each
    of ``above``.  d = inv(rw) - inv(lhs).  A letter of p is inverted with
    each letter of the middle ranked below it, one of s with each ranked
    above it, so k is that number for rw minus that for lhs, bisected from
    their sorted ranks; letters of weight 0 are left out, and sides of
    equal ranks (a commutation rule's) weigh none without a pass over the
    alphabet."""
    lr = sorted(map(asc.__getitem__, map(ord, lhs)))
    rr = sorted(map(asc.__getitem__, map(ord, rw)))
    d = _inversions(rw.translate(asc)) - _inversions(lhs.translate(asc))
    if lr == rr:
        return d, (), ()
    grow = len(rr) - len(lr)
    below = tuple((chr(i), k) for i, r in asc.items()
                  if (k := bisect_left(rr, r) - bisect_left(lr, r)))
    above = tuple((chr(i), k) for i, r in asc.items()
                  if (k := bisect_right(lr, r) - bisect_right(rr, r) + grow))
    return d, below, above


def _reduce(poly, sys, trace):
    """Normal form of ``poly``; ``trace``, unless None, is called with each
    step's (rule id, position, polynomial after the step)."""
    alphabet, terms = _over(sys.alphabet, poly)
    # each word's accumulated coefficient (see coeffs._addmul)
    terms = dict(terms)
    asc, desc = alphabet.asc, alphabet.desc
    search, by_lhs = sys._search, sys._by_lhs

    # Max-heap of the reducible words in ``terms`` by order key; ties go to
    # the smaller insertion number, i.e. to the earlier word in dict order.
    # A word removed from ``terms`` (and maybe re-inserted under a new
    # number) leaves a stale entry, skipped through ``live``, which holds
    # only the words of ``terms`` still on the heap.  The invlex key
    # (-inversions, -length, ranks) of a word that a step makes takes its
    # count from the rewritten word's key and the right-side word's
    # _inversion_delta; input words, and every word when the input has
    # letters outside the system's alphabet (no delta weighs them), are
    # counted from scratch.
    heap = []
    live = {}
    seq = 0
    invlex = sys.order.kind == "invlex"
    derive = invlex and len(alphabet.letters) == len(sys.alphabet.letters)

    def push(w, m, inv=None):
        nonlocal seq
        seq += 1
        live[w] = seq
        if invlex:
            if inv is None:
                inv = _inversions(w.translate(asc))
            key = (-inv, -len(w), w.translate(desc))
        else:
            key = (-len(w), w.translate(desc))
        heappush(heap, (key, seq, w, m))

    for w in terms:
        m = search(w)
        if m is not None:
            push(w, m)
    steps = 0
    limit = sys.step_limit
    # unbounded outside completion; raised to the input's longest word when
    # a longer word comes up
    longest = sys._word_limit or float("inf")
    # NCPoly snapshots of the last steps, for NonTermination.chain: from
    # step ``last`` on, and of a step that made a word over the limit
    chain = deque(maxlen=5)
    last = limit - chain.maxlen
    over = 0
    while heap:
        key, n, best, m = heappop(heap)
        if live.get(best) != n:
            continue
        del live[best]
        steps += 1
        if steps > limit:
            raise NonTermination(f"step limit {limit} exceeded", chain=chain)
        rule, rhs = by_lhs[m.group()]
        pos = m.start()
        # the step always cancels the rewritten word
        coeff = terms.pop(best)
        prefix, suffix = best[:pos], best[m.end():]
        for rw, rc, term, delta in rhs:
            nw = prefix + rw + suffix
            old = terms.get(nw)
            if old is None and len(nw) > longest:
                longest = max(longest, *map(len, poly._terms))
                if len(nw) > longest and not over:
                    # the step ends, so that its snapshot holds the word
                    over, last = len(nw), 0
            c = _addmul(old, coeff, rc, term)
            if old is None:
                terms[nw] = c
                nm = search(nw)
                if nm is None:
                    continue
                inv = None
                if derive:
                    d, below, above = delta
                    inv = d - key[0]  # key[0] is -inversions of best
                    for ch, k in below:
                        inv += k * prefix.count(ch)
                    for ch, k in above:
                        inv += k * suffix.count(ch)
                push(nw, nm, inv)
            elif c is None:
                del terms[nw]
                live.pop(nw, None)
            elif c is not old:
                terms[nw] = c
        if trace is not None or steps > last:
            snap = (rule.origin, pos, _snapshot(terms, alphabet))
            chain.append(snap)
            if trace is not None:
                trace(snap)
            if over:
                raise NonTermination(
                    f"word length limit {longest} exceeded: a step made a "
                    f"word of {over} letters", chain=chain)
    return _snapshot(terms, alphabet)


def _snapshot(terms, alphabet):
    """NCPoly of the loop's term dict, whose coefficients it copies."""
    return _ncpoly(_frozen(terms), alphabet)


def normalize(poly, sys):
    """Fixed point of rule application; canonical form when the system is
    confluent."""
    return _reduce(poly, sys, None)


def reduce_trace(poly, sys):
    """All reduction steps as (rule id, position, intermediate polynomial).

    Replaying the trace ends at ``normalize(poly, sys)``.
    """
    trace = []
    _reduce(poly, sys, trace.append)
    return trace


class CriticalPair(Record, frozen=True):
    __slots__ = ("overlap_word", "left_rule", "right_rule", "left_result",
                 "right_result", "resolved")

    def __init__(self, overlap_word, left_rule, right_rule, left_result,
                 right_result, resolved):
        self._set(overlap_word, left_rule, right_rule, left_result,
                  right_result, resolved)

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
    alphabet, by_lhs = sys.alphabet, sys._by_lhs
    out = []

    def add(s, l1, l2, p2):
        r1, r2 = by_lhs[l1][0], by_lhs[l2][0]
        left = _ncpoly(_reduct(sys, s, 0, l1), alphabet)
        right = _ncpoly(_reduct(sys, s, p2, l2), alphabet)
        resolved = normalize(left, sys) == normalize(right, sys)
        out.append((sys.order.code_key(s, alphabet), r1.origin, r2.origin,
                    CriticalPair(alphabet.word(s), r1.origin, r2.origin, left,
                                 right, resolved)))

    for l1 in by_lhs:
        for l2 in by_lhs:
            # suffix of l1 equals prefix of l2
            for k in range(1, min(len(l1), len(l2))):
                if l1.endswith(l2[:k]):
                    add(l1 + l2[k:], l1, l2, len(l1) - k)
        # another lhs inside l1
        for pos, l2 in sys.redexes(l1):
            if l2 != l1:
                add(l1, l1, l2, pos)
    out.sort(key=lambda entry: entry[:3])
    return [entry[3] for entry in out]


class ConfluenceReport(Record, frozen=True):
    __slots__ = ("confluent", "unresolved", "checked")

    def __init__(self, confluent, unresolved, checked):
        self._set(confluent, unresolved, checked)

    def __repr__(self):
        verdict = "confluent" if self.confluent else "NOT confluent"
        return (f"{verdict} ({self.checked} ambiguities, "
                f"{len(self.unresolved)} unresolved)")


def check_confluence(sys):
    pairs = critical_pairs(sys)
    unresolved = tuple(p for p in pairs if not p.resolved)
    return ConfluenceReport(not unresolved, unresolved, len(pairs))


# Relations derived from ambiguities before ``complete`` gives up: completion
# need not end (x*y*x = y*x*y has no finite system under deglex).
COMPLETION_LIMIT = 64


def _occurs(small, big):
    n = len(small)
    return any(big[i:i + n] == small for i in range(len(big) - n + 1))


def _completion_system(rules, order):
    """RewriteSystem of a running completion, whose reductions stop at
    WORD_LENGTH_LIMIT."""
    sys = RewriteSystem(rules, order)
    object.__setattr__(sys, "_word_limit", WORD_LENGTH_LIMIT)
    return sys


def complete(relations, order):
    """Confluent, reduced RewriteSystem of the ideal of ``relations``
    (``(label, poly)`` pairs) by Knuth-Bendix completion (Bergman 1978).

    The first relation per leading word seeds a rule, the rest are queued.
    A queued relation's nonzero normal form becomes a rule, and the rules
    whose left side contains it are queued again.  Each unresolved ambiguity
    is queued as ``left_result - right_result`` until none is left; past
    COMPLETION_LIMIT of them NonTermination is raised, as it is when a
    reduction would enter a word longer than WORD_LENGTH_LIMIT (or its
    input's longest word).  A normal form that does not orient raises
    OrientationError.
    """
    rules = {}  # lhs -> rule
    queue = deque()
    sys = None

    def add(rule):
        nonlocal sys
        for lhs in [lhs for lhs in rules if _occurs(rule.lhs, lhs)]:
            old = rules.pop(lhs)
            a = old.rhs.alphabet  # its relation's, with the letters of lhs
            queue.append((old.origin, _ncpoly({a.encode(lhs): _ONE}, a) - old.rhs))
        rules[rule.lhs] = rule
        sys = None

    for label, poly in relations:
        try:
            rule = orient_relation(label, poly, order)
        except OrientationError:
            rule = None
        if rule is None or any(_occurs(lhs, rule.lhs) for lhs in rules):
            queue.append((label, poly))
        else:
            add(rule)
    derived = 0
    while True:
        while queue:
            label, poly = queue.popleft()
            sys = sys or _completion_system(rules.values(), order)
            rest = normalize(poly, sys)
            if not rest.is_zero:
                add(orient_relation(label, rest, order))
        sys = sys or _completion_system(rules.values(), order)
        unresolved = check_confluence(sys).unresolved
        if not unresolved:
            return RewriteSystem([RewriteRule(r.lhs, normalize(r.rhs, sys), r.origin)
                                  for r in sys.rules], order)
        derived += len(unresolved)
        if derived > COMPLETION_LIMIT:
            raise NonTermination(f"completion derived more than {COMPLETION_LIMIT} "
                                 f"relations ({len(rules)} rules)")
        queue.extend((f"{cp.left_rule}/{cp.right_rule}",
                      cp.left_result - cp.right_result) for cp in unresolved)
