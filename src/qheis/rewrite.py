"""Oriented rewriting: compile relations to rules, normalize, check confluence.

Relations ``poly = 0`` are oriented by picking the order-maximal word as the
left-hand side; the rule rewrites it to the remaining (smaller) terms.  Both
term orders are well-founded and respect multiplication (u > v gives
p*u*s > p*v*s), so ``RewriteSystem``'s check that each right-side word is
smaller certifies termination (Bergman 1978):

* ``deglex``  - word length first, then the precedence sequence from the
  left.  Every catalog family with length-nonincreasing relations uses it.
* ``wreath l`` - kin to Sims's wreath-product orderings (Sims 1994): the
  words with the light letter l deleted by deglex, then the weight W, then
  deglex.  W sums 2^(32*e) over the l's, e the letters ranked below l right
  of it plus those above l left of it; LETTER_BUDGET keeps every count
  below 2^32, so W compares as the vector of how many l's have each e.  It
  orients h*x -> x*f(h) for every polynomial f (gha, q_gha).

Normalization applies, deterministically, the first matching rule at the
leftmost position of the largest reducible word; among words of equal
order key the one inserted into the term dict first wins.  A heap holds the
reducible words, each keyed and matched once when it enters the
polynomial, so a step costs O(|rhs| log terms) word operations and not a
rescan of every term; no word is kept once rewritten, so memory follows
the polynomial, not the steps.  Under wreath a step by a right-side word
that is its left side once l is deleted keeps the rewritten word's key
fields of the word without l and moves W by (W(rw) - W(lhs)) << 32*k, k
the letters above l in the prefix and below l in the suffix, the input's
letters outside the system's alphabet among them; other words are keyed
from scratch.  The coefficients are accumulated in place
(``coeffs._addmul``): a step adds coeff*rc into the numerator dict of each
right-side word, at a cost linear in the terms of coeff and with no new
Coefficient.  The call owns these dicts: a word keeps the Coefficient it
came with (input and rule coefficients are never written) until a step
first writes it, which copies its numerator once.  Coefficients are built
only for the output and the trace snapshots, one per written term.  A
coefficient with a multi-term denominator, and a rule coefficient of
several terms, go through Coefficient arithmetic in the same loop.  A step
past the system's ``step_limit`` raises NonTermination.  So does, in the
systems ``complete`` builds while it runs, a step that enters a word
longer than WORD_LENGTH_LIMIT (or the input's longest word): under wreath
a rule such as h*x -> x*h^2 lengthens words, and completion would
otherwise reduce ever longer ones.  ``normalize`` on any other system has
no such limit, as a finite normal form may need long words (gha's h*x^10
is x^10*h^1024).  Every reduction, completion's too, raises NonTermination
once the words its steps make hold more than LETTER_BUDGET letters in all:
the step limit alone leaves the time and memory of a step unbounded when
words grow.

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
from collections import deque
from heapq import heappop, heappush
from itertools import chain

from ._record import Record
from .coeffs import Coefficient, _addmul, _frozen, _unit_term
from .errors import NonTermination, OrientationError, ParamError
from .ncpoly import Alphabet, _ncpoly, _over

DEFAULT_STEP_LIMIT = 10_000
# The longest word a step inside ``complete`` may enter, unless the input
# has a longer one.  Under deglex no step lengthens a word; under wreath a
# step can: a relation such as h*x -> x*h^2 doubles the h's that pass each
# x, so the words of a terminating reduction can grow exponentially.
WORD_LENGTH_LIMIT = 1024
# The most letters one reduction may enter, summed over the words its steps
# make.  The corpus enters at most a few hundred per call and gha's h*x^11
# 2.1 M; a step limit alone lets a rule such as h*x -> x*h^50 build words
# of millions of letters, for seconds, before it ends.  It also keeps every
# count in a wreath weight below 2^32, the width of its fields.
LETTER_BUDGET = 2**28


class TermOrder(Record, frozen=True):
    """Well-ordering of words that respects multiplication, used to orient
    rules and steer normalization.  ``kind`` is its ``.qpres`` spelling:
    ``deglex``, or ``wreath l`` with ``light`` l a generator's symbol."""

    __slots__ = ("kind",)

    def __init__(self, kind="deglex"):
        name, _, light = kind.partition(" ")
        if kind != "deglex" and not (name == "wreath" and light.split() == [light]):
            head = ("term order 'invlex' does not respect multiplication"
                    if kind == "invlex" else f"unknown term order {kind!r}")
            raise ParamError(f"{head}; use 'deglex' or 'wreath <letter>'")
        self._set(kind)

    @property
    def light(self):
        return self.kind.partition(" ")[2] or None

    def code_key(self, s, alphabet, wreath=None):
        """Sort key of a code string over ``alphabet``; ``wreath``, if
        given, is the ``_marks`` of the light letter over it."""
        ranks = s.translate(alphabet.asc)
        if self.kind == "deglex":
            return (len(ranks), ranks)
        light, marks, _, _ = wreath or _marks(self.light, alphabet)
        rest = s.replace(light, "").translate(alphabet.asc)
        return (len(rest), rest, _weight(s.translate(marks)), ranks)

    def __repr__(self):
        return f"TermOrder({self.kind!r})"


def _marks(light, alphabet):
    """``(code, table, above, below)`` of the letter of ``alphabet`` whose
    symbol is ``light``: its code ("" if none), a ``str.translate`` table
    that writes it "l", letters below and above it "<" and ">" and deletes
    those tied with it, and the codes of the letters above and below it."""
    code = next((c for g, c in alphabet.code.items() if g.sym == light), "")
    if not code:
        return "", dict.fromkeys(alphabet.asc), (), ()
    r = alphabet.asc[ord(code)]
    table = {i: "l" if chr(i) == code else "<" if k < r else ">" if k > r
             else None for i, k in alphabet.asc.items()}
    return (code, table, *([chr(i) for i, m in table.items() if m == c]
                           for c in "><"))


def _weight(marked):
    """The wreath weight W of a word written by ``_marks``: the sum over its
    "l"s of 2^(32*e), e the ">"s left of it plus the "<"s right of it."""
    e, w = marked.count("<"), 0
    for part in marked.split("l")[:-1]:
        if part:
            e += part.count(">") - part.count("<")
        w += 1 << 32 * e
    return w


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
                 "_lengths", "_search", "_word_limit", "_wreath")

    def __init__(self, rules, order=None, step_limit=DEFAULT_STEP_LIMIT):
        order = order or TermOrder("deglex")
        rules = tuple(rules)
        alphabets = [r.rhs.alphabet for r in rules]
        letters = tuple(dict.fromkeys(chain(*(a.letters for a in alphabets),
                                            *(r.lhs for r in rules))))
        # one name of two precedences raises AlphabetError
        alphabet = next((a for a in alphabets if a.letters == letters),
                        None) or Alphabet(letters)
        # under wreath, the _marks of its light letter
        wreath = order.light and _marks(order.light, alphabet)
        light, marks = wreath[:2] if wreath else ("", None)
        # lhs code -> (rule, rhs as (code, Coefficient, its _unit_term, and its
        # W shift W(code) - W(lhs) if they agree without the light letter))
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
            lk = order.code_key(lhs, alphabet, wreath)
            _, rhs = _over(alphabet, r.rhs)
            for s in rhs:
                if not lk > order.code_key(s, alphabet, wreath):
                    raise OrientationError(
                        f"rule {r.origin}: right-side word {alphabet.word(s)!r} is "
                        f"not smaller than {r.lhs!r}"
                    )
            by_lhs[lhs] = (r, tuple(
                (s, c, _unit_term(c), _weight(s.translate(marks)) - lk[2]
                 if wreath and s.replace(light, "") == lhs.replace(light, "")
                 else None) for s, c in rhs.items()))
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
        object.__setattr__(self, "_wreath", wreath)

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


def normalize(poly, sys, trace=None):
    """Fixed point of rule application; canonical form when the system is
    confluent.  ``trace``, unless None, is called with each step's (rule id,
    position, polynomial after the step)."""
    alphabet, terms = _over(sys.alphabet, poly)
    # each word's accumulated coefficient (see coeffs._addmul)
    terms = dict(terms)
    desc = alphabet.desc
    search, by_lhs = sys._search, sys._by_lhs

    # Max-heap of the reducible words in ``terms`` by order key; ties go to
    # the smaller insertion number, i.e. to the earlier word in dict order.
    # A word removed from ``terms`` (and maybe re-inserted under a new
    # number) leaves a stale entry, skipped through ``live``, which holds
    # only the words of ``terms`` still on the heap.  A wreath key is
    # derived from the rewritten word's by a right-side word's W shift.
    heap = []
    live = {}
    seq = 0
    wreath = sys._wreath
    if wreath:
        # a join only appends letters, so the rules' codes and W shifts hold
        # over it, and its marks count the input's other letters in k
        light, marks, above, below = (wreath if alphabet is sys.alphabet
                                      else _marks(sys.order.light, alphabet))

    def push(w, m, key=None):
        nonlocal seq
        seq += 1
        live[w] = seq
        if key is None:
            if wreath:
                rest, d = w.replace(light, ""), w.translate(desc)
                key = ((-len(w), d, 0, d) if len(rest) == len(w) else
                       (-len(rest), rest.translate(desc),
                        -_weight(w.translate(marks)), d))
            else:
                key = (-len(w), w.translate(desc))
        heappush(heap, (key, seq, w, m))

    for w in terms:
        m = search(w)
        if m is not None:
            push(w, m)
    steps = 0
    limit = sys.step_limit
    # unbounded outside completion; there no shorter than the input's
    # longest word (a zero input has none)
    longest = (max([sys._word_limit, *map(len, terms)]) if sys._word_limit
               else float("inf"))
    # the letters of every word the steps make, whether new or not
    letters, budget = 0, LETTER_BUDGET
    # NCPoly snapshots of the last steps, for NonTermination.chain: from
    # step ``last`` on, and of a step that crossed a limit, which ``error``
    # then names
    chain = deque(maxlen=5)
    last = limit - chain.maxlen
    error = None
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
        for rw, rc, term, shift in rhs:
            nw = prefix + rw + suffix
            letters += len(nw)
            old = terms.get(nw)
            c = _addmul(old, coeff, rc, term)
            if old is None:
                terms[nw] = c
                if len(nw) > longest and error is None:
                    # the step ends, so that its snapshot holds the word
                    error = (f"word length limit {longest} exceeded: a "
                             f"step made a word of {len(nw)} letters")
                    last = 0
                nm = search(nw)
                if nm is None:
                    continue
                nkey = None
                if shift is not None:
                    k = (sum(map(prefix.count, above))
                         + sum(map(suffix.count, below)))
                    nkey = (key[0], key[1], key[2] - (shift << 32 * k),
                            nw.translate(desc))
                push(nw, nm, nkey)
            elif c is None:
                del terms[nw]
                live.pop(nw, None)
            elif c is not old:
                terms[nw] = c
        if letters > budget and error is None:
            error = (f"letter budget {budget} exceeded: {steps} steps made "
                     f"words of {letters} letters in all")
            last = 0
        if trace is not None or steps > last:
            snap = (rule.origin, pos, _snapshot(terms, alphabet))
            chain.append(snap)
            if trace is not None:
                trace(snap)
            if error is not None:
                raise NonTermination(error, chain=chain)
    return _snapshot(terms, alphabet)


def _snapshot(terms, alphabet):
    """NCPoly of the loop's term dict, whose coefficients it copies."""
    return _ncpoly(_frozen(terms), alphabet)


def reduce_trace(poly, sys):
    """All reduction steps as (rule id, position, intermediate polynomial):
    the list of what ``normalize(poly, sys, trace)`` passes to ``trace``.
    Replaying the trace ends at ``normalize(poly, sys)``."""
    trace = []
    normalize(poly, sys, trace.append)
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
    key = sys.order.code_key
    out = []

    def add(s, l1, l2, p2):
        r1, r2 = by_lhs[l1][0], by_lhs[l2][0]
        left = _ncpoly(_reduct(sys, s, 0, l1), alphabet)
        right = _ncpoly(_reduct(sys, s, p2, l2), alphabet)
        resolved = normalize(left, sys) == normalize(right, sys)
        out.append((key(s, alphabet, sys._wreath), r1.origin, r2.origin,
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
