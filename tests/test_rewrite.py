"""Rewrite engine: orientation, normalization, traces, critical pairs."""

import contextlib
import copy
import functools
import heapq
import json
import os
import pickle
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qheis
from qheis import (NCPoly, Presentation, UnifiedParams, catalog,
                   check_confluence, critical_pairs, format_expr,
                   load_presentation, normalize, reduce_trace, rewrite,
                   save_presentation, unified)
from qheis.coeffs import EXP_LIMIT, Coefficient
from qheis.errors import ExponentOverflow, NonTermination, OrientationError
from qheis.ncpoly import Alphabet, Generator, Word, _ncpoly
from qheis.printer import parse_machine
from qheis.rewrite import (LETTER_BUDGET, WORD_LENGTH_LIMIT, RewriteRule,
                           RewriteSystem, TermOrder, _marks, _weight)
from conftest import make_rng, random_poly
from reference import reference_reduce

C = Coefficient

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = ROOT / "perfbench" / "expected"
EXAMPLES = ROOT / "docs" / "examples"


def _tied_system():
    """Two generators of one precedence, so distinct words share an order
    key and the tie-break decides the trace."""
    a, b, c = (Generator("a", None, 0), Generator("b", None, 0),
               Generator("c", None, 1))
    w = NCPoly.from_word
    rules = [
        RewriteRule(Word((c, a)), C.q_power(1) * w((a, c)) + w((b,)), "c_a"),
        RewriteRule(Word((c, b)), w((a, c)) - C.hbar_power(1) * w((b, c)), "c_b"),
        RewriteRule(Word((c, c)), -NCPoly.one(), "c_c"),
        RewriteRule(Word((b, b)), NCPoly.one(), "b_b"),
    ]
    return [a, b, c], RewriteSystem(rules, TermOrder("deglex"))


WIDE = 320  # codes run past 0xFF and through every regex metacharacter
# the wide system's wreath order: g_163 ties with its light letter
WIDE_WREATH = "wreath g_162"


@functools.lru_cache(maxsize=None)
def _wide_system(kind):
    """Generated system on WIDE generators g_i of precedence 4*(i//2): the
    letters tie in pairs, and the gaps between pairs leave room for
    foreign letters.  Every letter occurs in some left side.  Under
    WIDE_WREATH the rule of g_162*g_161 lengthens words."""
    g = [Generator("g", i, 4 * (i // 2)) for i in range(WIDE)]
    w = NCPoly.from_word
    rules = []
    for i in range(WIDE - 1):
        hi, lo = g[i + 1], g[i]
        if i % 2 == 0:
            rules.append(RewriteRule(Word((hi, lo)), w((lo,)) - NCPoly.one(), f"t{i}"))
            # never fires: the shorter t{i} matches wherever it does
            rules.append(RewriteRule(Word((hi, lo, lo)), w((hi,)), f"v{i}"))
            if i + 2 < WIDE:
                rules.append(RewriteRule(Word((g[i + 2], lo)), -w((lo, g[i + 2])),
                                         f"u{i}"))
        elif kind == WIDE_WREATH and i == 161:
            rules.append(RewriteRule(Word((hi, lo)), C.q_power(1) * w((lo, hi, hi)),
                                     f"s{i}"))
        else:
            rules.append(RewriteRule(Word((hi, lo)), C.q_power(1) * w((lo, hi))
                                     + C.hbar_power(1) * w((g[i - 1],)), f"s{i}"))
        rules.append(RewriteRule(Word((lo, lo, lo)), w((lo,)), f"c{i}"))
    return g, RewriteSystem(rules, TermOrder(kind))


def _wide_window(kind, b):
    """The wide system, the letters g_b..g_b+3, and four letters no rule
    mentions, whose precedences fall below, between, above and tied with
    the window's.  (g_b+1, g_b) is a left side."""
    g, sysm = _wide_system(kind)
    foreign = [Generator("f", 0, -1), Generator("f", 1, 4 * (b // 2) + 1),
               Generator("f", 2, 4 * WIDE), Generator("f", 3, 4 * ((b + 1) // 2))]
    return sysm, g[b:b + 4], foreign


def _parse_with(pres, f, text):
    """``text`` over the generators of ``pres`` and the letter ``f``, whose
    precedence may tie with one of theirs."""
    top = max(g.precedence for g in pres.generators)
    stand_in = Generator(f.name, f.index, top + 1)
    poly = Presentation("scope", (*pres.generators, stand_in), []).parse(text)
    return NCPoly({tuple(f if g == stand_in else g for g in w): c
                   for w, c in poly.terms.items()})


def _snapshot(steps):
    return [(origin, pos, format_expr(p, "machine"), list(p.terms))
            for origin, pos, p in steps]


def _assert_same_as_reference(a, sysm):
    """normalize and reduce_trace give the full scan's normal form, term
    order and trace; returns the trace."""
    want_trace = []
    want = reference_reduce(a, sysm, want_trace)
    got = normalize(a, sysm)
    assert format_expr(got, "machine") == format_expr(want, "machine")
    assert list(got.terms) == list(want.terms)
    assert _snapshot(reduce_trace(a, sysm)) == _snapshot(want_trace)
    return want_trace


class TestOrientation:
    def test_gaddis_rule(self, families):
        g = families["gaddis"]
        sysm = g.system()
        rule = {r.origin: r for r in sysm.rules}["y_x"]
        assert tuple(x.sym for x in rule.lhs) == ("y", "x")
        assert rule.rhs == g.parse("q*x*y + hbar*z")

    def test_quantum_plane_rule(self):
        # p x = q x p with x < p orients the p-first word downward
        x = Generator("x", None, 0)
        p = Generator("p", None, 1)
        pres = Presentation("plane", [x, p], [
            ("plane", NCPoly.from_word((p, x)) - C.q_power(1) * NCPoly.from_word((x, p)))])
        rule = pres.system().rules[0]
        assert tuple(g.sym for g in rule.lhs) == ("p", "x")
        assert rule.rhs == C.q_power(1) * NCPoly.from_word((x, p))

    def test_inverse_pair_rules(self, families):
        s = families["schmudgen"]
        origins = {r.origin for r in s.system().rules}
        assert "unit:u*u_inv" in origins and "unit:u_inv*u" in origins

    @staticmethod
    def _with_inverse(relation):
        return load_presentation(
            "qheis-presentation 1\nname: inv\ngenerator: L_inv\n"
            "generator: L\ninverse: L L_inv\n"
            f"relation: inv : {relation}\n")

    @pytest.mark.parametrize("relation",
                             ["L*L_inv - 1", "1 - L*L_inv", "2*L*L_inv - 2"])
    def test_listed_cancellation_relation_is_not_added_again(self, relation):
        # a listed scalar multiple of L*L_inv - 1 stands for the pair's own
        # cancellation relation in the one relation set
        pres = self._with_inverse(relation)
        assert [label for label, _ in pres.all_relation_polys()] == \
            ["inv", "unit:L_inv*L"]
        one = pres.poly()
        assert [(r.lhs, r.rhs, r.origin) for r in pres.system().rules] == \
            [(pres.word("L", "L_inv"), one, "inv"),
             (pres.word("L_inv", "L"), one, "unit:L_inv*L")]
        assert pres.confluent()
        assert pres.completed().rules == pres.system().rules

    def test_conflicting_cancellation_relation_rejected(self):
        # L*L_inv = 2 beside the pair's L*L_inv = 1 gives 1 = 0: the rules
        # and the completion of the one relation set both refuse it
        pres = self._with_inverse("L*L_inv - 2")
        with pytest.raises(OrientationError,
                           match=r"rules inv and unit:L\*L_inv share"):
            pres.system()
        with pytest.raises(OrientationError, match="shorter than two letters"):
            pres.completed()

    def test_duplicate_leading_words_rejected(self, families):
        with pytest.raises(OrientationError):
            catalog("schmudgen", variant="definition").system()

    def test_zero_relation_rejected(self):
        x = Generator("x", None, 0)
        pres = Presentation("bad", [x], [("z", NCPoly.zero())])
        with pytest.raises(OrientationError):
            pres.system()

    def test_single_letter_lead_rejected(self):
        x = Generator("x", None, 0)
        pres = Presentation("bad", [x], [("r", NCPoly.from_word((x,)) - 1)])
        with pytest.raises(OrientationError):
            pres.system()

    def test_wreath_orients_polynomial_image(self, families):
        # h x -> x f(h) grows the word, so the graded order cannot orient it
        g = families["gha"]
        rule = {r.origin: r for r in g.system().rules}["h_x"]
        assert tuple(x.sym for x in rule.lhs) == ("h", "x")
        assert rule.rhs == g.parse("x*h^2")


class TestNormalize:
    def test_canonical_momentum(self):
        cls = catalog("classical", indices=1)
        assert cls.normalize("p_1*x_1") == cls.parse("x_1*p_1 - i*hbar")

    def test_inverse_cancellation(self, families):
        s = families["schmudgen"]
        assert s.normalize("u*u_inv*x") == s.parse("x")

    def test_gaddis_square(self, families):
        g = families["gaddis"]
        got = g.normalize("y*x*x")
        assert got == g.parse("q^2*x^2*y + hbar*(q + p^-1)*x*z")

    def test_substituted_polynomial_rule(self, families):
        g = families["gha"]
        assert g.normalize("h*x") == g.parse("x*h^2")

    def test_step_limit(self, families):
        g = families["gaddis"]
        sysm = g.system()
        tight = RewriteSystem(sysm.rules, sysm.order, step_limit=2)
        with pytest.raises(NonTermination):
            normalize(g.parse("y*y*x*x*x"), tight)

    @pytest.mark.parametrize("fam", ["gha", "q_gha"])
    def test_completion_without_y_x_is_bounded(self, fam, families):
        # completing the ideal of h_x and y_h alone under wreath h derives
        # relations past the limit
        pres = families[fam]
        trimmed = Presentation(f"{fam}-no-y_x", pres.generators,
                               [(lab, rel) for lab, rel in pres.relations
                                if lab != "y_x"],
                               inverse_pairs=pres.inverse_pairs,
                               order_kind=pres.order_kind)
        with pytest.raises(NonTermination, match="completion derived more "
                           f"than {rewrite.COMPLETION_LIMIT} relations"):
            trimmed.completed()

    def test_word_growth_ends_in_the_word_length_limit(self):
        # the ambiguity h*x^10*y of h_x and r resolves through words as long
        # as x^10*h^1024*y; completion stops at the limit, normalize does not
        pres = load_presentation(
            "qheis-presentation 1\nname: long\norder: wreath h\n"
            "generator: x\ngenerator: h\ngenerator: y\n"
            "relation: h_x : h*x - x*h^2\nrelation: r : x^10*y - y\n")
        with pytest.raises(NonTermination) as exc:
            pres.completed()
        assert str(exc.value) == (
            f"word length limit {WORD_LENGTH_LIMIT} exceeded: a step made a "
            f"word of {WORD_LENGTH_LIMIT + 1} letters")
        # the chain holds the one step that made the long word: h*x ->
        # x*h^2 at position 19, and the polynomial after it
        (origin, pos, poly), = exc.value.chain
        assert (origin, pos) == ("h_x", 19)
        assert max(map(len, poly.terms)) == WORD_LENGTH_LIMIT + 1
        assert pres.normalize("h*x^10*y") == pres.parse("x^10*h^1024*y")

    def test_word_length_limit_admits_the_input_length(self):
        # completion may normalize a relation with a word longer than the
        # limit, and deglex steps never lengthen it
        cls = catalog("classical", indices=1)
        n = WORD_LENGTH_LIMIT + 10
        rels = [*cls.all_relation_polys(),
                ("long", cls.parse(f"x_1^{n - 3}*(p_1*x_1^2 - x_1^2*p_1 "
                                   f"+ 2*i*hbar*x_1)"))]
        assert (rewrite.complete(rels, TermOrder("deglex")).rules
                == rewrite.complete(cls.all_relation_polys(),
                                    TermOrder("deglex")).rules)

    @pytest.mark.parametrize("fam", ["gha", "q_gha"])
    @pytest.mark.parametrize("text, expected", [
        ("h*x^10", "x^10*h^1024"),
        ("y^10*h", "h^1024*y^10"),
    ])
    def test_normal_forms_longer_than_the_word_length_limit(
            self, fam, text, expected, families):
        # the limit bounds completion only: these take 1023 steps and end
        # in words of 1034 letters
        pres = families[fam]
        got = pres.normalize(text)
        assert got == pres.parse(expected)
        assert max(map(len, got.terms)) == WORD_LENGTH_LIMIT + 10

    @staticmethod
    def _grow(e):
        """Generators x then h under wreath h and the relation h*x = x*h^e."""
        return load_presentation(
            "qheis-presentation 1\nname: grow\norder: wreath h\n"
            f"generator: x\ngenerator: h\nrelation: h_x : h*x - x*h^{e}\n")

    def test_memory_follows_the_polynomial(self):
        # h*x -> x*h^12 enters words of up to 20 740 letters on the way to
        # x^4*h^20736; a word that normalize has rewritten is not kept
        pres = self._grow(12)
        sysm, a = pres.system(), pres.parse("h*x^4")
        tracemalloc.start()
        try:
            got = normalize(a, sysm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # past the parser's exponent limit, so compared as text
        assert format_expr(got, "plain") == "x^4*h^20736"
        assert peak < 2 * 2**20

    def test_letter_budget_ends_growing_words(self):
        # h*x -> x*h^50 on h*x^4 heads for x^4*h^6250000 through words of
        # millions of letters; the step limit alone took 7.5 s to end it
        pres = self._grow(50)
        sysm, a = pres.system(), pres.parse("h*x^4")
        t0 = time.process_time()
        tracemalloc.start()
        try:
            with pytest.raises(NonTermination) as exc:
                normalize(a, sysm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.process_time() - t0 < 2.0
        assert peak < 50 * 2**20
        assert str(exc.value).startswith(
            f"letter budget {LETTER_BUDGET} exceeded: ")
        # the chain holds the one step that crossed the budget
        (origin, _, poly), = exc.value.chain
        assert origin == "h_x" and max(map(len, poly.terms)) > 50**3

    def test_letter_budget_admits_long_normal_forms(self):
        # about 160 M letters entered, on the way to a word of 125 003
        got = self._grow(50).normalize("h*x^3")
        assert format_expr(got, "plain") == "x^3*h^125000"

    @pytest.mark.hashseed
    @pytest.mark.parametrize("fam", ["gha", "q_gha"])
    def test_normal_forms_twice_the_word_length_limit(self, fam, families):
        # 2047 steps to a word of 2059 letters, each new word's weight
        # derived from the rewritten word's
        pres = families[fam]
        got = pres.normalize("h*x^11")
        assert got == pres.parse("x^11*h^2048")
        assert max(map(len, got.terms)) == 2 * WORD_LENGTH_LIMIT + 11

    def test_idempotent(self, rng, families):
        for fam, pres in families.items():
            sysm = pres.system()
            gens = list(pres.generators)
            for _ in range(200):
                a = random_poly(rng, gens, max_len=4)
                nf = normalize(a, sysm)
                assert normalize(nf, sysm) == nf, fam

    def test_relations_normalize_to_zero(self, families):
        for fam, pres in families.items():
            sysm = pres.system()
            for label, rel in pres.all_relation_polys():
                assert normalize(rel, sysm).is_zero, (fam, label)

    def test_compatible_with_products(self, rng, families):
        for fam, pres in families.items():
            sysm = pres.system()
            gens = list(pres.generators)
            for _ in range(10):
                a = random_poly(rng, gens, max_len=3)
                b = random_poly(rng, gens, max_len=3)
                assert (normalize(a * b, sysm)
                        == normalize(normalize(a, sysm) * normalize(b, sysm),
                                     sysm)), fam

    def test_linear(self, rng, families, coeff_pool):
        # also without confluence: each word has one fixed reduct, and the
        # equivalence cross-check of the verifier relies on this
        presentations = dict(families)
        presentations["gaddis:printed"] = catalog("gaddis", variant="printed")
        for path in sorted(EXAMPLES.glob("*.qpres")):
            presentations[path.name] = qheis.load_presentation_file(str(path))
        assert len(presentations) == len(families) + 3
        assert not check_confluence(presentations["gaddis:printed"].system()).confluent
        for fam, pres in presentations.items():
            sysm = pres.system()
            gens = list(pres.generators)
            for _ in range(20):
                a = random_poly(rng, gens, max_len=4)
                b = random_poly(rng, gens, max_len=4)
                al, be = rng.choice(coeff_pool), rng.choice(coeff_pool)
                assert (normalize(a * al + b * be, sysm)
                        == normalize(a, sysm) * al + normalize(b, sysm) * be), fam

    def test_ideal_shift_invariance(self, rng, families):
        # a and a + u*rel*v are equal in the quotient
        for fam, pres in families.items():
            sysm = pres.system()
            gens = list(pres.generators)
            rels = pres.all_relation_polys()
            for k in range(10):
                a = random_poly(rng, gens, max_len=4)
                _, rel = rels[k % len(rels)]
                shift = (random_poly(rng, gens, 2) * rel
                         * random_poly(rng, gens, 2))
                assert normalize(a + shift, sysm) == normalize(a, sysm), fam

    @pytest.mark.hashseed
    @pytest.mark.parametrize("workload", ["words", "growth"])
    def test_benchmark_normal_forms(self, workload, families):
        # the normal forms the benchmark checks its answers against
        entries = json.loads((EXPECTED / f"{workload}.json").read_text())["requests"]
        for e in entries:
            pres = families[e["pres"]]
            assert (normalize(pres.parse(e["expr"]), pres.system())
                    == parse_machine(e["nf"])), (e["pres"], e["expr"])

    def test_length_eight_words_within_budget(self, rng, families):
        for fam, pres in families.items():
            sysm = pres.system()
            gens = list(pres.generators)
            for _ in range(5):
                word = tuple(rng.choice(gens) for _ in range(8))
                normalize(NCPoly.from_word(word), sysm)  # must not raise


@pytest.mark.hashseed
class TestStrategyEquivalence:
    """The heap-driven normalize takes the same steps as the full scan."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["gha", "q_gha", "gaddis", "classical", "tied",
                            "wide_deglex", "wide_wreath"]),
           st.randoms(use_true_random=False), st.data())
    def test_same_steps_as_full_scan(self, families, key, rng, data):
        if key == "tied":
            gens, sysm = _tied_system()
        elif key.startswith("wide_"):
            sysm, window, foreign = _wide_window(
                "deglex" if key == "wide_deglex" else WIDE_WREATH,
                rng.randrange(WIDE - 3))
            # rule letters weighted up, so that most words reduce
            gens = window * 4 + foreign
        else:
            gens, sysm = list(families[key].generators), families[key].system()
            if sysm.order.kind != "deglex":
                # a letter the system does not know, below, tied with,
                # between or above its letters: the keys derived for an
                # input with it count it in each W shift's k
                gens = gens * 3 + [Generator("f", None, rng.randrange(-2, 7) / 2)]
        a = random_poly(rng, gens, max_len=5, max_terms=4)
        want_trace = _assert_same_as_reference(a, sysm)
        if not want_trace:
            return
        limit = data.draw(st.integers(0, len(want_trace) - 1), label="limit")
        starved = RewriteSystem(sysm.rules, sysm.order, step_limit=limit)
        with pytest.raises(NonTermination) as ref:
            reference_reduce(a, starved, [])
        with pytest.raises(NonTermination) as exc:
            normalize(a, starved)
        assert str(exc.value) == str(ref.value)
        assert _snapshot(exc.value.chain) == _snapshot(ref.value.chain)

    @pytest.mark.parametrize("kind", ["deglex", WIDE_WREATH])
    def test_every_letter_of_a_wide_alphabet(self, kind):
        # each letter in turn, so every code, 0xFF and the regex
        # metacharacters among them, is matched and ranked
        q = C.q_power(1)
        for b in range(WIDE - 3):
            sysm, (g0, g1, g2, g3), (below, between, above, tied) = _wide_window(kind, b)
            a = NCPoly({(g3, g2, g1, g0): 1, (g1, between, g0, g0, g0): q,
                        (above, g2, tied, g1, below): 1, (g1, g0, g0): -q})
            # words that differ only in their last letter: its rank
            # decides the order of the steps
            a = a + NCPoly({(g1, g0, t): 1 for t in (between, g2, below, tied, above)})
            assert _assert_same_as_reference(a, sysm), b

    @pytest.mark.parametrize("fam", ["gha", "q_gha"])
    @pytest.mark.parametrize("precedence, text", [
        (2, "-f*y*x^2*h + 2*f*x*y"),
        *((p, t) for p in (3, 1, -1) for t in (
            "2*h*f*y^2*x - h*y*h*f^2 + 2*h*f*x*h",
            "y*x^3*f + 2*y^2*f*y - x^2*f*x",
            "2*y*x^2*f*h + h*y^2*h*y + 2*y*x*h^2",
            # with f above h these tie in W, and h*f*h*x is the larger
            # when f is not counted
            "h*f*h*x + f*h*x*h")),
    ])
    def test_letters_outside_the_system(self, fam, precedence, text, families):
        # a weight derived without f misorders these words
        pres = families[fam]
        a = _parse_with(pres, Generator("f", None, precedence), text)
        assert _assert_same_as_reference(a, pres.system())

    def test_code_tables_stay_per_system(self, families, rng):
        # the two systems share rules but not tables, and letters no rule
        # mentions do not enter either system's tables
        pres = families["gaddis"]
        sysm = pres.system()
        part = RewriteSystem(sysm.rules[:1], sysm.order)
        gens = list(pres.generators)
        x, z, _ = gens  # precedences 0, 1, 2; z*x is part's one left side
        foreign = [Generator("f", 0, -1), Generator("f", 1, 1), Generator("f", 2, 3)]
        for i in range(30):
            for s in (sysm, part):
                a = random_poly(rng, gens, 5, 4)
                if i % 3 == 1:
                    # the order of these steps follows the ranks of the last
                    # letters
                    tails = rng.sample(foreign + gens, 6)
                    a = a + NCPoly({(z, x, t): 1 for t in tails})
                _assert_same_as_reference(a, s)

    @pytest.mark.parametrize("kind", ["deglex", WIDE_WREATH])
    def test_one_alphabet_per_system(self, kind, monkeypatch):
        # the join of 957 rules, each over an alphabet of its own letters
        rules = _wide_system(kind)[1].rules
        made = []
        real = Alphabet.__init__
        monkeypatch.setattr(Alphabet, "__init__", lambda self, letters:
                            made.append(letters) or real(self, letters))
        sysm = RewriteSystem(rules, TermOrder(kind))
        assert len(made) == 1 and len(sysm.alphabet.letters) == WIDE

    def test_one_marks_table_per_system(self, families, monkeypatch):
        # a wreath system keys its rule sides, and critical_pairs its
        # overlaps, with the marks of its light letter that it holds
        rules = _wide_system(WIDE_WREATH)[1].rules
        gha = families["gha"].system()
        made = []
        real = rewrite._marks
        monkeypatch.setattr(rewrite, "_marks", lambda light, alphabet:
                            made.append(light) or real(light, alphabet))
        sysm = RewriteSystem(rules, TermOrder(WIDE_WREATH))
        assert made == ["g_162"]
        assert sysm._wreath[0] == sysm.alphabet.code[Generator("g", 162, 324)]
        made.clear()
        assert len(critical_pairs(gha)) == len(critical_pairs(
            RewriteSystem(gha.rules, gha.order)))
        assert made == ["h"]

    def test_catalog_systems_keep_the_presentation_alphabet(self, families):
        for fam, pres in families.items():
            assert pres.system().alphabet is pres.alphabet, fam

    def test_system_without_rules(self, rng, families):
        empty = RewriteSystem([], TermOrder("wreath h"))
        a = random_poly(rng, list(families["gha"].generators), 5, 4)
        got = normalize(a, empty)
        assert got == a and list(got.terms) == list(a.terms)
        assert reduce_trace(a, empty) == []

    def test_ties_follow_dict_order(self):
        (a, b, c), sysm = _tied_system()
        key = functools.partial(sysm.order.code_key, alphabet=sysm.alphabet)
        assert key(sysm.alphabet.encode((c, a))) == key(sysm.alphabet.encode((c, b)))
        # equal keys go in dict order: a*c*b before a*c*a; in the second
        # input c*a precedes c*b, but the first step cancels c*a and the
        # second re-inserts it after c*b
        for words, origins in [([(a, c, b), (a, c, a)], ["c_b", "c_a"]),
                               ([(c, c, c, a), (c, a), (c, b), (b, b, c, a)],
                                ["c_c", "b_b", "c_b", "c_a"])]:
            poly = NCPoly({w: 1 for w in words})
            steps, want = reduce_trace(poly, sysm), []
            reference_reduce(poly, sysm, want)
            assert _snapshot(steps) == _snapshot(want)
            assert [origin for origin, _, _ in steps[:len(origins)]] == origins

    def test_equal_generators_hash_equal(self):
        for args in (("x", None, 0), ("x", 2, 5), ("Lambda", None, 3)):
            g, h = Generator(*args), Generator(*args)
            assert g == h and g is not h
            assert hash(g) == hash(h) == hash(args)
            assert len({Word((g, h)), Word((h, g))}) == 1

    def test_unpickled_generator_rehashes(self):
        # pickled under another string-hash seed, a generator must hash as
        # one made in this process
        code = ("import pickle, sys; from qheis.ncpoly import Generator; "
                "sys.stdout.write(pickle.dumps(Generator('x', 2, 5)).hex())")
        src = str(Path(qheis.__file__).resolve().parent.parent)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, timeout=60,
                             env=dict(os.environ, PYTHONPATH=src,
                                      PYTHONHASHSEED="1"))
        g = pickle.loads(bytes.fromhex(out.stdout))
        assert g == Generator("x", 2, 5)
        assert hash(g) == hash(("x", 2, 5))


@pytest.mark.hashseed
class TestWreathShift:
    """Under wreath, a step by a right-side word that is its left side once
    the light letter is deleted derives the key of the word it makes from
    the rewritten word's, also when the input has letters outside the
    system's alphabet; every other word is keyed from scratch."""

    @pytest.mark.parametrize("foreign", [None, "below", "between", "above"])
    @pytest.mark.parametrize("key, draws", [("gha", 30), ("q_gha", 30),
                                            ("grow", 30), ("wide", 1)])
    def test_derived_key_equals_recount(self, key, draws, foreign, families,
                                        rng, monkeypatch):
        if key == "grow":
            sysm = TestNormalize._grow(50).system()
        elif key == "wide":
            sysm = _wide_system(WIDE_WREATH)[1]  # g_163 ties with g_162
        else:
            sysm = families[key].system()
        alphabet, extra = sysm.alphabet, ""
        if foreign:
            # a letter whose precedence falls below or above all, or between
            # the light letter's and a neighbour's
            ranks = sorted({g.precedence for g in alphabet.letters})
            i = ranks.index(alphabet.letters[ord(sysm._wreath[0])].precedence)
            near = ranks[i + 1] if i + 1 < len(ranks) else ranks[i - 1]
            f = Generator("f", None, {"below": ranks[0] - 1, "above": ranks[-1] + 1,
                                      "between": (ranks[i] + near) / 2}[foreign])
            # the join appends f, and the rules' codes still hold
            alphabet = Alphabet(alphabet.letters + (f,))
            extra = alphabet.code[f]
        starved = RewriteSystem(sysm.rules, sysm.order, step_limit=40)
        letters = "".join(map(chr, alphabet.asc))
        pushed = []
        monkeypatch.setattr(rewrite, "heappush", lambda heap, item: (
            pushed.append(item), heapq.heappush(heap, item)))
        derived = 0
        for lhs, (_, rhs) in sysm._by_lhs.items():
            derived += sum(shift is not None for *_, shift in rhs)
            for _ in range(draws):
                p, s = ("".join(rng.choices(letters, k=rng.randrange(6)))
                        for _ in range(2))
                # the foreign letter on one side of the redex at least
                p, s = (p + extra, s) if rng.random() < 0.5 else (p, extra + s)
                with contextlib.suppress(NonTermination):
                    normalize(_ncpoly({p + lhs + s: C.one()}, alphabet), starved)
        assert len(pushed) > draws * len(sysm.rules)
        for key_, _, w, _ in pushed:
            want = sysm.order.code_key(w, alphabet)
            rest = w.replace(sysm._wreath[0], "")
            assert key_ == (-want[0], rest.translate(alphabet.desc), -want[2],
                            w.translate(alphabet.desc)), (key, w)
        # h_x and y_h derive, y_x is keyed from scratch
        assert derived == {"gha": 2, "q_gha": 2, "grow": 1, "wide": 5}[key]

    def test_foreign_letter_keeps_the_derivation(self, families, monkeypatch):
        # f between h and y: of the words f*h*x^6 makes on its way to its
        # normal form, only the input is keyed from scratch; recounting
        # each word's weight would take 63 calls
        pres = families["gha"]
        sysm = pres.system()
        x, h = (pres.gen(s) for s in "xh")
        a = NCPoly.from_word((Generator("f", None, 1.5), h) + (x,) * 6)
        calls = []
        monkeypatch.setattr(rewrite, "_weight", lambda marked: calls.append(
            marked) or _weight(marked))
        assert _assert_same_as_reference(a, sysm)
        calls.clear()
        normalize(a, sysm)
        assert len(calls) == 1


def _abcd_system(b_a, rest=()):
    """Letters a < b < c < d under deglex, the rule b*a -> ``b_a`` and the
    ``rest`` rules, ``(left side as letter names, right side)`` pairs; a
    right side is a function of the letters' one-word polynomials."""
    gens = {n: Generator(n, None, i) for i, n in enumerate("abcd")}
    w = {n: NCPoly.from_word((g,)) for n, g in gens.items()}
    rules = [RewriteRule(Word(gens[n] for n in lhs), rhs(w),
                         f"{lhs[0]}_{lhs[1:]}")
             for lhs, rhs in [("ba", b_a), *rest]]
    return tuple(gens.values()), w, RewriteSystem(rules, TermOrder("deglex"))


def _values(poly):
    """Each coefficient's numerator and denominator dicts, copied."""
    return [(s, dict(c._num), dict(c._den)) for s, c in poly._terms.items()]


@pytest.mark.hashseed
class TestOwnedAccumulation:
    """normalize adds each step's products into coefficient dicts of its
    own, and holds to the full scan's values, term order and trace."""

    def test_input_and_rule_coefficients_unchanged(self, families):
        # x*y of the input is the target of y*x's step, and q*x*y cancels
        # against it: an input or rule dict written in place would show
        for fam, text in [("gaddis", "y*x - q*x*y + 2*x*y*y*x"),
                          ("gaddis", "y*y*x*x + q^2*x*x*y*y + z*x*y"),
                          ("qhbar", "p*p*x*x - i*hbar*p*x + q*x*p"),
                          ("classical", "p_1*x_1*p_2 + x_1*p_1*p_2")]:
            pres = families[fam]
            sysm = pres.system()
            a = pres.parse(text)
            before = (_values(a), [_values(r.rhs) for r in sysm.rules],
                      dict(Coefficient.one()._num))
            _assert_same_as_reference(a, sysm)
            assert (_values(a), [_values(r.rhs) for r in sysm.rules],
                    dict(Coefficient.one()._num)) == before, text

    def test_unit_right_side_words_get_dicts_of_their_own(self):
        # d*c -> b*a adds into b*a's coefficient, which the call then owns;
        # b*a -> a*b + c makes a*b and c from it, and a*a -> c then adds q
        # into c's alone
        (a, b, c, d), w, sysm = _abcd_system(
            lambda w: w["a"] * w["b"] + w["c"],
            [("aa", lambda w: w["c"]), ("dc", lambda w: w["b"] * w["a"])])
        q = C.q_power(1)
        for poly, want in [
                (NCPoly({(b, a): 1, (a, a): q}),
                 w["a"] * w["b"] + (1 + q) * w["c"]),
                (NCPoly({(d, c): 1, (b, a): 1, (a, a): q}),
                 2 * w["a"] * w["b"] + (2 + q) * w["c"])]:
            _assert_same_as_reference(poly, sysm)
            assert normalize(poly, sysm) == want

    def test_multi_term_coefficients(self):
        # several-term denominators in the input and in a rule, and a rule
        # coefficient of several terms, meet one-term dicts in every mix
        q, h = C.q_power(1), C.hbar_power(1)
        inv = (q - 1).inverse()
        rules = {
            "one-term": lambda w: q * w["a"] * w["b"] + h * w["c"],
            "several-term": lambda w: (q + 1) * w["a"] * w["b"] + w["c"],
            "fraction": lambda w: inv * w["a"] * w["b"] + q * w["c"],
        }
        for name, b_a in rules.items():
            (a, b, c, d), _, sysm = _abcd_system(
                b_a, [("dc", lambda w: h * w["b"] * w["a"])])
            for terms in [{(b, a): inv},
                          {(b, a): 1, (a, b): inv},
                          {(b, a): inv, (a, b): 1, (c,): -h},
                          {(d, c): inv * q, (b, a): (q + 1) * h, (c,): q},
                          {(b, a): inv, (a, b): -inv * q, (c,): 1 - h},
                          {(b, a, b, a): 1 + q, (a, b, a, b): inv}]:
                assert _assert_same_as_reference(NCPoly(terms), sysm), (
                    name, terms)

    @pytest.mark.parametrize("var, f, other", [
        ("s", 2, ()),
        ("s", -2, (("Z_ovf", -5),)),
        ("h", 1, (("Z_ovf", EXP_LIMIT - 1), ("s", -EXP_LIMIT))),
        ("D_ovf", 3, (("h", -EXP_LIMIT),)),
    ])
    def test_step_exponent_overflow(self, var, f, other):
        # b*a -> var^f*a*b on var^e*b*a, whose monomial has ``other``
        # variables too, in lower and higher fields: the product leaves
        # [-2^28, 2^28) on a new word (a*b) and, in the second input, on a
        # word the input already holds; one exponent short, it is in range
        (a, b, c, d), _, sysm = _abcd_system(
            lambda w: C({((var, f),): 1}) * w["a"] * w["b"])
        edge = EXP_LIMIT - 1 if f > 0 else -EXP_LIMIT
        out, last = (C({tuple(sorted([(var, e), *other])): 1})
                     for e in (edge - f + (1 if f > 0 else -1), edge - f))
        for terms in [{(b, a): out}, {(b, a): out, (a, b): C.hbar_power(1)}]:
            with pytest.raises(ExponentOverflow):
                normalize(NCPoly(terms), sysm)
        _assert_same_as_reference(NCPoly({(b, a): last, (a, b): 1}), sysm)


class TestTrace:
    def test_single_step(self):
        cls = catalog("classical", indices=1)
        steps = reduce_trace(cls.parse("p_1*x_1"), cls.system())
        assert len(steps) == 1
        assert steps[0][2] == cls.normalize("p_1*x_1")

    def test_solved_relation_single_step(self, families):
        s = families["schmudgen"]
        steps = reduce_trace(s.parse("p*x"), s.system())
        assert len(steps) == 1
        assert steps[-1][2] == s.parse("-i*q^(-1/2)*u*hbar + i*q^(1/2)*u_inv*hbar")

    def test_replays_to_normal_form(self, rng, families):
        g = families["gaddis"]
        sysm = g.system()
        for _ in range(20):
            a = random_poly(rng, list(g.generators), max_len=4)
            steps = reduce_trace(a, sysm)
            nf = normalize(a, sysm)
            if steps:
                assert steps[-1][2] == nf
            else:
                assert a == nf


class TestCriticalPairs:
    def test_classical_overlaps_resolve(self):
        cls = catalog("classical", indices=1)
        pairs = critical_pairs(cls.system())
        assert all(p.resolved for p in pairs)

    def test_gaddis_overlap_value(self, families):
        g = families["gaddis"]
        pairs = critical_pairs(g.system())
        assert len(pairs) == 1
        cp = pairs[0]
        assert tuple(x.sym for x in cp.overlap_word) == ("y", "z", "x")
        assert cp.resolved
        # both one-step reducts meet at q p^-2 x z y + p^-1 hbar z^2
        meet = normalize(cp.left_result, g.system())
        assert meet == g.parse("q*p^-2*x*z*y + p^-1*hbar*z^2")
        assert meet == qheis.brute_force_reduce(cp.right_result, g.system())

    def test_broken_system_unresolved(self, families):
        # dropping the scaling-generator/position relation breaks the
        # x*p*Lambda overlap
        w = families["wess"]
        kept = [(lab, rel) for lab, rel in w.relations if lab != "lambda_x"]
        broken = Presentation("wess-broken", w.generators, kept,
                              inverse_pairs=w.inverse_pairs)
        report = check_confluence(broken.system())
        assert not report.confluent
        words = {tuple(g.sym for g in cp.overlap_word)
                 for cp in report.unresolved}
        assert ("x", "p", "Lambda") in words

    def test_longest_overlap_is_checked(self):
        # the only ambiguity of a*b*b*a -> c is its self-overlap of length
        # 7, which reduces to c*b^2*a and to a*b^2*c
        a, b, c = (Generator(s, None, i) for i, s in enumerate("abc"))
        pres = Presentation("abba", [a, b, c], [
            ("r", NCPoly.from_word((a, b, b, a)) - NCPoly.from_word((c,)))])
        report = check_confluence(pres.system())
        assert not report.confluent
        assert report.checked == 1
        (cp,) = report.unresolved
        assert cp.overlap_word == (a, b, b, a, b, b, a)
        assert cp.left_result == NCPoly.from_word((c, b, b, a))
        assert cp.right_result == NCPoly.from_word((a, b, b, c))


    def test_matches_independent_enumeration(self, rng):
        # generated systems on two or three letters with left sides of 2-4
        # letters, so self-overlaps (a*a*a) and inclusions at every
        # position occur
        kinds = set()
        for _ in range(60):
            letters = [Generator(s, None, i)
                       for i, s in enumerate("abc"[:rng.randint(2, 3)])]
            lhss = {tuple(rng.choice(letters) for _ in range(rng.randint(2, 4)))
                    for _ in range(rng.randint(1, 5))}
            rules = [RewriteRule(Word(lhs), NCPoly.from_word(lhs[:1]), f"r{i}")
                     for i, lhs in enumerate(sorted(lhss, key=repr))]
            sysm = RewriteSystem(rules, TermOrder("deglex"))
            want = _ambiguities(rules, sysm)
            got = [(tuple(cp.overlap_word), cp.left_rule, cp.right_rule)
                   for cp in critical_pairs(sysm)]
            assert got == [w[:3] for w in want], rules
            kinds.update(w[3] for w in want)
        assert kinds == {"self-overlap", "overlap", "prefix", "infix", "suffix"}

    def test_rules_sharing_a_label_keep_every_ambiguity(self):
        # a*b*c holds the overlap of a*b with b*c and the inclusions of
        # both in a*b*c; under one label the overlap and the inclusion of
        # b*c have the same word, labels and positions
        a, b, c = (Generator(s, None, i) for i, s in enumerate("abc"))
        rules = [RewriteRule(Word(lhs), NCPoly.from_word(lhs[:1]), "r")
                 for lhs in ((a, b, c), (a, b), (b, c))]
        pairs = critical_pairs(RewriteSystem(rules, TermOrder("deglex")))
        assert [cp.overlap_word for cp in pairs] == [(a, b, c)] * 3
        assert sorted((repr(cp.left_result), repr(cp.right_result))
                      for cp in pairs) == [("a", "a*b"), ("a", "a*c"), ("a*c", "a*b")]

    def test_catalog_counts_match_the_benchmark(self):
        # the ambiguity counts the benchmark checks its answers against
        layers = json.loads((EXPECTED / "layers.json").read_text())
        for key, want in layers["confluence"].items():
            if key.endswith(".qpres"):
                pres = qheis.load_presentation_file(str(EXAMPLES / key))
            else:
                family, _, variant = key.partition(":")
                pres = (catalog(family, variant=variant) if variant
                        else catalog(family))
            report = check_confluence(pres.system())
            assert (report.checked, report.confluent) == \
                (want["checked"], want["confluent"]), key


def _ambiguities(rules, sysm):
    """``(word, left rule, right rule, kind)`` of every ambiguity, sorted
    like ``critical_pairs``: the lhs of r2 placed at each offset p inside
    the lhs of r1, kept when the letters they share agree.  Offset 0 with
    a longer l2 is l1 inside l2, listed as (r2, r1)."""
    out = []
    for r1 in rules:
        for r2 in rules:
            l1, l2 = tuple(r1.lhs), tuple(r2.lhs)
            for p in range(len(l1)):
                end = p + len(l2)
                if (r1 is r2 and p == 0) or (p == 0 and end > len(l1)):
                    continue
                if l1[p:end] != l2[:len(l1) - p]:
                    continue
                if end > len(l1):
                    kind = "self-overlap" if r1 is r2 else "overlap"
                    out.append((l1[:p] + l2, r1.origin, r2.origin, kind))
                else:
                    kind = ("prefix" if p == 0 else
                            "suffix" if end == len(l1) else "infix")
                    out.append((l1, r1.origin, r2.origin, kind))
    alphabet = sysm.alphabet
    out.sort(key=lambda a: (sysm.order.code_key(alphabet.encode(a[0]), alphabet),
                            a[1], a[2]))
    return out


class TestConfluence:
    @pytest.mark.parametrize("fam", qheis.family_ids())
    def test_catalog_families_confluent(self, fam, families):
        report = check_confluence(families[fam].system())
        assert report.confluent, report

    def test_inverse_pairs_cancel(self, families):
        for pres in families.values():
            for g, ginv in pres.inverse_pairs:
                one = NCPoly.one()
                assert normalize(NCPoly.from_word((g, ginv)), pres.system()) == one
                assert normalize(NCPoly.from_word((ginv, g)), pres.system()) == one

    def test_printed_two_parameter_variant_not_confluent(self):
        pres = catalog("gaddis", variant="printed")
        report = check_confluence(pres.system())
        assert not report.confluent


def _completed(pres):
    # through the module, so that the suite's reduced-system check sees it
    return rewrite.complete(pres.all_relation_polys(), TermOrder(pres.order_kind))


def _braid():
    x, y = Generator("x", None, 0), Generator("y", None, 1)
    w = NCPoly.from_word
    return Presentation("braid", [x, y], [("braid", w((x, y, x)) - w((y, x, y)))])


class TestCompletion:
    @pytest.mark.parametrize("fam", qheis.family_ids())
    def test_catalog_relations_normalize_to_zero(self, fam, families):
        pres = families[fam]
        sysm = _completed(pres)
        assert check_confluence(sysm).confluent
        for label, rel in pres.all_relation_polys():
            assert normalize(rel, sysm).is_zero, label

    def test_schmudgen_variants_complete_to_the_same_rules(self):
        definition = catalog("schmudgen", variant="definition")
        # p_x and x_p share the leading word p*x
        with pytest.raises(OrientationError):
            definition.system()
        systems = [_completed(definition), _completed(catalog("schmudgen"))]
        rules = [{r.lhs: r.rhs for r in sysm.rules} for sysm in systems]
        assert len(rules[0]) == 8 and rules[0] == rules[1]
        for sysm in systems:
            report = check_confluence(sysm)
            assert report.confluent and report.checked == 12

    def test_printed_gaddis_variant_derives_z_squared(self, families):
        sysm = _completed(catalog("gaddis", variant="printed"))
        z = families["gaddis"].gen("z")
        rules = {r.lhs: r.rhs for r in sysm.rules}
        assert len(rules) == 4 and rules[Word((z, z))].is_zero
        report = check_confluence(sysm)
        assert report.confluent and report.checked == 4

    def test_system_is_reduced(self):
        sysm = _completed(catalog("schmudgen", variant="definition"))
        for rule in sysm.rules:
            assert normalize(rule.rhs, sysm) == rule.rhs
            # no other left side inside this one
            lhs = sysm.alphabet.encode(rule.lhs)
            assert list(sysm.redexes(lhs)) == [(0, lhs)]

    def test_infinite_completion_is_bounded(self):
        start = time.perf_counter()
        with pytest.raises(NonTermination, match="completion derived more than"):
            _completed(_braid())
        assert time.perf_counter() - start < 1

    def test_one_letter_consequence_does_not_orient(self):
        # x*y = 1 and y*x = 2 give x = x*y*x = 2*x
        x, y = Generator("x", None, 0), Generator("y", None, 1)
        w = NCPoly.from_word
        rels = [("xy", w((x, y)) - 1), ("yx", w((y, x)) - 2)]
        with pytest.raises(OrientationError, match="shorter than two letters"):
            rewrite.complete(rels, TermOrder("deglex"))

    def test_completed_keeps_its_result(self, complete_calls):
        pres = catalog("schmudgen", variant="definition")
        sysm = pres.completed()
        assert pres.completed() is sysm and len(complete_calls) == 1
        assert {r.lhs: r.rhs for r in sysm.rules} == \
            {r.lhs: r.rhs for r in _completed(pres).rules}

    def test_failed_completion_is_kept(self, complete_calls):
        # the second call raises the first one's error without completing
        braid = _braid()
        messages = []
        for _ in range(2):
            with pytest.raises(NonTermination, match="completion derived") as info:
                braid.completed()
            messages.append(str(info.value))
        assert len(complete_calls) == 1 and messages[0] == messages[1]


# the presentations whose generating sets TestReducedCompletionIsUnique
# varies: the catalog, printed gaddis, schmudgen's definition, three
# confluent unified points and the example files
UNIQUENESS_CASES = (
    *((fam, lambda fam=fam: catalog(fam)) for fam in qheis.family_ids()),
    ("gaddis_printed", lambda: catalog("gaddis", variant="printed")),
    ("schmudgen_definition", lambda: catalog("schmudgen", variant="definition")),
    *((f"unified_-1_-1_{l}", lambda l=l: unified(UnifiedParams(-1, -1, l, 1, 1, 1)))
      for l in (-1, 0, 1)),
    *((path.name, lambda path=path: load_presentation(path.read_text()))
      for path in sorted(EXAMPLES.glob("*.qpres"))),
)


def _generating_set(relations, gens, rng):
    """Another generating set of the ideal of ``relations``: shuffled, each
    scaled by 2, q or -1, one r_i replaced by r_i + a*r_j*b (j != i) and
    one a*r appended, for words a and b of at most two letters."""
    scales = (C.from_scalar(2), C.q_power(1), C.from_scalar(-1))

    def word():
        return NCPoly.from_word(rng.choices(gens, k=rng.randrange(3)))

    rels = [(label, poly * rng.choice(scales)) for label, poly in relations]
    rng.shuffle(rels)
    if len(rels) > 1:
        i, j = rng.sample(range(len(rels)), 2)
        label, poly = rels[i]
        rels[i] = (label, poly + word() * rels[j][1] * word())
    rels.append(("extra", word() * rng.choice(rels)[1]))
    return rels


@pytest.mark.hashseed
class TestReducedCompletionIsUnique:
    """With monic leads, a reduced complete system is unique for its ideal
    and term order (Bergman 1978; Metivier 1983), so every generating set
    of one ideal completes to the same rules."""

    VARIANTS = 20

    @pytest.mark.parametrize("case", range(len(UNIQUENESS_CASES)),
                             ids=[name for name, _ in UNIQUENESS_CASES])
    def test_generating_sets_complete_to_the_same_rules(self, case):
        pres = UNIQUENESS_CASES[case][1]()
        order = TermOrder(pres.order_kind)
        relations = pres.all_relation_polys()
        want = {r.lhs: r.rhs for r in rewrite.complete(relations, order).rules}
        rng = make_rng(case)
        differ = []
        for k in range(self.VARIANTS):
            rels = _generating_set(relations, pres.generators, rng)
            got = {r.lhs: r.rhs for r in rewrite.complete(rels, order).rules}
            if got != want:
                differ.append(k)
        assert not differ, f"variants {differ} complete to other rules"


class TestCompletionOfOtherGeneratingSets:
    """Generating sets of a catalog ideal that ``complete`` failed to
    complete under invlex, which does not respect multiplication."""

    @pytest.mark.parametrize("fam, label, other, right", [
        ("gha", "h_x", "y_x", "x*x"),
        ("q_gha", "y_x", "h_x", "y*x"),
    ])
    def test_two_letter_multipliers(self, fam, label, other, right):
        # r_label -> r_label + r_other*right generates the same ideal, so it
        # must complete to the catalog's rules; under invlex h^2*x^2 and
        # y*x^3 rewrote to each other and a normalize reached the step limit
        pres = catalog(fam)
        order = TermOrder(pres.order_kind)
        relations = pres.all_relation_polys()
        polys = dict(relations)
        rels = [(lab, poly + polys[other] * pres.parse(right) if lab == label
                 else poly) for lab, poly in relations]
        want = {r.lhs: r.rhs for r in rewrite.complete(relations, order).rules}
        assert {r.lhs: r.rhs for r in rewrite.complete(rels, order).rules} == want


class TestCopies:
    """Polynomials, rewrite systems and presentations pickle and copy by
    value; a copy of a system is rebuilt from its rules."""

    def test_presentation_deepcopy_after_system(self):
        pres = catalog("wess")
        sysm, done = pres.system(), pres.completed()
        copied = copy.deepcopy(pres)
        assert copied == pres
        assert save_presentation(copied) == save_presentation(pres)
        assert copied.system() is not sysm and copied.completed() is not done
        for mine, theirs in ((sysm, copied.system()),
                             (done, copied.completed())):
            assert mine.rules == theirs.rules and mine.order == theirs.order
        a = pres.parse("x*p*Lambda*x - 2*p*Lambda_inv*x*p")
        assert normalize(a, copied.system()) == normalize(a, sysm)

    def test_copies_keep_errors(self, monkeypatch, complete_calls):
        # a copy raises the error its original kept, without orienting or
        # completing again
        orients = []
        real = qheis.families.orient
        monkeypatch.setattr(qheis.families, "orient",
                            lambda pres: orients.append(pres) or real(pres))
        definition, braid = catalog("schmudgen", variant="definition"), _braid()
        cases = ((definition, Presentation.system, OrientationError),
                 (braid, Presentation.completed, NonTermination))
        for pres, call, error in cases:
            with pytest.raises(error) as info:
                call(pres)
            message = re.escape(str(info.value))
            for copied in (copy.deepcopy(pres), pickle.loads(pickle.dumps(pres))):
                assert copied == pres
                with pytest.raises(error, match=message):
                    call(copied)
        assert orients == [definition] and len(complete_calls) == 1

    def test_system_pickle_round_trip(self):
        pres = catalog("gha")
        sysm = RewriteSystem(pres.system().rules, TermOrder("wreath h"), 77)
        back = pickle.loads(pickle.dumps(sysm))
        assert (back.rules, back.order, back.step_limit) == \
            (sysm.rules, sysm.order, 77)
        a = pres.parse("y*y*x*h")
        assert pickle.loads(pickle.dumps(a)) == a
        assert normalize(a, back) == normalize(a, sysm)
        assert copy.copy(sysm).rules == sysm.rules


def _spelled_key(order, letters):
    """``order``'s key of a word spelled one character per letter, each
    character the symbol of one of ``letters``."""
    alphabet = Alphabet(letters)
    codes = {g.sym: alphabet.code[g] for g in letters}
    return lambda text: order.code_key("".join(map(codes.get, text)), alphabet)


class TestTermOrder:
    X, H, Y = (Generator(s, None, i) for i, s in enumerate("xhy"))  # gha's

    def test_deglex(self):
        key = _spelled_key(TermOrder("deglex"), [self.X, Generator("p", None, 1)])
        assert key("px") > key("xp")
        assert key("xxx") > key("pp")

    def test_wreath_deletes_the_light_letter_first(self):
        key = _spelled_key(TermOrder("wreath h"), [self.X, self.H, self.Y])
        # the words without h decide: any y*x beats any power of h
        assert key("yx") > key("hhhhhh") and key("x") > key("hhhhhh")
        # then W: an h with one x right of it weighs 2^32, one with none 1
        assert key("hx") > key("x" + "h" * 1000)
        assert key("xhh") > key("xh")
        # so does a y left of it, and both count
        assert key("yhx") > key("hyx") and key("yhx") > key("yxh")
        assert key("yhx") > key("yx" + "h" * 1000)
        assert key("hyhx") > key("hhyx")
        # a tie in W (one h with one letter counted each) goes to deglex
        assert key("yxh") > key("hyx")

    @pytest.mark.parametrize("kind", ["deglex", "wreath h"])
    @pytest.mark.parametrize("precedence", [-1, 0.5, 1, 1.5, 3])
    def test_respects_multiplication(self, kind, precedence, rng):
        # u > v gives p*u*s > p*v*s, which the diamond lemma needs; f is a
        # letter no gha rule mentions, ranked below, between, tied with or
        # above gha's letters
        key = _spelled_key(TermOrder(kind), [self.X, self.H, self.Y,
                                             Generator("f", None, precedence)])
        # the witness that invlex (inversions first) is not a monomial
        # order: y*x > h^2 there, but y*x^3 < h^2*x^2
        assert key("yx") > key("hh") and key("yxxx") > key("hhxx")

        def word():
            return "".join(rng.choices("xhyf", k=rng.randrange(5)))

        for _ in range(400):
            u, v, p, s = word(), word(), word(), word()
            assert ((key(u) > key(v)) - (key(u) < key(v))
                    == (key(p + u + s) > key(p + v + s))
                    - (key(p + u + s) < key(p + v + s))), (u, v, p, s)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            TermOrder("mystery")

    def test_value_semantics(self):
        order = TermOrder()
        assert order == TermOrder("deglex") != TermOrder("wreath h")
        assert (order.light, TermOrder("wreath h").light) == (None, "h")
        assert repr(order) == "TermOrder('deglex')"
        assert pickle.loads(pickle.dumps(TermOrder("wreath h"))) == TermOrder("wreath h")
        with pytest.raises(AttributeError):
            order.kind = "wreath h"
