"""Rewrite engine: orientation, normalization, traces, critical pairs."""

import pytest

import qheis
from qheis import (NCPoly, Presentation, catalog, check_confluence,
                   critical_pairs, normalize, reduce_trace)
from qheis.coeffs import Coefficient
from qheis.errors import NonTermination, OrientationError
from qheis.ncpoly import Generator
from qheis.rewrite import RewriteSystem, TermOrder
from qheis.verify import random_poly

C = Coefficient


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

    def test_invlex_orients_polynomial_image(self, families):
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
        for fam, pres in families.items():
            sysm = pres.system()
            gens = list(pres.generators)
            for _ in range(10):
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

    def test_length_eight_words_within_budget(self, rng, families):
        for fam, pres in families.items():
            sysm = pres.system()
            gens = list(pres.generators)
            for _ in range(5):
                word = tuple(rng.choice(gens) for _ in range(8))
                normalize(NCPoly.from_word(word), sysm)  # must not raise


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
            ("r", NCPoly.from_word((a, b, b, a)) - NCPoly.from_generator(c))])
        report = check_confluence(pres.system())
        assert not report.confluent
        assert report.checked == 1
        (cp,) = report.unresolved
        assert cp.overlap_word == (a, b, b, a, b, b, a)
        assert cp.left_result == NCPoly.from_word((c, b, b, a))
        assert cp.right_result == NCPoly.from_word((a, b, b, c))


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


class TestTermOrder:
    def test_deglex(self):
        x = Generator("x", None, 0)
        p = Generator("p", None, 1)
        order = TermOrder("deglex")
        assert order.greater((p, x), (x, p))
        assert order.greater((x, x, x), (p, p))

    def test_invlex_counts_inversions(self):
        x = Generator("x", None, 0)
        h = Generator("h", None, 1)
        order = TermOrder("invlex")
        # one inversion beats any inversion-free word, regardless of length
        assert order.greater((h, x), (x, h, h, h, h))
        assert order.greater((x, h, h), (x, h))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            TermOrder("mystery")
