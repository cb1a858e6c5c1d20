"""Free-algebra polynomials: noncommutative arithmetic, commutators,
substitution."""

import operator

import pytest

import qheis
from qheis.coeffs import Coefficient
from qheis.errors import AlphabetError, UnboundGenerator
from qheis.ncpoly import Generator, NCPoly, Word, commutator, substitute

C = Coefficient

X = Generator("x", None, 0)
P = Generator("p", None, 1)
U = Generator("u", None, 2)
UI = Generator("u_inv", None, 3)


def w(*gens):
    return NCPoly.from_word(gens)


class TestFreeProducts:
    def test_noncommutative(self):
        assert w(X) * w(P) == w(X, P)
        assert w(P) * w(X) == w(P, X)
        assert w(X, P) != w(P, X)

    def test_inverse_pair_not_reduced(self):
        # the free algebra has no relations; reduction lives elsewhere
        assert w(U) * w(UI) == w(U, UI)
        assert w(U, UI) != NCPoly.one()

    def test_product_expansion(self):
        # (x + p)(x - p) = x^2 - xp + px - p^2, expanded by hand
        got = (w(X) + w(P)) * (w(X) - w(P))
        want = w(X, X) - w(X, P) + w(P, X) - w(P, P)
        assert got == want

    def test_cancelling_words_drop(self):
        # (x + 1)(x - 1) = x^2 - 1: the two x terms cancel
        got = (w(X) + 1) * (w(X) - 1)
        assert got == w(X, X) - 1
        assert set(got._terms) == {"\0\0", ""}
        assert got.coefficient((X,)) == 0
        assert (w(X) + (-w(X))).is_zero
        assert w(X) + (-w(X)) == NCPoly.zero()
        assert not (w(X, P) * 2 + w(X, P) * -2)._terms

    def test_empty_word_is_identity(self):
        a = w(X, P) * 3 + w(U)
        assert NCPoly.one() * a == a
        assert a * NCPoly.one() == a

    def test_alphabet_clash(self):
        other_x = Generator("x", None, 5)
        with pytest.raises(AlphabetError):
            (w(X) + w(P)) * w(other_x)

    @pytest.mark.parametrize("op", [operator.add, operator.mul])
    def test_alphabet_clash_on_sums_and_products(self, op):
        # same name and index, different precedence: never the same letter
        clash = Generator("x", None, 7)
        a, b = w(X, P) + w(U), w(P) * 2 + w(clash, P)
        for x, y in ((a, b), (b, a)):
            with pytest.raises(AlphabetError):
                op(x, y)
        # an equal but distinct object is the same letter
        twin = Generator("x", None, 0)
        assert twin is not X
        assert op(w(X), w(twin)) == op(w(X), w(X))


class TestAlphabets:
    """Polynomials over different alphabets mix and compare by value."""

    def test_equality_by_value_across_alphabets(self, families):
        a = NCPoly({(X, P): 1, (U,): 2})
        b = NCPoly({(U,): 2, (X, P): 1})
        assert a.alphabet is not b.alphabet
        assert a.alphabet.letters != b.alphabet.letters
        assert a == b and b == a and (a - b).is_zero
        assert a != b + w(X) and a != NCPoly({(X, P): 1, (U,): 3})
        g = families["gaddis"]
        twin = NCPoly({(g.gen("y"), g.gen("x")): C.q_power(1), (): 1})
        assert twin == g.parse("q*y*x + 1") and twin.alphabet is not g.alphabet

    def test_terms_view_is_the_word_dict(self, families):
        want = {Word((P, X)): C.q_power(1), Word(()): C.from_scalar(3),
                Word((X, P, X)): -C.one()}
        a = NCPoly(want)
        assert a.terms == want and list(a.terms) == list(want)
        a.terms.clear()  # a fresh dict each time
        assert a.terms == want
        g = families["gaddis"]
        x, z, y = (g.gen(s) for s in "xzy")
        parsed = g.parse("y*x - q*x*y - hbar*z")
        assert list(parsed.terms.items()) == [
            (Word((y, x)), C.one()), (Word((x, y)), -C.q_power(1)),
            (Word((z,)), -C.hbar_power(1))]
        assert parsed.words() == [Word((y, x)), Word((x, y)), Word((z,))]

    def test_bare_words_normalize_like_parsed_twins(self, rng, families,
                                                     coeff_pool):
        from qheis import format_expr, normalize

        for fam, pres in families.items():
            sysm = pres.system()
            # code order against precedence order, unlike the presentation
            gens = sorted(pres.generators, key=lambda g: -g.precedence)
            for _ in range(20):
                words = [tuple(rng.choice(gens) for _ in range(rng.randint(0, 5)))
                         for _ in range(3)]
                coeffs = [rng.choice(coeff_pool) for _ in words]
                bare = sum((NCPoly.from_word(wd, c) for wd, c in zip(words, coeffs)),
                           NCPoly.zero())
                twin = sum((pres.parse("*".join(g.sym for g in wd) or "1") * c
                            for wd, c in zip(words, coeffs)), NCPoly.zero())
                assert twin.alphabet is pres.alphabet
                assert bare == twin, fam
                got, want = normalize(bare, sysm), normalize(twin, sysm)
                assert format_expr(got, "machine") == format_expr(want, "machine")
                assert list(got.terms) == list(want.terms), fam


class TestCommutator:
    def test_self_commutator_vanishes(self):
        assert commutator(w(X), w(X)).is_zero

    def test_definition(self):
        assert commutator(w(X), w(P)) == w(X, P) - w(P, X)

    def test_alternating(self):
        a = w(X) + w(P)
        assert commutator(a, a).is_zero

    def test_bilinearity(self, rng, coeff_pool):
        gens = [X, P, U]
        for _ in range(40):
            a = _rand_poly(rng, gens, coeff_pool)
            b = _rand_poly(rng, gens, coeff_pool)
            c = _rand_poly(rng, gens, coeff_pool)
            assert commutator(a + b, c) == commutator(a, c) + commutator(b, c)

    def test_jacobi_identity(self, rng, coeff_pool):
        gens = [X, P, U]
        for _ in range(200):
            a = _rand_poly(rng, gens, coeff_pool, max_len=3)
            b = _rand_poly(rng, gens, coeff_pool, max_len=3)
            c = _rand_poly(rng, gens, coeff_pool, max_len=3)
            total = (commutator(commutator(a, b), c)
                     + commutator(commutator(b, c), a)
                     + commutator(commutator(c, a), b))
            assert total.is_zero


class TestSubstitute:
    def test_identity_substitution(self):
        a = w(X, P) - w(P, X)
        assert substitute(a, {X: w(X), P: w(P)}) == a

    def test_renaming(self):
        a = w(X, P)
        assert substitute(a, {"x": w(U), "p": w(UI)}) == w(U, UI)

    def test_unbound(self):
        with pytest.raises(UnboundGenerator):
            substitute(w(X, P), {"x": w(X)})

    def test_homomorphism(self, rng, coeff_pool):
        gens = [X, P]
        images = {"x": w(X) + w(P), "p": w(P, P) - NCPoly.one()}
        for _ in range(50):
            a = _rand_poly(rng, gens, coeff_pool, max_len=3)
            b = _rand_poly(rng, gens, coeff_pool, max_len=3)
            assert (substitute(a * b, images)
                    == substitute(a, images) * substitute(b, images))


def _rand_poly(rng, gens, pool, max_len=4, max_terms=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        word = tuple(rng.choice(gens) for _ in range(rng.randint(0, max_len)))
        terms[word] = terms.get(word, C.zero()) + rng.choice(pool)
    return NCPoly(terms)


def test_ring_axioms(rng, coeff_pool):
    gens = [X, P, U, UI]
    for _ in range(200):
        a = _rand_poly(rng, gens, coeff_pool)
        b = _rand_poly(rng, gens, coeff_pool)
        c = _rand_poly(rng, gens, coeff_pool)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
