"""Exact coefficient field: arithmetic, equality, quantum integers,
evaluation."""

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qheis
from qheis.coeffs import (G_ONE, G_ZERO, MONO_UNIT, Coefficient, GaussRational,
                          _mono, qnumber)
from qheis.errors import (DivisionByZero, ParamError, PoleAtPoint, SchemaError,
                          UnboundVariable)

C = Coefficient


def coeff(text):
    return qheis.parse_expr(text).coefficient(())


class TestGaussRational:
    def test_i_squared(self):
        assert GaussRational(0, 1) * GaussRational(0, 1) == GaussRational(-1)

    def test_inverse(self):
        g = GaussRational(Fraction(3, 4), Fraction(-2, 5))
        assert g * g.inverse() == GaussRational(1)

    def test_inverse_of_zero(self):
        with pytest.raises(DivisionByZero):
            GaussRational(0).inverse()

    def test_hash_agrees_with_eq(self):
        assert len({3, GaussRational(3)}) == 1
        assert len({Fraction(-1, 2), GaussRational(Fraction(-1, 2))}) == 1
        assert len({GaussRational(1, 2), GaussRational(Fraction(2, 2), 2)}) == 1

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                    operator.truediv])
    def test_coefficient_operand_uses_reflected_method(self, op):
        for right in (C.one(), C.q_power(1)):
            got = op(GaussRational(2), right)
            assert isinstance(got, Coefficient)
            assert got == op(C.from_scalar(2), right)
        with pytest.raises(TypeError):
            op(GaussRational(1), "x")


# -- integer-triple kernel against a Fraction-pair reference ---------------

def _ref_str(re, im):
    if not im:
        return str(re)
    if not re:
        return "i" if im == 1 else "-i" if im == -1 else f"{im}*i"
    mag = abs(im)
    imag = "i" if mag == 1 else f"{mag}*i"
    return f"({re} {'+' if im > 0 else '-'} {imag})"


_parts = st.one_of(st.integers(-50, 50),
                   st.fractions(max_denominator=10**6),
                   st.fractions(max_denominator=30))
_pairs = st.tuples(_parts, _parts).map(lambda p: (Fraction(p[0]), Fraction(p[1])))


def _assert_matches(g, pair):
    re, im = pair
    assert (g.re, g.im) == (re, im)
    a, b, d = g._abd
    assert d > 0
    assert math.gcd(a, b, d) == 1
    # a real value hashes like the equal Fraction, so hashing agrees with ==
    assert hash(g) == (hash(g._abd) if im else hash(re))
    assert str(g) == _ref_str(re, im)
    if not im:
        assert g == re
        if re.denominator == 1:
            assert g == int(re)


class TestGaussKernel:
    @settings(max_examples=300, deadline=None)
    @given(_pairs, _pairs)
    def test_field_operations_match_fraction_pairs(self, x, y):
        gx, gy = GaussRational(*x), GaussRational(*y)
        (r1, i1), (r2, i2) = x, y
        _assert_matches(gx, x)
        _assert_matches(gx + gy, (r1 + r2, i1 + i2))
        _assert_matches(gx - gy, (r1 - r2, i1 - i2))
        _assert_matches(-gx, (-r1, -i1))
        _assert_matches(gx * gy, (r1 * r2 - i1 * i2, r1 * i2 + i1 * r2))
        assert (gx == gy) == (x == y)
        if x != (0, 0):
            n = r1 * r1 + i1 * i1
            _assert_matches(gx.inverse(), (r1 / n, -i1 / n))

    @settings(max_examples=100, deadline=None)
    @given(_pairs, _parts)
    def test_mixed_with_scalars(self, x, s):
        g, s = GaussRational(*x), Fraction(s)
        _assert_matches(g + s, (x[0] + s, x[1]))
        _assert_matches(s + g, (x[0] + s, x[1]))
        _assert_matches(g * s, (x[0] * s, x[1] * s))
        _assert_matches(s * g, (x[0] * s, x[1] * s))


class TestCoefficientFastPaths:
    """Results that skip re-canonicalization equal the fully canonicalized
    slow path in value and representation, and own their dicts."""

    @staticmethod
    def _strategy():
        pool = [coeff(t) for t in (
            "1", "-3", "1/2", "i", "q", "q^-1", "q^(1/2)", "p^-1", "hbar",
            "i*hbar", "q - 1", "q + p^-1")]
        pool += [coeff("q - 1").inverse(), coeff("1 + hbar").inverse()]
        return _pool_strategy(pool)

    @staticmethod
    def _check(got, slow, *operands):
        assert got == slow
        assert (got._num, got._den) == (slow._num, slow._den)
        for d in (got._num, got._den):
            for c in operands:
                assert d is not c._num and d is not c._den

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_ops_match_slow_path(self, data):
        from qheis.coeffs import _canonical, _coeff, _p_add, _p_mul, _p_neg

        def slow(num, den):
            return _coeff(*_canonical(num, dict(den)))

        def add(x, y):
            if x._den == y._den:
                return slow(_p_add(x._num, y._num), x._den)
            return slow(_p_add(_p_mul(x._num, y._den), _p_mul(y._num, x._den)),
                        _p_mul(x._den, y._den))

        s = self._strategy()
        a, b = data.draw(s), data.draw(s)
        self._check(-a, slow(_p_neg(a._num), a._den), a)
        self._check(a + b, add(a, b), a, b)
        self._check(a - b, add(a, slow(_p_neg(b._num), b._den)), a, b)
        self._check(a * b, slow(_p_mul(a._num, b._num), _p_mul(a._den, b._den)),
                    a, b)
        if not a.is_zero:
            self._check(a.inverse(), slow(dict(a._den), a._num), a)

    def test_constructor_copies_its_arguments(self):
        num = dict(coeff("q - 1").num)
        den = dict(C.one().den)
        c = C(num, den)
        assert c.num is not num and c.den is not den
        num.clear()
        den.clear()
        assert c == coeff("q - 1")

    def test_views_are_fresh_gauss_dicts(self):
        c = coeff("(q - 1/2 + i*hbar)*(q + p^-1)^-1")
        for view, raw in ((c.num, c._num), (c.den, c._den)):
            assert all(type(g) is GaussRational for g in view.values())
            assert {m: g._abd for m, g in view.items()} == raw
        assert c.num is not c.num and c.den is not c.den
        c.num.clear()
        back = C(c.num, c.den)
        assert (back._num, back._den) == (c._num, c._den)
        assert back == c == coeff("q - 1/2 + i*hbar") / coeff("q + p^-1")
        with pytest.raises(AttributeError):
            c.num = {}


# -- triple-valued Laurent kernel against a GaussRational-valued reference --

_VARS = ("h", "s", "t")
_monos = st.lists(st.tuples(st.sampled_from(_VARS), st.integers(-3, 3)),
                  max_size=3).map(_mono)
_nonneg_monos = st.lists(st.tuples(st.sampled_from(_VARS), st.integers(0, 3)),
                         min_size=1, max_size=3).map(_mono)
_gauss = st.one_of(
    st.integers(-5, 5).map(GaussRational),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)).map(
        lambda p: GaussRational(*p)),
    _pairs.map(lambda p: GaussRational(*p))).filter(bool)


def _poly(monos, min_size=0):
    return st.dictionaries(monos, _gauss, min_size=min_size, max_size=5)


def _raw(p):
    return {m: g._abd for m, g in p.items()}


def _ref_add(a, b):
    out = dict(a)
    for m, g in b.items():
        out[m] = out.get(m, G_ZERO) + g
    return {m: g for m, g in out.items() if g}


def _ref_mul(a, b):
    out = {}
    for m1, g1 in a.items():
        for m2, g2 in b.items():
            m = _mono(m1 + m2)
            out[m] = out.get(m, G_ZERO) + g1 * g2
    return {m: g for m, g in out.items() if g}


def _view(raw):
    return {m: GaussRational(Fraction(a, d), Fraction(b, d))
            for m, (a, b, d) in raw.items()}


def _assert_reduced(raw):
    for (a, b, d) in raw.values():
        assert type(a) is type(b) is type(d) is int
        assert d > 0 and math.gcd(a, b, d) == 1 and (a or b)


class TestTripleKernel:
    """Sums, products, inverses and canonical forms on raw triples equal the
    same computations on GaussRational values, and every stored triple is
    reduced: d > 0, gcd(a, b, d) == 1, never zero."""

    @settings(max_examples=200, deadline=None)
    @given(_poly(_monos), _poly(_monos))
    # (1 + s)*(1 - s): the s terms cancel
    @example({MONO_UNIT: G_ONE, (("s", 1),): G_ONE},
             {MONO_UNIT: G_ONE, (("s", 1),): -G_ONE})
    def test_sum_and_product(self, a, b):
        from qheis.coeffs import _p_add, _p_mul, _p_neg

        ra, rb = _raw(a), _raw(b)
        for got, want in ((_p_add(ra, rb), _ref_add(a, b)),
                          (_p_mul(ra, rb), _ref_mul(a, b)),
                          (_p_neg(ra), {m: -g for m, g in a.items()}),
                          (_p_add(ra, _p_neg(ra)), {})):
            _assert_reduced(got)
            assert got == _raw(want)
        assert (ra, rb) == (_raw(a), _raw(b))

    @settings(max_examples=150, deadline=None)
    @given(_poly(_monos), _poly(_monos, min_size=1))
    def test_canonical_and_inverse(self, a, d):
        from qheis.coeffs import _canonical, _p_lead, _p_vars

        num, den = _canonical(_raw(a), _raw(d))
        _assert_reduced(num)
        _assert_reduced(den)
        assert _ref_mul(_view(num), d) == _ref_mul(a, _view(den))
        if den != {MONO_UNIT: (1, 0, 1)}:
            assert len(den) > 1
            assert all(e >= 0 for m in den for _, e in m)
            varlist = sorted(_p_vars(num) | _p_vars(den))
            assert _p_lead(den, varlist)[1] == (1, 0, 1)
        if a:
            c = C(a, d)
            inv = c.inverse()
            _assert_reduced(inv._num)
            _assert_reduced(inv._den)
            assert _ref_mul(inv.num, c.num) == _ref_mul(inv.den, c.den)
            assert (c * inv)._num == {MONO_UNIT: (1, 0, 1)}

    @settings(max_examples=100, deadline=None)
    @given(_poly(_monos), _poly(_nonneg_monos, min_size=1), _gauss)
    def test_canonical_divides_out_exact_factor(self, q, d, c0):
        from qheis.coeffs import _canonical

        d = {**d, MONO_UNIT: c0}
        if len(d) < 2:
            return
        num, den = _canonical(_raw(_ref_mul(d, q)), _raw(d))
        assert (num, den) == (_raw(q), {MONO_UNIT: (1, 0, 1)})


class TestArithmetic:
    def test_like_term_sum(self):
        assert coeff("q^(1/2)") + coeff("q^(1/2)") == coeff("2*q^(1/2)")

    def test_i_squared(self):
        assert C.imag() * C.imag() == C.from_scalar(-1)

    def test_laurent_quotient(self):
        # (q^2 - p^-2) / (q - p^-1) collapses to q + p^-1
        num = coeff("q^2 - p^-2")
        den = coeff("q - p^-1")
        got = den.inverse() * num
        want = coeff("q + p^-1")
        assert got == want
        # independent oracle: 20 random rational points
        import random

        rng = random.Random(3)
        pts = 0
        while pts < 20:
            pt = {"s": GaussRational(Fraction(rng.randint(2, 9), rng.randint(1, 3))),
                  "t": GaussRational(Fraction(rng.randint(2, 9), rng.randint(1, 3)))}
            try:
                lhs = got.evaluate(pt)
                rhs = num.evaluate(pt) * den.evaluate(pt).inverse()
            except (PoleAtPoint, DivisionByZero):
                continue
            assert lhs == rhs == want.evaluate(pt)
            pts += 1

    def test_inverse_of_zero_coefficient(self):
        with pytest.raises(DivisionByZero):
            C.zero().inverse()

    def test_zero_normalization(self):
        assert C.zero() == C.zero() / coeff("q - 1")

    def test_constructor_drops_zero_values(self):
        z = C.monomial({"s": 1}, 0)
        assert z.is_zero
        assert z == 0
        assert str(z) == "0"
        m = (("s", 1),)
        assert C({m: G_ONE}, {MONO_UNIT: G_ONE, m: G_ZERO}) == C.q_power("1/2")

    def test_constructor_coerces_plain_numbers(self):
        m = (("s", 1),)
        c = C({m: 2, MONO_UNIT: Fraction(1, 2)})
        assert str(c) == str(coeff("2*q^(1/2) + 1/2"))
        assert c == coeff("2*q^(1/2) + 1/2")

    def test_zero_denominator_rejected(self):
        with pytest.raises(DivisionByZero):
            C({MONO_UNIT: G_ONE}, {MONO_UNIT: 0})
        with pytest.raises(DivisionByZero):
            C({MONO_UNIT: G_ONE}, {MONO_UNIT: G_ZERO})
        with pytest.raises(DivisionByZero):
            C({MONO_UNIT: G_ONE}, {})


class TestEquality:
    def test_proof_step_one(self):
        lhs = coeff("q^(1/2) - q^(-3/2)") / coeff("q^-1 - q")
        assert lhs == coeff("-q^(-1/2)")

    def test_proof_step_two(self):
        lhs = coeff("q^(-1/2) - q^(3/2)") / coeff("q^-1 - q")
        assert lhs == coeff("q^(1/2)")

    def test_cross_multiplied_not_sampled(self):
        # representations differ, cross multiplication decides
        a = coeff("(q^2 - 1)") / coeff("q - 1")
        assert a == coeff("q + 1")


class TestQNumber:
    def test_empty_sum(self):
        assert qnumber(0) == C.zero()

    def test_single_term(self):
        assert qnumber(1) == C.one()

    def test_k3_expansion(self):
        # expanded by hand: q^2 + q p^-1 + p^-2
        assert qnumber(3) == coeff("q^2 + q*p^-1 + p^-2")

    def test_rejects_negative(self):
        with pytest.raises(ParamError):
            qnumber(-1)

    @pytest.mark.parametrize("k", range(0, 26))
    def test_sum_equals_closed_form(self, k):
        if k == 0:
            assert qnumber(k) == C.zero()
            return
        num = C.q_power(k) - C.p_power(-k)
        den = C.q_power(1) - C.p_power(-1)
        assert qnumber(k) == num / den


class TestEvaluation:
    def test_direct_substitution(self):
        assert coeff("q^(1/2)").evaluate({"s": 3}) == GaussRational(3)

    def test_qnumber_at_point(self):
        # q = 4, p = 1: q + p^-1 = 5
        assert qnumber(2).evaluate({"s": 2, "t": 1}) == GaussRational(5)

    def test_pole(self):
        with pytest.raises(PoleAtPoint):
            coeff("q - 1").inverse().evaluate({"s": 1})

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariable):
            coeff("q*hbar").evaluate({"s": 2})

    def test_partial_substitution(self):
        c = coeff("(q - 1)*hbar")
        assert c.substitute({"s": 1}) == C.zero()
        with pytest.raises(PoleAtPoint):
            coeff("q - 1").inverse().substitute({"s": 1})


def _pool_strategy(pool):
    return st.builds(
        lambda idxs: _product(pool, idxs),
        st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=3))


def _product(pool, idxs):
    out = pool[idxs[0]]
    for i in idxs[1:]:
        out = out + pool[i]
    return out


class TestFieldAxioms:
    """Randomized field axioms; hypothesis drives well past 200 triples."""

    @staticmethod
    def _strategy():
        import qheis
        pool = [qheis.parse_expr(t).coefficient(()) for t in (
            "1", "2", "-3", "1/2", "i", "q", "q^-1", "q^(1/2)", "p^-1",
            "hbar", "i*hbar", "q - 1", "q + p^-1")]
        return _pool_strategy(pool)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_ring_axioms(self, data):
        s = self._strategy()
        a, b, c = data.draw(s), data.draw(s), data.draw(s)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_multiplicative_inverse(self, data):
        a = data.draw(self._strategy())
        if a.is_zero:
            return
        assert a * a.inverse() == C.one()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_evaluation_is_homomorphic(self, data):
        s = self._strategy()
        a, b = data.draw(s), data.draw(s)
        pt = {"s": GaussRational(Fraction(5, 2)), "t": GaussRational(Fraction(3, 1)),
              "h": GaussRational(Fraction(2, 7))}
        try:
            va, vb = a.evaluate(pt), b.evaluate(pt)
        except PoleAtPoint:
            return
        assert (a + b).evaluate(pt) == va + vb
        assert (a * b).evaluate(pt) == va * vb


def test_eq_iff_equal_at_points(rng, coeff_pool):
    # semantic equality must agree with exact evaluation at pole-free points
    for _ in range(60):
        a = rng.choice(coeff_pool) + rng.choice(coeff_pool)
        b = rng.choice(coeff_pool) + rng.choice(coeff_pool)
        equal = a == b
        agree = True
        pts = 0
        while pts < 20:
            pt = {v: GaussRational(Fraction(rng.randint(2, 11), rng.randint(1, 4)))
                  for v in set(a.variables()) | set(b.variables())}
            try:
                if a.evaluate(pt) != b.evaluate(pt):
                    agree = False
                    break
            except PoleAtPoint:
                continue
            pts += 1
        if equal:
            assert agree
        # unequal coefficients may still collide at isolated points, but a
        # disagreement anywhere certifies inequality
        if not agree:
            assert not equal


class TestPower:
    @pytest.mark.parametrize("k", range(-12, 13))
    def test_matches_repeated_multiplication(self, k):
        g = GaussRational(Fraction(3, 2), -1)
        c = coeff("(q + 1 + hbar)*(q - p^-1)^-1")
        for x, one in ((g, G_ONE), (c, C.one())):
            base = x if k >= 0 else x.inverse()
            want = one
            for _ in range(abs(k)):
                want = want * base
            assert x ** k == want

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 5, 8, 40, 63, 64, 1000])
    def test_square_and_multiply_count(self, k):
        from qheis.coeffs import _power

        calls = []

        def mul(a, b):
            calls.append(a is b)
            return a * b

        # Fraction products are fresh objects, so only a squaring passes
        # the same object twice
        assert _power(Fraction(3), k, Fraction(1), mul) == 3 ** k
        assert calls.count(True) == max(k.bit_length() - 1, 0)
        assert calls.count(False) == bin(k).count("1")


def _is_monomial(m):
    return (type(m) is tuple
            and all(type(v) is str and type(e) is int and e for v, e in m)
            and all(a < b for (a, _), (b, _) in zip(m, m[1:])))


def _assert_monomial_keys(c):
    for poly in (c.num, c.den):
        for m in poly:
            assert _is_monomial(m), m


class TestMonomialKeys:
    """Every kernel result is keyed by canonical monomials: tuples of
    (variable, nonzero integer exponent) pairs sorted by distinct
    variables."""

    _ATOMS = ("q", "q^(-1/2)", "p^(1/2)", "hbar^-1", "i", "s", "t", "2/3",
              "(q - 1)", "(1 + hbar)^-1", "(q + p^-1)^2", "(s*t - 1)^-1")

    @staticmethod
    def _strategy():
        pool = [coeff(t) for t in (
            "1", "-3", "i", "q", "q^-1", "q^(1/2)", "p^-1", "hbar", "q - 1",
            "q + p^-1", "q^(-1/2)*hbar - p")]
        pool += [C.opaque("D_12"), C.opaque("D_3", -2) * coeff("q - hbar"),
                 coeff("q - 1").inverse(), coeff("1 + hbar*p").inverse()]
        return _pool_strategy(pool)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_results_have_canonical_keys(self, data):
        from qheis.printer import format_expr, parse_machine

        s = self._strategy()
        a, b = data.draw(s), data.draw(s)
        results = [a + b, a - b, a * b]
        if not a.is_zero:
            results.append(a.inverse())
        for assign in ({"s": 2}, {"h": Fraction(1, 3), "D_12": 1}, {"t": 0}):
            try:
                results.append(a.substitute(assign))
            except PoleAtPoint:
                pass
        for c in results:
            _assert_monomial_keys(c)
            text = format_expr(qheis.NCPoly.from_scalar(c), "machine")
            back = parse_machine(text).coefficient(())
            _assert_monomial_keys(back)
            assert back == c

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from("+-*"), st.sampled_from(_ATOMS)),
                    min_size=1, max_size=5))
    def test_parsed_coefficients_have_canonical_keys(self, parts):
        text = "".join(op + atom for op, atom in parts).lstrip("+*")
        _assert_monomial_keys(coeff(text))

    @pytest.mark.parametrize("key", [
        (("t", 1), ("s", 1)),  # unsorted
        (("s", 0),),  # zero exponent
        (("s", 1), ("s", 2)),  # repeated variable
        (("s", 1.5),), (("s", True),), "s", (("s",),), (("s", "x"),)])
    def test_constructor_rejects_other_keys(self, key):
        with pytest.raises(ParamError):
            C({key: G_ONE})
        with pytest.raises(ParamError):
            C({MONO_UNIT: G_ONE}, {key: G_ONE, MONO_UNIT: G_ONE})

    def test_exponents_stay_integers(self):
        from qheis.printer import parse_machine

        # an integer-valued float index gives the integer quantum number
        assert str(qnumber(3.0)) == str(qnumber(3)) == "(q^2 + q*p^-1 + p^-2)"
        _assert_monomial_keys(qnumber(3.0))
        text = ('{"format":"qheis-poly-v1","terms":[{"word":[],'
                '"num":[[[["s",1.5]],"1","0"]],"den":[[[],"1","0"]]}]}')
        with pytest.raises(SchemaError) as exc:
            parse_machine(text)
        assert isinstance(exc.value.__cause__, ParamError)
