"""Exact coefficient field: arithmetic, equality, quantum integers,
evaluation."""

import math
import operator
import os
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import qheis
from qheis.coeffs import (EXP_LIMIT, MONO_UNIT, Coefficient, _NAMES, _T_ZERO,
                          _mono, _pack, _t_add, _t_inv, _t_mul, _t_neg,
                          _unpack, qnumber)
from qheis.errors import (DivisionByZero, ExponentOverflow, ParamError,
                          PoleAtPoint, SchemaError, UnboundVariable)
from qheis.printer import _t_str

C = Coefficient


def coeff(text):
    return qheis.parse_expr(text).coefficient(())


# -- Gaussian rationals as (Fraction, Fraction) pairs: the reference --------

_ZERO_P = (Fraction(0), Fraction(0))
_ONE_P = (Fraction(1), Fraction(0))


def _padd(x, y):
    return x[0] + y[0], x[1] + y[1]


def _pneg(x):
    return -x[0], -x[1]


def _pmul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _pinv(x):
    n = x[0] * x[0] + x[1] * x[1]
    return x[0] / n, -x[1] / n


_PAIR_OPS = {operator.add: _padd, operator.sub: lambda x, y: _padd(x, _pneg(y)),
             operator.mul: _pmul, operator.truediv: lambda x, y: _pmul(x, _pinv(y))}


def _triple(pair):
    """Kernel triple of a pair, built by ``Coefficient.from_gauss``."""
    return C.from_gauss(*pair)._num.get(0, _T_ZERO)


def _const_triple(c):
    """The triple of a constant coefficient."""
    assert type(c) is Coefficient
    assert c._den == {0: (1, 0, 1)} and c._num.keys() <= {0}
    return c._num.get(0, _T_ZERO)


def _check_triple(t, pair):
    """``t`` is the reduced triple of the value ``pair``."""
    a, b, d = t
    assert type(a) is type(b) is type(d) is int
    assert d > 0 and math.gcd(a, b, d) == 1
    assert (Fraction(a, d), Fraction(b, d)) == pair


class TestGaussRational:
    """Gaussian rationals are the constant coefficients."""

    def test_i_squared(self):
        assert C.from_gauss(0, 1) * C.from_gauss(0, 1) == -1
        assert C.from_gauss(0, 1) == C.imag()

    def test_inverse(self):
        g = C.from_gauss(Fraction(3, 4), Fraction(-2, 5))
        assert g * g.inverse() == 1

    def test_inverse_of_zero(self):
        with pytest.raises(DivisionByZero):
            C.from_gauss(0).inverse()

    @pytest.mark.parametrize("left", [1, -3, Fraction(1, 2), Fraction(-7, 3)])
    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                    operator.truediv])
    def test_plain_number_on_the_left(self, op, left):
        for right in ((Fraction(2), Fraction(0)), (Fraction(-2, 3), Fraction(5))):
            got = op(left, C.from_gauss(*right))
            _check_triple(_const_triple(got),
                          _PAIR_OPS[op]((Fraction(left), Fraction(0)), right))

    @pytest.mark.parametrize("left", [1, Fraction(1, 2)])
    def test_plain_number_over_zero(self, left):
        with pytest.raises(DivisionByZero):
            left / C.from_gauss(0)

    @pytest.mark.parametrize("op", [operator.sub, operator.truediv])
    def test_other_left_operands_refused(self, op):
        with pytest.raises(TypeError):
            op("x", C.from_gauss(1))


# -- integer-triple kernel against the Fraction-pair reference -------------

def _ref_str(re, im):
    mag = abs(im)
    imag = "i" if mag == 1 else f"{mag}*i"
    return f"({re} {'+' if im > 0 else '-'} {imag})"


_parts = st.one_of(st.integers(-50, 50),
                   st.fractions(max_denominator=10**6),
                   st.fractions(max_denominator=30))
_pairs = st.tuples(_parts, _parts).map(lambda p: (Fraction(p[0]), Fraction(p[1])))


class TestGaussKernel:
    """``_t_add``, ``_t_mul``, ``_t_neg`` and ``_t_inv`` give the reduced
    triple of the exact (Fraction, Fraction) result."""

    @settings(max_examples=300, deadline=None)
    @given(_pairs, _pairs)
    def test_field_operations_match_fraction_pairs(self, x, y):
        tx, ty = _triple(x), _triple(y)
        _check_triple(tx, x)
        _check_triple(_t_add(tx, ty), _padd(x, y))
        _check_triple(_t_add(tx, _t_neg(ty)), _padd(x, _pneg(y)))
        _check_triple(_t_neg(tx), _pneg(x))
        _check_triple(_t_mul(tx, ty), _pmul(x, y))
        assert (tx == ty) == (x == y)
        if x == _ZERO_P:
            with pytest.raises(DivisionByZero):
                _t_inv(tx)
        else:
            _check_triple(_t_inv(tx), _pinv(x))
        if x[0] and x[1]:
            assert _t_str(tx) == _ref_str(*x)

    @settings(max_examples=100, deadline=None)
    @given(_pairs, _parts)
    def test_mixed_with_scalars(self, x, s):
        g, s = C.from_gauss(*x), Fraction(s)
        for got, want in ((g + s, (x[0] + s, x[1])), (s + g, (x[0] + s, x[1])),
                          (g - s, (x[0] - s, x[1])), (s - g, (s - x[0], -x[1])),
                          (g * s, (x[0] * s, x[1] * s)),
                          (s * g, (x[0] * s, x[1] * s))):
            _check_triple(_const_triple(got), want)


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
            assert {_pack(m): _const_triple(g) for m, g in view.items()} == raw
        assert c.num is not c.num and c.den is not c.den
        c.num.clear()
        back = C(c.num, c.den)
        assert (back._num, back._den) == (c._num, c._den)
        assert back == c == coeff("q - 1/2 + i*hbar") / coeff("q + p^-1")
        with pytest.raises(AttributeError):
            c.num = {}

    def test_unit_factor(self):
        c = coeff("(q - 1/2 + i*hbar)*(q + p^-1)^-1")
        assert len(c._den) > 1
        # the one object gives the other operand back
        assert C.one() * c is c and c * C.one() is c
        one = C.from_scalar(1)
        assert one is not C.one()
        for got in (c * 1, 1 * c, one * c, c * one, C.one() * c):
            assert got == c
            assert (got._num, got._den) == (c._num, c._den)
        assert C.one() * C.one() == 1
        assert C.one() * C.zero() == 0 == C.zero() * C.one()


# -- triple-valued Laurent kernel against a pair-valued reference ----------

_VARS = ("h", "s", "t")
_monos = st.lists(st.tuples(st.sampled_from(_VARS), st.integers(-3, 3)),
                  max_size=3).map(_mono)
_nonneg_monos = st.lists(st.tuples(st.sampled_from(_VARS), st.integers(0, 3)),
                         min_size=1, max_size=3).map(_mono)
_gauss = st.one_of(
    st.integers(-5, 5).map(lambda n: (Fraction(n), Fraction(0))),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)).map(
        lambda p: (Fraction(p[0]), Fraction(p[1]))),
    _pairs).filter(lambda p: p != _ZERO_P)


def _poly(monos, min_size=0):
    return st.dictionaries(monos, _gauss, min_size=min_size, max_size=5)


def _raw(p):
    """Kernel form of a pair-valued tuple-keyed dict."""
    return {_pack(m): _triple(g) for m, g in p.items()}


def _consts(p):
    """Constructor form of a pair-valued tuple-keyed dict."""
    return {m: C.from_gauss(*g) for m, g in p.items()}


def _pairs_of(view):
    """Pair-valued form of a ``num``/``den`` view."""
    return {m: (Fraction(a, d), Fraction(b, d))
            for m, (a, b, d) in ((m, _const_triple(c)) for m, c in view.items())}


def _ref_add(a, b):
    out = dict(a)
    for m, g in b.items():
        out[m] = _padd(out.get(m, _ZERO_P), g)
    return {m: g for m, g in out.items() if g != _ZERO_P}


class _RefOverflow(Exception):
    pass


def _ref_mono_mul(m1, m2):
    m = _mono(m1 + m2)
    if not all(-EXP_LIMIT <= e < EXP_LIMIT for _, e in m):
        raise _RefOverflow(m)
    return m


def _ref_mul(a, b):
    out = {}
    for m1, g1 in a.items():
        for m2, g2 in b.items():
            m = _ref_mono_mul(m1, m2)
            out[m] = _padd(out.get(m, _ZERO_P), _pmul(g1, g2))
    return {m: g for m, g in out.items() if g != _ZERO_P}


def _view(raw):
    return {_unpack(m): (Fraction(a, d), Fraction(b, d))
            for m, (a, b, d) in raw.items()}


def _ref_lead(p):
    """Leading monomial of a tuple-keyed dict under lex order on the
    variable names."""
    varlist = sorted({v for m in p for v, _ in m})
    return max(p, key=lambda m: [dict(m).get(v, 0) for v in varlist])


def _assert_reduced(raw):
    for (a, b, d) in raw.values():
        assert type(a) is type(b) is type(d) is int
        assert d > 0 and math.gcd(a, b, d) == 1 and (a or b)


class TestTripleKernel:
    """Sums, products, inverses and canonical forms on raw triples equal the
    same computations on (Fraction, Fraction) pairs, and every stored triple
    is reduced: d > 0, gcd(a, b, d) == 1, never zero."""

    @settings(max_examples=200, deadline=None)
    @given(_poly(_monos), _poly(_monos))
    # (1 + s)*(1 - s): the s terms cancel
    @example({MONO_UNIT: _ONE_P, (("s", 1),): _ONE_P},
             {MONO_UNIT: _ONE_P, (("s", 1),): _pneg(_ONE_P)})
    def test_sum_and_product(self, a, b):
        from qheis.coeffs import _p_add, _p_mul, _p_neg

        ra, rb = _raw(a), _raw(b)
        for got, want in ((_p_add(ra, rb), _ref_add(a, b)),
                          (_p_mul(ra, rb), _ref_mul(a, b)),
                          (_p_neg(ra), {m: _pneg(g) for m, g in a.items()}),
                          (_p_add(ra, _p_neg(ra)), {})):
            _assert_reduced(got)
            assert got == _raw(want)
        assert (ra, rb) == (_raw(a), _raw(b))

    @settings(max_examples=150, deadline=None)
    @given(_poly(_monos), _poly(_monos, min_size=1))
    def test_canonical_and_inverse(self, a, d):
        from qheis.coeffs import _canonical

        num, den = _canonical(_raw(a), _raw(d))
        _assert_reduced(num)
        _assert_reduced(den)
        assert _ref_mul(_view(num), d) == _ref_mul(a, _view(den))
        if den != _raw({MONO_UNIT: _ONE_P}):
            assert len(den) > 1
            view = _view(den)
            assert all(e >= 0 for m in view for _, e in m)
            assert view[_ref_lead(view)] == _ONE_P
        if a:
            c = C(_consts(a), _consts(d))
            inv = c.inverse()
            _assert_reduced(inv._num)
            _assert_reduced(inv._den)
            assert (_ref_mul(_pairs_of(inv.num), _pairs_of(c.num))
                    == _ref_mul(_pairs_of(inv.den), _pairs_of(c.den)))
            assert (c * inv)._num == _raw({MONO_UNIT: _ONE_P})

    @settings(max_examples=100, deadline=None)
    @given(_poly(_monos), _poly(_nonneg_monos, min_size=1), _gauss)
    def test_canonical_divides_out_exact_factor(self, q, d, c0):
        from qheis.coeffs import _canonical

        d = {**d, MONO_UNIT: c0}
        if len(d) < 2:
            return
        num, den = _canonical(_raw(_ref_mul(d, q)), _raw(d))
        assert (num, den) == (_raw(q), _raw({MONO_UNIT: _ONE_P}))


# -- packed kernel against the tuple reference, exponents up to the limit ---

def _ref_scale(a, mono, g):
    return {_ref_mono_mul(m, mono): _pmul(x, g) for m, x in a.items()}


def _ref_inv(m):
    return tuple((v, -e) for v, e in m)


def _ref_shift(p):
    mins = {}
    for m in p:
        for v, e in m:
            mins[v] = min(mins.get(v, 0), e)
    return _mono((v, -e) for v, e in mins.items() if e < 0)


def _key_order(names):
    """Sort key of the packed-key order: lex order with the variable
    interned last first."""
    order = sorted(names, key=_NAMES.index, reverse=True)
    return lambda m: [dict(m).get(v, 0) for v in order]


def _ref_canonical(num, den):
    """``_canonical`` step for step on tuple keys and pair values."""
    if not num:
        return {}, {MONO_UNIT: _ONE_P}
    if len(den) == 1:
        ((m, g),) = den.items()
        return _ref_scale(num, _ref_inv(m), _pinv(g)), {MONO_UNIT: _ONE_P}
    s = _ref_shift(den)
    num, den = _ref_scale(num, s, _ONE_P), _ref_scale(den, s, _ONE_P)
    # monic in lex order on the names
    lc = _pinv(den[_ref_lead(den)])
    num, den = _ref_scale(num, (), lc), _ref_scale(den, (), lc)
    # exact division by den, in the packed-key order
    s = _ref_shift(num)
    rem = _ref_scale(num, s, _ONE_P)
    key = _key_order({v for m in (*rem, *den) for v, _ in m})
    lead = max(den, key=key)
    inv_lc = _pinv(den[lead])
    # a quotient term whose product with den's smallest term falls below
    # rem's ends the division, as in _p_divide_exact
    floor = min(map(key, rem))
    trail = min(den, key=key)
    quot = {}
    while rem:
        lr = max(rem, key=key)
        m = _mono(lr + _ref_inv(lead))
        if any(e < 0 for _, e in m) or key(_mono(m + trail)) < floor:
            return num, den
        quot[m] = _pmul(rem[lr], inv_lc)
        rem = _ref_add(rem, _ref_scale(den, m, _pneg(quot[m])))
    return _ref_scale(quot, _ref_inv(s), _ONE_P), {MONO_UNIT: _ONE_P}


def _in_range(p):
    return all(-EXP_LIMIT <= e < EXP_LIMIT for m in p for _, e in m)


def _offset(mono, p):
    return {_mono(m + mono): g for m, g in p.items()}


_big_exps = st.one_of(
    st.integers(-3, 3), st.integers(-EXP_LIMIT, EXP_LIMIT - 1),
    st.sampled_from([EXP_LIMIT - 1, EXP_LIMIT - 2, -EXP_LIMIT, 1 - EXP_LIMIT]))
_big_monos = st.dictionaries(st.sampled_from(_VARS), _big_exps,
                             max_size=3).map(lambda d: _mono(d.items()))


class TestPackedKernel:
    """Packed monomial keys give the same sums, products, scalings and
    canonical forms as the tuple monomials, and raise where a tuple
    exponent leaves the limit."""

    @settings(max_examples=300, deadline=None)
    @given(_big_monos, _big_monos, _poly(_monos), _poly(_monos), _big_monos,
           _gauss)
    # s^(L-1) times s + 1: one product reaches the limit
    @example(((("s", EXP_LIMIT - 1),)), MONO_UNIT, {MONO_UNIT: _ONE_P},
             {(("s", 1),): _ONE_P, MONO_UNIT: _ONE_P}, (("s", 1),), _ONE_P)
    # h*s^(L-1) over s^(L-1) + h*s^(L-2): the one quotient term s ends the
    # division at the trailing-term test, before s^L is formed
    @example(((("s", EXP_LIMIT - 1),)), MONO_UNIT, {(("h", 1),): _ONE_P},
             {MONO_UNIT: _ONE_P, (("h", 1), ("s", -1)): _ONE_P}, MONO_UNIT, _ONE_P)
    def test_matches_tuple_reference(self, o1, o2, p, q, mono, g):
        from qheis.coeffs import _canonical, _p_add, _p_mul, _p_scale

        # small polynomials times monomials near the limit
        a, b = _offset(o1, p), _offset(o2, q)
        assume(_in_range(a) and _in_range(b))
        ra, rb = _raw(a), _raw(b)
        cases = [(lambda: _p_add(ra, rb), lambda: _raw(_ref_add(a, b))),
                 (lambda: _p_mul(ra, rb), lambda: _raw(_ref_mul(a, b))),
                 (lambda: _p_scale(ra, _pack(mono), _triple(g)),
                  lambda: _raw(_ref_scale(a, mono, g)))]
        # a multi-term denominator shares the numerator's offset, so that
        # exact division stays short: dividing s^N + 1 by s + 1 takes N
        # steps in either kernel
        den = b if len(q) == 1 else _offset(o1, q)
        if den and _in_range(den):
            cases.append((lambda: _canonical(dict(ra), _raw(den)),
                          lambda: tuple(map(_raw, _ref_canonical(a, den)))))
        for got, want in cases:
            try:
                want = want()
            except _RefOverflow:
                with pytest.raises(ExponentOverflow):
                    got()
            else:
                assert got() == want
        assert (ra, rb) == (_raw(a), _raw(b))


class TestExponentLimit:
    """Exponents lie in [-EXP_LIMIT, EXP_LIMIT), checked where monomials
    enter and in every product."""

    @pytest.mark.parametrize("e", [EXP_LIMIT - 1, -EXP_LIMIT])
    def test_largest_exponents_enter(self, e):
        for c in (C.monomial({"h": e}), C({(("h", e),): 1})):
            assert c.num == {(("h", e),): 1}

    @pytest.mark.parametrize("e", [EXP_LIMIT, -EXP_LIMIT - 1, 2 ** 70])
    def test_entry_beyond_the_limit(self, e):
        for make in (lambda: C.monomial({"D_12": e}),
                     lambda: C({(("D_12", e),): 1}),
                     lambda: C({MONO_UNIT: 1}, {(("D_12", e),): 1})):
            with pytest.raises(ExponentOverflow, match=r"D_12.*2\^28"):
                make()
        with pytest.raises(ExponentOverflow):
            C.q_power(2 ** 70)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_products_at_the_limit(self, sign):
        top = EXP_LIMIT - 1 if sign > 0 else -EXP_LIMIT
        near = C.monomial({"s": top - sign})
        step = C.monomial({"s": sign})
        assert near * step == C.monomial({"s": top})
        with pytest.raises(ExponentOverflow, match="exponent"):
            near * step * step
        # in a sum of products and behind a multi-term denominator
        with pytest.raises(ExponentOverflow):
            (near * step + 1) * (step + C.monomial({"t": 1}))
        with pytest.raises(ExponentOverflow):
            (near * step) / (C.monomial({"t": 1}) + 1) * step

    @pytest.mark.parametrize("sign", [1, -1])
    def test_power_at_the_limit(self, sign):
        s = C.monomial({"s": sign})
        last = EXP_LIMIT if sign < 0 else EXP_LIMIT - 1
        for k in (last - 1, last):
            assert s ** k == C.monomial({"s": sign * k})
        with pytest.raises(ExponentOverflow):
            s ** (last + 1)
        with pytest.raises(ExponentOverflow):
            s.inverse() ** -(last + 1)

    def test_inverse_at_the_limit(self):
        with pytest.raises(ExponentOverflow):
            C.monomial({"s": -EXP_LIMIT}).inverse()
        assert C.monomial({"s": 1 - EXP_LIMIT}).inverse() == \
            C.monomial({"s": EXP_LIMIT - 1})


class TestInterning:
    """Variables get their fields on first use, for the whole process; a
    late name changes neither earlier keys nor any printed output."""

    def test_late_names_leave_earlier_results_intact(self):
        a = coeff("(q - 1/2 + i*hbar)*(q + p^-1)^-1") * C.opaque("D_34", -2)
        before = (a.num, a.den, str(a), a.variables())
        late = [f"late_{i}" for i in range(300)]
        for name in late:
            C.opaque(name)
        assert (a.num, a.den, str(a), a.variables()) == before
        assert a * C.opaque(late[-1]) / C.opaque(late[-1]) == a

    def test_many_names_still_compute(self):
        names = [f"wide_{i:03}" for i in range(300)]
        for name in names:
            C.opaque(name)
        # fields far above those of s, t and h
        x = C.one() + C.opaque(names[-1], 3) + C.monomial(
            {"s": 1, names[147]: -2}) + C.opaque(names[147])
        far = C.opaque(names[-1])
        # x*far + far^2 over x + far: the exact quotient is far
        assert (x * far + far * far) / (x + far) == far
        y = x * x
        assert _pairs_of(y.num) == _ref_mul(_pairs_of(x.num), _pairs_of(x.num))
        assert str(C.opaque(names[-1], 2) * C.opaque(names[0])) == \
            f"{names[0]}*{names[-1]}^2"
        point = {"s": 3, names[147]: 2, names[-1]: 5}
        assert y.evaluate(point) == x.evaluate(point) ** 2
        with pytest.raises(ExponentOverflow, match=names[-1]):
            C.opaque(names[-1], EXP_LIMIT - 1) * far


    def test_unpack_negative_exponents_in_high_fields(self, rng):
        # a negative field borrows from every field above it in the packed
        # int; the extreme exponents sit next to zero fields and each other
        names = [f"neg_{i:03}" for i in range(300)]
        for name in names:
            C.opaque(name)
        extremes = (-EXP_LIMIT, -EXP_LIMIT + 1, -1, 1, EXP_LIMIT - 1)
        for _ in range(300):
            chosen = sorted(rng.sample(["s", "h", *names], rng.randint(1, 6)))
            mono = tuple((v, rng.choice(extremes + (rng.randint(-50, 50) or -7,)))
                         for v in chosen)
            assert _unpack(_pack(mono)) == mono
        assert _unpack(_pack(((names[-1], -EXP_LIMIT),))) == ((names[-1], -EXP_LIMIT),)

    def test_decoding_late_names_is_not_quadratic(self):
        # behind 300 earlier names, the field-by-field decoder read this
        # view in more than 30 s; it takes about a second here
        code = ("from qheis import Coefficient as C\n"
                "for i in range(300):\n"
                "    C.opaque(f'early_{i:03}')\n"
                "names = [f'late_{i:03}' for i in range(300)]\n"
                "x = C.one()\n"
                "for name in names:\n"
                "    x = x + C.opaque(name)\n"
                "num = (x * x).num\n"
                "assert len(num) == 1 + 300 + 300 * 301 // 2\n"
                "assert num[(('late_299', 2),)] == 1\n"
                "assert num[(('late_000', 1), ('late_299', 1))] == 2\n")
        src = str(Path(qheis.__file__).resolve().parent.parent)
        subprocess.run([sys.executable, "-c", code], check=True, timeout=20,
                       env=dict(os.environ, PYTHONPATH=src))

    def test_threads_agree_on_a_new_name(self):
        # 8 threads meet each fresh name at once, with the switch interval
        # shortened so that they interleave inside the interning
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(30):
                name = f"race_{trial}"
                barrier = threading.Barrier(8)
                results = [None] * 8

                def work(k):
                    barrier.wait(timeout=10)
                    results[k] = C.opaque(name)

                threads = [threading.Thread(target=work, args=(k,))
                           for k in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                    assert not t.is_alive()
                assert _NAMES.count(name) == 1
                assert all(r == results[0] for r in results)
        finally:
            sys.setswitchinterval(old)


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
            pt = {"s": Fraction(rng.randint(2, 9), rng.randint(1, 3)),
                  "t": Fraction(rng.randint(2, 9), rng.randint(1, 3))}
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
        assert C({m: 1}, {MONO_UNIT: 1, m: C.zero()}) == C.q_power("1/2")

    def test_constructor_coerces_plain_numbers(self):
        m = (("s", 1),)
        c = C({m: 2, MONO_UNIT: Fraction(1, 2)})
        assert str(c) == str(coeff("2*q^(1/2) + 1/2"))
        assert c == coeff("2*q^(1/2) + 1/2")

    def test_constructor_takes_constant_coefficients(self):
        m = (("s", 1),)
        c = coeff("(q - 1/2 + i*hbar)*(q + p^-1)^-1")
        assert C(c.num, c.den) == c
        assert C({m: C.from_gauss(2, -1)}) == C.from_gauss(2, -1) * C.q_power("1/2")
        for value in (coeff("q"), coeff("q - 1").inverse()):
            with pytest.raises(ParamError, match="constant"):
                C({m: value})
        with pytest.raises(TypeError):
            C({m: 1.5})

    def test_zero_denominator_rejected(self):
        with pytest.raises(DivisionByZero):
            C({MONO_UNIT: 1}, {MONO_UNIT: 0})
        with pytest.raises(DivisionByZero):
            C({MONO_UNIT: 1}, {MONO_UNIT: C.zero()})
        with pytest.raises(DivisionByZero):
            C({MONO_UNIT: 1}, {})


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
        assert coeff("q^(1/2)").evaluate({"s": 3}) == 3

    def test_qnumber_at_point(self):
        # q = 4, p = 1: q + p^-1 = 5
        assert qnumber(2).evaluate({"s": 2, "t": 1}) == 5

    def test_gaussian_point_values(self):
        # q = s^2 at s = i, and i*hbar at hbar = (1 + i)/2
        point = {"s": C.imag(), "h": C.from_gauss("1/2", "1/2")}
        got = coeff("q + i*hbar").evaluate(point)
        _check_triple(_const_triple(got), (Fraction(-3, 2), Fraction(1, 2)))
        with pytest.raises(ParamError):
            coeff("q").evaluate({"s": coeff("hbar")})

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
        pt = {"s": Fraction(5, 2), "t": Fraction(3, 1), "h": Fraction(2, 7)}
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
            pt = {v: Fraction(rng.randint(2, 11), rng.randint(1, 4))
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
        g = C.from_gauss(Fraction(3, 2), -1)
        c = coeff("(q + 1 + hbar)*(q - p^-1)^-1")
        for x in (g, c):
            base = x if k >= 0 else x.inverse()
            want = C.one()
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
            C({key: 1})
        with pytest.raises(ParamError):
            C({MONO_UNIT: 1}, {key: 1, MONO_UNIT: 1})

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
