"""Exact scalar arithmetic for the deformed Heisenberg algebras.

Scalars are rational functions, with Gaussian-rational coefficients, in the
commuting central variables

    s = q^(1/2),   t = p^(1/2),   h = hbar,

plus any number of declared opaque central symbols (for instance ``D_jk``).
Working in the square roots keeps every stored exponent an integer, so the
half powers that pervade these algebras stay exact.  Monomial exponents may
be negative (Laurent), and denominators such as (q - 1)^2 force a genuine
fraction field.  Equality is decided by cross multiplication, never by
sampling.

Storage, bottom up: a Gaussian rational (a + b*i)/d is the reduced integer
triple ``(a, b, d)``, with d > 0 and gcd(a, b, d) == 1, so each value has
one triple; a monomial is the tuple of its (variable, nonzero exponent)
pairs, sorted by variable, with ``()`` for 1; a Laurent polynomial is a dict
from monomials to nonzero triples.  A ``Coefficient`` is a
numerator/denominator pair of such dicts, whose denominator is the unit
unless it has several terms.  The ``_t_*`` and ``_p_*`` helpers work on
plain integers and tuples only; ``GaussRational`` objects are built at the
boundary: ``GaussRational`` arithmetic wraps the triple helpers,
``Coefficient.num``/``.den`` are ``GaussRational``-valued views, and
``evaluate`` returns a ``GaussRational``.  Results that are canonical by
construction skip re-canonicalization.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import DivisionByZero, ParamError, PoleAtPoint, UnboundVariable

# ---------------------------------------------------------------------------
# Gaussian rationals as reduced integer triples (a, b, d) = (a + b*i)/d.
# ---------------------------------------------------------------------------

_T_ZERO = (0, 0, 1)
_T_ONE = (1, 0, 1)


def _t_reduce(a, b, d):
    """Triple for (a + b*i)/d with d > 0: one gcd, and none when d == 1."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            return a // g, b // g, d // g
    return a, b, d


def _t_add(x, y):
    a1, b1, d1 = x
    a2, b2, d2 = y
    if d1 == d2:
        if d1 == 1:
            return a1 + a2, b1 + b2, 1
        return _t_reduce(a1 + a2, b1 + b2, d1)
    return _t_reduce(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)


def _t_mul(x, y):
    a1, b1, d1 = x
    a2, b2, d2 = y
    if b1 or b2:
        a, b = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
    else:
        a, b = a1 * a2, 0
    if d1 == 1 == d2:
        return a, b, 1
    return _t_reduce(a, b, d1 * d2)


def _t_neg(x):
    a, b, d = x
    return -a, -b, d


def _t_inv(x):
    # d/(a + b*i) = d*(a - b*i)/(a^2 + b^2)
    a, b, d = x
    if not b:
        if not a:
            raise DivisionByZero("inverse of zero")
        # gcd(a, d) == 1 already
        return (d, 0, a) if a > 0 else (-d, 0, -a)
    return _t_reduce(d * a, -d * b, a * a + b * b)


def _t_pow(x, k):
    return _power(_t_inv(x) if k < 0 else x, abs(k), _T_ONE, _t_mul)


def _power(base, k, one, mul):
    """``base**k`` for an integer k >= 0 by square-and-multiply, with
    ``mul`` the product: ``k.bit_length() - 1`` squarings and one product
    per set bit of k."""
    out = one
    while k:
        if k & 1:
            out = mul(out, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return out


class GaussRational:
    """Exact complex rational (a + b*i)/d: the public wrapper of one reduced
    triple ``(a, b, d)``.

    The triple is unique for each value, so equality is a tuple compare.
    ``re`` and ``im`` are read-only ``Fraction`` views for printing and
    parsing; arithmetic runs on the triple helpers.
    """

    __slots__ = ("_abd",)

    def __init__(self, re=0, im=0):
        re, im = Fraction(re), Fraction(im)
        d = lcm(re.denominator, im.denominator)
        self._abd = (re.numerator * (d // re.denominator),
                     im.numerator * (d // im.denominator), d)

    @property
    def re(self):
        a, _, d = self._abd
        return Fraction(a, d)

    @property
    def im(self):
        _, b, d = self._abd
        return Fraction(b, d)

    def __bool__(self):
        a, b, _ = self._abd
        return bool(a) or bool(b)

    # Binary operators return NotImplemented for an operand they cannot
    # coerce, so that Python tries its reflected method (a Coefficient's).

    def __eq__(self, other):
        if isinstance(other, _SCALARS):
            return self._abd == _as_triple(other)
        return NotImplemented

    def __hash__(self):
        # a real value hashes like the equal int or Fraction
        a, b, d = self._abd
        if b:
            return hash(self._abd)
        return hash(a) if d == 1 else hash(Fraction(a, d))

    def __add__(self, other):
        if not isinstance(other, _SCALARS):
            return NotImplemented
        return _wrap(_t_add(self._abd, _as_triple(other)))

    __radd__ = __add__

    def __neg__(self):
        return _wrap(_t_neg(self._abd))

    def __sub__(self, other):
        if not isinstance(other, _SCALARS):
            return NotImplemented
        return _wrap(_t_add(self._abd, _t_neg(_as_triple(other))))

    def __mul__(self, other):
        if not isinstance(other, _SCALARS):
            return NotImplemented
        return _wrap(_t_mul(self._abd, _as_triple(other)))

    __rmul__ = __mul__

    def inverse(self):
        return _wrap(_t_inv(self._abd))

    def __truediv__(self, other):
        if not isinstance(other, _SCALARS):
            return NotImplemented
        return _wrap(_t_mul(self._abd, _t_inv(_as_triple(other))))

    def __pow__(self, k):
        return _wrap(_t_pow(self._abd, k))

    def __str__(self):
        if not self._abd[1]:
            return str(self.re)
        re, im = self.re, self.im
        if not re:
            if im == 1:
                return "i"
            if im == -1:
                return "-i"
            return f"{im}*i"
        sign = "+" if im > 0 else "-"
        mag = abs(im)
        imag = "i" if mag == 1 else f"{mag}*i"
        return f"({re} {sign} {imag})"

    __repr__ = __str__


_SCALARS = (int, Fraction, GaussRational)
_new = object.__new__


def _wrap(t):
    """GaussRational of a reduced triple."""
    out = _new(GaussRational)
    out._abd = t
    return out


def _as_triple(x):
    if isinstance(x, GaussRational):
        return x._abd
    if isinstance(x, int):
        return int(x), 0, 1
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator
    raise TypeError(f"cannot coerce {x!r} to GaussRational")


G_ZERO = _wrap(_T_ZERO)
G_ONE = _wrap(_T_ONE)
G_I = _wrap((0, 1, 1))


MONO_UNIT = ()


def _mono(pairs):
    """Canonical monomial of (variable, exponent) pairs: repeated variables
    add up, zero exponents drop and the rest sort by variable."""
    exps = {}
    for v, e in pairs:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted([ve for ve in exps.items() if ve[1]]))


def _mono_mul(m1, m2):
    if not m2:
        return m1
    if not m1:
        return m2
    return _mono(m1 + m2)


def _mono_inv(m):
    return tuple((v, -e) for v, e in m)


def _checked_poly(poly):
    """Triple-valued copy of a ``monomial -> number`` dict, zeros dropped;
    ParamError unless every key is a canonical monomial."""
    for m in poly:
        try:
            ok = (type(m) is tuple and _mono(m) == m
                  and all(type(e) is int for _, e in m))
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise ParamError(f"monomial {m!r} is not a tuple of (variable, "
                             f"nonzero integer exponent) pairs sorted by "
                             f"distinct variables")
    return {m: _as_triple(c) for m, c in poly.items() if c}


# ---------------------------------------------------------------------------
# Internal Laurent-polynomial helpers: dict monomial -> triple, zero values
# never stored.  Each returns a new dict.
# ---------------------------------------------------------------------------

def _p_add(a, b):
    out = dict(a)
    for m, y in b.items():
        x = out.get(m)
        if x is None:
            out[m] = y
            continue
        s = _t_add(x, y)
        if s[0] or s[1]:
            out[m] = s
        else:
            del out[m]
    return out


def _p_neg(a):
    return {m: (-x, -y, d) for m, (x, y, d) in a.items()}


def _p_mul(a, b):
    out = {}
    get = out.get
    for m1, x in a.items():
        for m2, y in b.items():
            m = _mono_mul(m1, m2)
            p = _t_mul(x, y)
            s = get(m)
            out[m] = p if s is None else _t_add(s, p)
    return {m: s for m, s in out.items() if s[0] or s[1]}


def _p_scale(a, mono, t):
    """a * mono * t for a nonzero triple t."""
    if t == _T_ONE:
        return {_mono_mul(m, mono): c for m, c in a.items()}
    return {_mono_mul(m, mono): _t_mul(c, t) for m, c in a.items()}


def _p_vars(a):
    vs = set()
    for m in a:
        vs.update(v for v, _ in m)
    return vs


def _mono_vector(m, varlist):
    """Exponents of ``m`` on ``varlist``: the lex monomial order, one home
    for the kernel and the printer."""
    exps = dict(m)
    return tuple(exps.get(v, 0) for v in varlist)


def _p_lead(a, varlist):
    """Leading (monomial, coeff) under lex order on the given variable list."""
    lead = max(a, key=lambda m: _mono_vector(m, varlist))
    return lead, a[lead]


def _p_shift_mono(a):
    """Monomial m with a*m a genuine polynomial (min exponent 0 per variable)."""
    mins = {}
    for m in a:
        for v, e in m:
            mins[v] = min(mins.get(v, 0), e)
    return _mono((v, -e) for v, e in mins.items() if e < 0)


def _p_divide_exact(a, b):
    """Exact Laurent division a/b, or None when b does not divide a.

    ``b`` must be a polynomial (no negative exponents), as ``_canonical``
    leaves every multi-term denominator; only ``a`` is shifted.
    """
    if not a:
        return {}
    sa = _p_shift_mono(a)
    rem = _p_scale(a, sa, _T_ONE)
    varlist = sorted(_p_vars(rem) | _p_vars(b))
    lead_b, lc_b = _p_lead(b, varlist)
    inv_lead_b, inv_lc_b = _mono_inv(lead_b), _t_inv(lc_b)
    quot = {}
    while rem:
        lead_r, lc_r = _p_lead(rem, varlist)
        m = _mono_mul(lead_r, inv_lead_b)
        if any(e < 0 for _, e in m):
            return None
        c = _t_mul(lc_r, inv_lc_b)
        quot[m] = c
        rem = _p_add(rem, _p_scale(b, m, _t_neg(c)))
    # undo the Laurent shift: a/b = (a*sa/b) / sa
    return _p_scale(quot, _mono_inv(sa), _T_ONE)


def _point_value(point, v, e):
    """Triple of ``point[v]**e``."""
    x = _as_triple(point[v])
    if e < 0 and not (x[0] or x[1]):
        raise PoleAtPoint(f"variable {v} is 0 but occurs with exponent {e}")
    return _t_pow(x, e)


def _p_eval(a, point):
    total = _T_ZERO
    for m, c in a.items():
        for v, e in m:
            if v not in point:
                raise UnboundVariable(f"no value assigned to central variable {v!r}")
            c = _t_mul(c, _point_value(point, v, e))
        total = _t_add(total, c)
    return total


def _p_substitute(a, assign):
    out = {}
    for m, c in a.items():
        for v, e in m:
            if v in assign:
                c = _t_mul(c, _point_value(assign, v, e))
        m = tuple(ve for ve in m if ve[0] not in assign)
        s = out.get(m)
        out[m] = c if s is None else _t_add(s, c)
    return {m: c for m, c in out.items() if c[0] or c[1]}


def _canonical(num, den):
    """Canonical (num, den) for num/den; takes ownership of both dicts.

    A unit denominator is already canonical.  Any other single-term
    denominator is folded into the numerator; a multi-term one is shifted
    to nonnegative exponents, made monic and divided out when it divides
    the numerator exactly.
    """
    if not den:
        raise DivisionByZero("zero denominator")
    if not num:
        return {}, {MONO_UNIT: _T_ONE}
    if len(den) == 1:
        ((m, c),) = den.items()
        if not m and c == _T_ONE:
            return num, den
        return _p_scale(num, _mono_inv(m), _t_inv(c)), {MONO_UNIT: _T_ONE}
    shift = _p_shift_mono(den)
    if shift:
        num = _p_scale(num, shift, _T_ONE)
        den = _p_scale(den, shift, _T_ONE)
    varlist = sorted(_p_vars(num) | _p_vars(den))
    _, lc = _p_lead(den, varlist)
    if lc != _T_ONE:
        inv = _t_inv(lc)
        num = _p_scale(num, MONO_UNIT, inv)
        den = _p_scale(den, MONO_UNIT, inv)
    q = _p_divide_exact(num, den)
    if q is not None:
        return q, {MONO_UNIT: _T_ONE}
    return num, den


def _coeff(num, den):
    """Coefficient from a canonical (num, den) pair that nothing else holds."""
    out = _new(Coefficient)
    out._num = num
    out._den = den
    return out


def _gauss_view(poly):
    return {m: _wrap(c) for m, c in poly.items()}


class Coefficient:
    """Element of the coefficient field.

    Stored as numerator/denominator Laurent polynomials ``_num`` and
    ``_den``, each a dict from monomials to reduced ``(a, b, d)`` triples.
    A monomial is a tuple of (variable, nonzero integer exponent) pairs
    sorted by distinct variables, and ``MONO_UNIT == ()`` is 1.  The
    denominator is either the unit ``{(): (1, 0, 1)}`` or has several terms;
    in the second case it is shifted to nonnegative exponents, monic and
    does not divide the numerator exactly, so common factors like
    (q^2-1)/(q-1) collapse.  ``num`` and ``den`` are read-only views: each
    access builds a fresh ``{monomial: GaussRational}`` dict, the form the
    public constructor takes.

    The public constructor copies its arguments and canonicalizes;
    operations whose result is canonical by construction (negation, sums
    and products of operands with unit denominators) skip that step.  The
    constructor coerces int and Fraction values and drops zero values from
    both dicts, so an all-zero denominator raises DivisionByZero; a key that
    is not a monomial raises ParamError.  Equality falls back to cross
    multiplication, so representation gaps never affect comparisons.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num=None, den=None):
        num = {} if num is None else _checked_poly(num)
        den = {MONO_UNIT: _T_ONE} if den is None else _checked_poly(den)
        self._num, self._den = _canonical(num, den)

    @property
    def num(self):
        return _gauss_view(self._num)

    @property
    def den(self):
        return _gauss_view(self._den)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero():
        return _C_ZERO

    @staticmethod
    def one():
        return _C_ONE

    @staticmethod
    def imag():
        return _C_I

    @staticmethod
    def from_scalar(x):
        if isinstance(x, Coefficient):
            return x
        t = _as_triple(x)
        return _coeff({MONO_UNIT: t} if t[0] or t[1] else {}, {MONO_UNIT: _T_ONE})

    @staticmethod
    def from_gauss(re, im=0):
        return Coefficient.from_scalar(GaussRational(re, im))

    @staticmethod
    def monomial(exps, scalar=G_ONE):
        return Coefficient({_mono(exps.items()): scalar})

    @staticmethod
    def q_power(exp):
        """q**exp with exp an integer or half-integer (stored on s)."""
        steps = Fraction(exp) * 2
        if steps.denominator != 1:
            raise ParamError(f"q exponent {exp} is not a half-integer")
        return Coefficient.monomial({"s": int(steps)})

    @staticmethod
    def p_power(exp):
        steps = Fraction(exp) * 2
        if steps.denominator != 1:
            raise ParamError(f"p exponent {exp} is not a half-integer")
        return Coefficient.monomial({"t": int(steps)})

    @staticmethod
    def hbar_power(exp):
        if int(exp) != exp:
            raise ParamError(f"hbar exponent {exp} is not an integer")
        return Coefficient.monomial({"h": int(exp)})

    @staticmethod
    def opaque(name, exp=1):
        if int(exp) != exp:
            raise ParamError(f"opaque exponent {exp} is not an integer")
        return Coefficient.monomial({name: int(exp)})

    # -- predicates ---------------------------------------------------

    @property
    def is_zero(self):
        return not self._num

    def variables(self):
        return sorted(_p_vars(self._num) | _p_vars(self._den))

    # -- field arithmetic ----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, (Coefficient, *_SCALARS)):
            return NotImplemented
        other = Coefficient.from_scalar(other)
        # a canonical one-term denominator is the unit
        if len(self._den) == 1 and len(other._den) == 1:
            return _coeff(_p_add(self._num, other._num), {MONO_UNIT: _T_ONE})
        if self._den == other._den:
            return _coeff(*_canonical(_p_add(self._num, other._num),
                                      dict(self._den)))
        return _coeff(*_canonical(
            _p_add(_p_mul(self._num, other._den), _p_mul(other._num, self._den)),
            _p_mul(self._den, other._den),
        ))

    __radd__ = __add__

    def __neg__(self):
        return _coeff(_p_neg(self._num), dict(self._den))

    def __sub__(self, other):
        if not isinstance(other, (Coefficient, *_SCALARS)):
            return NotImplemented
        return self + (-Coefficient.from_scalar(other))

    def __rsub__(self, other):
        if not isinstance(other, (Coefficient, *_SCALARS)):
            return NotImplemented
        return Coefficient.from_scalar(other) - self

    def __mul__(self, other):
        if not isinstance(other, (Coefficient, *_SCALARS)):
            return NotImplemented
        other = Coefficient.from_scalar(other)
        if len(self._den) == 1 and len(other._den) == 1:
            return _coeff(_p_mul(self._num, other._num), {MONO_UNIT: _T_ONE})
        return _coeff(*_canonical(_p_mul(self._num, other._num),
                                  _p_mul(self._den, other._den)))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero:
            raise DivisionByZero("inverse of the zero coefficient")
        return _coeff(*_canonical(dict(self._den), dict(self._num)))

    def __truediv__(self, other):
        return self * Coefficient.from_scalar(other).inverse()

    def __rtruediv__(self, other):
        if not isinstance(other, _SCALARS):
            return NotImplemented
        return Coefficient.from_scalar(other) * self.inverse()

    def __pow__(self, k):
        k = int(k)
        base = self.inverse() if k < 0 else self
        return _power(base, abs(k), _C_ONE, Coefficient.__mul__)

    # -- comparison ----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, _SCALARS):
            other = Coefficient.from_scalar(other)
        if not isinstance(other, Coefficient):
            return NotImplemented
        if self._den == other._den:
            return self._num == other._num
        return _p_mul(self._num, other._den) == _p_mul(other._num, self._den)

    __hash__ = None

    # -- evaluation ------------------------------------------------------

    def evaluate(self, point):
        """Exact value at a full assignment of central variables."""
        d = _p_eval(self._den, point)
        if not (d[0] or d[1]):
            raise PoleAtPoint("denominator vanishes at the evaluation point")
        return _wrap(_t_mul(_p_eval(self._num, point), _t_inv(d)))

    def substitute(self, assign):
        """Partial substitution of central variables; other variables stay."""
        den = _p_substitute(self._den, assign)
        if not den:
            raise PoleAtPoint("denominator vanishes under the substitution")
        return _coeff(*_canonical(_p_substitute(self._num, assign), den))

    def __repr__(self):
        from .printer import format_coefficient

        return format_coefficient(self)


_C_ZERO = Coefficient()
_C_ONE = Coefficient.from_scalar(1)
_C_I = Coefficient.from_scalar(G_I)


def qnumber(k):
    """Two-parameter quantum integer: sum_{i=0}^{k-1} q^i * p^-(k-1-i).

    Agrees with the closed form (q^k - p^-k)/(q - p^-1).
    """
    if k < 0 or int(k) != k:
        raise ParamError(f"qnumber index must be a nonnegative integer, got {k}")
    k = int(k)
    total = _C_ZERO
    for i in range(k):
        total = total + Coefficient.monomial({"s": 2 * i, "t": -2 * (k - 1 - i)})
    return total
