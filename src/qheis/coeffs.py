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

Storage, bottom up: a ``GaussRational`` is the reduced integer triple
(a, b, d) for (a + b*i)/d, so its arithmetic needs no ``Fraction``; a
monomial is the tuple of its (variable, nonzero exponent) pairs, sorted by
variable, with ``()`` for 1; a ``Coefficient`` is a numerator/denominator
pair of dicts mapping monomials to Gaussian rationals, whose denominator is
the unit unless it has several terms.  Results that are canonical by
construction skip re-canonicalization.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import DivisionByZero, ParamError, PoleAtPoint, UnboundVariable


class GaussRational:
    """Exact complex rational (a + b*i)/d, stored as the integer triple
    ``(a, b, d)`` with d > 0 and gcd(a, b, d) == 1.

    The triple is unique for each value, so equality is a tuple compare.
    ``re`` and ``im`` are read-only ``Fraction`` views for printing and
    parsing; arithmetic stays on plain integers and one ``math.gcd``.
    """

    __slots__ = ("_abd",)

    def __init__(self, re=0, im=0):
        re, im = Fraction(re), Fraction(im)
        d = lcm(re.denominator, im.denominator)
        _set(self, "_abd", (re.numerator * (d // re.denominator),
                            im.numerator * (d // im.denominator), d))

    def __setattr__(self, name, value):
        raise AttributeError("GaussRational is immutable")

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

    def __eq__(self, other):
        if type(other) is GaussRational:
            return self._abd == other._abd
        if isinstance(other, int):
            return self._abd == (other, 0, 1)
        if isinstance(other, Fraction):
            return self._abd == (other.numerator, 0, other.denominator)
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __add__(self, other):
        if type(other) is not GaussRational:
            other = _as_gauss(other)
        a1, b1, d1 = self._abd
        a2, b2, d2 = other._abd
        if d1 == d2:
            return _gauss(a1 + a2, b1 + b2, d1)
        return _gauss(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        a, b, d = self._abd
        return _triple(-a, -b, d)

    def __sub__(self, other):
        return self + (-_as_gauss(other))

    def __mul__(self, other):
        if type(other) is not GaussRational:
            other = _as_gauss(other)
        a1, b1, d1 = self._abd
        a2, b2, d2 = other._abd
        return _gauss(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)

    __rmul__ = __mul__

    def inverse(self):
        # d/(a + b*i) = d*(a - b*i)/(a^2 + b^2)
        a, b, d = self._abd
        n = a * a + b * b
        if not n:
            raise DivisionByZero("inverse of zero")
        return _gauss(d * a, -d * b, n)

    def __truediv__(self, other):
        return self * _as_gauss(other).inverse()

    def __pow__(self, k):
        base = self.inverse() if k < 0 else self
        return _power(base, abs(k), G_ONE, GaussRational.__mul__)

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


_new = object.__new__
_set = object.__setattr__


def _triple(a, b, d):
    """GaussRational from a triple already in lowest terms with d > 0."""
    out = _new(GaussRational)
    _set(out, "_abd", (a, b, d))
    return out


def _gauss(a, b, d):
    """GaussRational (a + b*i)/d for integers with d > 0."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    return _triple(a, b, d)


def _as_gauss(x):
    if isinstance(x, GaussRational):
        return x
    if isinstance(x, int):
        return _triple(int(x), 0, 1)
    if isinstance(x, Fraction):
        return _triple(x.numerator, 0, x.denominator)
    raise TypeError(f"cannot coerce {x!r} to GaussRational")


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


G_ZERO = GaussRational(0)
G_ONE = GaussRational(1)
G_I = GaussRational(0, 1)


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
    """Copy of a ``monomial -> number`` dict with values coerced and zeros
    dropped; ParamError unless every key is a canonical monomial."""
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
    return {m: _as_gauss(c) for m, c in poly.items() if c}


# ---------------------------------------------------------------------------
# Internal Laurent-polynomial helpers: dict monomial -> GaussRational, zero
# values never stored.
# ---------------------------------------------------------------------------

def _p_const(g):
    return {MONO_UNIT: g} if g else {}


def _p_add(a, b):
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, G_ZERO) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def _p_neg(a):
    return {m: -c for m, c in a.items()}


def _p_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = _mono_mul(m1, m2)
            s = out.get(m, G_ZERO) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def _p_scale(a, mono, g):
    if not g:
        return {}
    return {_mono_mul(m, mono): c * g for m, c in a.items()}


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
    """Exact Laurent division a/b, or None when b does not divide a."""
    if not a:
        return {}
    sa = _p_shift_mono(a)
    sb = _p_shift_mono(b)
    num = _p_scale(a, sa, G_ONE)
    den = _p_scale(b, sb, G_ONE)
    varlist = sorted(_p_vars(num) | _p_vars(den))
    lead_b, lc_b = _p_lead(den, varlist)
    inv_lc_b = lc_b.inverse()
    quot = {}
    rem = dict(num)
    while rem:
        lead_r, lc_r = _p_lead(rem, varlist)
        m = _mono_mul(lead_r, _mono_inv(lead_b))
        if any(e < 0 for _, e in m):
            return None
        c = lc_r * inv_lc_b
        quot[m] = c
        rem = _p_add(rem, _p_scale(den, m, -c))
    # undo the Laurent shifts: a/b = (num/den) * sb/sa
    adj = _mono_mul(sb, _mono_inv(sa))
    return _p_scale(quot, adj, G_ONE)


def _p_eval(a, point):
    total = G_ZERO
    for m, c in a.items():
        val = c
        for v, e in m:
            if v not in point:
                raise UnboundVariable(f"no value assigned to central variable {v!r}")
            base = _as_gauss(point[v])
            if e < 0 and not base:
                raise PoleAtPoint(f"variable {v} is 0 but occurs with exponent {e}")
            val = val * base**e
        total = total + val
    return total


def _p_substitute(a, assign):
    out = {}
    for m, c in a.items():
        val = c
        for v, e in m:
            if v in assign:
                base = _as_gauss(assign[v])
                if e < 0 and not base:
                    raise PoleAtPoint(f"variable {v} is 0 but occurs with exponent {e}")
                val = val * base**e
        if not val:
            continue
        m2 = tuple(ve for ve in m if ve[0] not in assign)
        s = out.get(m2, G_ZERO) + val
        if s:
            out[m2] = s
        else:
            out.pop(m2, None)
    return out


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
        return {}, {MONO_UNIT: G_ONE}
    if len(den) == 1:
        ((m, c),) = den.items()
        if not m and c == G_ONE:
            return num, den
        return _p_scale(num, _mono_inv(m), c.inverse()), {MONO_UNIT: G_ONE}
    shift = _p_shift_mono(den)
    if shift:
        num = _p_scale(num, shift, G_ONE)
        den = _p_scale(den, shift, G_ONE)
    varlist = sorted(_p_vars(num) | _p_vars(den))
    _, lc = _p_lead(den, varlist)
    if lc != G_ONE:
        inv = lc.inverse()
        num = _p_scale(num, MONO_UNIT, inv)
        den = _p_scale(den, MONO_UNIT, inv)
    q = _p_divide_exact(num, den)
    if q is not None:
        return q, {MONO_UNIT: G_ONE}
    return num, den


def _coeff(num, den):
    """Coefficient from a canonical (num, den) pair that nothing else holds."""
    out = _new(Coefficient)
    _set(out, "num", num)
    _set(out, "den", den)
    return out


class Coefficient:
    """Element of the coefficient field.

    Stored as numerator/denominator Laurent polynomials, each a dict from
    monomials to GaussRational values.  A monomial is a tuple of
    (variable, nonzero integer exponent) pairs sorted by distinct variables,
    and ``MONO_UNIT == ()`` is 1.  The denominator is either the unit
    ``{(): 1}`` or has several terms; in the second case it is shifted to
    nonnegative exponents, monic and does not divide the numerator exactly,
    so common factors like (q^2-1)/(q-1) collapse.  The public constructor
    copies its arguments and canonicalizes; operations whose result is
    canonical by construction (negation, sums and products of operands with
    unit denominators) skip that step.  The constructor coerces int and
    Fraction values and drops zero values from both dicts, so an all-zero
    denominator raises DivisionByZero; a key that is not a monomial raises
    ParamError.  Equality falls back to cross multiplication, so
    representation gaps never affect comparisons.
    """

    __slots__ = ("num", "den")

    def __init__(self, num=None, den=None):
        num = {} if num is None else _checked_poly(num)
        den = {MONO_UNIT: G_ONE} if den is None else _checked_poly(den)
        num, den = _canonical(num, den)
        _set(self, "num", num)
        _set(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("Coefficient is immutable")

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
        return _coeff(_p_const(_as_gauss(x)), {MONO_UNIT: G_ONE})

    @staticmethod
    def from_gauss(re, im=0):
        return Coefficient(_p_const(GaussRational(re, im)))

    @staticmethod
    def monomial(exps, scalar=G_ONE):
        return Coefficient({_mono(exps.items()): _as_gauss(scalar)})

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
        return not self.num

    def variables(self):
        return sorted(_p_vars(self.num) | _p_vars(self.den))

    # -- field arithmetic ----------------------------------------------

    _SCALARS = (int, Fraction, GaussRational)

    def __add__(self, other):
        if not isinstance(other, (Coefficient,) + Coefficient._SCALARS):
            return NotImplemented
        other = Coefficient.from_scalar(other)
        # a canonical one-term denominator is the unit
        if len(self.den) == 1 and len(other.den) == 1:
            return _coeff(_p_add(self.num, other.num), {MONO_UNIT: G_ONE})
        if self.den == other.den:
            return _coeff(*_canonical(_p_add(self.num, other.num), dict(self.den)))
        return _coeff(*_canonical(
            _p_add(_p_mul(self.num, other.den), _p_mul(other.num, self.den)),
            _p_mul(self.den, other.den),
        ))

    __radd__ = __add__

    def __neg__(self):
        return _coeff(_p_neg(self.num), dict(self.den))

    def __sub__(self, other):
        if not isinstance(other, (Coefficient,) + Coefficient._SCALARS):
            return NotImplemented
        return self + (-Coefficient.from_scalar(other))

    def __rsub__(self, other):
        if not isinstance(other, (Coefficient,) + Coefficient._SCALARS):
            return NotImplemented
        return Coefficient.from_scalar(other) - self

    def __mul__(self, other):
        if not isinstance(other, (Coefficient,) + Coefficient._SCALARS):
            return NotImplemented
        other = Coefficient.from_scalar(other)
        if len(self.den) == 1 and len(other.den) == 1:
            return _coeff(_p_mul(self.num, other.num), {MONO_UNIT: G_ONE})
        return _coeff(*_canonical(_p_mul(self.num, other.num),
                                  _p_mul(self.den, other.den)))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero:
            raise DivisionByZero("inverse of the zero coefficient")
        return _coeff(*_canonical(dict(self.den), dict(self.num)))

    def __truediv__(self, other):
        return self * Coefficient.from_scalar(other).inverse()

    def __pow__(self, k):
        k = int(k)
        base = self.inverse() if k < 0 else self
        return _power(base, abs(k), _C_ONE, Coefficient.__mul__)

    # -- comparison ----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussRational)):
            other = Coefficient.from_scalar(other)
        if not isinstance(other, Coefficient):
            return NotImplemented
        if self.den == other.den:
            return self.num == other.num
        return _p_mul(self.num, other.den) == _p_mul(other.num, self.den)

    __hash__ = None

    # -- evaluation ------------------------------------------------------

    def evaluate(self, point):
        """Exact value at a full assignment of central variables."""
        d = _p_eval(self.den, point)
        if not d:
            raise PoleAtPoint("denominator vanishes at the evaluation point")
        return _p_eval(self.num, point) * d.inverse()

    def substitute(self, assign):
        """Partial substitution of central variables; other variables stay."""
        den = _p_substitute(self.den, assign)
        if not den:
            raise PoleAtPoint("denominator vanishes under the substitution")
        return _coeff(*_canonical(_p_substitute(self.num, assign), den))

    def __repr__(self):
        from .printer import format_coefficient

        return format_coefficient(self)


_C_ZERO = Coefficient()
_C_ONE = Coefficient(_p_const(G_ONE))
_C_I = Coefficient(_p_const(G_I))


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
