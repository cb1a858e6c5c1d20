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
one triple.  A monomial is one int: each variable is interned, process-wide
and append-only, to a field index i on first use (s, t and h take 0, 1 and
2), and bits [W*i, W*(i+1)) hold its signed exponent, W = 30.  A product of
monomials is then one int addition, the inverse is ``-m`` and 1 is ``0``.
Exponents lie in [-2^28, 2^28), ``EXP_LIMIT`` = 2^28: with ``OFF`` holding
2^28 and ``GUARD`` the top bit in each field a key uses, ``(m + OFF) &
GUARD`` is zero exactly when every field of m is in range.  That test runs
where a tuple monomial is encoded and on every product (powers included),
so fields never wrap; an exponent out of range raises ExponentOverflow,
which the CLI reports as an engine error (exit code 3).  Interning takes a
lock, so threads that meet a new name at once agree on its one field; the
lock-free read path sees a name only after its field is named.  A name
interned late gets a new field and leaves earlier keys unchanged; the masks
cover only the fields the operands use, so the work of a product does not
grow with the number of interned names.  A Laurent polynomial is a dict from
packed monomials to nonzero triples.  A ``Coefficient`` is a
numerator/denominator pair of such dicts, whose denominator is the unit
unless it has several terms; then no variable divides all of its terms, it
is monic in lex order on the names and it does not divide the numerator.
A common factor that is not a monomial stays, as no polynomial GCD is
taken: (q - 1)/(q^2 - 1) is kept as it is.  The ``_t_*`` and ``_p_*``
helpers work on plain integers only.  The public form of a monomial stays
the tuple of its (variable, nonzero exponent) pairs, sorted by variable,
with ``()`` for 1: the constructor and ``monomial`` validate and encode it
in one pass.

``Coefficient`` is the one exact scalar type: a Gaussian rational is a
constant coefficient, whose numerator is at most the one triple at key 0.
``evaluate`` returns one, and ``Coefficient.num``/``.den`` decode to
``{tuple monomial: constant Coefficient}`` views for outside callers.  This
module formats no text: the printer reads ``_num``/``_den`` directly,
orders their keys by the fields ``_name_fields`` names, and decodes a key
with ``_unpack`` once per monomial it keeps the text of.  Results that are
canonical by construction skip re-canonicalization.  ``_addmul`` adds a
product into a numerator dict in place, for the rewrite loop, which builds
a Coefficient only for its output; it is the one helper through which
another module writes a packed dict.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .errors import (DivisionByZero, ExponentOverflow, ParamError, PoleAtPoint,
                     UnboundVariable)

# The most terms that an exact division may give, and that a product the
# parser forms may pair: a longer quotient is not formed.
MAX_TERMS = 100_000

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


_SCALARS = (int, Fraction)
_new = object.__new__


def _as_triple(x):
    """Triple of an int, a Fraction or a constant Coefficient."""
    if isinstance(x, int):
        return int(x), 0, 1
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator
    if isinstance(x, Coefficient):
        if len(x._den) == 1 and x._num.keys() <= {0}:
            return x._num.get(0, _T_ZERO)
        raise ParamError(f"{x!r} is not a constant coefficient")
    raise TypeError(f"cannot coerce {x!r} to a Gaussian rational")


# ---------------------------------------------------------------------------
# Monomials.  The public form is the tuple of (variable, nonzero exponent)
# pairs sorted by variable; inside the kernel a monomial is one int, whose
# field i (bits [W*i, W*(i+1))) holds the signed exponent of the variable with
# interned index i.
# ---------------------------------------------------------------------------

MONO_UNIT = ()

_W = 30
EXP_LIMIT = 1 << (_W - 2)  # every exponent e has -EXP_LIMIT <= e < EXP_LIMIT
_FIELD = (1 << _W) - 1
_SHIFT = {}  # variable -> bit offset of its field; append-only
_NAMES = []  # field index -> variable
_INTERN_LOCK = threading.Lock()


def _intern(v):
    """Bit offset of ``v``'s field, interning ``v`` on first use.  Under the
    lock a name gets one field however many threads race to intern it, and
    ``_SHIFT[v]`` is published only after ``_NAMES`` names the field."""
    with _INTERN_LOCK:
        sh = _SHIFT.get(v)
        if sh is None:
            sh = _W * len(_NAMES)
            _NAMES.append(v)
            _SHIFT[v] = sh
        return sh


for _v in ("s", "t", "h"):
    _intern(_v)


def _mask_pair(k):
    """``(OFF, GUARD)`` over fields 0..k: EXP_LIMIT in each field, and each
    field's top bit."""
    ones = ((1 << (_W * (k + 1))) - 1) // _FIELD
    return ones << (_W - 2), ones << (_W - 1)


_MASKS = [_mask_pair(k) for k in range(16)]


def _masks(top):
    """``(OFF, GUARD)`` over every field a key of magnitude at most ``top``
    uses: an in-range key whose highest nonzero field is j has a magnitude
    of W*j to W*j + W - 1 bits."""
    k = top.bit_length() // _W
    return _MASKS[k] if k < len(_MASKS) else _mask_pair(k)


def _limit_error(v, e):
    return ExponentOverflow(f"exponent {e} of {v} is outside the limit: "
                            f"exponents lie in [-2^{_W - 2}, 2^{_W - 2})")


def _overflow(m):
    """Raise for the lowest field of ``m`` outside the limit; each field of
    ``m`` is a sum of two in-range exponents."""
    half = 2 * EXP_LIMIT
    i = 0
    while True:
        e = ((m + half) & _FIELD) - half
        if not -EXP_LIMIT <= e < EXP_LIMIT:
            raise _limit_error(_NAMES[i], e)
        m = (m - e) >> _W
        i += 1


def _field(v, e):
    """``e`` placed in the field of variable ``v``, interned on first use."""
    if type(v) is not str or type(e) is not int:
        raise ParamError(f"{v!r}^{e!r} is not a variable name with an "
                         f"integer exponent")
    if not -EXP_LIMIT <= e < EXP_LIMIT:
        raise _limit_error(v, e)
    sh = _SHIFT.get(v)
    return e << (_intern(v) if sh is None else sh)


def _pack(m):
    """Packed key of a tuple monomial, validated in the same pass."""
    if type(m) is tuple:
        key, prev = 0, ""
        for ve in m:
            if type(ve) is not tuple or len(ve) != 2:
                break
            v, e = ve
            if type(v) is not str or v <= prev or type(e) is not int or not e:
                break
            key += _field(v, e)
            prev = v
        else:
            return key
    raise ParamError(f"monomial {m!r} is not a tuple of (variable, nonzero "
                     f"integer exponent) pairs sorted by distinct variables")


def _unpack(m):
    """Tuple monomial of a packed key, read from the lowest nonzero field
    (the one with the lowest set bit) up, skipping the zero fields."""
    pairs = []
    while m:
        sh = ((m & -m).bit_length() - 1) // _W * _W
        e = (((m >> sh) + EXP_LIMIT) & _FIELD) - EXP_LIMIT
        pairs.append((_NAMES[sh // _W], e))
        m -= e << sh
    pairs.sort()
    return tuple(pairs)


def _mono(pairs):
    """Canonical tuple monomial of (variable, exponent) pairs: repeated
    variables add up, zero exponents drop and the rest sort by variable."""
    exps = {}
    for v, e in pairs:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted([ve for ve in exps.items() if ve[1]]))


def _checked_poly(poly):
    """Packed, triple-valued copy of a ``monomial -> number`` dict, zeros
    dropped by their triple; ParamError unless every key is a canonical
    tuple monomial and every value a number."""
    out = {}
    for m, c in poly.items():
        key = _pack(m)
        t = _as_triple(c)
        if t[0] or t[1]:
            out[key] = t
    return out


# ---------------------------------------------------------------------------
# Internal Laurent-polynomial helpers: dict packed monomial -> triple, zero
# values never stored.  Each returns a new dict.
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


def _check(keys, top):
    """ExponentOverflow unless every key is in range; each key is a sum of
    two in-range keys of magnitude at most ``top``.  Such sums never
    collide with an in-range key, so checking the keys of a result checks
    every product that went into it."""
    off, guard = _masks(top)
    for m in keys:
        if (m + off) & guard:
            _overflow(m)


def _p_mul(a, b):
    if len(b) == 1:
        ((m, t),) = b.items()
        return _p_scale(a, m, t)
    if not (a and b):
        return {}
    out = {}
    get = out.get
    for m1, x in a.items():
        for m2, y in b.items():
            m = m1 + m2
            p = _t_mul(x, y)
            s = get(m)
            out[m] = p if s is None else _t_add(s, p)
    _check(out, max(max(a), -min(a), max(b), -min(b)))
    return {m: s for m, s in out.items() if s[0] or s[1]}


def _p_scale(a, mono, t):
    """a * mono * t for a nonzero triple t."""
    if t != _T_ONE:
        out = {m + mono: _t_mul(c, t) for m, c in a.items()}
    elif mono:
        out = {m + mono: c for m, c in a.items()}
    else:
        return dict(a)
    if mono and a:
        _check(out, max(max(a), -min(a), abs(mono)))
    return out


def _p_used(a, off):
    """An int whose field i is nonzero exactly when some key of ``a`` has a
    nonzero exponent there; ``off`` covers the fields of ``a``."""
    acc = 0
    for m in a:
        acc |= (m + off) ^ off
    return acc


def _field_names(used):
    names = []
    i = 0
    while used:
        if used & _FIELD:
            names.append(_NAMES[i])
        used >>= _W
        i += 1
    return names


def _name_fields(a, off):
    """``(variable, bit offset)`` of each field the keys of ``a`` use, in
    variable-name order; ``off`` covers the fields of ``a``.  The biased
    fields ``((m + off) >> sh) & _FIELD`` order like the exponents, so read
    at these offsets they order keys lex on the names, whatever the
    interning order."""
    return [(v, _SHIFT[v]) for v in sorted(_field_names(_p_used(a, off)))]


def _p_vars(a):
    if not a:
        return []
    return _field_names(_p_used(a, _masks(max(max(a), -min(a)))[0]))


def _p_shift_mono(a, off):
    """Monomial m with a*m a polynomial that no variable divides: minus
    each used variable's least exponent over the keys of ``a``; ``off``
    covers the fields of ``a``."""
    used = _p_used(a, off)
    out = 0
    sh = 0
    while used >> sh:
        if (used >> sh) & _FIELD:
            e = min(((m + off) >> sh) & _FIELD for m in a) - EXP_LIMIT
            out -= e << sh
        sh += _W
    return out


def _p_divide_exact(a, b, off):
    """Exact Laurent division a/b, or None when b does not divide a.

    ``b`` must be a polynomial that no variable divides, as ``_canonical``
    leaves every multi-term denominator, and ``a`` is shifted the same way
    first, so that an exact quotient is a polynomial too.  ``off`` covers
    the fields of a and b.

    The packed keys compare as ints, which is a lex order (highest field
    first) compatible with products, so the division runs in that order.
    Quotient terms come in decreasing order, and the last term of an exact
    quotient is trail(a)/trail(b), trail being the smallest term: a quotient
    term m with m*trail(b) below trail(a) ends a failing division at once
    instead of after one step per degree.  A quotient of more than
    ``MAX_TERMS`` terms is given up on, as an inexact one is, so a wide
    numerator such as q^(10^8) + 1 over q + 1 ends after MAX_TERMS steps.
    """
    if not a:
        return {}
    sa = _p_shift_mono(a, off)
    rem = _p_scale(a, sa, _T_ONE)  # a dict of its own, updated in place
    lead_b = max(b)
    floor = min(rem) - min(b)
    # max-heap of the keys of rem; a key whose term cancels stays in it
    # until it comes up, and is skipped then
    heap = [-m for m in rem]
    heapify(heap)
    quot = {}
    while heap:
        lead_r = -heappop(heap)
        c = rem.pop(lead_r, None)
        if c is None:
            continue
        m = lead_r - lead_b
        # rem and b are polynomials, so every field of m is in range
        if (m + off) & off != off or m < floor or len(quot) == MAX_TERMS:
            return None
        if not quot:
            # set up on the first quotient term: most calls end before it
            inv_lc_b = _t_inv(b[lead_b])
            # each key k below is a key of b plus a quotient key, which is
            # at most the first lead of rem
            coff, guard = _masks(max(lead_r, lead_b))
        c = _t_mul(c, inv_lc_b)
        quot[m] = c
        # rem -= c*m*b: its lead term cancels, and every other key is
        # smaller, so none has come up yet
        neg = _t_neg(c)
        for mb, y in b.items():
            if mb == lead_b:
                continue
            k = mb + m
            if (k + coff) & guard:
                _overflow(k)
            p = _t_mul(y, neg)
            x = rem.get(k)
            if x is None:
                rem[k] = p
                heappush(heap, -k)
                continue
            x = _t_add(x, p)
            if x[0] or x[1]:
                rem[k] = x
            else:
                del rem[k]
    # undo the Laurent shift: a/b = (a*sa/b) / sa
    return _p_scale(quot, -sa, _T_ONE)


def _point_value(point, v, e):
    """Triple of ``point[v]**e``."""
    x = _as_triple(point[v])
    if e < 0 and not (x[0] or x[1]):
        raise PoleAtPoint(f"variable {v} is 0 but occurs with exponent {e}")
    return _t_pow(x, e)


def _p_eval(a, point):
    total = _T_ZERO
    for m, c in a.items():
        for v, e in _unpack(m):
            if v not in point:
                raise UnboundVariable(f"no value assigned to central variable {v!r}")
            c = _t_mul(c, _point_value(point, v, e))
        total = _t_add(total, c)
    return total


def _p_substitute(a, assign):
    out = {}
    for m, c in a.items():
        for v, e in _unpack(m):
            if v in assign:
                c = _t_mul(c, _point_value(assign, v, e))
                m -= e << _SHIFT[v]
        s = out.get(m)
        out[m] = c if s is None else _t_add(s, c)
    return {m: c for m, c in out.items() if c[0] or c[1]}


def _canonical(num, den):
    """Canonical (num, den) for num/den; takes ownership of both dicts.

    A unit denominator is already canonical.  Any other single-term
    denominator is folded into the numerator; a multi-term one is shifted
    by a monomial until no variable divides all of its terms (each
    variable's least exponent 0), made monic and divided out when it
    divides the numerator exactly, with a quotient of at most
    ``MAX_TERMS`` terms.  The monic choice reads the leading term in lex
    order on the variable names, so that no output depends on the
    interning order.  A common factor that is not a monomial is not looked
    for: (q - 1)/(q^2 - 1) stays as it is.
    """
    if not den:
        raise DivisionByZero("zero denominator")
    if not num:
        return {}, {0: _T_ONE}
    if len(den) == 1:
        ((m, c),) = den.items()
        if not m and c == _T_ONE:
            return num, den
        return _p_scale(num, -m, _t_inv(c)), {0: _T_ONE}
    off = _masks(max(max(num), -min(num), max(den), -min(den)))[0]
    shift = _p_shift_mono(den, off)
    if shift:
        num = _p_scale(num, shift, _T_ONE)
        den = _p_scale(den, shift, _T_ONE)
    shifts = [sh for _, sh in _name_fields(den, off)]
    lc = den[max(den, key=lambda m: [((m + off) >> sh) & _FIELD
                                     for sh in shifts])]
    if lc != _T_ONE:
        inv = _t_inv(lc)
        num = _p_scale(num, 0, inv)
        den = _p_scale(den, 0, inv)
    q = _p_divide_exact(num, den, off)
    if q is not None:
        return q, {0: _T_ONE}
    return num, den


def _coeff(num, den):
    """Coefficient from a canonical (num, den) pair that nothing else holds."""
    out = _new(Coefficient)
    out._num = num
    out._den = den
    return out


def _const(t):
    """Constant Coefficient of a reduced triple."""
    return _coeff({0: t} if t[0] or t[1] else {}, {0: _T_ONE})


def _view(poly):
    return {_unpack(m): _const(c) for m, c in poly.items()}


class Coefficient:
    """Element of the coefficient field.

    Stored as numerator/denominator Laurent polynomials ``_num`` and
    ``_den``, each a dict from packed monomials (see the module docstring)
    to reduced ``(a, b, d)`` triples.  A public monomial is a tuple of
    (variable, nonzero integer exponent) pairs sorted by distinct
    variables, and ``MONO_UNIT == ()`` is 1.  The denominator is either the
    unit ``{0: (1, 0, 1)}`` or has several terms; in the second case no
    variable divides all of its terms, it is monic in lex order on the
    names and it does not divide the numerator exactly, so
    (q^2-1)/(q-1) and (1+q)/(q+q^2) = q^-1 collapse.  A common factor that
    is not a monomial stays: (q-1)/(q^2-1) is kept as it is.  A Gaussian
    rational is a constant coefficient.
    ``num`` and ``den`` are read-only views: each access builds a fresh
    ``{monomial: constant Coefficient}`` dict, the form the public
    constructor takes.

    The public constructor copies its arguments and canonicalizes;
    operations whose result is canonical by construction (negation, sums
    and products of operands with unit denominators, and a one-term factor
    over the unit times a fraction) skip that step, and a product with the
    ``one()`` object returns the other factor.  The constructor takes int,
    Fraction and constant Coefficient values and drops zero values from
    both dicts, so an all-zero denominator raises DivisionByZero; a key
    that is not a monomial, or a value that is not constant, raises
    ParamError.  Equality falls back to cross multiplication, so
    representation gaps never affect comparisons.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num=None, den=None):
        num = {} if num is None else _checked_poly(num)
        den = {0: _T_ONE} if den is None else _checked_poly(den)
        self._num, self._den = _canonical(num, den)

    @property
    def num(self):
        return _view(self._num)

    @property
    def den(self):
        return _view(self._den)

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
        return _const(_as_triple(x))

    @staticmethod
    def from_gauss(re, im=0):
        """The Gaussian rational re + im*i, each part a rational number or
        its text."""
        re, im = Fraction(re), Fraction(im)
        d = lcm(re.denominator, im.denominator)
        return _const((re.numerator * (d // re.denominator),
                       im.numerator * (d // im.denominator), d))

    @staticmethod
    def monomial(exps, scalar=1):
        key = 0
        for v, e in exps.items():
            if e:
                key += _field(v, e)
        t = _as_triple(scalar)
        return _coeff({key: t} if t[0] or t[1] else {}, {0: _T_ONE})

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
        return sorted({*_p_vars(self._num), *_p_vars(self._den)})

    # -- field arithmetic ----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, (Coefficient, *_SCALARS)):
            return NotImplemented
        other = Coefficient.from_scalar(other)
        # a canonical one-term denominator is the unit
        if len(self._den) == 1 and len(other._den) == 1:
            return _coeff(_p_add(self._num, other._num), {0: _T_ONE})
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
        # the generators' unit coefficient: the product is the other factor
        if other is _C_ONE:
            return self
        if self is _C_ONE:
            return other
        if len(self._den) == 1 and len(other._den) == 1:
            return _coeff(_p_mul(self._num, other._num), {0: _T_ONE})
        # one term m*t over the unit times N/D: monomials are units of the
        # Laurent ring, and no variable divides a canonical D, so D divides
        # m*N exactly when it divides N, with a quotient as long, and
        # m*t*N/D is canonical as it stands
        unit, frac = (self, other) if len(self._den) == 1 else (other, self)
        if len(unit._num) == 1 and len(unit._den) == 1:
            ((m, t),) = unit._num.items()
            return _coeff(_p_scale(frac._num, m, t), dict(frac._den))
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
        """Exact value, a constant Coefficient, at a full assignment of
        central variables; a value is an int, a Fraction or a constant
        Coefficient."""
        d = _p_eval(self._den, point)
        if not (d[0] or d[1]):
            raise PoleAtPoint("denominator vanishes at the evaluation point")
        return _const(_t_mul(_p_eval(self._num, point), _t_inv(d)))

    def substitute(self, assign):
        """Partial substitution of central variables; other variables stay."""
        den = _p_substitute(self._den, assign)
        if not den:
            raise PoleAtPoint("denominator vanishes under the substitution")
        return _coeff(*_canonical(_p_substitute(self._num, assign), den))

    def __repr__(self):
        from .printer import format_coefficient

        return format_coefficient(self)

    def __reduce__(self):
        # a packed key depends on the order in which this process interned
        # its variables, so the pickle holds tuple monomials instead
        return _unpickle, (_unpacked(self._num), _unpacked(self._den))


def _unpacked(poly):
    return tuple([(_unpack(m), t) for m, t in poly.items()])


def _unpickle(num, den):
    """Coefficient of the (tuple monomial, triple) pairs of ``__reduce__``.
    The canonical form does not depend on the interning order (see
    ``_canonical``), so the pairs of a canonical value pack to one."""
    return _coeff({_pack(m): t for m, t in num},
                  {_pack(m): t for m, t in den})


_C_ZERO = Coefficient()
_C_ONE = Coefficient.from_scalar(1)
_C_I = _const((0, 1, 1))


# ---------------------------------------------------------------------------
# Sums of products, accumulated in place (the rewrite loop's coefficients).
# An accumulated value is a Coefficient, which is never written, or a
# numerator dict over the unit denominator that its accumulation owns.
# ---------------------------------------------------------------------------

def _unit_term(c):
    """``(mono, triple, OFF, GUARD)`` of a Coefficient that is one term over
    the unit denominator, the masks covering the fields of mono; else
    None."""
    if len(c._num) == 1 and len(c._den) == 1:
        ((m, t),) = c._num.items()
        return (m, t, *_masks(abs(m)))
    return None


def _coefficient(v):
    """Coefficient of an accumulated value; a dict is copied, as the
    accumulation may write it later."""
    return _coeff(dict(v), {0: _T_ONE}) if type(v) is dict else v


def _frozen(terms):
    """Copy of a dict of accumulated values, each made a Coefficient."""
    return {w: _coefficient(v) for w, v in terms.items()}


def _addmul(acc, c, rc, term):
    """Accumulated value of acc + c*rc, None for zero: ``acc`` (None for
    zero) and ``c`` (nonzero) are accumulated values, ``rc`` is a nonzero
    Coefficient and ``term`` its ``_unit_term``.  No Coefficient is written.

    When ``rc`` is one term m*t and ``c`` and ``acc`` have unit
    denominators, c*m*t is added into the dict ``acc`` in place, into a
    copy of a Coefficient's numerator, or into a new dict; with acc zero,
    a product by 1 is the other factor.  The keys of ``acc`` keep their
    order, new ones follow in the order of ``c`` and a key whose term
    cancels is dropped, as ``_p_add(acc, _p_scale(c, m, t))`` orders them.
    Only a new key can be out of range, as a sum of two in-range keys never
    collides with an in-range key (see ``_check``), and only in a field
    where m is nonzero; the guard bits over the fields of m show it,
    whatever the higher fields hold.  Anything else goes through
    Coefficient arithmetic."""
    src = None
    if term is not None:
        src = c if type(c) is dict else c._num if len(c._den) == 1 else None
    if src is not None:
        mono, t, off, guard = term
        if acc is None:
            if not mono and t == _T_ONE:
                return c if c is not src else dict(c)
            if c is _C_ONE:
                return rc
            if t == _T_ONE:
                acc = {m + mono: x for m, x in src.items()}
            else:
                acc = {m + mono: _t_mul(x, t) for m, x in src.items()}
            if mono:
                for k in acc:
                    if (k + off) & guard:
                        _overflow(k)
            return acc
        if type(acc) is not dict and len(acc._den) == 1:
            acc = dict(acc._num)
        if type(acc) is dict:
            get = acc.get
            for m, x in src.items():
                k = m + mono
                if t != _T_ONE:
                    x = _t_mul(x, t)
                y = get(k)
                if y is None:
                    if (k + off) & guard:
                        _overflow(k)
                    acc[k] = x
                    continue
                a1, b1, d1 = y
                a2, b2, d2 = x
                y = (a1 + a2, b1 + b2, 1) if d1 == 1 == d2 else _t_add(y, x)
                if y[0] or y[1]:
                    acc[k] = y
                else:
                    del acc[k]
            return acc or None
    s = _coefficient(c) * rc
    if acc is not None:
        s = _coefficient(acc) + s
    return s if s._num else None


def qnumber(k):
    """Two-parameter quantum integer: sum_{i=0}^{k-1} q^i * p^-(k-1-i).

    Agrees with the closed form (q^k - p^-k)/(q - p^-1).  Its k monomials
    are distinct, so it is built as one numerator over the unit, keys in
    order of i, with no addition: the i-th key is p^-(k-1) times (q*p)^i.
    """
    if k < 0 or int(k) != k:
        raise ParamError(f"qnumber index must be a nonnegative integer, got {k}")
    k = int(k)
    first, step = _field("t", 2 - 2 * k), _field("s", 2) + _field("t", 2)
    return _coeff({first + i * step: _T_ONE for i in range(k)}, {0: _T_ONE})
