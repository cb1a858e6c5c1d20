"""Expression parser for the algebra surface language.

Grammar (infix ``*`` is required between factors):

    expr     :=  ['-'] term (('+'|'-') term)*
    term     :=  factor ('*' factor)*
    factor   :=  atom ['^' exponent]
    atom     :=  '(' expr ')' | '[' expr ',' expr ']' | NUMBER | IDENT
    exponent :=  ['-'] INT | '(' ['-'] INT ['/' INT] ')'
    NUMBER   :=  INT ['/' INT]

Identifiers resolve against the presentation first (generators shadow the
central symbols), then declared opaque symbols, then the built-in centrals
``i``, ``hbar``, ``q`` and ``p``.  Half-integer exponents are allowed on q
and p only; generator powers must be nonnegative integers.  ``[a,b]`` is
commutator sugar.
Brackets nest at most ``MAX_NESTING`` deep, no exponent exceeds
``MAX_POWER`` in magnitude and no product (power and commutator steps
included, scalar powers too) pairs more than ``MAX_TERMS`` numerator or
denominator terms of its coefficients, summed over its words; deeper or
larger input, a zero denominator and an integer literal too long for ``int``
are a ParseError.  Powers whose central exponents leave the coefficient
kernel's range raise its ExponentOverflow.
"""

from __future__ import annotations

import difflib
import re
from fractions import Fraction

from .coeffs import Coefficient, _power
from .errors import ParseError
from .ncpoly import NCPoly, _ncpoly, _over

MAX_NESTING = 100
MAX_POWER = 10_000
MAX_TERMS = 100_000

# whitespace and any other single character are tokens too, dropped and
# refused by ``_tokenize``
_TOKEN = re.compile(r"(?P<int>\d+)|(?P<ident>[A-Za-z][A-Za-z0-9_]*)"
                    r"|(?P<op>[-+*^()\[\],/])|(?P<space>\s+)|(?P<bad>.)",
                    re.DOTALL)


def _tokenize(text):
    tokens = []
    for m in _TOKEN.finditer(text):
        kind, pos = m.lastgroup, m.start()
        if kind == "space":
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r} at {pos}", pos)
        tokens.append((kind, m.group(), pos))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, scope):
        self.text = text
        self.tokens = _tokenize(text)
        self.k = 0
        self.depth = 0
        self.gens = getattr(scope, "generator_map", {}) if scope is not None else {}
        self.opaques = set(getattr(scope, "opaque_names", ())) if scope is not None else set()
        self.alphabet = getattr(scope, "alphabet", None)

    def peek(self):
        return self.tokens[self.k]

    def take(self, kind=None, value=None):
        tok = self.tokens[self.k]
        if (kind is not None and tok[0] != kind) or \
                (value is not None and tok[1] != value):
            want = repr(value) if value is not None else kind
            found = repr(tok[1]) if tok[1] else "end of input"
            raise ParseError(f"expected {want}, found {found} at {tok[2]}", tok[2])
        self.k += 1
        return tok

    def at_op(self, *ops):
        tok = self.peek()
        return tok[0] == "op" and tok[1] in ops

    # -- grammar -----------------------------------------------------------

    def expr(self):
        negate = False
        if self.at_op("-"):
            self.take()
            negate = True
        value = self.term()
        if negate:
            value = -value
        while self.at_op("+", "-"):
            _, op, pos = self.take()
            rhs = self.term()
            _refuse_sum(value, rhs, pos)
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while self.at_op("*"):
            pos = self.take()[2]
            value = _product(value, self.factor(), pos)
        return value

    def factor(self):
        base, tag = self.atom()
        if not self.at_op("^"):
            return base
        tok = self.take()
        exp = self.exponent()
        if abs(exp) > MAX_POWER:
            raise ParseError(f"exponent {exp} at {tok[2]} exceeds the limit "
                             f"{MAX_POWER}", tok[2])
        return self._power(base, tag, exp, tok[2])

    def exponent(self):
        if self.at_op("("):
            self.take()
            sign = 1
            if self.at_op("-"):
                self.take()
                sign = -1
            value = self.number()
            self.take("op", ")")
            return sign * value
        sign = 1
        if self.at_op("-"):
            self.take()
            sign = -1
        return Fraction(sign * self.integer())

    def number(self):
        """NUMBER as a Fraction; a zero denominator is a ParseError."""
        num = self.integer()
        if not self.at_op("/"):
            return Fraction(num)
        self.take()
        pos = self.peek()[2]
        den = self.integer()
        if den == 0:
            raise ParseError(f"division by zero at {pos}", pos)
        return Fraction(num, den)

    def integer(self):
        tok = self.take("int")
        try:
            return int(tok[1])
        except ValueError:  # the interpreter's limit on int-string digits
            raise ParseError(f"integer literal of {len(tok[1])} digits at "
                             f"{tok[2]} is too long", tok[2]) from None

    def _power(self, base, tag, exp, pos):
        if tag in ("q", "p"):
            if (2 * exp).denominator != 1:
                raise ParseError(
                    f"exponent {exp} on {tag} must be an integer or half-integer "
                    f"(at {pos})", pos)
            make = Coefficient.q_power if tag == "q" else Coefficient.p_power
            return NCPoly.from_scalar(make(exp))
        if exp.denominator != 1:
            raise ParseError(f"fractional exponent {exp} allowed on q and p only "
                             f"(at {pos})", pos)
        k = int(exp)
        is_scalar = all(len(s) == 0 for s in base._terms)
        if is_scalar and (tag != "generator"):
            coeff = base.coefficient(())
            if k < 0:
                if coeff.is_zero:
                    raise ParseError(f"negative power of zero at {pos}", pos)
                coeff, k = coeff.inverse(), -k

            def bounded(a, b):
                _refuse_pairing(_sizes((a,)), _sizes((b,)), pos)
                return a * b
            return NCPoly.from_scalar(_power(coeff, k, Coefficient.one(), bounded))
        if k < 0:
            raise ParseError(
                f"negative power of a generator expression at {pos}", pos)
        # the steps of NCPoly.__pow__, each bounded by MAX_TERMS
        out = NCPoly.one()
        for _ in range(k):
            out = _product(out, base, pos)
        return out

    def atom(self):
        """Returns (NCPoly value, tag); the tag drives exponent rules."""
        tok = self.peek()
        if self.at_op("(", "["):
            if self.depth == MAX_NESTING:
                raise ParseError(f"brackets nested deeper than {MAX_NESTING} "
                                 f"at {tok[2]}", tok[2])
            self.depth += 1
            value = self.group()
            self.depth -= 1
            return value, "group"
        if tok[0] == "int":
            return NCPoly.from_scalar(Coefficient.from_scalar(self.number())), "scalar"
        if tok[0] == "ident":
            self.take()
            return self.resolve(tok[1], tok[2])
        raise ParseError(f"expected an expression, found {tok[1]!r} at {tok[2]}",
                         tok[2])

    def group(self):
        tok = self.take()
        if tok[1] == "(":
            value = self.expr()
            self.take("op", ")")
            return value
        a = self.expr()
        self.take("op", ",")
        b = self.expr()
        self.take("op", "]")
        ab, ba = _product(a, b, tok[2]), _product(b, a, tok[2])
        _refuse_sum(ab, ba, tok[2])
        return ab - ba

    def resolve(self, name, pos):
        if name in self.gens:
            return _ncpoly({self.alphabet.code[self.gens[name]]: Coefficient.one()},
                           self.alphabet), "generator"
        if name in self.opaques:
            return NCPoly.from_scalar(Coefficient.opaque(name)), "opaque"
        if name == "i":
            return NCPoly.from_scalar(Coefficient.imag()), "scalar"
        if name == "hbar":
            return NCPoly.from_scalar(Coefficient.hbar_power(1)), "hbar"
        if name == "q":
            return NCPoly.from_scalar(Coefficient.q_power(1)), "q"
        if name == "p":
            return NCPoly.from_scalar(Coefficient.p_power(1)), "p"
        if name == "s":
            return NCPoly.from_scalar(Coefficient.monomial({"s": 1})), "scalar"
        if name == "t":
            return NCPoly.from_scalar(Coefficient.monomial({"t": 1})), "scalar"
        known = sorted(set(self.gens) | self.opaques | {"i", "hbar", "q", "p"})
        hint = difflib.get_close_matches(name, known, n=1)
        suggestion = f"; did you mean {hint[0]!r}?" if hint else ""
        raise ParseError(f"unknown symbol {name!r} at {pos}{suggestion}", pos)


def _product(a, b, pos):
    """``a * b``, refused before it is formed when it pairs too many terms:
    that bounds both its size and its work."""
    _refuse_pairing(_sizes(a._terms.values()), _sizes(b._terms.values()), pos)
    return a * b


def _sizes(coeffs):
    """Numerator and denominator terms, summed over ``coeffs``; a
    unit-denominator coefficient has one of each."""
    num = den = 0
    for c in coeffs:
        num += len(c._num)
        den += len(c._den)
    return num, den


def _refuse_pairing(a, b, pos):
    """ParseError when a product of operands of ``_sizes`` a and b pairs
    more than MAX_TERMS numerator or denominator terms."""
    for part, na, nb in (("numerator", a[0], b[0]), ("denominator", a[1], b[1])):
        if na * nb > MAX_TERMS:
            raise ParseError(f"product at {pos} of {na} and {nb} {part} "
                             f"terms exceeds the limit of {MAX_TERMS} terms",
                             pos)


def _refuse_sum(a, b, pos):
    """ParseError when ``a`` plus or minus ``b`` pairs more than MAX_TERMS
    terms.  The coefficients of a shared word add over the product of their
    denominators when these differ, so each is multiplied by the other's
    denominator d, taken as d/d."""
    _, terms = _over(a.alphabet, b)
    for s, cb in terms.items():
        ca = a._terms.get(s)
        if ca is not None and ca._den != cb._den:
            _refuse_pairing(_sizes((ca,)), (len(cb._den),) * 2, pos)
            _refuse_pairing(_sizes((cb,)), (len(ca._den),) * 2, pos)


def parse_expr(text, scope=None):
    """Parse an expression into an NCPoly over the scope's alphabet.

    ``scope`` is a Presentation (or anything with ``generator_map``,
    ``opaque_names`` and the ``alphabet`` of those generators); None parses
    pure coefficient expressions.
    """
    parser = _Parser(text, scope)
    value = parser.expr()
    parser.take("end")
    return value
