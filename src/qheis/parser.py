"""Expression parser for the algebra surface language.

Grammar (infix ``*`` is required between factors):

    expr     :=  ['-'] term (('+'|'-') term)*
    term     :=  factor ('*' factor)*
    factor   :=  atom ['^' exponent]
    atom     :=  '(' expr ')' | '[' expr ',' expr ']' | NUMBER | IDENT
    exponent :=  ['-'] INT | '(' ['-'] INT ['/' INT] ')'
    NUMBER   :=  INT ['/' INT]

Identifiers resolve against the presentation first (its
``generator_codes``; generators shadow the central symbols), then declared
opaque symbols, then the built-in centrals ``i``, ``hbar``, ``q`` and ``p``
and the roots ``s`` = q^(1/2) and ``t`` = p^(1/2).  Half-integer exponents
are allowed on q and p only; generator powers must be nonnegative integers.
``[a,b]`` is commutator sugar.

One pattern cuts the text into tokens end to end, whitespace and stray
characters included, so a token's position is the length of the text
before it; its kind comes from a table of first characters (``_KIND``, and
``_kind`` beyond ASCII).  Whitespace is dropped and any other stray
character is refused at its position.

A term is read as one coefficient and one code string: a generator, or a
generator to an integer power k, appends its code (k times), and a factor
of one word multiplies its coefficient in.  ``factor`` reads a term's
first factor.  After a ``*``, a generator with no exponent, the common
case, is read by ``term`` itself: its code joins the word with no factor
built.  A group that holds one such term is read as that term.  From the
first factor that is an NCPoly (a group of several words or none, a
group's power, a commutator, a zero) on, the term is an NCPoly product.
The limits below hold for every product either way, with the same
messages and positions.  An exponent is read as an int pair n/d in lowest
terms.

Brackets nest at most ``MAX_NESTING`` deep, no exponent exceeds
``MAX_POWER`` in magnitude and no product (power and commutator steps
included, scalar powers too) pairs more than ``MAX_TERMS`` numerator or
denominator terms of its coefficients, summed over its words; deeper or
larger input, a zero denominator and an integer literal too long for ``int``
are a ParseError.  ``MAX_TERMS`` is the coefficient kernel's, which also
bounds its exact divisions.  Powers whose central exponents leave the
coefficient kernel's range raise its ExponentOverflow.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .coeffs import MAX_TERMS, Coefficient, _power
from .errors import ParseError
from .ncpoly import _EMPTY, NCPoly, _ncpoly, _over

MAX_NESTING = 100
MAX_POWER = 10_000

_OPERATORS = "-+*^()[],/"
# a symbol name: one token
_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
# an integer, a symbol name, an operator, a run of whitespace or any other
# single character: the tokens cover the text end to end, so each one's
# position is the summed length of those before it
_TOKEN = re.compile(rf"\d+|{_IDENT.pattern}|[{re.escape(_OPERATORS)}]|\s+|.",
                    re.DOTALL)

_ONE = Coefficient.one()
# the built-in central symbols, as (one-word term, exponent tag)
_CENTRAL = {name: ((c, "", _EMPTY), tag) for name, c, tag in (
    ("i", Coefficient.imag(), "scalar"),
    ("hbar", Coefficient.hbar_power(1), "scalar"),
    ("q", Coefficient.q_power(1), "q"),
    ("p", Coefficient.p_power(1), "p"),
    ("s", Coefficient.monomial({"s": 1}), "scalar"),
    ("t", Coefficient.monomial({"t": 1}), "scalar"))}
# the variable that holds half-integer powers of q and of p
_ROOT = {"q": "s", "p": "t"}


def _kind(ch):
    """The kind of a token that starts with ``ch``, as ``_TOKEN`` reads it:
    ``\\d`` and ``\\s`` match every Unicode digit and space, a name starts
    with an ASCII letter, and an operator's kind is itself."""
    if ch.isdecimal():
        return "int"
    if ch.isspace():
        return "space"
    if ch in _OPERATORS:
        return ch
    return "ident" if ch.isascii() and ch.isalpha() else "bad"


# ``_kind`` of each ASCII character, looked up first
_KIND = {ch: _kind(ch) for ch in map(chr, range(128))}


def _tokenize(text):
    """``(kind, text, position)`` triples, then an ``end`` token.  An
    operator's kind is its own character."""
    tokens = []
    pos = 0
    for tok in _TOKEN.findall(text):
        kind = _KIND.get(tok[0]) or _kind(tok[0])
        if kind == "bad":
            raise ParseError(f"unexpected character {tok!r} at {pos}", pos)
        if kind != "space":
            tokens.append((kind, tok, pos))
        pos += len(tok)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, scope):
        self.tokens = _tokenize(text)
        self.k = 0
        self.depth = 0
        if scope is None:
            self.codes, self.opaques, self.alphabet = {}, frozenset(), _EMPTY
        else:
            self.codes = scope.generator_codes
            self.opaques = scope.opaque_names
            self.alphabet = scope.alphabet

    def accept(self, kind):
        """Take the next token if it is of ``kind``; whether it was."""
        if self.tokens[self.k][0] == kind:
            self.k += 1
            return True
        return False

    def take(self, kind=None):
        tok = self.tokens[self.k]
        if kind is not None and tok[0] != kind:
            want = repr(kind) if len(kind) == 1 else kind
            found = repr(tok[1]) if tok[1] else "end of input"
            raise ParseError(f"expected {want}, found {found} at {tok[2]}", tok[2])
        self.k += 1
        return tok

    # -- grammar -----------------------------------------------------------

    def expr(self):
        return _poly(self.value())

    def value(self):
        """The expression as a one-word term when it is one term, and as an
        NCPoly otherwise."""
        negate = self.accept("-")
        value = self.term()
        if negate:
            value = _negated(value)
        if self.tokens[self.k][0] not in ("+", "-"):
            return value
        value = _poly(value)
        while self.tokens[self.k][0] in ("+", "-"):
            _, op, pos = self.take()
            rhs = _poly(self.term())
            _refuse_sum(value, rhs, pos)
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        """The product of the factors, the first read by ``factor``:
        one-word factors give a one-word term, and from the first NCPoly
        factor on it is an NCPoly product.  A generator with no exponent
        after a ``*`` is read here: its code joins the one-word term, with
        no factor built."""
        tokens, codes = self.tokens, self.codes
        value = self.factor()
        while tokens[self.k][0] == "*":
            pos = tokens[self.k][2]
            self.k += 1
            kind, name, _ = tokens[self.k]
            if (kind == "ident" and type(value) is tuple and name in codes
                    and tokens[self.k + 1][0] != "^"):
                self.k += 1
                coeff, code, _ = value
                _refuse_run(coeff, pos)
                value = coeff, code + codes[name], self.alphabet
                continue
            rhs = self.factor()
            if type(value) is tuple and type(rhs) is tuple:
                value = _times(value, rhs, pos)
            else:
                value = _product(_poly(value), _poly(rhs), pos)
        return value

    def factor(self):
        """The atom, to its exponent if one follows: a one-word term or an
        NCPoly, as ``atom`` and ``_power`` give it."""
        base, tag = self.atom()
        if self.tokens[self.k][0] == "^":
            pos = self.take()[2]
            n, d = self.exponent()
            if abs(n) > MAX_POWER * d:
                raise ParseError(f"exponent {_ratio_text(n, d)} at {pos} exceeds "
                                 f"the limit {MAX_POWER}", pos)
            base = self._power(base, tag, n, d, pos)
        return base

    def exponent(self):
        """``(n, d)``: the exponent n/d in lowest terms with d > 0, and d is
        1 unless it is a parenthesized ratio; a zero denominator is a
        ParseError."""
        paren = self.accept("(")
        negate = self.accept("-")
        n, d = self.integer(), 1
        if paren:
            if self.accept("/"):
                pos = self.tokens[self.k][2]
                d = self.integer()
                if d == 0:
                    raise ParseError(f"division by zero at {pos}", pos)
                g = gcd(n, d)
                n, d = n // g, d // g
            self.take(")")
        return -n if negate else n, d

    def number(self):
        """NUMBER as an int, or a Fraction when it has a denominator; a zero
        denominator is a ParseError."""
        num = self.integer()
        if not self.accept("/"):
            return num
        pos = self.tokens[self.k][2]
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

    def _power(self, base, tag, n, d, pos):
        """``base`` to the power n/d, by the exponent rules of ``tag``."""
        if tag in _ROOT:
            if 2 * n % d:
                raise ParseError(
                    f"exponent {_ratio_text(n, d)} on {tag} must be an integer "
                    f"or half-integer (at {pos})", pos)
            return Coefficient.monomial({_ROOT[tag]: 2 * n // d}), "", _EMPTY
        if d != 1:
            raise ParseError(f"fractional exponent {_ratio_text(n, d)} allowed on "
                             f"q and p only (at {pos})", pos)
        k = n
        if tag == "group":
            base = _poly(base)
        if tag == "generator" or (tag == "group" and any(base._terms)):
            if k < 0:
                raise ParseError(
                    f"negative power of a generator expression at {pos}", pos)
            if tag == "generator":
                coeff, code, alphabet = base
                return (coeff, code * k, alphabet) if k else (_ONE, "", _EMPTY)
            # the steps of NCPoly.__pow__, each bounded by MAX_TERMS
            out = NCPoly.one()
            for _ in range(k):
                out = _product(out, base, pos)
            return out
        coeff = base[0] if type(base) is tuple else base.coefficient(())
        if k < 0:
            if coeff.is_zero:
                raise ParseError(f"negative power of zero at {pos}", pos)
            coeff, k = coeff.inverse(), -k

        def bounded(a, b):
            _refuse_pairing(_sizes((a,)), _sizes((b,)), pos)
            return a * b
        return _scalar(_power(coeff, k, _ONE, bounded))

    def atom(self):
        """``(value, tag)``: a one-word term or an NCPoly, and the tag that
        drives the exponent rules."""
        tok = self.tokens[self.k]
        kind = tok[0]
        if kind == "ident":
            self.k += 1
            return self.resolve(tok[1], tok[2])
        if kind == "int":
            return _scalar(Coefficient.from_scalar(self.number())), "scalar"
        if kind == "(" or kind == "[":
            if self.depth == MAX_NESTING:
                raise ParseError(f"brackets nested deeper than {MAX_NESTING} "
                                 f"at {tok[2]}", tok[2])
            self.depth += 1
            value = self.group()
            self.depth -= 1
            return value, "group"
        raise ParseError(f"expected an expression, found {tok[1]!r} at {tok[2]}",
                         tok[2])

    def group(self):
        tok = self.take()
        if tok[0] == "(":
            value = self.value()
            self.take(")")
            return value
        a = self.expr()
        self.take(",")
        b = self.expr()
        self.take("]")
        ab, ba = _product(a, b, tok[2]), _product(b, a, tok[2])
        _refuse_sum(ab, ba, tok[2])
        return ab - ba

    def resolve(self, name, pos):
        code = self.codes.get(name)
        if code is not None:
            return (_ONE, code, self.alphabet), "generator"
        if name in self.opaques:
            return (Coefficient.opaque(name), "", _EMPTY), "scalar"
        central = _CENTRAL.get(name)
        if central is not None:
            return central
        known = sorted(set(self.codes) | self.opaques | {"i", "hbar", "q", "p"})
        import difflib  # only here: its import would slow every start-up
        hint = difflib.get_close_matches(name, known, n=1)
        suggestion = f"; did you mean {hint[0]!r}?" if hint else ""
        raise ParseError(f"unknown symbol {name!r} at {pos}{suggestion}", pos)


def _scalar(c):
    """The one-word term of the scalar ``c``; zero, which has no word, as
    its NCPoly."""
    return NCPoly.zero() if c.is_zero else (c, "", _EMPTY)


def _negated(value):
    """``-value`` for a one-word term or an NCPoly."""
    if type(value) is tuple:
        coeff, code, alphabet = value
        return -coeff, code, alphabet
    return -value


def _poly(value):
    """The NCPoly of a one-word term ``(coefficient, code, alphabet)``; an
    NCPoly as it is."""
    if type(value) is tuple:
        coeff, code, alphabet = value
        return _ncpoly({code: coeff}, alphabet)
    return value


def _ratio_text(n, d):
    """The exponent n/d as ``str(Fraction(n, d))`` reads it, n/d in lowest
    terms."""
    return str(n) if d == 1 else f"{n}/{d}"


def _refuse_run(c, pos):
    """``_refuse_pairing`` of ``c`` times a generator's coefficient, one
    term over one: refused only when ``c`` itself is too large."""
    if len(c._num) > MAX_TERMS or len(c._den) > MAX_TERMS:
        _refuse_pairing((len(c._num), len(c._den)), (1, 1), pos)


def _times(a, b, pos):
    """The product of two one-word terms, refused as ``_product`` refuses
    it.  Their alphabet is the presentation's once a generator took part."""
    ca, sa, aa = a
    cb, sb, ab = b
    if cb is _ONE:  # a generator's: one term over one, and ca * cb is ca
        _refuse_run(ca, pos)
    else:
        _refuse_pairing((len(ca._num), len(ca._den)),
                        (len(cb._num), len(cb._den)), pos)
        ca = ca * cb
    return ca, sa + sb, aa if ab is _EMPTY else ab


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

    ``scope`` is a Presentation, or None for pure coefficient expressions.
    """
    parser = _Parser(text, scope)
    value = parser.expr()
    parser.take("end")
    return value
