"""Words and free-algebra polynomials over a generator alphabet.

A Word is a flat sequence of generators (no run-length compression); the
empty word is the multiplicative identity.  An NCPoly maps words to exact
coefficients and supports noncommutative ring arithmetic, commutators and
homomorphic substitution.  Nothing here knows about relations: products are
free, reduction lives in the rewrite module.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coeffs import Coefficient, GaussRational
from .errors import AlphabetError, UnboundGenerator


@dataclass(frozen=True)
class Generator:
    """Named generator with an optional index and a precedence rank.

    Precedence is a total order within a presentation; the rewrite module
    uses it to orient relations toward the intended ordered basis.
    """

    name: str
    index: int | None = None
    precedence: int = 0

    def __post_init__(self):
        # every Word hash hashes its letters: compute the field hash once
        object.__setattr__(self, "_hash",
                           hash((self.name, self.index, self.precedence)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # unpickle through __init__: string hashes differ between processes
        return Generator, (self.name, self.index, self.precedence)

    @property
    def sym(self):
        return self.name if self.index is None else f"{self.name}_{self.index}"

    def __repr__(self):
        return self.sym


class Word(tuple):
    """Noncommutative monomial: a tuple of generators.  Its slices are plain
    tuples."""

    __slots__ = ()

    def __mul__(self, other):
        return Word(tuple.__add__(self, other))

    def __repr__(self):
        return "*".join(g.sym for g in self) if self else "1"


EMPTY_WORD = Word()


def display_key(word):
    """Deterministic word ordering for printing: by length, then by the
    precedence sequence."""
    return (len(word), tuple(g.precedence for g in word))


def _merge_alphabet(seen, poly):
    for w in poly.terms:
        for g in w:
            key = (g.name, g.index)
            prev = seen.setdefault(key, g)
            # presentations hand out one object per letter
            if prev is not g and prev != g:
                raise AlphabetError(
                    f"generator {g.sym} declared twice with different precedence"
                )


class NCPoly:
    """Free-algebra element: finite mapping Word -> Coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for w, c in terms.items():
                c = Coefficient.from_scalar(c)
                if not c.is_zero:
                    clean[Word(w)] = c
        _set(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("NCPoly is immutable")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero():
        return _ZERO

    @staticmethod
    def one():
        return _ONE

    @staticmethod
    def from_word(word, coeff=1):
        return NCPoly({Word(word): coeff})

    @staticmethod
    def from_generator(g, coeff=1):
        return NCPoly({Word((g,)): coeff})

    @staticmethod
    def from_scalar(c):
        if isinstance(c, NCPoly):
            return c
        return NCPoly({EMPTY_WORD: c})

    # -- predicates -----------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def coefficient(self, word):
        return self.terms.get(Word(word), Coefficient.zero())

    def words(self):
        return sorted(self.terms, key=display_key, reverse=True)

    def check_alphabet(self, *others):
        seen = {}
        _merge_alphabet(seen, self)
        for o in others:
            _merge_alphabet(seen, o)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = NCPoly.from_scalar(other)
        self.check_alphabet(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w, Coefficient.zero()) + c
            if s.is_zero:
                out.pop(w, None)
            else:
                out[w] = s
        return _ncpoly(out)

    __radd__ = __add__

    def __neg__(self):
        return _ncpoly({w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-NCPoly.from_scalar(other))

    def __rsub__(self, other):
        return NCPoly.from_scalar(other) - self

    def __mul__(self, other):
        if not isinstance(other, NCPoly):
            c = Coefficient.from_scalar(other)
            return NCPoly({w: cc * c for w, cc in self.terms.items()})
        self.check_alphabet(other)
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 * w2
                s = out.get(w, Coefficient.zero()) + c1 * c2
                if s.is_zero:
                    out.pop(w, None)
                else:
                    out[w] = s
        return _ncpoly(out)

    def __rmul__(self, other):
        # only scalars reach here; central scalars commute
        return self * other

    def __pow__(self, k):
        k = int(k)
        if k < 0:
            raise ValueError("free-algebra elements have no negative powers")
        out = NCPoly.one()
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, NCPoly):
            return self.terms == other.terms
        if isinstance(other, (int, Coefficient, GaussRational)):
            return self.terms == NCPoly.from_scalar(other).terms
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        from .printer import format_expr

        return format_expr(self, "plain")


_set = object.__setattr__


def _ncpoly(terms):
    """NCPoly from Word keys and nonzero Coefficient values that nothing
    else holds: the validation of ``NCPoly.__init__`` is skipped."""
    out = object.__new__(NCPoly)
    _set(out, "terms", terms)
    return out


_ZERO = NCPoly()
_ONE = NCPoly({EMPTY_WORD: Coefficient.one()})


def commutator(a, b):
    """a*b - b*a in the free algebra."""
    return a * b - b * a


def substitute(poly, mapping):
    """Homomorphic image of ``poly``: each generator is replaced by the
    mapped polynomial, coefficients are unchanged.

    ``mapping`` keys may be Generator objects or their symbol strings.
    """
    images = {}
    for k, v in mapping.items():
        sym = k.sym if isinstance(k, Generator) else str(k)
        images[sym] = NCPoly.from_scalar(v)
    out = NCPoly.zero()
    for w, c in poly.terms.items():
        img = NCPoly.one()
        for g in w:
            if g.sym not in images:
                raise UnboundGenerator(f"no image for generator {g.sym}")
            img = img * images[g.sym]
        out = out + img * c
    return out


def central_scale_eval(poly, point):
    """Evaluate every coefficient at a central point, keeping the words.

    Returns a mapping Word -> GaussRational; zero values are kept so the
    caller can see exactly which words vanished.
    """
    out = {}
    for w in poly.words():
        out[w] = poly.terms[w].evaluate(point)
    return out
