"""Words and free-algebra polynomials over a generator alphabet.

An Alphabet gives its i-th letter the code ``chr(i)``, so a word is a
``str``.  An NCPoly maps code strings over its alphabet to exact
coefficients: noncommutative ring arithmetic, commutators and substitution.
A presentation's relations, parser, rewrite system and normal forms share
its one alphabet; other polynomials mix after a join that appends the right
side's new letters.  ``terms`` and ``words()`` are views keyed by ``Word``
tuples for outside callers.  Products are free: reduction lives in the
rewrite module.
"""

from __future__ import annotations

from ._record import Record
from .coeffs import Coefficient
from .errors import AlphabetError, UnboundGenerator


class Generator(Record, frozen=True):
    """Named generator with an optional index and a precedence rank.

    Precedence is a total order within a presentation; the rewrite module
    uses it to orient relations toward the intended ordered basis.
    """

    __slots__ = ("name", "index", "precedence")

    def __init__(self, name, index=None, precedence=0):
        self._set(name, index, precedence)

    # the record's own methods, spelled out: generators key every alphabet,
    # and reading the slots by name hashes in two thirds of the time
    def __hash__(self):
        return hash((self.name, self.index, self.precedence))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.name, self.index, self.precedence)
                    == (other.name, other.index, other.precedence))
        return NotImplemented

    @property
    def sym(self):
        return self.name if self.index is None else f"{self.name}_{self.index}"

    def __repr__(self):
        return self.sym


class Word(tuple):
    """Noncommutative monomial: a tuple of generators.  Its slices are plain
    tuples."""

    __slots__ = ()

    def __repr__(self):
        return "*".join(g.sym for g in self) if self else "1"


class Alphabet:
    """Letters in code order, each once; ``code`` maps a letter to its code.
    ``asc`` and ``desc`` map a code to its letter's precedence rank counted
    from the lowest and the highest, so ``s.translate(asc)`` compares as the
    precedences of ``s`` do; tied precedences share a rank.  ``texts``
    holds the printer's per-letter texts, made on the first print."""

    __slots__ = ("letters", "code", "asc", "desc", "texts")

    def __init__(self, letters):
        self.texts = None
        self.letters = letters = tuple(dict.fromkeys(letters))
        self.code = {g: chr(i) for i, g in enumerate(letters)}
        first = {}
        for g in letters:
            # equal letters are merged above: this one differs in precedence
            if first.setdefault((g.name, g.index), g) is not g:
                raise AlphabetError(
                    f"generator {g.sym} declared twice with different precedence")
        precs = sorted({g.precedence for g in letters})
        rank = {p: r for r, p in enumerate(precs)}
        self.asc = {i: rank[g.precedence] for i, g in enumerate(letters)}
        self.desc = {i: len(precs) - 1 - r for i, r in self.asc.items()}

    def encode(self, word):
        """Code string of a sequence of this alphabet's letters."""
        return "".join([self.code[g] for g in word])

    def word(self, s):
        """Word of a code string."""
        return Word(map(self.letters.__getitem__, map(ord, s)))

    def __reduce__(self):
        return Alphabet, (self.letters,)


_EMPTY = Alphabet(())


def _over(alphabet, poly):
    """``(joined, terms)``: ``alphabet`` plus ``poly``'s new letters (two
    precedences of a name raise AlphabetError), and ``poly``'s terms over it."""
    other = poly.alphabet
    if other is alphabet or other.letters == alphabet.letters[:len(other.letters)]:
        return alphabet, poly._terms
    if alphabet.letters == other.letters[:len(alphabet.letters)]:
        return other, poly._terms
    new = [g for g in other.letters if g not in alphabet.code]
    joined = Alphabet(alphabet.letters + tuple(new)) if new else alphabet
    table = {i: joined.code[g] for i, g in enumerate(other.letters)}
    return joined, {s.translate(table): c for s, c in poly._terms.items()}


class NCPoly:
    """Free-algebra element: a finite mapping from code strings over
    ``alphabet`` to nonzero Coefficients.  The public constructor takes a
    mapping from words (sequences of generators) to scalars and keys it over
    a new alphabet of their letters."""

    __slots__ = ("alphabet", "_terms")

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for w, c in terms.items():
                c = Coefficient.from_scalar(c)
                if not c.is_zero:
                    clean[tuple(w)] = c
        alphabet = Alphabet(g for w in clean for g in w)
        _set(self, "alphabet", alphabet)
        _set(self, "_terms", {alphabet.encode(w): c for w, c in clean.items()})

    def __setattr__(self, name, value):
        raise AttributeError("NCPoly is immutable")

    def __reduce__(self):
        # the default slot-state restore would go through __setattr__
        return _ncpoly, (self._terms, self.alphabet)

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
    def from_scalar(c):
        if isinstance(c, NCPoly):
            return c
        c = Coefficient.from_scalar(c)
        return _ncpoly({} if c.is_zero else {"": c}, _EMPTY)

    # -- views and predicates ----------------------------------------------

    @property
    def terms(self):
        """Read-only view: a fresh ``{Word: Coefficient}`` dict each time."""
        word = self.alphabet.word
        return {word(s): c for s, c in self._terms.items()}

    @property
    def is_zero(self):
        return not self._terms

    def coefficient(self, word):
        try:
            s = self.alphabet.encode(word)
        except KeyError:  # a letter outside the alphabet
            return Coefficient.zero()
        return self._terms.get(s, Coefficient.zero())

    def words(self):
        """Words in the printer's order."""
        word = self.alphabet.word
        return [word(s) for s, _ in _display_items(self)]

    def letters(self):
        """The generators in the words, in order of first occurrence."""
        letters = self.alphabet.letters
        return [letters[ord(ch)] for ch in dict.fromkeys("".join(self._terms))]

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = NCPoly.from_scalar(other)
        alphabet, terms = _over(self.alphabet, other)
        out = dict(self._terms)
        for s, c in terms.items():
            _accumulate(out, s, c)
        return _ncpoly(out, alphabet)

    __radd__ = __add__

    def __neg__(self):
        return _ncpoly({s: -c for s, c in self._terms.items()}, self.alphabet)

    def __sub__(self, other):
        return self + (-NCPoly.from_scalar(other))

    def __rsub__(self, other):
        return NCPoly.from_scalar(other) - self

    def __mul__(self, other):
        if not isinstance(other, NCPoly):
            c = Coefficient.from_scalar(other)
            # a product of nonzero scalars is nonzero
            return _ncpoly({} if c.is_zero else
                           {s: cc * c for s, cc in self._terms.items()},
                           self.alphabet)
        alphabet, terms = _over(self.alphabet, other)
        out = {}
        for s1, c1 in self._terms.items():
            for s2, c2 in terms.items():
                _accumulate(out, s1 + s2, c1 * c2)
        return _ncpoly(out, alphabet)

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
        if isinstance(other, (int, Coefficient)):
            other = NCPoly.from_scalar(other)
        elif not isinstance(other, NCPoly):
            return NotImplemented
        return (len(self._terms) == len(other._terms)
                and self._terms == _over(self.alphabet, other)[1])

    __hash__ = None

    def __repr__(self):
        from .printer import format_expr

        return format_expr(self, "plain")


_set = object.__setattr__


def _accumulate(out, s, c):
    """Add the nonzero ``c`` to ``out[s]``; a word whose sum cancels drops."""
    x = out.get(s)
    if x is None:
        out[s] = c
        return
    x = x + c
    if x.is_zero:
        del out[s]
    else:
        out[s] = x


def _ncpoly(terms, alphabet):
    """NCPoly from code-string keys over ``alphabet`` and nonzero Coefficient
    values that nothing else holds: the validation of ``NCPoly.__init__`` is
    skipped."""
    out = object.__new__(NCPoly)
    _set(out, "alphabet", alphabet)
    _set(out, "_terms", terms)
    return out


_ZERO = _ncpoly({}, _EMPTY)
_ONE = _ncpoly({"": Coefficient.one()}, _EMPTY)


def _display_items(poly):
    """``(code, coefficient)`` pairs in display order."""
    asc = poly.alphabet.asc
    return sorted(poly._terms.items(),
                  key=lambda sc: (len(sc[0]), sc[0].translate(asc)), reverse=True)


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
    letters = poly.alphabet.letters
    out = NCPoly.zero()
    for s, c in poly._terms.items():
        img = NCPoly.one()
        for ch in s:
            sym = letters[ord(ch)].sym
            if sym not in images:
                raise UnboundGenerator(f"no image for generator {sym}")
            img = img * images[sym]
        out = out + img * c
    return out
