"""Catalog of deformed Heisenberg algebra presentations.

Families
--------
classical             canonical quantization, indexed positions/momenta
wess                  q-deformed algebra with a grouplike scaling generator
schmudgen             four-generator q-algebra with an invertible unitary-like u
wess_schwenk          q-algebra over the quantum plane with a conjugate position
gaddis                two-parameter quantum Heisenberg enveloping algebra
gha / q_gha           generalized Heisenberg algebras driven by polynomials f, g
qhbar                 q-hbar algebra on the quantum phase space
qhbar_quantization    q-hbar quantization with an opaque structure function
unified               the three-parameter family with dynamical functions
                      (psi, pi, phi) that specializes to all of the above

Precedences are chosen so that oriented rules rewrite toward the ordered
basis of each family's iterated Ore extension.  Generator inverses carry
their commutation relations explicitly: they are forced by the defining
relations and the rewrite systems are not confluent without them.
"""

from __future__ import annotations

from ._record import Record
from .coeffs import Coefficient
from .errors import (AlphabetError, NotOreShaped, ParamError, ParseError,
                     QheisError, UnknownFamily)
from .ncpoly import (Alphabet, Generator, NCPoly, Word, _accumulate, _ncpoly,
                     _over)
from .parser import _IDENT, parse_expr
from .rewrite import TermOrder, check_confluence, complete, normalize, orient

C = Coefficient
I = C.imag()
HBAR = C.hbar_power(1)


def _q(exp=1):
    """q**exp: an int power directly on s = q^(1/2), a half-integer (given
    as text) through ``q_power``."""
    return C.monomial({"s": 2 * exp}) if isinstance(exp, int) else C.q_power(exp)


# names the parser and the printer give central scalars: ``i`` and ``hbar``
# always print so, and central q and p print as ``s^2`` and ``t^2`` where a
# generator shadows them.  An opaque name must avoid all of them and the
# kernel's variables ``s``, ``t`` and ``h`` (q^(1/2), p^(1/2) and hbar).
_RESERVED_GENERATORS = frozenset({"i", "hbar", "s", "t"})
_RESERVED_OPAQUES = frozenset({"i", "hbar", "q", "p", "s", "t", "h"})


def _words(*gens):
    """``_w(*word)``: a word over one alphabet of ``gens``, shared by a
    builder's relations."""
    alphabet = Alphabet(gens)
    return lambda *word: _ncpoly({alphabet.encode(word): C.one()}, alphabet)


class Presentation:
    """A named algebra: generators with precedence, inverse pairs, relations
    (each polynomial meaning ``poly = 0``), parameters and free metadata.
    The relations, ``parse``, ``poly`` and the rewrite system share one
    ``alphabet`` of the generators; ``generator_codes`` maps each
    generator's name to its code there.  Without relations it is the scope
    in which a builder or a document parses them.

    ``all_relation_polys()``, built once here, is the one relation set that
    ``system()``, ``completed()`` and the verifiers read: the listed
    relations, then the cancellation relation ``a*b - 1`` of each inverse
    pair, both ways round, unless a listed relation is a scalar multiple
    of it.  ``system()`` orients that set, ``confluent()`` checks the
    system with ``check_confluence``, ``completed()`` runs Knuth-Bendix
    completion on the set (``rewrite.complete``) and ``extract_ore`` reads
    an Ore tower off the system.  Each is computed at most once per
    presentation (``_once``): the first call keeps its result, or the
    QheisError it raised, and later calls return or raise that again."""

    def __init__(self, name, generators, relations, inverse_pairs=(),
                 parameters=None, metadata=None, order_kind="deglex"):
        self.name = name
        self.generators = tuple(generators)
        self.relations = tuple((label, NCPoly.from_scalar(p)) for label, p in relations)
        self.inverse_pairs = tuple(inverse_pairs)
        self.parameters = dict(parameters or {})
        self.metadata = dict(metadata or {})
        self.order_kind = order_kind
        self._kept = {}  # key -> the result or QheisError of ``_once``
        self._validate()

    def _validate(self):
        light = TermOrder(self.order_kind).light  # ParamError if unknown
        gmap = {}
        for g in self.generators:
            if g.sym in gmap:
                raise ParamError(f"{self.name}: generator {g.sym} declared twice")
            if g.sym in _RESERVED_GENERATORS:
                raise ParamError(f"{self.name}: generator name {g.sym} is "
                                 f"reserved for a central symbol")
            gmap[g.sym] = g
        if light is not None and light not in gmap:
            raise ParamError(f"{self.name}: the light letter {light} of "
                             f"{self.order_kind} is not a generator")
        if len({g.precedence for g in self.generators}) != len(self.generators):
            raise ParamError(f"{self.name}: generator precedences are not distinct")
        opaques = [k for k, v in self.parameters.items() if v == "opaque"]
        for k in opaques:
            if not _IDENT.fullmatch(k):
                raise ParamError(f"{self.name}: opaque name {k!r} is not one "
                                 f"symbol (a letter, then letters, digits "
                                 f"or _)")
            if k in gmap or k in _RESERVED_OPAQUES:
                taken = "a generator" if k in gmap else "a central symbol"
                raise ParamError(f"{self.name}: opaque name {k} is taken by {taken}")
        self.opaque_names = frozenset(opaques)
        self.alphabet = alphabet = Alphabet(self.generators)
        labels = set()
        relations = []
        for label, poly in self.relations:
            if label in labels:
                raise ParamError(f"{self.name}: duplicate relation label {label}")
            labels.add(label)
            for g in poly.letters():
                if g not in alphabet.code:
                    raise AlphabetError(
                        f"{self.name}: relation {label} uses undeclared "
                        f"generator {g.sym}"
                    )
            # the letters of its words keep their codes in the join
            relations.append((label, _ncpoly(_over(alphabet, poly)[1], alphabet)))
        self.relations = tuple(relations)
        for g, ginv in self.inverse_pairs:
            for x in (g, ginv):
                if gmap.get(x.sym) != x:
                    raise AlphabetError(
                        f"{self.name}: inverse pair uses undeclared generator {x.sym}"
                    )
        self.generator_map = gmap
        self.generator_codes = {sym: alphabet.code[g] for sym, g in gmap.items()}
        units = [(f"unit:{a.sym}*{b.sym}", self.poly(a.sym, b.sym) - 1)
                 for pair in self.inverse_pairs for a, b in (pair, pair[::-1])]
        self._all_relations = self.relations + tuple(
            (label, unit) for label, unit in units
            if all(unit_ratio(rel, unit) is None for _, rel in self.relations))

    def _once(self, key, compute):
        """``compute()``, called at most once per presentation under
        ``key`` ("system", "confluent", "completed" or a tower's symbols):
        the first call keeps its result, or the QheisError it raised, and
        later calls return or raise that again.  Other exceptions are not
        kept."""
        if key not in self._kept:
            try:
                self._kept[key] = compute()
            except QheisError as exc:
                self._kept[key] = exc
        kept = self._kept[key]
        if isinstance(kept, QheisError):
            # a bare re-raise would keep every earlier call's traceback
            raise kept.with_traceback(None)
        return kept

    def gen(self, sym):
        try:
            return self.generator_map[sym]
        except KeyError:
            raise AlphabetError(f"{self.name}: unknown generator {sym}") from None

    def word(self, *syms):
        return Word(tuple(self.gen(s) for s in syms))

    def poly(self, *syms):
        """The word of ``syms`` (the unit for none) over ``alphabet``."""
        return _ncpoly({self.alphabet.encode(self.word(*syms)): C.one()},
                       self.alphabet)

    def parse(self, text):
        return parse_expr(text, self)

    def system(self):
        """``orient`` of ``all_relation_polys()``: raises OrientationError
        when a relation does not orient or two share a leading word."""
        return self._once("system", lambda: orient(self))

    def confluent(self):
        """Whether ``system()`` is confluent, by ``check_confluence``."""
        return self._once("confluent",
                          lambda: check_confluence(self.system()).confluent)

    def completed(self):
        """The confluent rewrite system of the presentation's ideal, by
        ``rewrite.complete`` over ``all_relation_polys()``: zero normal form
        certifies membership.  Raises NonTermination when completion exceeds
        its bound and OrientationError when a derived relation does not
        orient."""
        return self._once("completed",
                          lambda: complete(self.all_relation_polys(),
                                           TermOrder(self.order_kind)))

    def normalize(self, x):
        """Normal form of ``x`` (a polynomial or its text) under
        ``system()``, the presentation's own rules.  When they are not
        confluent (``confluent()`` is False) the form may not be canonical:
        equal elements of the algebra may get different forms.
        ``verify.ideal_membership`` decides in the completed system."""
        if isinstance(x, str):
            x = self.parse(x)
        return normalize(x, self.system())

    def all_relation_polys(self):
        """Listed relations plus the cancellation relations of inverse pairs
        that no listed relation already states."""
        return self._all_relations

    def __eq__(self, other):
        if not isinstance(other, Presentation):
            return NotImplemented
        if (self.name, self.generators, self.inverse_pairs,
                self.order_kind) != (other.name, other.generators,
                                     other.inverse_pairs, other.order_kind):
            return False
        # relations and parameters compare by value, across alphabets too
        return (self.relations == other.relations
                and self.metadata == other.metadata
                and self.parameters == other.parameters)

    __hash__ = None

    def __repr__(self):
        return (f"Presentation({self.name!r}, {len(self.generators)} generators, "
                f"{len(self.relations)} relations)")


# ---------------------------------------------------------------------------
# Catalog builders
# ---------------------------------------------------------------------------

def _classical(indices=3):
    n = int(indices)
    if n < 1:
        raise ParamError("classical: indices must be >= 1")
    xs = [Generator("x", i, i - 1) for i in range(1, n + 1)]
    ps = [Generator("p", i, n + i - 1) for i in range(1, n + 1)]
    _w = _words(*xs, *ps)
    rels = []
    for p in ps:
        for x in xs:
            rel = _w(x, p) - _w(p, x)
            if x.index == p.index:
                rel -= I * HBAR
            rels.append((f"xp_{x.index}_{p.index}", rel))
    for gens in (xs, ps):
        rels += [(f"{a.name}{a.name}_{a.index}_{b.index}", _w(a, b) - _w(b, a))
                 for b in gens for a in gens if a.index < b.index]
    return Presentation("classical", xs + ps, rels,
                        parameters={"indices": n},
                        metadata={"description": "canonical quantization"})


def _wess():
    li = Generator("Lambda_inv", None, 0)
    lam = Generator("Lambda", None, 1)
    p = Generator("p", None, 2)
    x = Generator("x", None, 3)
    _w = _words(li, lam, p, x)
    rels = [
        ("x_p", _q("1/2") * _w(x, p) - _q("-1/2") * _w(p, x) - I * HBAR * _w(lam)),
        ("lambda_x", _w(lam, x) - _q(-1) * _w(x, lam)),
        ("lambda_p", _w(lam, p) - _q(1) * _w(p, lam)),
        # forced by the two relations above once Lambda is invertible
        ("lambda_inv_x", _w(li, x) - _q(1) * _w(x, li)),
        ("lambda_inv_p", _w(li, p) - _q(-1) * _w(p, li)),
    ]
    meta = {
        "adjoint": "p and x self-adjoint, conjugate of Lambda is Lambda_inv "
                   "(recorded, not enforced)",
        "q_domain": "real, q != 0",
    }
    return Presentation("wess", [li, lam, p, x], rels,
                        inverse_pairs=[(lam, li)], metadata=meta)


_SCHM_VARIANTS = ("equivalent", "definition")


def _schmudgen(variant="equivalent"):
    if variant not in _SCHM_VARIANTS:
        raise ParamError(f"schmudgen: variant must be one of {_SCHM_VARIANTS}")
    x = Generator("x", None, 0)
    p = Generator("p", None, 1)
    ui = Generator("u_inv", None, 2)
    u = Generator("u", None, 3)
    _w = _words(x, p, ui, u)
    base = [
        ("u_p", _w(u, p) - _q(1) * _w(p, u)),
        ("u_x", _w(u, x) - _q(-1) * _w(x, u)),
    ]
    if variant == "equivalent":
        rels = base + [
            # inverse commutations forced by u_p and u_x
            ("u_inv_p", _w(ui, p) - _q(-1) * _w(p, ui)),
            ("u_inv_x", _w(ui, x) - _q(1) * _w(x, ui)),
            # solved forms of the two cross relations
            ("p_x", _w(p, x) + I * _q("-1/2") * HBAR * _w(u)
             - I * _q("1/2") * HBAR * _w(ui)),
            ("x_p", _w(x, p) + I * _q("1/2") * HBAR * _w(u)
             - I * _q("-1/2") * HBAR * _w(ui)),
        ]
    else:
        coef = I * (_q("3/2") - _q("-1/2")) * HBAR
        rels = base + [
            ("p_x", _w(p, x) - _q(1) * _w(x, p) - coef * _w(u)),
            ("x_p", _w(x, p) - _q(1) * _w(p, x) + coef * _w(ui)),
        ]
    meta = {"q_domain": "real, q > 0, q != 1", "variant": variant}
    return Presentation(f"schmudgen" if variant == "equivalent" else "schmudgen_definition",
                        [x, p, ui, u], rels, inverse_pairs=[(u, ui)], metadata=meta)


def _wess_schwenk():
    x = Generator("x", None, 0)
    xbar = Generator("xbar", None, 1)
    p = Generator("p", None, 2)
    _w = _words(x, xbar, p)
    rels = [
        ("p_x", _w(p, x) - _q(1) * _w(x, p) + I * HBAR * NCPoly.one()),
        ("p_xbar", _w(p, xbar) - _q(-1) * _w(xbar, p) + I * _q(-1) * HBAR * NCPoly.one()),
        ("x_xbar", _w(x, xbar) - _q(1) * _w(xbar, x)),
    ]
    return Presentation("wess_schwenk", [x, xbar, p], rels,
                        metadata={"q_domain": "real, q != 0"})


_GADDIS_VARIANTS = ("consistent", "printed")


def _gaddis(p=None, q=None, variant="consistent"):
    if variant not in _GADDIS_VARIANTS:
        raise ParamError(f"gaddis: variant must be one of {_GADDIS_VARIANTS}")
    pv = C.from_scalar(p) if p is not None else C.p_power(1)
    qv = C.from_scalar(q) if q is not None else _q(1)
    x = Generator("x", None, 0)
    z = Generator("z", None, 1)
    y = Generator("y", None, 2)
    _w = _words(x, z, y)
    # The widely printed form of the z-x relation uses q**-1; it is
    # inconsistent with the power identities and breaks confluence for
    # p != q, so the default uses p**-1 and the printed form is kept as a
    # documented variant.
    zx_scale = pv.inverse() if variant == "consistent" else qv.inverse()
    rels = [
        ("z_x", _w(z, x) - zx_scale * _w(x, z)),
        ("z_y", _w(z, y) - pv * _w(y, z)),
        ("y_x", _w(y, x) - qv * _w(x, y) - HBAR * _w(z)),
    ]
    name = "gaddis" if variant == "consistent" else "gaddis_printed"
    return Presentation(name, [x, z, y], rels,
                        parameters={"p": pv, "q": qv},
                        metadata={"pq_domain": "positive reals", "variant": variant})


def _poly_in_h(value, h, what):
    if isinstance(value, str):
        try:
            value = parse_expr(value, Presentation(what, [h], ()))
        except ParseError as exc:
            raise ParamError(f"{what} must be a polynomial in h: {exc}") from exc
    value = NCPoly.from_scalar(value)
    for g in value.letters():
        if g != h:
            raise ParamError(f"{what} must be a polynomial in h, found {g.sym}")
    return value


def _gha(f="h^2"):
    x = Generator("x", None, 0)
    h = Generator("h", None, 1)
    y = Generator("y", None, 2)
    _w = _words(x, h, y)
    f = _poly_in_h(f, h, "f")
    rels = [
        ("h_x", _w(h, x) - _w(x) * f),
        ("y_h", _w(y, h) - f * _w(y)),
        ("y_x", _w(y, x) - _w(x, y) - HBAR * f + HBAR * _w(h)),
    ]
    return Presentation("gha", [x, h, y], rels, parameters={"f": f},
                        order_kind="wreath h")


def _q_gha(f="h^2", g="h"):
    x = Generator("x", None, 0)
    h = Generator("h", None, 1)
    y = Generator("y", None, 2)
    _w = _words(x, h, y)
    f = _poly_in_h(f, h, "f")
    g = _poly_in_h(g, h, "g")
    rels = [
        ("h_x", _w(h, x) - _w(x) * f),
        ("y_h", _w(y, h) - f * _w(y)),
        ("y_x", _w(y, x) - _q(1) * _w(x, y) - HBAR * g),
    ]
    return Presentation("q_gha", [x, h, y], rels, parameters={"f": f, "g": g},
                        order_kind="wreath h")


def _qhbar():
    x = Generator("x", None, 0)
    p = Generator("p", None, 1)
    _w = _words(x, p)
    rels = [
        ("p_x", _w(p, x) - _q(1) * _w(x, p) + I * _q("1/2") * HBAR * NCPoly.one()),
    ]
    return Presentation("qhbar", [x, p], rels,
                        metadata={"q_domain": "complex, q != 0"})


def _qhbar_quantization(opaque="D_jk"):
    x = Generator("x", None, 0)
    p = Generator("p", None, 1)
    _w = _words(x, p)
    d = C.opaque(opaque)
    rels = [
        ("x_p", _w(x, p) - _q(1) * _w(p, x) - I * HBAR * d * NCPoly.one()),
    ]
    return Presentation("qhbar_quantization", [x, p], rels,
                        parameters={opaque: "opaque"},
                        metadata={"q_domain": "complex, q != 0",
                                  "structure_function": opaque})


class UnifiedParams(Record):
    """Parameters of the unified q-hbar Heisenberg algebra.

    ``psi``, ``pi`` and ``phi`` are the dynamical functions: arbitrary
    polynomials in the declared generators over the coefficient field.
    The deformation parameter is constrained to q not in {0, 1}; q = 1 is
    reachable only through the explicit classical-limit pathway.
    """

    __slots__ = ("n", "m", "l", "psi", "pi", "phi", "alpha_range",
                 "lambda_range", "beta_range")

    def __init__(self, n, m, l, psi=1, pi=0, phi=0, alpha_range=(1,),
                 lambda_range=(1,), beta_range=(1,)):
        for name, v in (("n", n), ("m", m), ("l", l)):
            if not isinstance(v, int) or isinstance(v, bool):
                raise ParamError(f"unified: parameter {name} must be an integer, "
                                 f"got {v!r}")
        self._set(n, m, l, psi, pi, phi, alpha_range, lambda_range, beta_range)


# Each relation is built from its words, the codes of its two role letters
# over ``alphabet``; a zero function forms no scale (for pi, no (q - 1)^k).

def _relation(alphabet, terms, fn, scale):
    """``terms`` ((code string, Coefficient) pairs) plus ``scale()`` times
    ``fn``, over ``alphabet`` joined with fn's letters; terms on one word
    merge and a cancelled word drops, as in NCPoly sums."""
    alphabet, fn_terms = _over(alphabet, fn)
    out = {}
    for s, c in terms:
        _accumulate(out, s, c)
    if fn_terms:
        c = scale()
        for s, cc in fn_terms.items():
            _accumulate(out, s, cc * c)
    return _ncpoly(out, alphabet)


def _x_p_relation(n, psi, x, p, alphabet):
    return _relation(alphabet, ((x + p, C.one()), (p + x, -_q(n))), psi,
                     lambda: -(I * _q(n - 1) * C.hbar_power(n)))


def _x_y_relation(m, pi, x, y, alphabet):
    return _relation(alphabet, ((x + y, _q(m)), (y + x, -C.one())), pi,
                     lambda: I * (_q(1) - C.one()) ** (m - 1)
                     * C.hbar_power(m - 1))


def _y_p_relation(l, phi, y, p, alphabet):
    return _relation(alphabet, ((y + p, _q(l)), (p + y, -_q(l + 1))), phi,
                     lambda: -(I * C.hbar_power(l)))


# nH1-nH3: constructor, the parameters of its exponent and its dynamical
# function, and the two roles it pairs
_UNIFIED_RELATIONS = {"nH1": (_x_p_relation, "n", "psi", "x", "p"),
                      "nH2": (_x_y_relation, "m", "pi", "x", "y"),
                      "nH3": (_y_p_relation, "l", "phi", "y", "p")}


def unified(params):
    """Construct the unified q-hbar Heisenberg presentation."""
    xs = [Generator("x", a, i) for i, a in enumerate(params.alpha_range)]
    ys = [Generator("y", lam, len(xs) + i) for i, lam in enumerate(params.lambda_range)]
    ps = [Generator("p", b, len(xs) + len(ys) + i) for i, b in enumerate(params.beta_range)]
    gens = xs + ys + ps
    scope = Presentation("unified", gens, ())
    code = scope.alphabet.code

    def as_poly(v):
        if isinstance(v, str):
            return parse_expr(v, scope)
        return NCPoly.from_scalar(v)

    fns = {f: as_poly(getattr(params, f)) for f in ("psi", "pi", "phi")}
    roles = {"x": xs, "y": ys, "p": ps}
    rels = []
    for relation, exp, fn, left, right in _UNIFIED_RELATIONS.values():
        for a in roles[left]:
            for b in roles[right]:
                rel = relation(getattr(params, exp), fns[fn], code[a],
                               code[b], scope.alphabet)
                rels.append((f"{a.name}{b.name}_{a.index}_{b.index}", rel))
    return Presentation(
        "unified", gens, rels,
        parameters={"n": params.n, "m": params.m, "l": params.l, **fns},
        metadata={"q_domain": "real, q not in {0, 1}; q = 1 only via the "
                              "classical-limit pathway"})


def subs_poly(poly, assign):
    """Substitute central variables in every coefficient of ``poly``."""
    return _ncpoly({s: c2 for s, c in poly._terms.items()
                    if not (c2 := c.substitute(assign)).is_zero}, poly.alphabet)


def unit_ratio(a, b):
    """Scalar c with a == c*b, or None."""
    _, bt = _over(a.alphabet, b)
    at = a._terms
    if not at or not bt or at.keys() != bt.keys():
        return None
    s0 = next(iter(bt))
    c = at[s0] / bt[s0]
    for s, bc in bt.items():
        if not (at[s] == c * bc):
            return None
    return c


def classical_limit(presentation):
    """Substitute q = 1 (s = 1) throughout.

    Requires every relation coefficient to be pole-free at s = 1; rows with
    (q-1) powers in a denominator are rejected with PoleAtPoint.
    """
    assign = {"s": 1}
    rels = [(label, subs_poly(p, assign)) for label, p in presentation.relations]
    rels = [(label, p) for label, p in rels if not p.is_zero]
    params = {}
    for k, v in presentation.parameters.items():
        if isinstance(v, Coefficient):
            params[k] = v.substitute(assign)
        elif isinstance(v, NCPoly):
            params[k] = subs_poly(v, assign)
        else:
            params[k] = v
    meta = dict(presentation.metadata)
    meta["limit"] = "q = 1"
    return Presentation(f"{presentation.name}@q=1", presentation.generators, rels,
                        inverse_pairs=presentation.inverse_pairs,
                        parameters=params, metadata=meta,
                        order_kind=presentation.order_kind)


# ---------------------------------------------------------------------------
# Ore extraction
# ---------------------------------------------------------------------------

class OreData(Record, frozen=True):
    """Sigma and delta maps of an iterated Ore tower.

    Keys are (mover, over) symbol pairs: mover*over = sigma*mover + delta
    holds in the algebra, with sigma and delta free of the mover.  Pairs
    with the mover later in the tower are mandatory; the reverse readings
    are recorded wherever they are solvable, since the literature states
    some towers that way.
    """

    __slots__ = ("tower", "sigma", "delta")

    def __init__(self, tower, sigma, delta):
        self._set(tower, sigma, delta)

    def entry(self, mover, over):
        key = (mover, over)
        return self.sigma.get(key), self.delta.get(key)


def _split_ore_shape(nf, mover):
    """Split a normal form as P*mover + D with P, D free of the mover."""
    m = nf.alphabet.code[mover]
    P = {}
    D = {}
    for s, c in nf._terms.items():
        if m not in s:
            D[s] = c
        elif s[-1] == m and m not in s[:-1]:
            P[s[:-1]] = c
        else:
            return None
    return _ncpoly(P, nf.alphabet), _ncpoly(D, nf.alphabet)


def extract_ore(presentation, tower_order):
    """Read the sigma/delta data of an Ore tower off the rewrite system.

    For each later generator a and earlier generator b the normal form of
    a*b must split as sigma*a + delta with sigma, delta in the earlier
    subalgebra.  Each entry splits NF(a*b) term by term (a reverse reading
    sets delta = NF(a*b) - c*NF(b*a)), so a*b - sigma*a - delta is zero in
    the algebra by construction and is not normalized again.

    The presentation keeps the data of each tower, or its error, by the
    tower's symbols, so a tower is extracted at most once per presentation.
    Each call returns a new ``OreData`` with dicts of its own, whose
    polynomials are immutable, so no caller changes what the next one
    reads.
    """
    sysm = presentation.system()
    tower = tuple(presentation.gen(g if isinstance(g, str) else g.sym)
                  for g in tower_order)
    ore = presentation._once(tuple(g.sym for g in tower),
                             lambda: _extract_ore(presentation, sysm, tower))
    return OreData(ore.tower, dict(ore.sigma), dict(ore.delta))


def _extract_ore(presentation, sysm, tower):
    """The ``OreData`` of ``tower``, a tuple of the presentation's
    generators, read off its rewrite system ``sysm`` (``extract_ore``)."""
    repeated = sorted({g.sym for g in tower if tower.count(g) > 1})
    if repeated:
        raise ParamError(f"{presentation.name}: tower lists "
                         f"{', '.join(repeated)} more than once")
    if len(tower) < 2:
        raise ParamError(f"{presentation.name}: a tower needs at least two "
                         f"generators, got {len(tower)}")
    sigma = {}
    delta = {}

    def record(a, b, P, D):
        sigma[a.sym, b.sym] = P
        delta[a.sym, b.sym] = D

    for i, a in enumerate(tower):
        earlier = tower[:i]
        allowed = {g.sym for g in earlier}
        for b in earlier:
            nf = normalize(presentation.poly(a.sym, b.sym), sysm)
            split = _split_ore_shape(nf, a)
            if split is None:
                raise NotOreShaped(
                    f"{presentation.name}: normal form of {a.sym}*{b.sym} is not "
                    f"sigma*{a.sym} + delta")
            P, D = split
            used = {g.sym for g in P.letters() + D.letters()}
            if not used <= allowed:
                raise NotOreShaped(
                    f"{presentation.name}: sigma/delta for ({a.sym}, {b.sym}) "
                    f"leave the earlier subalgebra: {sorted(used - allowed)}")
            record(a, b, P, D)
    # reverse readings: a*b = c*(b*a) + D solved for a scalar c
    for i, a in enumerate(tower):
        for b in tower[i + 1:]:
            nf_ab = normalize(presentation.poly(a.sym, b.sym), sysm)
            nf_ba = normalize(presentation.poly(b.sym, a.sym), sysm)
            m = nf_ab.alphabet.code[a]
            scale = unit_ratio(*(_ncpoly({s: c for s, c in nf._terms.items()
                                          if m in s}, nf.alphabet)
                                 for nf in (nf_ab, nf_ba)))
            if scale is None:
                continue
            D = nf_ab - nf_ba * scale
            if any(m in s for s in D._terms):
                continue
            record(a, b, presentation.poly(b.sym) * scale, D)
    return OreData(tower, sigma, delta)


def presentation_from_ore(ore, name, generators, inverse_pairs=(),
                          order_kind="deglex"):
    """Rebuild a presentation from tower sigma/delta data."""
    gmap = {g.sym: g for g in generators}
    _w = _words(*generators)
    rels = []
    for i, a in enumerate(ore.tower):
        for b in ore.tower[:i]:
            P, D = ore.entry(a.sym, b.sym)
            rels.append((f"ore_{a.sym}_{b.sym}",
                         _w(gmap[a.sym], gmap[b.sym]) - P * _w(gmap[a.sym]) - D))
    return Presentation(name, generators, rels, inverse_pairs=inverse_pairs,
                        order_kind=order_kind)


# ---------------------------------------------------------------------------
# Catalog dispatch
# ---------------------------------------------------------------------------

FAMILIES = {
    "classical": (_classical, "indices=3",
                  "canonical quantization with indexed x_i, p_i"),
    "wess": (_wess, "", "q-deformed algebra with invertible scaling generator"),
    "schmudgen": (_schmudgen, "variant='equivalent'|'definition'",
                  "four-generator q-algebra with invertible u"),
    "wess_schwenk": (_wess_schwenk, "", "q-algebra over the quantum plane"),
    "gaddis": (_gaddis, "p=<coeff>, q=<coeff>, variant='consistent'|'printed'",
               "two-parameter quantum Heisenberg enveloping algebra"),
    "gha": (_gha, "f='h^2'", "generalized Heisenberg algebra driven by f(h)"),
    "q_gha": (_q_gha, "f='h^2', g='h'", "q-generalized Heisenberg algebra"),
    "qhbar": (_qhbar, "", "q-hbar algebra on the quantum phase space"),
    "qhbar_quantization": (_qhbar_quantization, "opaque='D_jk'",
                           "q-hbar quantization with opaque structure function"),
}


def catalog(name, **params):
    """Construct a named algebra presentation from the catalog."""
    try:
        builder, _, _ = FAMILIES[name]
    except KeyError:
        raise UnknownFamily(
            f"unknown family {name!r}; known: {', '.join(sorted(FAMILIES))}"
        ) from None
    try:
        return builder(**params)
    except TypeError as exc:
        raise ParamError(f"{name}: {exc}") from exc


def family_ids():
    return sorted(FAMILIES)
