"""Machine checks for the algebra catalog.

The built-in corpus covers: the identities relating each family's relation
variants, the two-parameter power identities with their quantum-integer
coefficients, the sigma/delta data of the three Ore towers, every
specialization of the unified algebra onto a cataloged family (the worked
rows exactly as reported, the literature table rows with per-row
diagnostics), and the classical limit.  Values reported in the literature
that are inconsistent with the defining relations are first-class
``discrepancy`` cases: the suite documents them rather than hiding them.

Every membership claim (identities, equivalence inclusions, power
identities, specialized relations) is decided by ``ideal_membership``: zero
normal form in the presentation's system completed by ``rewrite.complete``.
The all-paths oracle re-checks each passing identity, and the classical
limit compares rules.  Only the equivalence cross-check (``_cross_check``)
normalizes under each side's own ``system()``: each relation of the other
side, under each confluent side.

A case is declared once, as one row of a table (``_POLY_IDENTITIES``,
``_ORE_CASES``, ``EXAMPLE_ROWS``, ``TABLE_ROWS``) or one ``add`` line in
``build_cases``.  The row's id, claim and expected status feed the report:
the runner reads them from the case it is called with.

Every verifier is deterministic and none draws random numbers; two runs
produce identical reports byte for byte.

A process shares the presentations the corpus uses, and with them their
rewrite systems, completions and Ore data: each hashable ``catalog`` call
is built once (``_catalog``), as is each fixed pair of presentations.  A
presentation computes its ``system()``, ``confluent()``, ``completed()``
and each tower's Ore data at most once, keeping the result or the error,
so a second suite run orients, completes and extracts nothing.  The
verifiers read the ``all_relation_polys()`` its rules are built from and
mutate no presentation.  Reports and verdicts are recomputed on every
call, and the public ``catalog`` still returns a new presentation each time.

The two verifiers that dominate a suite run build what they check from its
words, with no free-algebra product: a specialized relation is two words
plus its dynamical function's terms (none for a zero function), and the
power identities are decided by induction on k, each claim for k - 1
shifted by the word x or y into the next step, so a step takes two rewrite
steps whatever k is.  A row builds only the relations it lists, and each
distinct relation check and each function text's parse runs once within a
row, in a table that lives for one ``verify_specialization`` call: nothing
is kept across calls.
"""

from __future__ import annotations

import json
from functools import cache, lru_cache, partial

from ._record import Record
from .coeffs import Coefficient, qnumber
from .errors import (OracleDivergence, OracleOverflow, OrientationError,
                     ParamError, QheisError)
from .families import (_UNIFIED_RELATIONS, Presentation, UnifiedParams,
                       catalog, classical_limit, extract_ore, subs_poly,
                       unified, unit_ratio)
from .ncpoly import NCPoly, _ncpoly, _over
from .parser import parse_expr
from .printer import format_coefficient, format_expr
from .rewrite import _reduct, check_confluence, normalize

C = Coefficient


# the presentations of hashable catalog calls, built once per process and
# shared by the verifiers, which only read them
_cached_catalog = cache(catalog)


def _catalog(name, **params):
    """``catalog(name, **params)``, shared through ``_cached_catalog`` when
    every parameter is hashable, and a presentation of its own otherwise."""
    try:
        hash(tuple(params.values()))
    except TypeError:
        return catalog(name, **params)
    return _cached_catalog(name, **params)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

class VerificationReport(Record, frozen=True):
    __slots__ = ("case_id", "claim",
                 "status",  # pass | fail | error | discrepancy | annotated
                 "expected", "detail", "unit", "witness", "annotations")

    def __init__(self, case_id, claim, status, expected, detail="", unit=None,
                 witness=None, annotations=()):
        self._set(case_id, claim, status, expected, detail, unit, witness,
                  annotations)

    @property
    def ok(self):
        return self.status == self.expected

    def as_dict(self):
        return {
            "id": self.case_id,
            "claim": self.claim,
            "status": self.status,
            "expected": self.expected,
            "ok": self.ok,
            "detail": self.detail,
            "unit": self.unit,
            "witness": self.witness,
            "annotations": list(self.annotations),
        }


class VerificationCase(Record, frozen=True):
    __slots__ = ("case_id", "claim", "families", "expected",
                 "runner")  # called with this case, returns its report

    def __init__(self, case_id, claim, families, expected, runner):
        self._set(case_id, claim, families, expected, runner)

    def report(self, status, **fields):
        return VerificationReport(self.case_id, self.claim, status,
                                  self.expected, **fields)

    def run(self):
        try:
            return self.runner(self)
        except QheisError as exc:
            return self.report("error", detail=f"{type(exc).__name__}: {exc}")


def _failed(expected):
    """Status of a failed check: an expected discrepancy reproduces as one."""
    return "discrepancy" if expected == "discrepancy" else "fail"


# ---------------------------------------------------------------------------
# Core verifiers
# ---------------------------------------------------------------------------

def ideal_membership(rel, presentation):
    """Whether ``rel`` lies in the presentation's two-sided ideal: (ok, nf),
    nf the normal form of ``rel`` in ``presentation.completed()`` and ok
    that it is zero.  Both term orders respect multiplication, so the
    completed system terminates and is confluent: a nonzero nf certifies
    that ``rel`` is not a member.  The presentation is completed on its
    first such call and keeps the result.
    """
    nf = normalize(rel, presentation.completed())
    return nf.is_zero, nf


def verify_poly_identity(case_id, lhs, rhs, presentation, expected="pass"):
    """Pass iff lhs - rhs lies in the ideal (``ideal_membership``) and every
    reduction path in the completed system (``brute_force_reduce``) agrees;
    ``error`` when it does not, or raises OracleOverflow or OracleDivergence."""
    report = partial(VerificationReport, case_id, "poly_identity",
                     expected=expected)
    diff = lhs - rhs
    ok, nf = ideal_membership(diff, presentation)
    if not ok:
        return report(_failed(expected),
                      detail="difference does not normalize to zero",
                      witness=format_expr(nf))
    if not brute_force_reduce(diff, presentation.completed()).is_zero:
        return report("error", detail="difference normalizes to zero, but "
                                      "the all-paths oracle disagrees")
    return report("pass", detail="difference normalizes to zero; the "
                                 "all-paths oracle agrees")


def verify_relation_set_equivalence(case_id, p1, p2, expected="pass"):
    """Pass iff the two presentations generate the same two-sided ideal.

    Every relation of each side must lie in the other's ideal
    (``ideal_membership``, in its completed system).  That decides the case;
    ``_cross_check`` then re-checks each relation of one side under the
    other side's own, uncompleted system, when ``check_confluence``
    certifies that system (``Presentation.confluent``).  A side that
    orients but is not confluent is left out, as a member of its ideal need
    not normalize to zero in it; the detail names it.  When no side orients,
    or none is confluent, nothing is compared and the detail says so.  A
    completion that exceeds its bound raises NonTermination, so the case
    reports ``error``.
    """
    report = partial(VerificationReport, case_id, "relation_set_equivalence",
                     expected=expected)
    for src, dst in ((p1, p2), (p2, p1)):
        for label, rel in src.all_relation_polys():
            if not ideal_membership(rel, dst)[0]:
                return report(_failed(expected), witness=format_expr(rel),
                              detail=f"relation {label} of {src.name} "
                                     f"not certified in {dst.name}")
    sides, uncertified = [], []
    for p in (p1, p2):
        try:
            confluent = p.confluent()
        except OrientationError:
            confluent = False
        else:
            if not confluent:
                uncertified.append(p.name)
        sides.append(confluent)
    if not any(sides):
        why = "is confluent" if uncertified else "orients"
        return report("pass", detail=f"both inclusions certified; no "
                                     f"cross-check, as neither side {why}")
    ok, detail, witness = _cross_check(p1, p2, sides)
    if not ok:
        return report("fail", detail=detail, witness=witness)
    detail = f"both inclusions certified; {detail}"
    if uncertified:
        under = (p1 if sides[0] else p2).name
        detail += (f"; cross-checked under {under} only, as "
                   f"{uncertified[0]} is not confluent")
    return report("pass", detail=detail)


def _cross_check(p1, p2, sides):
    """The cross-check of ``verify_relation_set_equivalence`` under each
    side whose flag in ``sides`` (two bools, for p1 and p2) is set: every
    relation of the other side's ``all_relation_polys()`` must normalize to
    zero by that side's own rules (``Presentation.normalize``).  Returns
    ``(ok, detail, witness)``; on a failure the detail names the relation
    and the side, and the witness is that relation.

    Under the confluence gate this suffices: by the diamond lemma (Bergman
    1978), NF(rel) = 0 in a confluent system exactly when rel is a member.
    """
    for side, other, part in ((p1, p2, sides[0]), (p2, p1, sides[1])):
        if not part:
            continue
        for label, rel in other.all_relation_polys():
            if not side.normalize(rel).is_zero:
                return (False, f"relation {label} of {other.name} does not "
                               f"normalize to zero under {side.name}",
                        format_expr(rel))
    under = "both sides" if all(sides) else (p1 if sides[0] else p2).name
    return (True, f"every relation of the other side normalizes to zero "
                  f"under {under}", None)


def _power_expansions(pres, K):
    """(label, product, its claimed normal form) for y*x^k and then y^k*x,
    for k = 1..K in turn, each built from its words over the presentation's
    alphabet: y*x^k is the code string y + x*k."""
    x, z, y = (pres.alphabet.encode(pres.word(g)) for g in "xzy")
    terms = partial(_ncpoly, alphabet=pres.alphabet)
    for k in range(1, K + 1):
        q, tail = C.q_power(k), C.hbar_power(1) * qnumber(k)
        yield (f"y*x^{k}", terms({y + x * k: C.one()}),
               terms({x * k + y: q, x * (k - 1) + z: tail}))
        yield (f"y^{k}*x", terms({y * k + x: C.one()}),
               terms({x + y * k: q, z + y * (k - 1): tail}))


# The largest power-identity exponent.  By induction on k the power loop
# takes two rewrite steps per identity past k = 1: 4K - 2 in all, 798 at
# k = 200.
MAX_K = 200


def _check_k(k, name):
    """ParamError unless 1 <= k <= MAX_K; ``name`` is the caller's name for
    the largest power-identity exponent.  An empty range of k would pass
    without checking anything."""
    if k < 1:
        raise ParamError(f"power-identity exponent {name} must be at least 1, "
                         f"got {k}")
    if k > MAX_K:
        raise ParamError(f"power-identity exponent {name} must be at most "
                         f"{MAX_K}, got {k}")


def verify_power_identities(case_id="gaddis-power-identities", K=10,
                            presentation=None, expected="pass"):
    """Pass iff y*x^k and y^k*x equal their quantum-integer expansions E_k
    and E'_k in the algebra, 1 <= k <= K <= MAX_K, decided by induction on
    k through ``ideal_membership``: y*x - E_1 for k = 1, and then
    E_{k-1}*x - E_k and y*E'_{k-1} - E'_k, each shifted claim built from
    its words.  The completed system is confluent (Bergman's diamond lemma),
    so a normal form depends only on the class modulo the ideal: while the
    earlier claims hold, a step's residue is NF(y*x^k - E_k), and the first
    failing k, its detail and its witness (that NF) are those of checking
    each k from scratch."""
    _check_k(K, "K")
    pres = presentation or _catalog("gaddis")
    x, y = (pres.alphabet.encode(pres.word(g)) for g in "xy")
    # E_{k-1}*x for the y*x^k series, y*E'_{k-1} for the y^k*x one
    shifts = (lambda s: s + x, lambda s: y + s)
    last = [None, None]
    for i, (text, lhs, claimed) in enumerate(_power_expansions(pres, K)):
        series = i % 2
        if last[series] is not None:
            lhs = _ncpoly({shifts[series](s): c
                           for s, c in last[series]._terms.items()},
                          pres.alphabet)
        ok, nf = ideal_membership(lhs - claimed, pres)
        if not ok:
            return VerificationReport(
                case_id, "power_identity", _failed(expected), expected,
                detail=f"{text} expansion mismatch", witness=format_expr(nf))
        last[series] = claimed
    return VerificationReport(case_id, "power_identity", "pass", expected,
                              detail=f"both identities exact for k = 1..{K}")


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

def brute_force_reduce(poly, sys, cap=5000, cache=None):
    """All-paths reduction, independent of the normalization strategy.

    Rewriting is linear, so every reduction path of a polynomial is an
    interleaving of reduction paths of its words.  For each reachable word
    this explores every single-step rewrite and demands that all branches
    end in the same normal form (memoized); the polynomial result is the
    linear combination of the word results.  Raises OracleDivergence when
    branches disagree and OracleOverflow past ``cap`` distinct words.

    Pass a dict as ``cache`` to share word results across calls against the
    same system.  Its keys are codes over the system's alphabet: a polynomial
    with other letters gets a cache of its own.
    """
    alphabet, terms = _over(sys.alphabet, poly)
    cache = {} if cache is None or alphabet is not sys.alphabet else cache
    in_progress = set()

    def bf_word(s):
        if s in cache:
            return cache[s]
        if s in in_progress:
            raise OracleOverflow(f"cyclic reduction through {alphabet.word(s)!r}")
        if len(cache) > cap:
            raise OracleOverflow(f"word cap {cap} exceeded")
        in_progress.add(s)
        # every single-step rewrite: one per redex (``RewriteSystem.redexes``)
        reducts = [_reduct(sys, s, pos, lhs) for pos, lhs in sys.redexes(s)]
        if not reducts:
            result = _ncpoly({s: C.one()}, alphabet)
        else:
            branches = [bf_terms(r) for r in reducts]
            result = branches[0]
            for b in branches[1:]:
                if b != result:
                    raise OracleDivergence(
                        f"word {alphabet.word(s)!r} reduces to distinct normal "
                        f"forms", forms=(result, b))
        in_progress.discard(s)
        cache[s] = result
        return result

    def bf_terms(terms):
        acc = NCPoly.zero()
        for s, c in terms.items():
            acc = acc + bf_word(s) * c
        return acc

    return bf_terms(terms)


# ---------------------------------------------------------------------------
# Specializations of the unified algebra
# ---------------------------------------------------------------------------

class SpecializationRow(Record, frozen=True):
    """One parameter row: instantiate the unified relations inside a target
    family and check each against the target's relations.  The functions
    ``psi``, ``pi`` and ``phi`` are texts, parsed in the target; any other
    value raises ParamError, in ``replace`` too."""

    __slots__ = ("row_id", "target",
                 "rename",  # unified role -> target generator sym
                 "n", "m", "l", "psi", "pi", "phi", "relations", "at_q1",
                 "target_params",
                 "attempts",  # (label, overrides) tried after as-printed
                 "expected", "note")

    def __init__(self, row_id, target, rename, n, m, l, psi="0", pi="0",
                 phi="0", relations=("nH1", "nH2", "nH3"), at_q1=False,
                 target_params=None, attempts=(), expected="pass", note=""):
        for field, text in (("psi", psi), ("pi", pi), ("phi", phi)):
            if not isinstance(text, str):
                raise ParamError(f"row {row_id}: {field} must be the text of "
                                 f"a function, got {text!r}")
        self._set(row_id, target, rename, n, m, l, psi, pi, phi, relations,
                  at_q1, {} if target_params is None else target_params,
                  attempts, expected, note)

    def replace(self, **changes):
        """This row with ``changes`` applied to its fields; an unknown field
        raises TypeError."""
        fields = dict(zip(self.__slots__, self._values(self)))
        return SpecializationRow(**{**fields, **changes})


def _check_row_values(row, target, checked=None):
    """Check the listed relations for one set of parameter values; only
    those are built.  ``checked`` maps what decides a check (relation name,
    exponent, function text, ``at_q1``, role letters) to its result, and
    each function text to its parse in ``target``: a caller that passes one
    table for its attempts parses each text once.

    Returns (ok, lines, unit_of_first_relation); a row with no relations,
    one other than nH1-nH3, no x or p role, or no y role while it lists
    nH2 or nH3 raises ParamError.
    """
    if not row.relations:
        raise ParamError(f"row {row.row_id} lists no relations")
    for name in row.relations:
        if name not in _UNIFIED_RELATIONS:
            raise ParamError(f"row {row.row_id}: unknown relation {name!r}, "
                             f"not one of nH1, nH2, nH3")
    roles = {"x", "p"}.union(*(_UNIFIED_RELATIONS[name][3:]
                               for name in row.relations))
    for role in ("x", "p", "y"):
        if role in roles and role not in row.rename:
            raise ParamError(f"row {row.row_id} has no {role!r} role in rename")
    codes = {r: target.alphabet.code[target.gen(row.rename[r])] for r in roles}
    checked = {} if checked is None else checked
    lines, unit_repr, ok = [], None, True
    for name in row.relations:
        make, exp, fn, a, b = _UNIFIED_RELATIONS[name]
        text = getattr(row, fn)
        key = (name, getattr(row, exp), text, row.at_q1, codes[a], codes[b])
        if key not in checked:
            if text not in checked:
                checked[text] = parse_expr(text, target)
            rel = make(getattr(row, exp), checked[text], codes[a], codes[b],
                       target.alphabet)
            checked[key] = _check_relation(
                name, subs_poly(rel, {"s": 1}) if row.at_q1 else rel, target)
        line, holds, unit = checked[key]
        lines.append(line)
        ok = ok and holds
        unit_repr = unit_repr or unit
    return ok, lines, unit_repr


def _check_relation(name, rel, target):
    """(line, holds, unit) of the check of the specialized relation ``rel``."""
    for label, t in target.all_relation_polys():
        c = unit_ratio(rel, t)
        if c is not None:
            unit = format_coefficient(c)
            return f"{name}: unit {unit} of target relation {label}", True, unit
    member, nf = ideal_membership(rel, target)
    if member:
        return f"{name}: normalizes to zero in the target", True, None
    return f"{name}: FAILS, residue {format_expr(nf)}", False, None


def verify_specialization(row):
    """Run a specialization row with its diagnostic attempts, which share
    one table of relation checks (``_check_row_values``)."""
    target = _catalog(row.target, **row.target_params)
    report = partial(VerificationReport, row.row_id, "specialization",
                     expected=row.expected)
    note = (row.note,) if row.note else ()
    attempts = (("as printed", {}),) + tuple(row.attempts)
    all_lines = []
    checked = {}
    for idx, (label, overrides) in enumerate(attempts):
        ok, lines, unit = _check_row_values(row.replace(**overrides), target,
                                            checked)
        all_lines.append(f"[{label}] " + "; ".join(lines))
        if ok:
            if idx == 0:
                return report("pass", detail=" | ".join(all_lines), unit=unit,
                              annotations=note)
            return report("annotated", detail=" | ".join(all_lines), unit=unit,
                          annotations=(label,) + note)
    return report("discrepancy", detail=" | ".join(all_lines),
                  annotations=("no parameter correction recovers the target "
                               "relations",) + note)


# ---------------------------------------------------------------------------
# Ore matching
# ---------------------------------------------------------------------------

def verify_ore_entry(case_id, presentation, tower, mover, over, sigma_text,
                     delta_text, expected="pass", note=""):
    report = partial(VerificationReport, case_id, "ore_match", expected=expected)
    ore = extract_ore(presentation, tower)
    sig, delt = ore.entry(mover, over)
    if sig is None:
        return report("fail", detail=f"pair ({mover}, {over}) not extracted")
    want_sig = parse_expr(sigma_text, presentation)
    want_del = parse_expr(delta_text, presentation)
    annotations = (note,) if note else ()
    if sig == want_sig and delt == want_del:
        return report("pass",
                      detail=f"sigma_{mover}({over}) = {format_expr(sig)}, "
                             f"delta_{mover}({over}) = {format_expr(delt)}",
                      annotations=annotations)
    return report(
        _failed(expected),
        detail=f"engine: sigma = {format_expr(sig)}, delta = {format_expr(delt)}; "
               f"reported: sigma = {format_expr(want_sig)}, "
               f"delta = {format_expr(want_del)}",
        witness=format_expr(delt - want_del), annotations=annotations)


# ---------------------------------------------------------------------------
# Built-in corpus
# ---------------------------------------------------------------------------

# (case id, family, lhs, rhs, expected).  The solved schmudgen cross
# relations are reported elsewhere with the hbar factor missing on one term
# and a sign flipped; those printed forms are NOT in the ideal, which the two
# discrepancy rows document.
_POLY_IDENTITIES = (
    ("wess-relation-rearranged", "wess", "x*p - q^-1*p*x",
     "i*hbar*Lambda*q^(-1/2)", "pass"),
    ("schmudgen-px-solved", "schmudgen", "p*x",
     "-i*q^(-1/2)*u*hbar + i*q^(1/2)*u_inv*hbar", "pass"),
    ("schmudgen-xp-solved", "schmudgen", "x*p",
     "-i*q^(1/2)*u*hbar + i*q^(-1/2)*u_inv*hbar", "pass"),
    ("classical-offdiagonal", "classical", "x_1*p_2", "p_2*x_1", "pass"),
    ("schmudgen-printed-px", "schmudgen", "p*x",
     "i*q^(1/2)*u - i*q^(-1/2)*u_inv*hbar", "discrepancy"),
    ("schmudgen-printed-xp", "schmudgen", "x*p",
     "i*q^(-1/2)*u_inv - i*q^(1/2)*u*hbar", "discrepancy"),
)


def _identity(row, case):
    _, family, lhs, rhs, _ = row
    pres = _catalog(family)
    return verify_poly_identity(case.case_id, pres.parse(lhs), pres.parse(rhs),
                                pres, case.expected)


def _equivalence(make_pair, case):
    return verify_relation_set_equivalence(case.case_id, *make_pair(),
                                           expected=case.expected)


# The fixed pairs of presentations the corpus compares, each built once per
# process: schmudgen's by ``_catalog``, the others cached here.

def _schmudgen_pair():
    return _catalog("schmudgen", variant="definition"), _catalog("schmudgen")


@cache
def _wess_rearranged_pair():
    w1 = _catalog("wess")
    rels = [(lab, p) for lab, p in w1.relations if lab != "x_p"]
    rels.insert(0, ("x_p", w1.parse("x*p - q^-1*p*x - i*hbar*Lambda*q^(-1/2)")))
    w2 = Presentation("wess", w1.generators, rels, inverse_pairs=w1.inverse_pairs,
                      metadata=w1.metadata)
    return w1, w2


@cache
def _gaddis_one_parameter_pair():
    q = C.q_power(1)
    return catalog("gaddis", p=q), catalog("gaddis", p=q, q=q)


def _case_gaddis_printed_zx(case):
    pres = _catalog("gaddis", variant="printed")
    # y*x^2, the first expansion of k = 2
    _, lhs, want = list(_power_expansions(pres, 2))[2]
    holds, residue = ideal_membership(lhs - want, pres)
    report = check_confluence(pres.system())
    lines = []
    if holds:
        lines.append("k=2 power identity unexpectedly holds")
        status = "fail"
    else:
        lines.append("k=2 power identity fails under the printed z-x relation "
                     "(coefficient q + q^-1 instead of q + p^-1)")
        status = _failed(case.expected)
    if report.confluent:
        lines.append("printed variant unexpectedly confluent")
        status = "fail"
    else:
        cp = report.unresolved[0]
        lines.append(f"unresolved overlap {cp.overlap_word!r} witnesses the "
                     f"inconsistency")
    return case.report(status, detail="; ".join(lines),
                       witness=format_expr(residue),
                       annotations=("the consistent variant uses "
                                    "z*x = p^-1*x*z",))


def _case_wess_ore_discrepancy(case):
    w = _catalog("wess")
    ore = extract_ore(w, ("Lambda", "p", "x"))
    _, delt = ore.entry("x", "p")
    doubled = parse_expr("i*q^(-1/2)*hbar^2*Lambda", w)
    derived = parse_expr("i*q^(-1/2)*hbar*Lambda", w)
    if delt == derived and not (delt == doubled):
        return case.report(
            _failed(case.expected),
            detail="engine derives delta_x(p) = i*q^(-1/2)*hbar*Lambda from the "
                   "defining relation; the reported value squares hbar",
            witness=format_expr(doubled - delt))
    return case.report("fail", detail=f"unexpected engine delta {format_expr(delt)}")


def _sym_form(poly):
    return {tuple(g.sym for g in poly.alphabet.word(s)): c
            for s, c in poly._terms.items()}


@cache
def _classical_limit_pair():
    """unified(n=m=l=1, psi=1) at q = 1, and the classical algebra of x_1, p_1."""
    uni = unified(UnifiedParams(1, 1, 1, psi="1", pi="0", phi="0"))
    return classical_limit(uni), _catalog("classical", indices=1)


_CLASSICAL = frozenset(("x_1", "p_1"))


def _case_classical_limit(case):
    """Both systems are confluent, the limit's rules whose left side lies in
    {x_1, p_1}* equal the classical ones by ``_sym_form``, and none of their
    right sides leaves x_1, p_1.  Then a word over x_1, p_1 has the same
    reduction paths in both, so by confluence one normal form (the diamond
    lemma).  A failure's witness is the first failing left side by symbols."""
    lim, cls = _classical_limit_pair()
    for pres in (lim, cls):
        if not pres.confluent():
            return case.report("fail", detail=f"{pres.name} is not confluent")
    got, want = ({tuple(g.sym for g in r.lhs): _sym_form(r.rhs)
                  for r in pres.system().rules} for pres in (lim, cls))
    for lhs in sorted(w for w in got.keys() | want.keys()
                      if _CLASSICAL.issuperset(w)):
        if got.get(lhs) != want.get(lhs):
            return case.report("fail", detail="the rules on x_1, p_1 differ",
                               witness="*".join(lhs))
        if not all(_CLASSICAL.issuperset(w) for w in got[lhs]):
            return case.report("fail", detail="a rule on x_1, p_1 leaves them",
                               witness="*".join(lhs))
    return case.report("pass", detail="unified(n=m=l=1, psi=1) at q=1 has the "
                       "canonical rules on x_1, p_1, and both are confluent")


# -- specialization rows ----------------------------------------------------

def _specialization(row, case):
    return verify_specialization(row)


_WESS_EXAMPLE = {"n": -1, "m": -1, "l": -1, "psi": "hbar^2*q^(3/2)*Lambda",
                 "pi": "0", "phi": "0"}
_SCHM_EXAMPLE_N1 = {"n": 1, "m": -1, "l": 0,
                    "psi": "(q^(-1/2) - q^(3/2))*u_inv", "pi": "0", "phi": "0"}
_SCHM_EXAMPLE_NM1 = {"n": -1, "m": -1, "l": 0,
                     "psi": "(q^(1/2) - q^(5/2))*hbar^2*u", "pi": "0", "phi": "0"}
_WS_EXAMPLE = {"n": -1, "m": -1, "l": -1, "psi": "q*hbar^2", "pi": "0",
               "phi": "q^-1*hbar^2"}

# unified role -> generator symbol, the same for every row of a target
_ROLES = {
    "wess": {"x": "x", "y": "Lambda", "p": "p"},
    "schmudgen": {"x": "x", "y": "u", "p": "p"},
    "wess_schwenk": {"x": "x", "y": "xbar", "p": "p"},
    "qhbar": {"x": "x", "p": "p"},
    "qhbar_quantization": {"x": "x", "p": "p"},
    "classical": {"x": "x_1", "y": "x_2", "p": "p_1"},
}


def _row(row_id, target, **values):
    return SpecializationRow(row_id, target, _ROLES[target], **values)


EXAMPLE_ROWS = (
    _row("wess-from-unified", "wess", **_WESS_EXAMPLE),
    _row("schmudgen-from-unified-n1", "schmudgen", **_SCHM_EXAMPLE_N1),
    _row("schmudgen-from-unified-n-1", "schmudgen", **_SCHM_EXAMPLE_NM1),
    _row("wess-schwenk-from-unified", "wess_schwenk", **_WS_EXAMPLE),
    _row("qhbar-from-unified", "qhbar",
         n=-1, m=0, l=0, psi="hbar^2*q^(3/2)", relations=("nH1",)),
    _row("qhbar-quantization-from-unified", "qhbar_quantization",
         n=1, m=0, l=0, psi="D_jk", relations=("nH1",)),
    _row("classical-from-unified", "classical",
         n=1, m=1, l=1, psi="1", at_q1=True, target_params={"indices": 2}),
)

TABLE_ROWS = (
    _row("table-01-classical", "classical",
         n=1, m=1, l=1, psi="1", phi="1", at_q1=True,
         target_params={"indices": 2},
         attempts=(("phi = 0 per the classical-limit row", {"phi": "0"}),),
         expected="annotated",
         note="reported phi = 1 makes the auxiliary generator a conjugate "
              "pair of p, which the canonical relations exclude"),
    _row("table-02-classical", "classical",
         n=0, m=0, l=0, target_params={"indices": 2},
         expected="discrepancy",
         note="with n = 0 and psi = 0 the x-p pair commutes, which no "
              "canonical relation allows at q != 1"),
    _row("table-03-wess", "wess",
         n=-1, m=0, l=0, pi="hbar^2*q^(3/2)*Lambda",
         attempts=(
             ("psi/pi columns swapped",
              {"psi": "hbar^2*q^(3/2)*Lambda", "pi": "0"}),
             ("columns swapped and m = -1 per the worked row", _WESS_EXAMPLE),
         ),
         expected="annotated",
         note="passes-with-column-swap plus the worked row's m"),
    _row("table-04-wess", "wess",
         n=0, m=-1, l=0,
         attempts=(("worked-row values", _WESS_EXAMPLE),),
         expected="annotated",
         note="nH2 and nH3 hold as printed; nH1 needs the worked row's n, psi"),
    _row("table-05-wess", "wess",
         n=0, m=0, l=-1,
         attempts=(("worked-row values", _WESS_EXAMPLE),),
         expected="annotated",
         note="nH3 holds as printed; nH1, nH2 need the worked row's values"),
    _row("table-06-schmudgen", "schmudgen",
         n=0, m=0, l=-1,
         attempts=(("worked-row values (n = 1)", _SCHM_EXAMPLE_N1),),
         expected="annotated"),
    _row("table-07-schmudgen", "schmudgen",
         n=0, m=-1, l=0,
         attempts=(("worked-row values (n = 1)", _SCHM_EXAMPLE_N1),),
         expected="annotated"),
    _row("table-08-schmudgen", "schmudgen",
         n=-1, m=0, l=0, psi="hbar^2*u*(q^(1/2) - q^(5/2))",
         attempts=(("m = -1 per the worked row", {"m": -1}),),
         expected="annotated",
         note="nH1 and nH3 hold as printed"),
    _row("table-09-schmudgen", "schmudgen",
         n=1, m=0, l=0, psi="(q^(3/2) - q^(-1/2))*u_inv",
         attempts=(("psi sign and m per the worked row",
                    {"psi": "(q^(-1/2) - q^(3/2))*u_inv", "m": -1}),),
         expected="annotated",
         note="the printed psi has the opposite sign of the worked row"),
    _row("table-10-wess-schwenk", "wess_schwenk",
         n=-1, m=0, l=0, psi="q*hbar^2",
         attempts=(("worked-row values (l = m = -1, phi = q^-1*hbar^2)",
                    _WS_EXAMPLE),),
         expected="annotated",
         note="nH1 holds as printed; the row omits the phi value its own "
              "derivation produces"),
    _row("table-11-wess-schwenk", "wess_schwenk",
         n=0, m=0, l=-1, phi="q^-1*hbar^2",
         attempts=(("worked-row values", _WS_EXAMPLE),),
         expected="annotated",
         note="nH3 with the (y,p) pairing holds as printed; the reported "
              "derivation cites the x-y relation instead"),
    _row("table-12-wess-schwenk", "wess_schwenk",
         n=0, m=-1, l=0,
         attempts=(("worked-row values", _WS_EXAMPLE),),
         expected="annotated",
         note="nH2 holds as printed"),
    _row("table-13-qhbar", "qhbar",
         n=-1, m=0, l=0, psi="hbar^2*q^(3/2)", relations=("nH1",)),
    _row("table-14-qhbar-quantization", "qhbar_quantization",
         n=-1, m=0, l=0, psi="D_jk", relations=("nH1",),
         attempts=(("n = 1 per the worked row", {"n": 1}),),
         expected="annotated",
         note="the opaque structure function arises at n = 1, not n = -1"),
)


# (case id, family, catalog params, tower, mover, over, sigma, delta,
# expected, note)
_ORE_CASES = (
    ("wess-ore-x-lambda", "wess", {}, ("Lambda", "p", "x"), "x", "Lambda",
     "q*Lambda", "0", "pass", ""),
    ("wess-ore-p-lambda", "wess", {}, ("Lambda", "p", "x"), "p", "Lambda",
     "q^-1*Lambda", "0", "pass", ""),
    ("wess-ore-x-p", "wess", {}, ("Lambda", "p", "x"), "x", "p",
     "q^-1*p", "i*q^(-1/2)*hbar*Lambda", "pass",
     "delta derived from the defining relation; see the doubled-hbar case"),
    ("wess-schwenk-ore-xbar-x", "wess_schwenk", {}, ("x", "xbar", "p"),
     "xbar", "x", "q^-1*x", "0", "pass", ""),
    ("wess-schwenk-ore-p-xbar", "wess_schwenk", {}, ("x", "xbar", "p"),
     "p", "xbar", "q^-1*xbar", "-i*q^-1*hbar", "pass", ""),
    ("wess-schwenk-ore-p-x", "wess_schwenk", {}, ("x", "xbar", "p"),
     "p", "x", "q*x", "-i*hbar", "pass", ""),
    ("gaddis-ore-y-x", "gaddis", {"variant": "printed"}, ("x", "z", "y"),
     "y", "x", "q*x", "hbar*z", "pass", ""),
    ("gaddis-ore-z-y", "gaddis", {"variant": "printed"}, ("x", "z", "y"),
     "z", "y", "p*y", "0", "pass", ""),
    ("gaddis-ore-z-x", "gaddis", {"variant": "printed"}, ("x", "z", "y"),
     "z", "x", "q^-1*x", "0", "pass",
     "matches the reported tower; the power-identity-consistent variant "
     "gives sigma_z(x) = p^-1*x"),
)


def _ore(row, case):
    _, family, params, tower, mover, over, sigma, delta, _, note = row
    return verify_ore_entry(case.case_id, _catalog(family, **params), tower,
                            mover, over, sigma, delta, case.expected, note)


def build_cases(k=10):
    """The corpus in report order.  Each case is declared once, as a table
    row or an ``add`` line; its runner (``partial(runner, row)`` for a row)
    takes the id and expected status from the case it is called with."""
    return list(_case_table(k))


@lru_cache(maxsize=16)
def _case_table(k):
    """``build_cases(k)`` as a tuple, built once per ``k`` (the cases are
    immutable)."""
    cases = []

    def add(case_id, claim, families, expected, runner):
        cases.append(VerificationCase(case_id, claim, tuple(families), expected,
                                      runner))

    for row in _POLY_IDENTITIES:
        case_id, family, _, _, expected = row
        add(case_id, "poly_identity", (family,), expected, partial(_identity, row))
    add("schmudgen-equivalence", "relation_set_equivalence", ("schmudgen",),
        "pass", partial(_equivalence, _schmudgen_pair))
    add("wess-rearranged-equivalence", "relation_set_equivalence", ("wess",),
        "pass", partial(_equivalence, _wess_rearranged_pair))
    add("gaddis-one-parameter", "relation_set_equivalence", ("gaddis",),
        "pass", partial(_equivalence, _gaddis_one_parameter_pair))
    add("gaddis-power-identities", "power_identity", ("gaddis",), "pass",
        lambda case: verify_power_identities(case.case_id, K=k,
                                             expected=case.expected))
    add("gaddis-printed-zx", "power_identity", ("gaddis",), "discrepancy",
        _case_gaddis_printed_zx)
    for row in _ORE_CASES:
        case_id, family, *_, expected, _note = row
        add(case_id, "ore_match", (family,), expected, partial(_ore, row))
    add("wess-ore-delta-doubled-hbar", "ore_match", ("wess",), "discrepancy",
        _case_wess_ore_discrepancy)
    for row in EXAMPLE_ROWS + TABLE_ROWS:
        add(row.row_id, "specialization", (row.target,), row.expected,
            partial(_specialization, row))
    add("classical-limit-normal-forms", "relation_set_equivalence",
        ("classical", "unified"), "pass", _case_classical_limit)
    return tuple(cases)


def run_suite(selection="all", k=10):
    """Run the corpus; returns reports in declaration order.

    ``selection`` is "all", a family id, a case id, or an iterable of case
    ids, each of which must name a case (ParamError names those that do
    not).  ``k`` is the largest power-identity exponent, from 1 to MAX_K.
    """
    _check_k(k, "k")
    cases = _case_table(k)
    if selection in (None, "all"):
        chosen = cases
    elif isinstance(selection, str):
        chosen = [c for c in cases
                  if c.case_id == selection or selection in c.families]
    else:
        wanted = set(selection)
        unknown = wanted - {c.case_id for c in cases}
        if unknown:
            raise ParamError(f"unknown case ids: {', '.join(sorted(unknown))}")
        chosen = [c for c in cases if c.case_id in wanted]
    if not chosen:
        raise ParamError(f"selection {selection!r} matched no cases")
    return [c.run() for c in chosen]


def suite_ok(reports):
    return all(r.ok for r in reports)


def render_table(reports):
    rows = [("case", "claim", "status", "expected", "ok")]
    for r in reports:
        rows.append((r.case_id, r.claim, r.status, r.expected,
                     "ok" if r.ok else "UNEXPECTED"))
    widths = [max(len(row[i]) for row in rows) for i in range(5)]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    total = len(reports)
    good = sum(1 for r in reports if r.ok)
    lines.append(f"{good}/{total} cases behaved as expected")
    return "\n".join(lines)


def reports_to_json(reports):
    return json.dumps({"format": "qheis-verification-report-v1",
                       "cases": [r.as_dict() for r in reports]},
                      indent=2, sort_keys=False) + "\n"
