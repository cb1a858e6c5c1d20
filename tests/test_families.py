"""Catalog contents, Ore extraction, the unified family."""

import copy
import hashlib
import itertools
import pickle
from pathlib import Path

import pytest

import qheis
from qheis import (NCPoly, Presentation, UnifiedParams, catalog,
                   classical_limit, extract_ore, load_presentation_file,
                   normalize, orient, presentation_from_ore,
                   save_presentation, unified)
from qheis.coeffs import Coefficient
from qheis.families import _UNIFIED_RELATIONS
from qheis.errors import (NotOreShaped, ParamError, PoleAtPoint,
                          QheisError, UnknownFamily)
from qheis.ncpoly import Generator
from qheis.rewrite import TermOrder
from conftest import random_poly

C = Coefficient


def _table_relations(exps, fns, roles):
    """nH1-nH3 from the constructors of ``_UNIFIED_RELATIONS``, as
    ``unified()`` and the specialization check build them: ``exps`` is
    (n, m, l), ``fns`` is (psi, pi, phi) and ``roles`` maps x, y and p to
    polynomials."""
    exps = dict(zip("nml", exps))
    fns = dict(zip(("psi", "pi", "phi"), fns))
    return [make(exps[exp], fns[fn], roles[a], roles[b])
            for make, exp, fn, a, b in _UNIFIED_RELATIONS.values()]


class TestCatalog:
    def test_unknown_family(self):
        with pytest.raises(UnknownFamily):
            catalog("heisenberg-prime")

    def test_classical_count(self, families):
        # 9 cross relations + 3 + 3 commutativity pairs
        assert len(families["classical"].relations) == 15

    def test_classical_delta(self, families):
        cls = families["classical"]
        rels = dict(cls.relations)
        assert rels["xp_1_1"] == cls.parse("x_1*p_1 - p_1*x_1 - i*hbar")
        assert rels["xp_1_2"] == cls.parse("x_1*p_2 - p_2*x_1")

    def test_gaddis_relations(self, families):
        g = families["gaddis"]
        rels = dict(g.relations)
        assert rels["z_y"] == g.parse("z*y - p*y*z")
        assert rels["y_x"] == g.parse("y*x - q*x*y - hbar*z")
        # the z-x scale is p^-1 in the consistent variant, q^-1 as printed
        assert rels["z_x"] == g.parse("z*x - p^-1*x*z")
        printed = dict(catalog("gaddis", variant="printed").relations)
        assert printed["z_x"].coefficient(
            catalog("gaddis", variant="printed").word("x", "z")) == -C.q_power(-1)

    def test_gha_instance(self, families):
        g = families["gha"]
        rels = dict(g.relations)
        assert rels["h_x"] == g.parse("h*x - x*h^2")
        assert rels["y_h"] == g.parse("y*h - h^2*y")
        assert rels["y_x"] == g.parse("y*x - x*y - hbar*h^2 + hbar*h")

    def test_gha_rejects_non_h_polynomials(self):
        with pytest.raises(ParamError):
            catalog("gha", f="h*x")

    def test_parameterized_two_parameter_family(self):
        q = C.q_power(1)
        g = catalog("gaddis", p=q)
        assert g.parameters["p"] == q

    def test_wess_metadata_records_adjointness(self, families):
        assert "Lambda_inv" in families["wess"].metadata["adjoint"]


EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"

# sha256 of ``catalog_pin_lines()``; any change to a built presentation (a
# relation label, its position, a term, the order of its terms, an alphabet
# code, a parameter or an oriented rule) changes it
CATALOG_SHA256 = "8207d05aa57550a25e1448cdf3d86c699db9a7552c68d6de2d695939e9aba57c"


def _pinned_presentations():
    """Every catalog family and variant, classical with 1-3 indices and
    unified over n, m, l in {-1, 0, 1} with one and two indices; the
    classical limit of each of those, or its error; the example files."""
    built = [catalog("classical", indices=k) for k in (1, 2, 3)]
    built += [catalog(fam) for fam in qheis.family_ids() if fam != "classical"]
    built += [catalog("schmudgen", variant="definition"),
              catalog("gaddis", variant="printed")]
    for n, m, l in itertools.product((-1, 0, 1), repeat=3):
        for rng in ((1,), (1, 2)):
            built.append(unified(UnifiedParams(
                n, m, l, psi="hbar^2*q^(3/2)*y_1", pi=1, phi="i*x_1 - p",
                alpha_range=rng, lambda_range=rng, beta_range=rng)))
    out = list(built)
    for pres in built:
        try:
            out.append(classical_limit(pres))
        except QheisError as exc:
            out.append(f"{pres.name}@q=1: {type(exc).__name__}: {exc}")
    out += [load_presentation_file(str(path))
            for path in sorted(EXAMPLES.glob("*.qpres"))]
    return out


def catalog_pin_lines():
    """The saved text, each relation's terms and codes in insertion order,
    and the oriented rules (or the error) of every pinned presentation."""
    lines = []
    for pres in _pinned_presentations():
        if isinstance(pres, str):
            lines.append(pres)
            continue
        lines.append(save_presentation(pres))
        lines.append(repr([g.sym for g in pres.alphabet.letters]))
        for label, poly in pres.relations:
            lines.append(label)
            lines.append(repr(list(poly._terms)))
            lines += [f"{w!r} {c!r}" for w, c in poly.terms.items()]
        try:
            lines += [repr(rule) for rule in orient(pres).rules]
        except QheisError as exc:
            lines.append(f"{type(exc).__name__}: {exc}")
    return lines


class TestCatalogPin:
    def test_presentations_pinned(self):
        text = "\n".join(catalog_pin_lines())
        assert hashlib.sha256(text.encode()).hexdigest() == CATALOG_SHA256


class TestPresentationChecks:
    X, Y = Generator("x", None, 0), Generator("y", None, 1)

    @pytest.mark.parametrize("names, opaques, message", [
        # central hbar prints as hbar, i*x as i*x and central q as s^2
        (("hbar", "x"), (), "generator name hbar is reserved"),
        (("i", "x"), (), "generator name i is reserved"),
        (("q", "s"), (), "generator name s is reserved"),
        (("t", "p"), (), "generator name t is reserved"),
        # the kernel's hbar is h; a generator would shadow the opaque x
        (("x",), ("h",), "opaque name h is taken by a central symbol"),
        (("x",), ("x",), "opaque name x is taken by a generator"),
        (("x",), ("D", "q"), "opaque name q is taken by a central symbol"),
        # the parser reads one identifier token per symbol
        (("x",), ("D E",), "opaque name 'D E' is not one symbol"),
        (("x",), ("",), "opaque name '' is not one symbol"),
        (("x",), ("2D",), "opaque name '2D' is not one symbol"),
        (("x",), ("D-1",), "opaque name 'D-1' is not one symbol"),
    ], ids=["generator-hbar", "generator-i", "generator-s", "generator-t",
            "opaque-h", "opaque-generator", "opaque-q", "opaque-two-tokens",
            "opaque-empty", "opaque-digit-first", "opaque-operator"])
    def test_reserved_names(self, names, opaques, message):
        gens = [Generator(n, None, k) for k, n in enumerate(names)]
        with pytest.raises(ParamError, match=message):
            Presentation("r", gens, (), parameters=dict.fromkeys(opaques, "opaque"))

    def test_reserved_opaque_through_catalog(self):
        with pytest.raises(ParamError, match="opaque name hbar"):
            catalog("qhbar_quantization", opaque="hbar")

    def test_indexed_and_longer_names_are_free(self):
        gens = [Generator("i", 1, 0), Generator("hbar", 2, 1),
                Generator("s", 1, 2), Generator("sx", None, 3)]
        pres = Presentation("free", gens, (),
                            parameters={"D": "opaque", "hb": "opaque"})
        assert pres.parse("i_1*hbar_2 - i*hbar*D*hb*s_1*sx").letters() == [
            gens[0], gens[1], gens[2], gens[3]]

    def test_unknown_order_kind(self):
        # a QheisError, which the CLI and VerificationCase.run report
        for build in (lambda: TermOrder("invlx"),
                      lambda: Presentation("typo", [self.X, self.Y], (),
                                           order_kind="invlx")):
            with pytest.raises(ParamError, match="unknown term order 'invlx'"):
                build()

    def test_light_letter_is_a_generator(self):
        with pytest.raises(ParamError, match="the light letter h of wreath h "
                                             "is not a generator"):
            Presentation("no_h", [self.X, self.Y], (), order_kind="wreath h")


def _bad_tower():
    """q-commuting letters with the mover trapped in the middle."""
    a = Generator("a", None, 0)
    b = Generator("b", None, 1)
    return Presentation("bad-tower", [a, b], [
        ("r", NCPoly.from_word((b, a)) - NCPoly.from_word((a, b, b)))])


class TestOre:
    def test_wess_tower(self, families):
        w = families["wess"]
        ore = extract_ore(w, ("Lambda", "p", "x"))
        assert ore.entry("x", "Lambda") == (w.parse("q*Lambda"), NCPoly.zero())
        assert ore.entry("p", "Lambda") == (w.parse("q^-1*Lambda"), NCPoly.zero())
        sig, delt = ore.entry("x", "p")
        assert sig == w.parse("q^-1*p")
        assert delt == w.parse("i*q^(-1/2)*hbar*Lambda")

    def test_wess_schwenk_tower(self, families):
        ws = families["wess_schwenk"]
        ore = extract_ore(ws, ("x", "xbar", "p"))
        assert ore.entry("xbar", "x") == (ws.parse("q^-1*x"), NCPoly.zero())
        assert ore.entry("p", "xbar") == (ws.parse("q^-1*xbar"),
                                          ws.parse("-i*q^-1*hbar"))
        assert ore.entry("p", "x") == (ws.parse("q*x"), ws.parse("-i*hbar"))

    def test_gaddis_tower_includes_reverse_reading(self, families):
        g = families["gaddis"]
        ore = extract_ore(g, ("x", "z", "y"))
        assert ore.entry("y", "x") == (g.parse("q*x"), g.parse("hbar*z"))
        assert ore.entry("z", "y") == (g.parse("p*y"), NCPoly.zero())
        assert ore.entry("z", "x") == (g.parse("p^-1*x"), NCPoly.zero())

    def test_repeated_tower_entry(self, families):
        with pytest.raises(ParamError, match="lists x more than once"):
            extract_ore(families["wess"], ("x", "x"))

    def test_not_ore_shaped(self):
        with pytest.raises(NotOreShaped):
            extract_ore(_bad_tower(), ("a", "b"))

    @pytest.mark.hashseed
    def test_ore_extracted_once_per_presentation(self, extract_calls):
        w = catalog("wess")
        first = extract_ore(w, ("Lambda", "p", "x"))
        want = first.entry("x", "p")
        # a caller that changes its copy changes nothing the next one reads
        first.sigma[("x", "p")] = NCPoly.zero()
        first.delta.clear()
        again = extract_ore(w, (w.gen("Lambda"), "p", w.gen("x")))
        assert again.entry("x", "p") == want
        assert again.sigma is not first.sigma
        assert len(extract_calls) == 1
        # another tower of the same presentation, and a new presentation,
        # are extracted anew
        extract_ore(w, ("Lambda", "x"))
        fresh = extract_ore(catalog("wess"), ("Lambda", "p", "x"))
        assert fresh == again and len(extract_calls) == 3

    @pytest.mark.parametrize("make, tower, error", [
        (lambda: catalog("wess"), ("x", "x"), ParamError),
        (_bad_tower, ("a", "b"), NotOreShaped),
    ])
    def test_raising_tower_keeps_its_error(self, extract_calls, make, tower,
                                           error):
        # the second call raises the first one's error without extracting
        pres = make()
        messages = []
        for _ in range(2):
            with pytest.raises(error) as info:
                extract_ore(pres, tower)
            messages.append(str(info.value))
        assert len(extract_calls) == 1 and messages[0] == messages[1]

    def test_copies_after_extraction(self, extract_calls):
        w = catalog("wess")
        ore = extract_ore(w, ("Lambda", "p", "x"))
        for copied in (copy.deepcopy(w), pickle.loads(pickle.dumps(w))):
            assert copied == w
            assert save_presentation(copied) == save_presentation(w)
            # the copy keeps the data: it reads it without extracting
            assert extract_ore(copied, ("Lambda", "p", "x")) == ore
        assert len(extract_calls) == 1

    def test_round_trip(self, rng, families):
        for fam, tower in (("wess", ("Lambda", "p", "x")),
                           ("wess_schwenk", ("x", "xbar", "p")),
                           ("gaddis", ("x", "z", "y"))):
            pres = families[fam]
            ore = extract_ore(pres, tower)
            gens = [pres.gen(s) for s in tower]
            rebuilt = presentation_from_ore(ore, f"{fam}-rebuilt", gens)
            sys_a, sys_b = pres.system(), rebuilt.system()
            for _ in range(100):
                a = random_poly(rng, gens, max_len=4)
                assert normalize(a, sys_a) == normalize(a, sys_b), fam


class TestUnified:
    def test_rejects_non_integer_exponents(self):
        with pytest.raises(ParamError):
            UnifiedParams(n=1.5, m=1, l=1)

    def test_classical_parameter_row(self):
        uni = unified(UnifiedParams(1, 1, 1, psi="1", pi="0", phi="0"))
        rels = dict(uni.relations)
        assert rels["xp_1_1"] == uni.parse("x_1*p_1 - q*p_1*x_1 - i*hbar")
        assert rels["xy_1_1"] == uni.parse("q*x_1*y_1 - y_1*x_1")
        assert rels["yp_1_1"] == uni.parse("q*y_1*p_1 - q^2*p_1*y_1")

    def test_wess_row_recovers_rearranged_relation(self):
        # n = -1 with psi = hbar^2 q^(3/2) y gives x p - q^-1 p x - i hbar q^(-1/2) y
        uni = unified(UnifiedParams(-1, -1, -1, psi="hbar^2*q^(3/2)*y_1"))
        rels = dict(uni.relations)
        assert rels["xp_1_1"] == uni.parse(
            "x_1*p_1 - q^-1*p_1*x_1 - i*hbar*q^(-1/2)*y_1")

    def test_index_ranges(self):
        uni = unified(UnifiedParams(1, 1, 1, psi="1", alpha_range=(1, 2),
                                    lambda_range=(1,), beta_range=(1, 2)))
        labels = {lab for lab, _ in uni.relations}
        assert {"xp_1_1", "xp_1_2", "xp_2_1", "xp_2_2", "xy_1_1", "xy_2_1",
                "yp_1_1", "yp_1_2"} <= labels

    @pytest.mark.parametrize("functions", [
        ("0", "0", "0"),
        ("2*p*x + hbar*y", "q^-1*y*x - x", "p*y + 3"),
    ], ids=("zero", "nonzero"))
    def test_relations_match_their_text(self, functions):
        # each relation equals its defining formula parsed from text, with
        # its words in the same order; a zero function leaves no term
        scope = Presentation("t", [Generator("x", None, 0),
                                   Generator("y", None, 1),
                                   Generator("p", None, 2)], ())
        roles = {g: scope.poly(g) for g in "xyp"}
        fns = [scope.parse(f) for f in functions]
        zeros = [NCPoly.from_scalar(0)] * 3
        texts = ("x*p - q^({n})*p*x - i*q^({n1})*hbar^({n})*({0})",
                 "q^({m})*x*y - y*x + i*(q - 1)^({m1})*hbar^({m1})*({1})",
                 "q^({l})*y*p - q^({l1})*p*y - i*hbar^({l})*({2})")
        for n, m, l in itertools.product(range(-2, 3), repeat=3):
            rels = _table_relations((n, m, l), fns, roles)
            if functions[0] == "0":
                assert [r._terms for r in rels] == [
                    r._terms for r in _table_relations((n, m, l), zeros,
                                                       roles)]
            for rel, text in zip(rels, texts):
                want = scope.parse(text.format(*functions, n=n, m=m, l=l,
                                               n1=n - 1, m1=m - 1, l1=l + 1))
                assert rel == want
                assert list(rel._terms) == list(want._terms)
                assert rel.alphabet.letters == want.alphabet.letters

    def test_pole_guard_in_classical_limit(self):
        uni = unified(UnifiedParams(1, 0, 1, psi="1", pi="1"))
        with pytest.raises(PoleAtPoint):
            classical_limit(uni)

    def test_classical_limit_relations(self):
        uni = unified(UnifiedParams(1, 1, 1, psi="1"))
        lim = classical_limit(uni)
        rels = dict(lim.relations)
        assert rels["xp_1_1"] == lim.parse("x_1*p_1 - p_1*x_1 - i*hbar")
        assert rels["xy_1_1"] == lim.parse("x_1*y_1 - y_1*x_1")
        assert rels["yp_1_1"] == lim.parse("y_1*p_1 - p_1*y_1")
