"""Expression grammar, printers, presentation documents."""

import gc
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qheis
from qheis import (catalog, format_expr, load_presentation, parse_expr,
                   save_presentation)
from qheis.coeffs import Coefficient
from qheis.errors import ParseError, QheisError, SchemaError
from qheis.ncpoly import NCPoly
from qheis.parser import MAX_NESTING, MAX_POWER, MAX_TERMS
from qheis.printer import parse_machine

from reference import evaluate, expression_text

C = Coefficient


class TestParse:
    def test_three_term_relation(self, families):
        g = families["gaddis"]
        poly = parse_expr("y*x - q*x*y - hbar*z", g)
        assert len(poly.terms) == 3
        assert poly.coefficient(g.word("x", "y")) == -C.q_power(1)

    def test_half_powers(self, families):
        w = families["wess"]
        poly = parse_expr("q^(1/2)*x*p - q^(-1/2)*p*x - i*hbar*Lambda", w)
        assert poly == dict(w.relations)["x_p"]

    def test_commutator_sugar(self, families):
        g = families["gaddis"]
        assert (parse_expr("[y, x] - hbar*z", g)
                == g.parse("y*x - x*y - hbar*z"))

    def test_generator_shadows_central(self, families):
        # in an alphabet with a generator p, bare p is the generator and the
        # central parameter is reached through its base root t
        w = families["wess"]
        poly = parse_expr("p", w)
        assert list(poly.terms) == [w.word("p")]
        assert parse_expr("t^2", w).coefficient(()) == C.p_power(1)

    def test_opaque_symbol(self, families):
        qz = families["qhbar_quantization"]
        poly = parse_expr("i*hbar*D_jk", qz)
        assert poly.coefficient(()) == C.imag() * C.hbar_power(1) * C.opaque("D_jk")

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("q^(1/3*", None)
        assert exc.value.position is not None

    def test_unexpected_character_after_whitespace(self, families):
        text = "x + \t \n\n  $ y"
        with pytest.raises(ParseError) as exc:
            parse_expr(text, families["gaddis"])
        assert str(exc.value) == "unexpected character '$' at 10"
        assert exc.value.position == 10 == text.index("$")

    def test_non_ascii_character(self, families):
        with pytest.raises(ParseError) as exc:
            parse_expr("x*\u00e9", families["gaddis"])
        assert str(exc.value) == "unexpected character '\u00e9' at 2"
        assert exc.value.position == 2

    def test_unknown_symbol_suggestion(self, families):
        with pytest.raises(ParseError) as exc:
            parse_expr("Lambd*x", families["wess"])
        assert "Lambda" in str(exc.value)

    def test_fractional_power_restricted(self, families):
        with pytest.raises(ParseError):
            parse_expr("hbar^(1/2)", families["wess"])
        with pytest.raises(ParseError):
            parse_expr("q^(1/3)", families["wess"])

    def test_negative_generator_power(self, families):
        with pytest.raises(ParseError):
            parse_expr("x^-1", families["wess"])

    def test_nesting_limit(self, families):
        g = families["gaddis"]
        n = MAX_NESTING
        assert parse_expr("(" * n + "x" + ")" * n, g) == g.parse("x")
        for text in ("(" * (n + 1) + "x" + ")" * (n + 1),
                     "[x," * (n + 1) + "y" + "]" * (n + 1)):
            with pytest.raises(ParseError) as exc:
                parse_expr(text, g)
            assert f"nested deeper than {n}" in str(exc.value)

    def test_power_limit(self, families):
        g = families["gaddis"]
        with pytest.raises(ParseError) as exc:
            parse_expr(f"x^{MAX_POWER + 1}", g)
        assert f"exceeds the limit {MAX_POWER}" in str(exc.value)
        with pytest.raises(ParseError):
            parse_expr(f"(q - 1)^-{MAX_POWER + 1}", g)
        assert parse_expr(f"q^{MAX_POWER}", g) == NCPoly.from_scalar(C.q_power(MAX_POWER))

    def test_term_limit(self, families):
        g = families["gaddis"]
        # 2^16 words are formed before the next doubling is refused
        for text in ("(x+y)^40", "(x+y)^9*(x+y)^9", "[(x+y)^9, (x+y)^9]"):
            with pytest.raises(ParseError) as exc:
                parse_expr(text, g)
            assert f"exceeds the limit of {MAX_TERMS} terms" in str(exc.value)
        assert len(parse_expr("(x+1)^30", g).terms) == 31

    def test_coefficient_limit(self):
        # (q+1+hbar)^64 would square 561 numerator terms; the power is
        # refused before that product instead of expanding for seconds
        t0 = time.perf_counter()
        with pytest.raises(ParseError) as exc:
            parse_expr("(q+1+hbar)^100")
        assert time.perf_counter() - t0 < 5.0
        assert exc.value.position == 10
        assert (f"of 561 and 561 numerator terms exceeds the limit of "
                f"{MAX_TERMS} terms") in str(exc.value)
        with pytest.raises(ParseError):
            parse_expr("(q+1+hbar)^-100")
        base = C.q_power(1) + 1 + C.hbar_power(1)
        assert parse_expr("(q+1+hbar)^20").coefficient(()) == base ** 20
        assert parse_expr("(q+1+hbar)^-3").coefficient(()) == base ** -3
        assert parse_expr("0^0") == NCPoly.one()

    @pytest.mark.parametrize("text, position", [
        ("(q+1+hbar)^-40 + (q+2+hbar)^-40", 15),
        ("(q+1+hbar)^-40*x - (q+2+hbar)^-40*x", 17),
        ("[(q+1+hbar)^-40*x + (q+2+hbar)^-40*y, x + y]", 0)])
    def test_sum_limit(self, families, text, position):
        # cross-multiplying the two 861-term denominators is refused
        # before it is formed
        t0 = time.perf_counter()
        with pytest.raises(ParseError) as exc:
            parse_expr(text, families["gaddis"])
        assert time.perf_counter() - t0 < 5.0
        assert exc.value.position == position
        assert (f"of 861 and 861 denominator terms exceeds the limit of "
                f"{MAX_TERMS} terms") in str(exc.value)

    def test_sums_within_limit(self):
        a, b = (C.q_power(1) + n + C.hbar_power(1) for n in (1, 2))
        assert parse_expr("(q+1+hbar)^-3 + (q+2+hbar)^-3").coefficient(()) == \
            a ** -3 + b ** -3
        # 325^2 pairings, but over one denominator
        assert parse_expr("(q+1+hbar)^-24 - 2*(q+1+hbar)^-24").coefficient(()) == \
            -a ** -24

    @pytest.mark.parametrize("text, position", [
        ("1/0*x", 2), ("q^(1/0)", 5), ("q^(-3/0)", 6), ("1" * 5000 + "*x", 0),
        ("x^" + "9" * 5000, 2)])
    def test_bad_literal_is_parse_error(self, families, text, position):
        with pytest.raises(ParseError) as exc:
            parse_expr(text, families["gaddis"])
        assert exc.value.position == position

    def test_scalar_group_power(self):
        poly = parse_expr("(q - 1)^-2", None)
        assert poly.coefficient(()) == (C.q_power(1) - 1) ** -2

    def test_rational_scalar(self):
        assert parse_expr("3/4", None).coefficient(()) == C.from_gauss("3/4")
        assert parse_expr("6/4", None).coefficient(()) == C.from_gauss("3/2")
        assert parse_expr("0/7", None).is_zero


# Expressions built from the grammar's tokens.  Integers stay small (plus
# one literal past the interpreter's digit limit) so that nested powers of
# scalar groups stay cheap.
_INTS = st.one_of(st.sampled_from(["0", "1", "2", "3"]),
                  st.just(5000).map(lambda n: "1" * n))
_NAMES = st.sampled_from(["x", "y", "z", "q", "p", "hbar", "i", "s", "w", "Foo"])
_NUMBERS = st.one_of(_INTS, st.tuples(_INTS, _INTS).map("/".join))
_EXPONENTS = st.one_of(
    _INTS, _INTS.map("-{}".format),
    st.tuples(st.sampled_from(["", "-"]), _NUMBERS).map("({0[0]}{0[1]})".format))
_ATOMS = st.one_of(_NUMBERS, _NAMES)
_EXPRS = st.recursive(
    st.one_of(_ATOMS, st.tuples(_ATOMS, _EXPONENTS).map("^".join)),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*"]), inner).map("".join),
        inner.map("({})".format),
        st.tuples(inner, _EXPONENTS).map("({0[0]})^{0[1]}".format),
        st.tuples(inner, inner).map("[{0[0]},{0[1]}]".format)),
    max_leaves=6)
_TOKENS = st.one_of(_INTS, _NAMES, st.sampled_from(list("/^()[],+-*")))
_SOUPS = st.lists(_TOKENS, max_size=12).map(" ".join)


class TestParseFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_EXPRS, _SOUPS))
    def test_only_engine_errors_escape(self, families, text):
        try:
            parse_expr(text, families["gaddis"])
        except QheisError:
            pass


# Expression trees (see tests/reference.py) that parse without error: no
# negative power of zero or of a word, half-integers on q and p only.
# gaddis has a central p, wess shadows it with a generator, classical has
# indexed names and qhbar_quantization an opaque symbol.
_DIFF_PRESENTATIONS = {fam: catalog(fam) for fam in
                       ("gaddis", "wess", "classical", "qhbar_quantization")}
_WORD_EXPS = [None, None, "0", "1", "3", "(2)", "(4/2)"]
_SCALAR_EXPS = [None, None, "2", "-1", "(-2)", "(3/1)"]
_HALF_EXPS = [None, "2", "-1", "(1/2)", "(-3/2)", "(4/2)"]
_GROUP_EXPS = [None, None, None, "0", "2"]


def _factors(atoms, exps):
    return st.tuples(atoms, st.sampled_from(exps))


def _choose(atoms, exps, rule):
    """Factors of ``atoms``, each with an exponent from the list
    ``exps[rule(text)]`` for the atom's text."""
    return st.tuples(atoms, *map(st.sampled_from, exps)).map(
        lambda d: (d[0], d[1 + rule(d[0][1])]))


def _expressions(pres):
    gens = sorted(pres.generator_map)
    symbols = [n for n in ("i", "hbar", "q", "p", "s", "t") if n not in gens]
    symbols += sorted(pres.opaque_names)
    gen = _factors(st.sampled_from(gens).map(lambda g: ("gen", g)), _WORD_EXPS)
    leaf = st.one_of(
        gen, gen,
        _choose(st.sampled_from(symbols).map(lambda n: ("sym", n)),
                (_SCALAR_EXPS, _HALF_EXPS), lambda n: n in ("q", "p")),
        _choose(st.sampled_from(["0", "1", "2", "3/4", "12"]).map(lambda t: ("num", t)),
                (_SCALAR_EXPS, _GROUP_EXPS), lambda t: t == "0"))

    def expressions(factors):
        term = st.lists(factors, min_size=1, max_size=4)
        return st.tuples(st.booleans(), st.lists(
            st.tuples(st.sampled_from("+-"), term), min_size=1, max_size=3))

    def nested(inner):
        groups = st.one_of(inner.map(lambda e: ("paren", e)),
                           st.tuples(st.just("comm"), inner, inner))
        return expressions(st.one_of(leaf, _factors(groups, _GROUP_EXPS)))

    return st.recursive(expressions(leaf), nested, max_leaves=4)


_DIFF_CASES = st.one_of(*(st.tuples(st.just(fam), _expressions(pres))
                          for fam, pres in sorted(_DIFF_PRESENTATIONS.items())))


class TestParseDifferential:
    @settings(max_examples=200, deadline=None)
    @given(_DIFF_CASES)
    def test_parse_equals_reference(self, case):
        fam, tree = case
        pres = _DIFF_PRESENTATIONS[fam]
        text = expression_text(tree)
        got, want = parse_expr(text, pres), evaluate(tree, pres)
        assert got == want, text
        assert got.alphabet.letters == want.alphabet.letters, text

    def test_tables_do_not_outlive_their_presentation(self):
        # each presentation owns its name->code table; one keyed by a dead
        # alphabet's id would hand out codes of another family's alphabet
        fams = ("gaddis", "wess", "classical", "qhbar_quantization", "schmudgen")
        for n in range(300):
            pres = catalog(fams[n % len(fams)])
            syms = [g.sym for g in pres.generators]
            text = "*".join(reversed(syms)) + f" + 2*{syms[0]}^2"
            poly = parse_expr(text, pres)
            assert poly.letters() == list(reversed(pres.generators))
            assert parse_expr(format_expr(poly, "plain"), pres) == poly
            del pres, poly
            if n % 30 == 0:
                gc.collect()


class TestParseErrorsInTerms:
    @pytest.mark.parametrize("text, message, position", [
        ("x*y*", "expected an expression, found '' at 4", 4),
        ("x*y*^2", "expected an expression, found '^' at 4", 4),
        ("x*y*w", "unknown symbol 'w' at 4", 4),
        ("x*y*xx", "unknown symbol 'xx' at 4; did you mean 'x'?", 4),
        ("x*y^-1", "negative power of a generator expression at 3", 3),
        ("x*y^(1/2)", "fractional exponent 1/2 allowed on q and p only (at 3)", 3),
        ("x*y^", "expected int, found end of input at 4", 4),
        ("x*y^(2", "expected ')', found end of input at 6", 6),
        ("x*(y", "expected ')', found end of input at 4", 4),
        ("x*y)", "expected end, found ')' at 3", 3),
        ("[x*y x]", "expected ',', found 'x' at 5", 5),
        ("[x*y, x", "expected ']', found end of input at 7", 7),
    ])
    def test_message_and_position(self, families, text, message, position):
        with pytest.raises(ParseError) as exc:
            parse_expr(text, families["gaddis"])
        assert str(exc.value) == message
        assert exc.value.position == position

    # a 100128-term coefficient (two 224 x 224 products that share 224
    # terms), and 243 words times 601 terms, each times a generator run
    @pytest.mark.parametrize("text, position, sizes", [
        ("((q+1)^223*(hbar+1)^223 + (t+1)^223*(hbar+1)^223)*x*y", 49,
         "100128 and 1"),
        ("x*y*((q+1)^223*(hbar+1)^223 + (t+1)^223*(hbar+1)^223)", 3,
         "1 and 100128"),
        ("((1+q)^300*(x+y+z)^5 + (1+t)^300*(x+y+z)^5)*x*y", 43, "146043 and 1"),
        ("x*y*((1+q)^300*(x+y+z)^5 + (1+t)^300*(x+y+z)^5)", 3, "1 and 146043"),
    ])
    def test_term_limit_in_a_generator_run(self, families, text, position, sizes):
        with pytest.raises(ParseError) as exc:
            parse_expr(text, families["gaddis"])
        assert str(exc.value) == (f"product at {position} of {sizes} numerator "
                                  f"terms exceeds the limit of {MAX_TERMS} terms")
        assert exc.value.position == position


class TestFormat:
    def test_plain_momentum(self):
        cls = catalog("classical", indices=1)
        assert (format_expr(cls.normalize("p_1*x_1"), "plain")
                == "x_1*p_1 - i*hbar")

    def test_plain_power_identity_shape(self, families):
        g = families["gaddis"]
        assert (format_expr(g.normalize("y*x*x"), "plain")
                == "q^2*x^2*y + hbar*(q + p^-1)*x*z")

    def test_zero_everywhere(self):
        for style in ("plain", "latex", "machine"):
            out = format_expr(NCPoly.zero(), style)
            assert out == "0" or '"terms":[]' in out

    def test_latex(self, families):
        w = families["wess"]
        out = format_expr(w.normalize("x*p"), "latex")
        assert r"\hbar" in out and r"\hat{\Lambda}" in out
        assert "q^{-1/2}" in out

    def test_latex_solved_form(self, families):
        s = families["schmudgen"]
        out = format_expr(s.parse("i*(q^(3/2) - q^(-1/2))*u*hbar"), "latex")
        assert out == r"i \hbar (q^{3/2} - q^{-1/2}) \hat{u}"

    def test_without_scope_the_letters_in_use_decide(self, families):
        # wess's generator p shadows the central p, which prints as the
        # square root t only where the polynomial itself uses that generator
        w = families["wess"]
        assert format_expr(w.parse("t*x")) == "p^(1/2)*x"
        assert format_expr(w.parse("t*x + p")) == "t*x + p"
        assert format_expr(w.parse("t*x"), scope=w) == "t*x"

    def test_machine_round_trip(self, families):
        g = families["gaddis"]
        a = g.normalize("y*y*x")
        assert parse_machine(format_expr(a, "machine")) == a

    @pytest.mark.parametrize("text, path", [
        ('{"format":"qheis-poly-v1","terms":[{"word":[],'
         '"num":[[5,"1","0"]],"den":[[[],"1","0"]]}]}', "terms[0].num"),
        ('{"format":"qheis-poly-v1","terms":[{"word":[],'
         '"num":[[[],"x","0"]],"den":[[[],"1","0"]]}]}', "terms[0].num"),
        ('{"format":"qheis-poly-v1","terms":[{"word":[["x",null,0]],'
         '"num":[[[],"1","0"]],"den":[[[],"1","0"]]},{"word":[["x",null,1]],'
         '"num":[[[],"1","0"]],"den":[[[],"1","0"]]}]}', "terms"),
        ("not json", "document"),
        ("[]", "format"),
        ('{"format":"qheis-poly-v2","terms":[]}', "format"),
    ])
    def test_malformed_machine_text_is_schema_error(self, text, path):
        with pytest.raises(SchemaError) as exc:
            parse_machine(text)
        assert exc.value.path == path

    def test_plain_round_trip_all_families(self, rng, families, coeff_pool):
        for fam, pres in families.items():
            gens = list(pres.generators)
            for _ in range(500):
                terms = {}
                for _ in range(rng.randint(1, 4)):
                    word = tuple(rng.choice(gens)
                                 for _ in range(rng.randint(0, 4)))
                    terms[word] = terms.get(word, C.zero()) + rng.choice(coeff_pool)
                a = NCPoly(terms)
                text = format_expr(a, "plain", scope=pres)
                assert parse_expr(text, pres) == a, (fam, text)


class TestPresentationDocs:
    def test_round_trip_all_families(self, families):
        for fam, pres in families.items():
            assert load_presentation(save_presentation(pres)) == pres, fam

    def test_undeclared_generator(self):
        doc = ("qheis-presentation 1\n"
               "name: broken\n"
               "generator: x\n"
               "relation: r : x*y - y*x\n")
        with pytest.raises(SchemaError) as exc:
            load_presentation(doc)
        assert "y" in str(exc.value)

    def test_opaque_declaration(self):
        doc = ("qheis-presentation 1\n"
               "name: opq\n"
               "generator: x\n"
               "generator: p\n"
               "opaque: D\n"
               "relation: r : x*p - q*p*x - i*hbar*D\n")
        pres = load_presentation(doc)
        assert pres.parameters["D"] == "opaque"
        rel = dict(pres.relations)["r"]
        assert rel.coefficient(()) == -C.imag() * C.hbar_power(1) * C.opaque("D")

    @pytest.mark.parametrize("lines, message", [
        ("generator: x\ngenerator: hbar\n", "generator name hbar is reserved"),
        ("generator: i\ngenerator: x\n", "generator name i is reserved"),
        ("generator: q\ngenerator: s\n", "generator name s is reserved"),
        ("generator: x\nopaque: h\n", "opaque name h is taken"),
        ("generator: x\nopaque: x\n", "opaque name x is taken by a generator"),
        ("generator: x\nopaque: D E\n", "opaque name 'D E' is not one symbol"),
        ("generator: x\nopaque:\n", "opaque name '' is not one symbol"),
    ], ids=["generator-hbar", "generator-i", "generator-s", "opaque-h",
            "opaque-generator", "opaque-two-tokens", "opaque-empty"])
    def test_reserved_names(self, lines, message):
        doc = f"qheis-presentation 1\nname: r\n{lines}relation: c : x*x\n"
        with pytest.raises(SchemaError, match=message) as exc:
            load_presentation(doc)
        assert exc.value.path == "presentation"

    def test_generator_errors_come_before_relation_errors(self):
        doc = ("qheis-presentation 1\nname: r\ngenerator: x\ngenerator: x\n"
               "relation: c : x*(y\n")
        with pytest.raises(SchemaError, match="declared twice") as exc:
            load_presentation(doc)
        assert exc.value.path == "presentation"

    @pytest.mark.parametrize("value, expected", [
        ("-3", -3), ("007", 7), ("0", 0),
        ("1/2", parse_expr("1/2").coefficient(())),
        ("2*q^0", C.from_scalar(2)), ("q", C.q_power(1)),
    ])
    def test_integer_params_stay_integers(self, value, expected):
        doc = f"qheis-presentation 1\nname: r\ngenerator: x\nparam: k = {value}\n"
        got = load_presentation(doc).parameters["k"]
        assert got == expected and type(got) is type(expected)

    def test_missing_header(self):
        with pytest.raises(SchemaError):
            load_presentation("name: x\n")

    def test_bad_key_names_line(self):
        doc = "qheis-presentation 1\nname: a\nwobble: 3\n"
        with pytest.raises(SchemaError) as exc:
            load_presentation(doc)
        assert exc.value.path == "line[3]"

    def test_loaded_presentation_is_usable(self, tmp_path, families):
        from qheis import load_presentation_file, save_presentation_file

        path = tmp_path / "wess.qpres"
        save_presentation_file(families["wess"], path)
        back = load_presentation_file(path)
        assert back.normalize("x*p") == back.parse(
            "q^-1*p*x + i*hbar*q^(-1/2)*Lambda")
