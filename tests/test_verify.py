"""Verification corpus behavior: individual verifiers, suite wiring,
reports."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

import qheis
from qheis import (SpecializationRow, brute_force_reduce, catalog,
                   normalize, run_suite, suite_ok, verify_power_identities,
                   verify_specialization)
from qheis.coeffs import Coefficient, qnumber
from qheis.errors import OracleDivergence, ParamError
from qheis.ncpoly import Generator, NCPoly, Word
from qheis.rewrite import RewriteRule, RewriteSystem, TermOrder
from qheis.families import unified_relation_polys
from qheis.verify import (EXAMPLE_ROWS, VerificationCase, _below,
                          _coeff_pool, _cross_check, _draw, _seed,
                          ideal_membership, random_poly,
                          render_table, reports_to_json,
                          verify_relation_set_equivalence)

C = Coefficient
REPORT_SHA256 = ("f8dc08f852b20dda577e0aef4d68de35"
                 "56edd5a16b2e119fb17b68bd19fff087")


class TestBruteForce:
    def test_single_rule(self):
        cls = catalog("classical", indices=1)
        got = brute_force_reduce(cls.parse("p_1*x_1"), cls.system())
        assert got == cls.parse("x_1*p_1 - i*hbar")

    def test_against_hand_expansion(self, families):
        g = families["gaddis"]
        got = brute_force_reduce(g.parse("y*x*x"), g.system())
        assert got == g.parse("q^2*x^2*y + hbar*(q + p^-1)*x*z")
        assert got == normalize(g.parse("y*x*x"), g.system())

    def test_random_sweep_matches_normalize(self, rng, families):
        w = families["wess"]
        sysm = w.system()
        cache = {}
        gens = list(w.generators)
        for _ in range(30):
            a = NCPoly.from_word([rng.choice(gens) for _ in range(5)])
            assert brute_force_reduce(a, sysm, cache=cache) == normalize(a, sysm)

    def test_divergence_detected(self):
        pres = catalog("gaddis", variant="printed")
        with pytest.raises(OracleDivergence):
            brute_force_reduce(pres.parse("y*z*x"), pres.system())


    def test_every_rule_at_a_position_is_a_branch(self):
        # a*b and a*b*c both match a*b*c at 0; the shorter one alone leads
        # to a*c, so an oracle that tried only it would agree with normalize
        a, b, c, d = (Generator(s, None, i) for i, s in enumerate("abcd"))
        w = NCPoly.from_word
        sysm = RewriteSystem([RewriteRule(Word((a, b)), w((a,)), "ab"),
                              RewriteRule(Word((a, b, c)), w((d,)), "abc")],
                             TermOrder("deglex"))
        assert normalize(w((a, b, c)), sysm) == w((a, c))
        with pytest.raises(OracleDivergence) as exc:
            brute_force_reduce(w((a, b, c)), sysm)
        assert exc.value.forms == (w((a, c)), w((d,)))


class TestPowerIdentities:
    def test_base_case_is_defining_relation(self, families):
        g = families["gaddis"]
        lhs = normalize(g.parse("y*x"), g.system())
        assert lhs == g.parse("q*x*y + hbar*z")

    def test_k2_coefficient(self):
        assert qnumber(2) == qheis.parse_expr("q + p^-1").coefficient(())

    def test_k5_matches_oracle(self, families):
        g = families["gaddis"]
        lhs = brute_force_reduce(g.parse("y*x*x*x*x*x"), g.system())
        rhs = (g.parse("x")**5 * g.parse("y") * C.q_power(5)
               + g.parse("x")**4 * g.parse("z") * (C.hbar_power(1) * qnumber(5)))
        assert lhs == rhs

    def test_suite_runner(self):
        report = verify_power_identities(K=10)
        assert report.status == "pass"


class TestEquivalence:
    def test_membership_by_conjugation(self, families):
        # the inverse-commutation relation follows from the definition only
        # through the inverse pair u, u_inv
        s_def = catalog("schmudgen", variant="definition")
        rel = dict(catalog("schmudgen").relations)["u_inv_p"]
        ok, nf = ideal_membership(rel, s_def)
        assert ok and nf.is_zero

    def test_membership_by_scalar_combination(self, families):
        s_def = catalog("schmudgen", variant="definition")
        rel = dict(catalog("schmudgen").relations)["p_x"]
        ok, nf = ideal_membership(rel, s_def)
        assert ok and nf.is_zero

    def test_non_member_rejected(self, families):
        g = families["gaddis"]
        bogus = g.parse("y*x - x*y")
        ok, _ = ideal_membership(bogus, g)
        assert not ok

    def test_membership_completes_once(self, complete_calls):
        s_def = catalog("schmudgen", variant="definition")
        rel = catalog("schmudgen").parse("p*x*u - x*p")
        first, second = (ideal_membership(rel, s_def) for _ in range(2))
        assert len(complete_calls) == 1
        assert first == second and not first[0]

    def test_schmudgen_variants_equivalent(self):
        report = verify_relation_set_equivalence(
            "t-schm", catalog("schmudgen", variant="definition"),
            catalog("schmudgen"))
        assert report.status == "pass"

    def test_non_member_leaves_its_normal_form(self, families):
        g = families["gaddis"]
        ok, nf = ideal_membership(g.parse("y*x - x*y"), g)
        assert not ok and nf == g.parse("(q - 1)*x*y + hbar*z")

    def test_unbounded_completion_is_an_error(self):
        x, y = Generator("x", None, 0), Generator("y", None, 1)
        braid = qheis.Presentation(
            "braid", [x, y],
            [("braid", NCPoly.from_word((x, y, x)) - NCPoly.from_word((y, x, y)))])
        case = VerificationCase(
            "t-braid", "relation_set_equivalence", ("braid",), "pass",
            lambda c: verify_relation_set_equivalence(c.case_id, braid, braid))
        report = case.run()
        assert report.status == "error"
        assert report.detail.startswith("NonTermination: completion")

    def test_inequivalent_sets_fail(self, families):
        w = families["wess"]
        trimmed = qheis.Presentation(
            "wess-missing", w.generators,
            [(lab, rel) for lab, rel in w.relations if lab != "x_p"],
            inverse_pairs=w.inverse_pairs)
        report = verify_relation_set_equivalence("t-bad", w, trimmed)
        assert report.status == "fail"

    def test_no_orientable_side_compares_nothing(self):
        d = catalog("schmudgen", variant="definition")
        report = verify_relation_set_equivalence("t", d, d)
        assert report.status == "pass"
        assert report.detail == ("both inclusions certified; no random "
                                 "cross-check, as neither side orients")

    @pytest.mark.parametrize("case_id, sides, detail, witness", [
        ("t-pp", "rr", "ideal shift by z_x moved a normal form",
         "hbar^-1*z^5 + q^-1*y*x*z*y"),
        ("t-pc", "rc", "ideal shift by z_x moved a normal form", "3"),
        ("t-cp", "cr", "normal forms differ on a random polynomial",
         "hbar*z^4*x + p*x^2 + p^-1"),
        ("x", "rk", "normal forms differ on a random polynomial",
         "i*hbar*y^2*x^2*z + x^3 + 2*q^(1/2)*z"),
        ("y", "kr", "normal forms differ on a random polynomial",
         "z*y*x + z + hbar"),
        ("z", "rr", "ideal shift by z_x moved a normal form", "q^-1"),
    ])
    def test_sample_loop_failures_pinned(self, case_id, sides, detail, witness):
        # each pair generates one ideal: "zz" adds z*z, a member of printed
        # gaddis's ideal, and "k" is the presentation of its completed
        # rules.  Printed gaddis is not confluent, so under its own system
        # normal forms differ and ideal shifts move them: the cross-check,
        # run under both sides' own systems, fails as pinned.  The verifier
        # runs it under confluent sides only and passes each pair.  The
        # witnesses also pin the random stream of the samples and the shift
        # factors.
        pr = catalog("gaddis", variant="printed")
        pc = qheis.Presentation(
            "gaddis-zz", pr.generators,
            list(pr.relations) + [("zz", pr.poly("z", "z"))])
        pk = qheis.Presentation(
            "gaddis-completed", pr.generators,
            [(r.origin, NCPoly.from_word(r.lhs) - r.rhs)
             for r in pr.completed().rules])
        p1, p2 = ({"r": pr, "c": pc, "k": pk}[s] for s in sides)
        assert _cross_check(Random(_seed(case_id)), p1, p2,
                            [p1.system(), p2.system()]) == (detail, witness)
        report = verify_relation_set_equivalence(case_id, p1, p2)
        under = {"c": "gaddis-zz", "k": "gaddis-completed"}.get(
            sides.replace("r", ""))
        want = ("both inclusions certified; no random cross-check, as "
                "neither side is confluent" if under is None else
                f"both inclusions certified; 100 random polynomials agree; "
                f"cross-checked under {under} only, as gaddis_printed is not "
                f"confluent")
        assert (report.status, report.detail, report.witness) == \
            ("pass", want, None)

    def test_unified_wess_row_is_equivalent_to_wess(self, families):
        # the wess-from-unified row as a presentation: its own system is not
        # confluent (the Lambda_inv commutation rules are consequences, not
        # relations), but both sides complete to one system, so the
        # cross-check runs under wess alone
        w = families["wess"]
        row = next(r for r in EXAMPLE_ROWS if r.row_id == "wess-from-unified")
        x, y, p = (w.poly(row.rename[role]) for role in ("x", "y", "p"))
        rels = unified_relation_polys(
            row.n, row.m, row.l,
            *(qheis.parse_expr(v, w) for v in (row.psi, row.pi, row.phi)),
            x, y, p)
        u = qheis.Presentation(row.row_id, w.generators,
                               list(zip(("nH1", "nH2", "nH3"), rels)),
                               inverse_pairs=w.inverse_pairs)
        assert not u.confluent() and w.confluent()
        report = verify_relation_set_equivalence(row.row_id, u, w)
        assert (report.status, report.detail) == (
            "pass", "both inclusions certified; 100 random polynomials agree; "
                    "cross-checked under wess only, as wess-from-unified is "
                    "not confluent")

    @pytest.mark.parametrize("case_id, detail, witness", [
        ("t-wrong", "ideal shift by x_p moved a normal form",
         "q^(1/2)*p^2*Lambda^2*p + t^2*p^2*Lambda*Lambda_inv + 2*Lambda"),
        ("t-bad", "normal forms differ on a random polynomial",
         "t^2*Lambda*x*p^2*Lambda + q*Lambda_inv"),
    ])
    def test_cross_check_catches_a_wrong_completion(self, families, case_id,
                                                    detail, witness):
        # wess without x_p is confluent and generates a smaller ideal; with
        # wess's completed system standing in for its own, both inclusions
        # certify, and only the cross-check can fail the pair
        w = families["wess"]
        trimmed = qheis.Presentation(
            "wess-missing", w.generators,
            [(lab, rel) for lab, rel in w.relations if lab != "x_p"],
            inverse_pairs=w.inverse_pairs)
        trimmed.completed = w.completed
        assert w.confluent() and trimmed.confluent()
        report = verify_relation_set_equivalence(case_id, w, trimmed)
        assert (report.status, report.detail, report.witness) == \
            ("fail", detail, witness)


class TestRandomPoly:
    def test_alphabet_changes_no_draw(self, families):
        for fam, pres in families.items():
            # reversed, with a repeat: codes differ between the alphabets
            gens = list(pres.generators)[::-1] + [pres.generators[0]]
            r1, r2 = Random(5), Random(5)
            for _ in range(50):
                a = random_poly(r1, gens, max_len=5)
                b = random_poly(r2, gens, max_len=5, alphabet=pres.alphabet)
                assert a == b and list(a.terms) == list(b.terms), fam
                assert r1.getstate() == r2.getstate(), fam

    def test_below_draws_as_choice_and_randint(self):
        # the same values and the same generator state as the methods of
        # random.Random, on whatever Python runs the tests; sizes around
        # powers of two reject the most draws
        sizes = (1, 2, 3, 4, 5, 7, 8, 9, 14, 16, 17, 100)
        for seed in range(200):
            ours, ref = Random(seed), Random(seed)
            for n in sizes:
                seq = tuple(range(10, 10 + n))
                assert seq[_below(ours.getrandbits, n)] == ref.choice(seq)
                assert 1 + _below(ours.getrandbits, n) == ref.randint(1, n)
            assert ours.getstate() == ref.getstate()

    def test_draw_matches_the_random_methods(self):
        pool = _coeff_pool()
        codes = list("\x00\x01\x02\x00")
        for seed in range(200):
            ours, ref = Random(seed), Random(seed)
            for max_len in (0, 1, 5):
                want = [("".join([ref.choice(codes)
                                  for _ in range(ref.randint(0, max_len))]),
                         ref.choice(pool))
                        for _ in range(ref.randint(1, 3))]
                assert _draw(ours, codes, max_len) == want
            assert ours.getstate() == ref.getstate()

    def test_below_refuses_an_empty_range(self):
        with pytest.raises(IndexError):
            _below(Random(0).getrandbits, 0)


@pytest.fixture(scope="module")
def reports():
    return run_suite("all", k=10)


class TestSuite:
    def test_everything_behaves_as_expected(self, reports):
        assert suite_ok(reports)

    def test_worked_rows_pass_exactly_as_reported(self, reports):
        by_id = {r.case_id: r for r in reports}
        for case in ("wess-from-unified", "schmudgen-from-unified-n1",
                     "schmudgen-from-unified-n-1", "wess-schwenk-from-unified",
                     "qhbar-from-unified", "qhbar-quantization-from-unified",
                     "classical-from-unified"):
            assert by_id[case].status == "pass", case

    def test_table_rows_pass_or_annotated(self, reports):
        table = [r for r in reports if r.case_id.startswith("table-")]
        assert len(table) == 14
        for r in table:
            assert r.status in ("pass", "annotated", "discrepancy")
            if r.status != "pass":
                # a non-pass row always carries its diagnosis
                assert r.annotations or r.detail

    def test_discrepancies_documented_not_hidden(self, reports):
        by_id = {r.case_id: r for r in reports}
        for case in ("schmudgen-printed-px", "schmudgen-printed-xp",
                     "wess-ore-delta-doubled-hbar", "gaddis-printed-zx"):
            assert by_id[case].status == "discrepancy"
            assert by_id[case].witness or by_id[case].detail

    def test_family_selection(self):
        reports = run_suite("gaddis", k=5)
        assert all("gaddis" in r.case_id for r in reports)
        assert any(r.claim == "power_identity" for r in reports)

    def test_empty_selection_errors(self):
        with pytest.raises(ParamError):
            run_suite("no-such-family")

    def test_byte_determinism(self, reports):
        again = run_suite("all", k=10)
        assert reports_to_json(reports) == reports_to_json(again)

    def test_report_bytes_pinned(self, reports):
        # the whole report, every coefficient's printed text included;
        # a change that is meant to alter it updates this hash and says why
        digest = hashlib.sha256(reports_to_json(reports).encode()).hexdigest()
        assert digest == REPORT_SHA256

    def test_report_bytes_independent_of_interning_order(self):
        # opaque names interned before the catalog's own variables take the
        # low fields of the packed monomial keys; no byte may change
        code = ("import hashlib\n"
                "from qheis import Coefficient, reports_to_json, run_suite\n"
                "for name in ('zz', 'A', 'D_jk', 'D_21', 'h_0'):\n"
                "    Coefficient.opaque(name)\n"
                "text = reports_to_json(run_suite('all', k=10))\n"
                "print(hashlib.sha256(text.encode()).hexdigest())\n")
        src = str(Path(qheis.__file__).resolve().parent.parent)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, timeout=300,
                             env=dict(os.environ, PYTHONPATH=src))
        assert out.stdout.strip() == REPORT_SHA256

    def test_report_bytes_independent_of_code_order(self):
        # polynomials over alphabets in reversed precedence order, with
        # letters no presentation declares, normalized before the suite
        code = ("import hashlib\n"
                "from qheis import (NCPoly, catalog, family_ids, normalize,\n"
                "                   reports_to_json, run_suite)\n"
                "from qheis.ncpoly import Generator\n"
                "foreign = [Generator('f', i, -1 - i) for i in range(3)]\n"
                "for fam in family_ids():\n"
                "    pres = catalog(fam)\n"
                "    gens = sorted(pres.generators, key=lambda g: -g.precedence)\n"
                "    a = NCPoly({tuple(gens): 1, (foreign[0], gens[0]): 2,\n"
                "                tuple(foreign): 3})\n"
                "    normalize(a * a, pres.system())\n"
                "text = reports_to_json(run_suite('all', k=10))\n"
                "print(hashlib.sha256(text.encode()).hexdigest())\n")
        src = str(Path(qheis.__file__).resolve().parent.parent)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, timeout=300,
                             env=dict(os.environ, PYTHONPATH=src))
        assert out.stdout.strip() == REPORT_SHA256

    def test_suite_builds_each_presentation_once(self):
        # counts the catalog builds, orientations, completions and Ore
        # extractions of two runs in a fresh process, and snapshots each
        # presentation the verifiers share when it is first built or
        # oriented
        code = ("import hashlib, json, sys\n"
                "from collections import Counter\n"
                "import qheis.families as fam\n"
                "from qheis import (OrientationError, catalog, reports_to_json,\n"
                "                   run_suite, save_presentation)\n"
                "seen = {}\n"
                "def see(pres):\n"
                "    seen.setdefault(id(pres), (pres, save_presentation(pres)))\n"
                "def counted(name, builder):\n"
                "    def build(**params):\n"
                "        pres = builder(**params)\n"
                "        builds[name + repr(sorted(params.items()))] += 1\n"
                "        see(pres)\n"
                "        return pres\n"
                "    return build\n"
                "for name, (builder, *rest) in list(fam.FAMILIES.items()):\n"
                "    fam.FAMILIES[name] = (counted(name, builder), *rest)\n"
                "orient, complete = fam.orient, fam.complete\n"
                "def counted_orient(pres):\n"
                "    see(pres)\n"
                "    try:\n"
                "        sysm = orient(pres)\n"
                "    except OrientationError:\n"
                "        orients.append([id(pres), 'raised'])\n"
                "        raise\n"
                "    orients.append([id(pres), 'oriented'])\n"
                "    return sysm\n"
                "def counted_complete(*args):\n"
                "    completes.append(1)\n"
                "    return complete(*args)\n"
                "extract = fam._extract_ore\n"
                "def counted_extract(*args):\n"
                "    extracts.append(1)\n"
                "    return extract(*args)\n"
                "fam._extract_ore = counted_extract\n"
                "for mod in [m for n, m in sys.modules.items()\n"
                "            if n.split('.')[0] == 'qheis']:\n"
                "    for name, fn in (('orient', counted_orient),\n"
                "                     ('complete', counted_complete)):\n"
                "        if hasattr(mod, name):\n"
                "            setattr(mod, name, fn)\n"
                "runs = []\n"
                "for _ in range(2):\n"
                "    builds, orients, completes, extracts = Counter(), [], [], []\n"
                "    text = reports_to_json(run_suite('all', k=10))\n"
                "    runs.append({'builds': builds, 'orients': orients,\n"
                "                 'completes': len(completes),\n"
                "                 'extracts': len(extracts),\n"
                "                 'sha': hashlib.sha256(text.encode()).hexdigest()})\n"
                "changed = [p.name for p, text in seen.values()\n"
                "           if save_presentation(p) != text]\n"
                "builds = Counter()  # the calls below belong to no run\n"
                "fresh = catalog('wess') is not catalog('wess')\n"
                "print(json.dumps({'runs': runs, 'changed': changed,\n"
                "                  'fresh': fresh}))\n")
        src = str(Path(qheis.__file__).resolve().parent.parent)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, timeout=300,
                             env=dict(os.environ, PYTHONPATH=src))
        got = json.loads(out.stdout)
        first, second = got["runs"]
        assert first["builds"] and set(first["builds"].values()) == {1}
        oriented = [pid for pid, outcome in first["orients"]
                    if outcome == "oriented"]
        assert len(oriented) == len(set(oriented))
        assert first["completes"] > 0
        # ten Ore cases read three towers, each off one shared presentation
        assert first["extracts"] == 3
        assert second["builds"] == {} and second["completes"] == 0
        assert second["extracts"] == 0
        # only a presentation that does not orient is tried again
        assert all(outcome == "raised" for _, outcome in second["orients"])
        assert first["sha"] == second["sha"] == REPORT_SHA256
        assert got["changed"] == [] and got["fresh"]

    def test_row_with_unhashable_target_params(self):
        # a Coefficient parameter cannot key the shared catalog: the row
        # gets a presentation of its own
        row = SpecializationRow("t", "gaddis", {"x": "x", "y": "y", "p": "z"},
                                1, 1, 1, target_params={"p": C.q_power(1)})
        assert verify_specialization(row).status == "discrepancy"

    def test_render_table_lists_every_case(self, reports):
        table = render_table(reports)
        for r in reports:
            assert r.case_id in table

    def test_json_report_matches_schema(self, reports):
        import jsonschema
        from importlib import resources

        schema = json.loads(
            resources.files("qheis").joinpath("data/report_schema.json")
            .read_text())
        payload = json.loads(reports_to_json(reports))
        jsonschema.validate(payload, schema)

    def test_unit_reported_for_specializations(self, reports):
        by_id = {r.case_id: r for r in reports}
        assert by_id["qhbar-from-unified"].unit is not None


class TestCaseDeclaration:
    """A case's id, claim and expected status are declared once; the report
    carries them, and the failed-check rule maps an expected discrepancy to
    ``discrepancy`` and anything else to ``fail``."""

    def test_reports_carry_their_case_fields(self):
        cases = qheis.build_cases(k=3)
        assert len({c.case_id for c in cases}) == len(cases)
        for case in cases:
            r = case.run()
            assert (r.case_id, r.claim, r.expected) == \
                (case.case_id, case.claim, case.expected)

    def test_error_report_carries_case_fields(self):
        def runner(case):
            raise ParamError("boom")

        case = qheis.VerificationCase("t-err", "poly_identity", ("wess",),
                                      "pass", runner)
        r = case.run()
        assert (r.case_id, r.claim, r.status, r.expected) == \
            ("t-err", "poly_identity", "error", "pass")
        assert r.detail == "ParamError: boom"

    @pytest.mark.parametrize("expected, status", [
        ("discrepancy", "discrepancy"), ("pass", "fail"), ("annotated", "fail")])
    def test_failed_identity(self, expected, status):
        cls = catalog("classical", indices=1)
        r = qheis.verify_poly_identity("t-id", cls.parse("x_1*p_1"),
                                 cls.parse("p_1*x_1"), cls.system(), expected)
        assert r.status == status
        assert r.ok == (expected == "discrepancy")
        assert r.witness

    @pytest.mark.parametrize("expected, status", [
        ("discrepancy", "discrepancy"), ("pass", "fail"), ("annotated", "fail")])
    def test_failed_ore_entry(self, expected, status):
        r = qheis.verify.verify_ore_entry("t-ore", catalog("wess"), ("Lambda", "p", "x"),
                             "x", "p", "q^-1*p", "i*q^(-1/2)*hbar^2*Lambda",
                             expected)
        assert r.status == status
        assert r.witness

    @pytest.mark.parametrize("expected, status", [
        ("discrepancy", "discrepancy"), ("pass", "fail")])
    def test_failed_power_identity(self, expected, status):
        r = verify_power_identities(
            "t-pow", K=3, presentation=catalog("gaddis", variant="printed"),
            expected=expected)
        assert r.status == status
        assert r.detail == "y*x^2 expansion mismatch"

    def test_unreproduced_discrepancy_is_pass_not_ok(self):
        cls = catalog("classical", indices=1)
        r = qheis.verify_poly_identity("t-id", cls.parse("x_1*p_1"),
                                 cls.parse("x_1*p_1"), cls.system(),
                                 "discrepancy")
        assert r.status == "pass" and not r.ok
        r = qheis.verify.verify_ore_entry("t-ore", catalog("wess"), ("Lambda", "p", "x"),
                             "x", "p", "q^-1*p", "i*q^(-1/2)*hbar*Lambda",
                             "discrepancy")
        assert r.status == "pass" and not r.ok

    def test_failed_classical_limit(self, monkeypatch):
        # against a commuting x_1, p_1 the first sample with a word whose
        # normal forms differ fails; its witness is the whole sample
        lim, cls = qheis.verify._classical_limit_pair()
        commuting = qheis.Presentation(
            "commuting", cls.generators,
            [("xp", cls.parse("x_1*p_1 - p_1*x_1"))])
        monkeypatch.setattr(qheis.verify, "_classical_limit_pair",
                            lambda: (lim, commuting))
        case, = [c for c in qheis.verify.build_cases()
                 if c.case_id == "classical-limit-normal-forms"]
        r = case.run()
        assert (r.status, r.detail, r.witness) == \
            ("fail", "normal forms differ", "3*x_1*p_1*x_1")
