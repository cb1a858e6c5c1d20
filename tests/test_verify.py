"""Verification corpus behavior: individual verifiers, suite wiring,
reports."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qheis
from qheis import (SpecializationRow, brute_force_reduce, catalog,
                   normalize, run_suite, suite_ok, verify_power_identities,
                   verify_specialization)
from qheis.coeffs import Coefficient, qnumber
from qheis.errors import OracleDivergence, OracleOverflow, ParamError
from qheis.ncpoly import Generator, NCPoly, Word
from qheis.rewrite import RewriteRule, RewriteSystem, TermOrder
from qheis.families import _UNIFIED_RELATIONS
from qheis.verify import (EXAMPLE_ROWS, MAX_K, TABLE_ROWS, VerificationCase,
                          _ROLES, _catalog, _check_row_values, _cross_check,
                          _gaddis_one_parameter_pair, _power_expansions,
                          _wess_rearranged_pair, ideal_membership,
                          render_table, reports_to_json,
                          verify_relation_set_equivalence)

C = Coefficient
REPORT_SHA256 = ("9a7e073d3aea4d14e3375e1f68aec989"
                 "0e30732ea1c7dd9df1adcc670a033f35")


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

    def test_expansions_carry_the_powers(self, families):
        # x^k, y^k and the powers k - 1 carried across k give the products
        # and claims built from x**k and y**k, with their words in order
        g = families["gaddis"]
        x, z, y = g.poly("x"), g.poly("z"), g.poly("y")
        got = list(_power_expansions(g, 6))
        assert len(got) == 12
        for k in range(1, 7):
            q, tail = C.q_power(k), C.hbar_power(1) * qnumber(k)
            want = ((f"y*x^{k}", y * x**k,
                     x**k * y * q + x**(k - 1) * z * tail),
                    (f"y^{k}*x", y**k * x,
                     x * y**k * q + z * y**(k - 1) * tail))
            for (text, lhs, claim), (wtext, wlhs, wclaim) in zip(
                    got[2 * k - 2:2 * k], want):
                assert text == wtext
                assert list(lhs._terms.items()) == list(wlhs._terms.items())
                assert list(claim._terms.items()) == \
                    list(wclaim._terms.items())

    @pytest.mark.parametrize("K", [0, -3])
    def test_no_exponent_is_refused(self, K):
        # an empty range of k would pass without checking anything
        with pytest.raises(ParamError, match="at least 1"):
            verify_power_identities(K=K)

    def test_exponent_past_the_limit_is_refused(self):
        # a direct call takes the bound of run_suite and the CLI, and is
        # refused before any power is formed
        with pytest.raises(ParamError, match=f"at most {MAX_K}"):
            verify_power_identities(K=MAX_K + 1)
        with pytest.raises(ParamError, match=f"at most {MAX_K}"):
            run_suite("gaddis", k=MAX_K + 1)


class TestWorkGuard:
    """Work the verifiers leave out, counted by calls rather than timed."""

    @staticmethod
    def _count(monkeypatch, cls):
        calls = []
        pow_ = cls.__pow__

        def counted(self, k):
            calls.append(k)
            return pow_(self, k)

        monkeypatch.setattr(cls, "__pow__", counted)
        return calls

    def test_no_coefficient_power_without_pi(self, monkeypatch):
        # nH2's pi term is the only coefficient power of a row check: with
        # pi = 0 (33 of the 34 checks of the corpus rows), (q - 1)^(m - 1)
        # is never formed
        calls = self._count(monkeypatch, Coefficient)
        checks = []
        for row in EXAMPLE_ROWS + TABLE_ROWS:
            target = _catalog(row.target, **row.target_params)
            for _, overrides in (("as printed", {}),) + tuple(row.attempts):
                values = row.replace(**overrides)
                calls.clear()
                _check_row_values(values, target)
                checks.append((values.pi, len(calls)))
        assert len(checks) == 34
        assert [n for pi, n in checks if pi == "0"] == [0] * 33
        assert [n for pi, n in checks if pi != "0"] == [1]

    def test_power_loop_takes_no_polynomial_power(self, monkeypatch):
        calls = self._count(monkeypatch, NCPoly)
        assert verify_power_identities(K=10).status == "pass"
        assert calls == []


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

    def test_failed_inclusion_reproduces_a_discrepancy(self, families):
        w = families["wess"]
        trimmed = qheis.Presentation(
            "wess-missing", w.generators,
            [(lab, rel) for lab, rel in w.relations if lab != "x_p"],
            inverse_pairs=w.inverse_pairs)
        report = verify_relation_set_equivalence("t-bad", w, trimmed,
                                                 expected="discrepancy")
        assert (report.status, report.ok, report.detail) == (
            "discrepancy", True,
            "relation x_p of wess not certified in wess-missing")

    def test_no_orientable_side_compares_nothing(self):
        d = catalog("schmudgen", variant="definition")
        report = verify_relation_set_equivalence("t", d, d)
        assert report.status == "pass"
        assert report.detail == ("both inclusions certified; no cross-check, "
                                 "as neither side orients")

    @pytest.mark.hashseed
    @pytest.mark.parametrize("case_id, fresh", [("t-pp", False), ("z", True)],
                             ids=("t-pp-rr-ideal shift by z_x moved a normal "
                                  "form", "z-rr-ideal shift by z_x moved a "
                                  "normal form"))
    def test_sample_loop_failures_pinned(self, case_id, fresh):
        # printed gaddis against itself, as one object ("t-pp") and as two
        # built alike ("z"): each presentation keeps its own system(),
        # confluent() and completed(), and the verdict must not depend on
        # whether the two sides share them.  Run ungated, the cross-check
        # passes, as each relation is the redex of its own rule; its own
        # system is not confluent, so the verifier compares nothing and
        # says so
        p1 = catalog("gaddis", variant="printed")
        p2 = catalog("gaddis", variant="printed") if fresh else p1
        assert (p1 is p2) != fresh
        assert _cross_check(p1, p2, (True, True)) == (
            True, "every relation of the other side normalizes to zero "
                  "under both sides", None)
        report = verify_relation_set_equivalence(case_id, p1, p2)
        assert (report.status, report.detail, report.witness) == (
            "pass", "both inclusions certified; no cross-check, as neither "
                    "side is confluent", None)

    @pytest.mark.hashseed
    @pytest.mark.parametrize("sides, detail", [
        ("rc", "relation zz of gaddis-zz does not normalize to zero under "
               "gaddis_printed"),
        ("cr", "relation zz of gaddis-zz does not normalize to zero under "
               "gaddis_printed"),
        ("rk", "relation z_y/z_x of gaddis-completed does not normalize to "
               "zero under gaddis_printed"),
        ("kr", "relation z_y/z_x of gaddis-completed does not normalize to "
               "zero under gaddis_printed"),
    ], ids=("rc", "cr", "rk", "kr"))
    def test_own_rules_of_printed_gaddis_pinned(self, sides, detail):
        # each pair generates one ideal: "zz" adds z*z, a member of printed
        # gaddis's ideal, and "k" is the presentation of its completed
        # rules.  Printed gaddis is not confluent, so a member need not
        # vanish under its own system: the cross-check, run under both
        # sides' own systems, fails as pinned.  The verifier runs it under
        # the confluent side only and passes each pair.
        pr = catalog("gaddis", variant="printed")
        pc = qheis.Presentation(
            "gaddis-zz", pr.generators,
            list(pr.relations) + [("zz", pr.poly("z", "z"))])
        pk = qheis.Presentation(
            "gaddis-completed", pr.generators,
            [(r.origin, NCPoly.from_word(r.lhs) - r.rhs)
             for r in pr.completed().rules])
        p1, p2 = ({"r": pr, "c": pc, "k": pk}[s] for s in sides)
        assert _cross_check(p1, p2, (True, True)) == (False, detail, "z^2")
        report = verify_relation_set_equivalence("t", p1, p2)
        under = {"c": "gaddis-zz", "k": "gaddis-completed"}[
            sides.replace("r", "")]
        want = (f"both inclusions certified; every relation of the other "
                f"side normalizes to zero under {under}; cross-checked under "
                f"{under} only, as gaddis_printed is not confluent")
        assert (report.status, report.detail, report.witness) == \
            ("pass", want, None)

    def test_unified_wess_row_is_equivalent_to_wess(self, families):
        # the wess-from-unified row as a presentation: its own system is not
        # confluent (the Lambda_inv commutation rules are consequences, not
        # relations), but both sides complete to one system, so the
        # cross-check runs under wess alone
        w = families["wess"]
        row = next(r for r in EXAMPLE_ROWS if r.row_id == "wess-from-unified")
        roles = {role: w.poly(row.rename[role]) for role in ("x", "y", "p")}
        rels = [(name, make(getattr(row, exp),
                            qheis.parse_expr(getattr(row, fn), w),
                            roles[a], roles[b]))
                for name, (make, exp, fn, a, b) in _UNIFIED_RELATIONS.items()]
        u = qheis.Presentation(row.row_id, w.generators, rels,
                               inverse_pairs=w.inverse_pairs)
        assert not u.confluent() and w.confluent()
        report = verify_relation_set_equivalence(row.row_id, u, w)
        assert (report.status, report.detail) == (
            "pass", "both inclusions certified; every relation of the other "
                    "side normalizes to zero under wess; cross-checked under "
                    "wess only, as wess-from-unified is not confluent")

    @pytest.mark.hashseed
    @pytest.mark.parametrize("case_id, sides", [
        ("t-wrong", (False, True)), ("t-bad", (True, True)),
    ], ids=("t-wrong-ideal shift by x_p moved a normal form",
            "t-bad-normal forms differ on a word"))
    def test_cross_check_catches_a_wrong_completion(self, families, case_id,
                                                    sides):
        # wess without x_p is confluent and generates a smaller ideal; with
        # wess's completed system standing in for its own, both inclusions
        # certify, and only the cross-check can fail the pair: x_p does not
        # vanish under wess-missing's own rules, whether the check runs
        # under wess-missing alone ("t-wrong") or under both sides
        # ("t-bad"), as the verifier runs it
        w = families["wess"]
        trimmed = qheis.Presentation(
            "wess-missing", w.generators,
            [(lab, rel) for lab, rel in w.relations if lab != "x_p"],
            inverse_pairs=w.inverse_pairs)
        trimmed.completed = w.completed
        assert w.confluent() and trimmed.confluent()
        want = ("relation x_p of wess does not normalize to zero under "
                "wess-missing",
                "q^(1/2)*x*p - q^(-1/2)*p*x - i*hbar*Lambda")
        assert _cross_check(w, trimmed, sides) == (False, *want)
        report = verify_relation_set_equivalence(case_id, w, trimmed)
        assert (report.status, report.detail, report.witness) == (
            "fail", *want)

    @pytest.mark.hashseed
    @pytest.mark.parametrize("make_pair", [
        _wess_rearranged_pair, _gaddis_one_parameter_pair,
    ], ids=("wess-rearranged", "gaddis-one-parameter"))
    def test_confluent_coefficient_mutants_fail(self, make_pair):
        # each confluent side of a corpus pair, with one term of one
        # relation doubled, generates another ideal.  Of these mutants, the
        # ones still confluent (three per side: every term of x_p, or of
        # y_x) keep the unmutated side's completion, and each must fail its
        # pair, with the cross-check failing it on its own
        pair = make_pair()
        mutants = []
        for i, side in enumerate(pair):
            if not side.confluent():
                continue
            for k, (label, rel) in enumerate(side.relations):
                for word in rel.words():
                    rels = list(side.relations)
                    rels[k] = (label, rel + NCPoly.from_word(
                        word, rel.coefficient(word)))
                    m = qheis.Presentation(side.name, side.generators, rels,
                                           inverse_pairs=side.inverse_pairs)
                    if m.confluent():
                        m.completed = side.completed
                        mutants.append(pair[:i] + (m,) + pair[i + 1:])
        assert len(mutants) == 6
        for p1, p2 in mutants:
            assert not _cross_check(p1, p2, (True, True))[0]
            assert verify_relation_set_equivalence(
                "t", p1, p2).status == "fail"

    def test_rule_less_pair_passes(self, families):
        # without rules every word is a normal form, and there is no
        # relation to check
        gens = families["wess"].generators[:2]
        free1, free2 = (qheis.Presentation(name, gens, [])
                        for name in ("free-1", "free-2"))
        report = verify_relation_set_equivalence("t", free1, free2)
        assert (report.status, report.detail) == (
            "pass", "both inclusions certified; every relation of the other "
                    "side normalizes to zero under both sides")

    def test_sides_ordered_differently_pass(self):
        # one relation under deglex and wreath y: both systems are confluent
        # and generate one ideal, but orient it in opposite directions, so
        # z*x is a normal form under deglex and not under wreath y.  Their
        # normal forms differ, and each side's relation still vanishes
        # under the other's rules
        gens = [Generator(s, None, i) for i, s in enumerate("xyz")]
        scope = qheis.Presentation("scope", gens, [])
        rel = scope.parse("z*x - x*y*z")
        p1, p2 = (qheis.Presentation(order, gens, [("r", rel)],
                                     order_kind=order)
                  for order in ("deglex", "wreath y"))
        assert p1.confluent() and p2.confluent()
        assert p1.normalize(scope.parse("z*x")) != \
            p2.normalize(scope.parse("z*x"))
        report = verify_relation_set_equivalence("t", p1, p2)
        assert (report.status, report.detail) == (
            "pass", "both inclusions certified; every relation of the other "
                    "side normalizes to zero under both sides")


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

    def test_unknown_case_ids_error(self):
        # one known id among them must not run alone
        with pytest.raises(ParamError,
                           match="^unknown case ids: no-such-case, "
                                 "wess-ore-x-pp$"):
            run_suite(["wess-ore-x-p", "wess-ore-x-pp", "no-such-case"])

    @pytest.mark.hashseed
    def test_byte_determinism(self, reports):
        again = run_suite("all", k=10)
        assert reports_to_json(reports) == reports_to_json(again)

    @pytest.mark.hashseed
    def test_report_bytes_pinned(self, reports):
        # the whole report, every coefficient's printed text included;
        # a change that is meant to alter it updates this hash and says why
        digest = hashlib.sha256(reports_to_json(reports).encode()).hexdigest()
        assert digest == REPORT_SHA256

    @pytest.mark.hashseed
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

    @pytest.mark.hashseed
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

    @pytest.mark.hashseed
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
        # a presentation that does not orient keeps its error
        assert any(outcome == "raised" for _, outcome in first["orients"])
        assert second["orients"] == []
        assert first["sha"] == second["sha"] == REPORT_SHA256
        assert got["changed"] == [] and got["fresh"]

    @pytest.mark.parametrize("changes, message", [
        ({"relations": ()}, "lists no relations"),
        ({"relations": ("nH1", "nH4")}, "unknown relation 'nH4'"),
        ({"rename": {"x": "x", "y": "Lambda"}}, "no 'p' role"),
        ({"rename": {"y": "Lambda", "p": "p"}}, "no 'x' role"),
        ({"rename": {"x": "x", "p": "p"}}, "no 'y' role"),
    ])
    def test_malformed_row_is_an_error(self, changes, message):
        row = EXAMPLE_ROWS[0].replace(**changes)
        with pytest.raises(ParamError, match=message):
            verify_specialization(row)
        case = VerificationCase(row.row_id, "specialization", (row.target,),
                                "pass", lambda case: verify_specialization(row))
        r = case.run()
        assert r.status == "error" and message in r.detail

    def test_row_without_y_role_cannot_list_nh2_or_nh3(self):
        # qhbar has no y role: nH2 and nH3 would be built with y = 0, read
        # zero, and pass without checking anything
        for relations in (("nH1", "nH2", "nH3"), ("nH2",), ("nH1", "nH3")):
            row = SpecializationRow("t-qhbar", "qhbar", _ROLES["qhbar"],
                                    -1, 5, 7, psi="hbar^2*q^(3/2)",
                                    relations=relations)
            with pytest.raises(ParamError, match="no 'y' role"):
                verify_specialization(row)
        row = row.replace(relations=("nH1",))
        assert verify_specialization(row).status == "pass"

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
                                 cls.parse("p_1*x_1"), cls, expected)
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

    def test_identity_decided_in_the_completed_system(self):
        # the printed variant's own rules leave z^2 irreducible; completion
        # derives z*z -> 0, so z*z lies in the ideal
        g = catalog("gaddis", variant="printed")
        assert normalize(g.parse("z*z"), g.system()) == g.parse("z^2")
        r = qheis.verify_poly_identity("t-zz", g.parse("z*z"), g.parse("0"), g)
        assert r.status == "pass"

    def test_unreproduced_discrepancy_is_pass_not_ok(self):
        cls = catalog("classical", indices=1)
        r = qheis.verify_poly_identity("t-id", cls.parse("x_1*p_1"),
                                 cls.parse("x_1*p_1"), cls, "discrepancy")
        assert r.status == "pass" and not r.ok
        r = qheis.verify.verify_ore_entry("t-ore", catalog("wess"), ("Lambda", "p", "x"),
                             "x", "p", "q^-1*p", "i*q^(-1/2)*hbar*Lambda",
                             "discrepancy")
        assert r.status == "pass" and not r.ok

    def test_oracle_disagreement_is_an_error(self, monkeypatch):
        # with normalize forced to zero, a false identity passes the
        # membership check; the all-paths oracle, which follows every
        # rewrite of the completed rules itself, still finds i*hbar
        monkeypatch.setattr(qheis.verify, "normalize",
                            lambda poly, sysm: NCPoly.zero())
        cls = catalog("classical", indices=1)
        r = qheis.verify_poly_identity("t-id", cls.parse("x_1*p_1"),
                                       cls.parse("p_1*x_1"), cls)
        assert (r.status, r.detail) == (
            "error", "difference normalizes to zero, but the all-paths "
                     "oracle disagrees")

    @pytest.mark.parametrize("exc", [OracleOverflow("word cap 5000 exceeded"),
                                     OracleDivergence("two normal forms")])
    def test_oracle_error_is_an_error_report(self, monkeypatch, exc):
        def oracle(poly, sysm):
            raise exc

        monkeypatch.setattr(qheis.verify, "brute_force_reduce", oracle)
        r, = run_suite("wess-relation-rearranged")
        assert (r.status, r.detail) == ("error", f"{type(exc).__name__}: {exc}")

    def _classical_limit(self, monkeypatch, lim=None, cls=None):
        """The classical-limit case's report with either side replaced."""
        pair = qheis.verify._classical_limit_pair()
        lim, cls = lim or pair[0], cls or pair[1]
        monkeypatch.setattr(qheis.verify, "_classical_limit_pair",
                            lambda: (lim, cls))
        case, = [c for c in qheis.verify.build_cases()
                 if c.case_id == "classical-limit-normal-forms"]
        r = case.run()
        return r.status, r.detail, r.witness

    @pytest.mark.hashseed
    def test_failed_classical_limit(self, monkeypatch):
        # against a commuting x_1, p_1 the rules for p_1*x_1 differ
        cls = qheis.verify._classical_limit_pair()[1]
        commuting = qheis.Presentation(
            "commuting", cls.generators,
            [("xp", cls.parse("x_1*p_1 - p_1*x_1"))])
        assert self._classical_limit(monkeypatch, cls=commuting) == \
            ("fail", "the rules on x_1, p_1 differ", "p_1*x_1")

    def test_classical_limit_rule_that_leaves_x_p(self, monkeypatch):
        # equal on both sides, but p_1*x_1 rewrites to a word with y_1
        lim = qheis.verify._classical_limit_pair()[0]
        leaky = qheis.Presentation(
            "leaky", lim.generators,
            [("xp", lim.parse("p_1*x_1 - x_1*p_1 - y_1"))])
        assert self._classical_limit(monkeypatch, leaky, leaky) == \
            ("fail", "a rule on x_1, p_1 leaves them", "p_1*x_1")

    def test_classical_limit_side_not_confluent(self, monkeypatch):
        # p_1*x_1*x_1 reduces to y_1*p_1 - 2*i*hbar*x_1 and to p_1*y_1
        lim = qheis.verify._classical_limit_pair()[0]
        bent = qheis.Presentation(
            "bent", lim.generators,
            [("xp", lim.parse("p_1*x_1 - x_1*p_1 + i*hbar")),
             ("xx", lim.parse("x_1*x_1 - y_1"))])
        assert not bent.confluent()
        assert self._classical_limit(monkeypatch, lim=bent) == \
            ("fail", "bent is not confluent", None)
