"""Value records: construction, equality, hashing, immutability, repr and
pickling of the package's ten record classes, and what importing the
package loads."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import qheis
from qheis import (Coefficient, ConfluenceReport, CriticalPair, Generator,
                   NCPoly, OreData, ParamError, RewriteRule, SpecializationRow,
                   TermOrder, UnifiedParams, VerificationCase,
                   VerificationReport)
from qheis.ncpoly import Word

X, P = Generator("x", None, 0), Generator("p", None, 1)
# a polynomial with a coefficient of several variables, so that its pickle
# carries monomials
XP = NCPoly.from_word((X, P), 2) * Coefficient.monomial({"s": -1, "h": 2})


def _runner(case):
    return case.report("pass")


# class, positional arguments (defaults left out), every field by keyword in
# order, the repr text, and one field changed to another valid value
RECORDS = [
    (Generator, ("x", 2), {"name": "x", "index": 2, "precedence": 0}, "x_2",
     {"precedence": 1}),
    (TermOrder, (), {"kind": "deglex"}, "TermOrder('deglex')",
     {"kind": "invlex"}),
    (RewriteRule, (Word((P, X)), XP, "p_x"),
     {"lhs": Word((P, X)), "rhs": XP, "origin": "p_x"},
     "p*x -> 2*hbar^2*q^(-1/2)*x*p  [p_x]", {"origin": "p_x2"}),
    (CriticalPair, (Word((P, P, X)), "a", "b", XP, NCPoly.zero(), False),
     {"overlap_word": Word((P, P, X)), "left_rule": "a", "right_rule": "b",
      "left_result": XP, "right_result": NCPoly.zero(), "resolved": False},
     "CriticalPair(p*p*x; a / b; UNRESOLVED)", {"right_result": NCPoly.one()}),
    (ConfluenceReport, (True, (), 3),
     {"confluent": True, "unresolved": (), "checked": 3},
     "confluent (3 ambiguities, 0 unresolved)", {"checked": 4}),
    (UnifiedParams, (1, 2, 3),
     {"n": 1, "m": 2, "l": 3, "psi": 1, "pi": 0, "phi": 0,
      "alpha_range": (1,), "lambda_range": (1,), "beta_range": (1,)},
     "UnifiedParams(n=1, m=2, l=3, psi=1, pi=0, phi=0, alpha_range=(1,), "
     "lambda_range=(1,), beta_range=(1,))", {"beta_range": (1, 2)}),
    (OreData, ((X, P), {(P, X): 1}, {}),
     {"tower": (X, P), "sigma": {(P, X): 1}, "delta": {}},
     "OreData(tower=(x, p), sigma={(p, x): 1}, delta={})",
     {"delta": {(P, X): 0}}),
    (VerificationReport, ("id", "claim", "pass", "pass"),
     {"case_id": "id", "claim": "claim", "status": "pass", "expected": "pass",
      "detail": "", "unit": None, "witness": None, "annotations": ()},
     "VerificationReport(case_id='id', claim='claim', status='pass', "
     "expected='pass', detail='', unit=None, witness=None, annotations=())",
     {"annotations": ("note",)}),
    (VerificationCase, ("id", "claim", ("wess",), "pass", _runner),
     {"case_id": "id", "claim": "claim", "families": ("wess",),
      "expected": "pass", "runner": _runner},
     f"VerificationCase(case_id='id', claim='claim', families=('wess',), "
     f"expected='pass', runner={_runner!r})", {"runner": print}),
    (SpecializationRow, ("r", "wess", {"x": "x"}, 1, 1, 1),
     {"row_id": "r", "target": "wess", "rename": {"x": "x"}, "n": 1, "m": 1,
      "l": 1, "psi": "0", "pi": "0", "phi": "0",
      "relations": ("nH1", "nH2", "nH3"), "at_q1": False, "target_params": {},
      "attempts": (), "expected": "pass", "note": ""},
     "SpecializationRow(row_id='r', target='wess', rename={'x': 'x'}, n=1, "
     "m=1, l=1, psi='0', pi='0', phi='0', relations=('nH1', 'nH2', 'nH3'), "
     "at_q1=False, target_params={}, attempts=(), expected='pass', note='')",
     {"note": "n"}),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls, args, kwargs, text, change", RECORDS, ids=IDS)
class TestRecordSemantics:
    def test_positional_and_keyword_construction_agree(self, cls, args, kwargs,
                                                       text, change):
        a, b = cls(*args), cls(**kwargs)
        assert a == b and not (a != b) and a is not b
        assert all(getattr(a, name) == value for name, value in kwargs.items())

    def test_field_wise_equality(self, cls, args, kwargs, text, change):
        a = cls(*args)
        assert a != cls(**{**kwargs, **change})
        assert a != tuple(kwargs.values()) and a != object()

    def test_repr_text(self, cls, args, kwargs, text, change):
        assert repr(cls(*args)) == text

    def test_hash_and_assignment(self, cls, args, kwargs, text, change):
        obj = cls(*args)
        (name, value), = change.items()
        if cls is UnifiedParams:  # mutable, so unhashable
            with pytest.raises(TypeError):
                hash(obj)
            setattr(obj, name, value)
            assert obj == cls(**{**kwargs, **change})
            return
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert obj == cls(**kwargs)
        try:
            want = hash(tuple(kwargs.values()))
        except TypeError:  # a dict or NCPoly field: unhashable like the tuple
            with pytest.raises(TypeError):
                hash(obj)
        else:
            assert hash(obj) == want

    def test_pickle_round_trip(self, cls, args, kwargs, text, change):
        obj = cls(*args)
        back = pickle.loads(pickle.dumps(obj))
        assert back == obj and type(back) is cls


class TestRecordDetails:
    def test_each_row_gets_its_own_target_params(self):
        a = SpecializationRow("a", "wess", {}, 1, 1, 1)
        b = SpecializationRow("b", "wess", {}, 1, 1, 1)
        assert a.target_params == {} and a.target_params is not b.target_params

    def test_specialization_row_replace(self):
        row = SpecializationRow("r", "wess", {"x": "x"}, 1, 1, 1, phi="y")
        new = row.replace(phi="0", n=2)
        assert (new.phi, new.n, new.psi, new.row_id) == ("0", 2, "0", "r")
        assert row.phi == "y" and row.n == 1
        assert row.replace() == row
        with pytest.raises(TypeError):
            row.replace(mystery=1)

    def test_unified_params_checks_its_integers(self):
        for bad in ({"n": 1.5}, {"m": True}, {"l": "1"}):
            with pytest.raises(ParamError, match="must be an integer"):
                UnifiedParams(**{"n": 1, "m": 1, "l": 1, **bad})

    def test_term_order_checks_its_kind(self):
        with pytest.raises(ParamError, match="unknown term order"):
            TermOrder("mystery")

    def test_ore_data_entry(self):
        ore = OreData((X, P), {(P, X): 1}, {})
        assert ore.entry(P, X) == (1, None)

    def test_critical_pair_compares_polynomials_by_value(self):
        a = CriticalPair(Word((P, X)), "a", "b", NCPoly.one(), NCPoly.zero(), False)
        assert a == CriticalPair(Word((P, X)), "a", "b", NCPoly.one(),
                                 NCPoly.zero(), False)


def test_import_loads_no_dataclasses_inspect_or_difflib():
    # modules a site hook preloads are in ``before`` and do not count
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import qheis, qheis.cli\n"
        "new = {'dataclasses', 'inspect', 'difflib'} & (set(sys.modules) - before)\n"
        "print(sorted(new))\n"
        "try:\n"
        "    qheis.parse_expr('x*xx', qheis.catalog('wess'))\n"
        "except qheis.ParseError as exc:\n"
        "    print(exc)\n")
    src = str(Path(qheis.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=src))
    loaded, hint = out.stdout.splitlines()
    assert loaded == "[]"
    assert hint == "unknown symbol 'xx' at 2; did you mean 'x'?"
