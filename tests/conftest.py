import random
from functools import cache

import pytest
from hypothesis import settings

import qheis
from qheis.coeffs import Coefficient
from qheis.ncpoly import NCPoly

C = Coefficient

# ``pytest --hypothesis-profile=ci``: each property test draws the same
# examples on every run, so a failure in CI reproduces locally
settings.register_profile("ci", derandomize=True)

COEFF_POOL_TEXT = (
    "1", "2", "-3", "1/2", "i", "-i", "q", "q^-1", "q^(1/2)", "q^(-3/2)",
    "p", "p^-1", "p^(1/2)", "hbar", "hbar^-1", "i*hbar", "2*q*i",
    "q - 1", "q + p^-1", "i*(q^(1/2) - q^(-1/2))",
)


@pytest.fixture(scope="session")
def coeff_pool():
    return [qheis.parse_expr(t).coefficient(()) for t in COEFF_POOL_TEXT]


def make_rng(seed=20260810):
    return random.Random(seed)


# the coefficients of ``random_poly``
RANDOM_POLY_POOL_TEXT = (
    "1", "2", "3", "i", "q", "q^-1", "q^(1/2)", "p", "p^-1", "hbar",
    "i*hbar", "2*q^(1/2)", "hbar^-1", "i*q^(-1/2)",
)


@cache
def _random_poly_pool():
    return tuple(qheis.parse_expr(t).coefficient(())
                 for t in RANDOM_POLY_POOL_TEXT)


def random_poly(rng, gens, max_len=4, max_terms=3):
    """Sum of 1 to ``max_terms`` random words of length 0 to ``max_len``
    over ``gens`` (a list that may repeat letters to weight them), each
    with a coefficient from ``RANDOM_POLY_POOL_TEXT``."""
    pool = _random_poly_pool()
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        word = tuple(rng.choice(gens) for _ in range(rng.randint(0, max_len)))
        c = rng.choice(pool)
        terms[word] = terms[word] + c if word in terms else c
    return NCPoly(terms)


@pytest.fixture
def rng():
    return make_rng()


@pytest.fixture(scope="session")
def families():
    return {fam: qheis.catalog(fam) for fam in qheis.family_ids()}


def assert_reduced(sysm):
    """No left side of ``sysm`` contains another, and no right-side word
    contains a left side."""
    encode = sysm.alphabet.encode
    for rule in sysm.rules:
        lhs = encode(rule.lhs)
        assert list(sysm.redexes(lhs)) == [(0, lhs)], rule
        for word in rule.rhs.terms:
            assert not any(sysm.redexes(encode(word))), (rule, word)


@pytest.fixture(scope="session", autouse=True)
def completions_are_reduced():
    """Every ``rewrite.complete`` result the suite builds passes
    ``assert_reduced``."""
    real = qheis.rewrite.complete

    def checked(*args):
        sysm = real(*args)
        assert_reduced(sysm)
        return sysm

    with pytest.MonkeyPatch.context() as mp:
        for module in (qheis, qheis.rewrite, qheis.families):
            mp.setattr(module, "complete", checked)
        yield


@pytest.fixture
def complete_calls(monkeypatch):
    """The arguments of each ``rewrite.complete`` call that
    ``Presentation.completed`` makes during the test."""
    calls = []
    real = qheis.families.complete
    monkeypatch.setattr(qheis.families, "complete",
                        lambda *args: calls.append(args) or real(*args))
    return calls


@pytest.fixture
def extract_calls(monkeypatch):
    """The tower of each Ore extraction that ``extract_ore`` runs during
    the test, rather than reads from a presentation."""
    calls = []
    real = qheis.families._extract_ore
    monkeypatch.setattr(qheis.families, "_extract_ore",
                        lambda pres, sysm, tower: calls.append(tower)
                        or real(pres, sysm, tower))
    return calls
