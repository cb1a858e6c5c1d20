"""The benchmark's workloads: inputs, requests and answer checks.

Each workload is a list of requests.  A request is one call a user would make
(one verification case, one ``normalize`` with its parse and print, one
confluence check, ...).  ``run(tracer)`` makes the call and returns what the
user gets; ``check(value)`` compares that with the stored expectation by value,
so a change in canonical printing is not a wrong answer.

Expected values live in ``expected/*.json``, written by ``make_expected.py``.
Polynomials are stored in the engine's machine format (``qheis-poly-v1``) and
compared with ``parse_machine(text) == result``.
"""

from __future__ import annotations

import json
from collections import namedtuple
from pathlib import Path
from random import Random

from qheis import (brute_force_reduce, catalog, check_confluence, commutator,
                   extract_ore, format_expr, load_presentation_file, normalize,
                   parse_expr, parse_machine, reports_to_json, run_suite)

from tracing import NULL

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected"

CATALOG = ("classical", "gaddis", "gha", "q_gha", "qhbar", "qhbar_quantization",
           "schmudgen", "wess", "wess_schwenk")
EXAMPLES = ("twisted_plane.qpres", "wess.qpres")

# Presentations each workload builds and orients at set-up.
PRESENTATIONS = {
    "corpus": CATALOG + ("gaddis:printed",),
    "growth": ("gaddis", "qhbar", "classical"),
    "words": ("gha", "q_gha"),
    "session": CATALOG + EXAMPLES,
}

# Ramps stay inside the default step limit: gha y^k*x^k fails from k = 6 and
# gaddis y^k*x^k at k = 20 in the seed engine.
GROWTH_INPUTS = ([("gaddis", f"y^{k}*x^{k}") for k in range(1, 8)]
                 + [("qhbar", f"p^{k}*x^{k}") for k in range(1, 8)]
                 + [("classical", f"p_1^{k}*x_1^{k}") for k in range(1, 11)])
WORDS_INPUTS = ([("gha", f"y^{a}*x^{b}") for a in range(1, 6) for b in range(1, 6)
                 if a + b <= 6]
                + [("q_gha", f"y^{a}*x^{b}") for a in range(1, 6) for b in range(1, 6)
                   if a + b <= 7])
# The words gaddis-power-identities normalizes: the corpus's rewrite inputs.
CORPUS_POWER_INPUTS = ([("gaddis", f"y*x^{k}") for k in range(1, 11)]
                       + [("gaddis", f"y^{k}*x") for k in range(2, 11)])

ORE_TOWERS = (("wess", ("Lambda", "p", "x")),
              ("wess_schwenk", ("x", "xbar", "p")),
              ("gaddis", ("x", "z", "y")))

# One cheap corpus case per claim; the traced run of a workload that runs no
# verification case times these.
VERIFY_PROBE_CASES = ("wess-relation-rearranged", "classical-limit-normal-forms",
                      "gaddis-power-identities", "wess-ore-x-p", "wess-from-unified")

CORPUS_K = 10
# per pass; confluence is added as SESSION_CONFLUENCE checks per presentation.
# A pass is large so that its slowest 1% is not a handful of requests whose
# mix changes with the seed.
SESSION_MIX = (("normalize", 800), ("commutator", 80), ("oracle", 60), ("ore", 30))
SESSION_CONFLUENCE = 2
FORMATS = ("plain", "latex", "machine")
# No central p: wess and qhbar have a generator named p, which shadows it.
COEFF_TEXTS = ("1", "2", "3", "-1", "i", "q", "q^-1", "q^(1/2)", "hbar", "i*hbar",
               "2*q^(1/2)", "hbar^-1", "i*q^(-1/2)")
ORACLE_MAX_LEN = 4
# The oracle probe skips inputs whose all-paths search is this large: gaddis
# y^5*x^5 alone visits 1683 words in about 7 s.
ORACLE_PROBE_WORDS = 400

Request = namedtuple("Request", "kind run check")


class Workload:
    """Requests of one pass, plus what the traced run needs besides them."""

    def __init__(self, name, requests, normalize_inputs, probes, pool_polys,
                 pass_check=None):
        self.name = name
        self.requests = requests
        # (presentation, polynomial) for every normalize call of one pass
        self.normalize_inputs = normalize_inputs
        # span name -> requests that produce it, for layers the pass skips
        self.probes = probes
        # expected polynomials, grouped by presentation: the layer pools
        self.pool_polys = pool_polys
        self.pass_check = pass_check


def load_expected(name):
    with open(EXPECTED / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def load_presentation(key, tracer):
    """``family``, ``family:variant`` or an example ``.qpres`` file."""
    if key.endswith(".qpres"):
        with tracer.span("presfile.load"):
            return load_presentation_file(str(ROOT / "docs" / "examples" / key))
    family, _, variant = key.partition(":")
    with tracer.span("families.catalog"):
        return catalog(family, variant=variant) if variant else catalog(family)


def build_presentations(name, tracer):
    """Build and orient every presentation the workload uses."""
    out = {}
    for key in PRESENTATIONS[name]:
        pres = load_presentation(key, tracer)
        with tracer.span("rewrite.orient"):
            pres.system()
        out[key] = pres
    return out


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------

def _printed_matches(pres, out, style, expected):
    if style == "plain":
        return parse_expr(out, pres) == expected
    if style == "machine":
        return parse_machine(out) == expected
    return isinstance(out, str) and bool(out)


def normalize_request(pres, text, expected, style="plain"):
    sysm = pres.system()

    def run(tr):
        with tr.span("parser.parse"):
            poly = parse_expr(text, pres)
        with tr.span("rewrite.normalize"):
            nf = normalize(poly, sysm)
        with tr.span("printer.format"):
            out = format_expr(nf, style, scope=pres)
        return nf, out

    def check(value):
        nf, out = value
        return nf == expected and _printed_matches(pres, out, style, expected)

    return Request("normalize", run, check)


def commutator_request(pres, a_text, b_text, expected):
    sysm = pres.system()

    def run(tr):
        with tr.span("parser.parse"):
            a, b = parse_expr(a_text, pres), parse_expr(b_text, pres)
        with tr.span("ncpoly.commutator"):
            c = commutator(a, b)
        with tr.span("rewrite.normalize"):
            nf = normalize(c, sysm)
        with tr.span("printer.format"):
            out = format_expr(nf, "plain", scope=pres)
        return nf, out

    def check(value):
        nf, out = value
        return nf == expected and _printed_matches(pres, out, "plain", expected)

    return Request("commutator", run, check)


def oracle_request(pres, text, expected):
    sysm = pres.system()

    def run(tr):
        with tr.span("parser.parse"):
            poly = parse_expr(text, pres)
        cache = {}
        with tr.span("verify.oracle"):
            nf = brute_force_reduce(poly, sysm, cache=cache)
        tr.note("verify.oracle_words", len(cache))
        return nf

    return Request("oracle", run, lambda nf: nf == expected)


def confluence_request(pres, expected):
    sysm = pres.system()

    def run(tr):
        with tr.span("rewrite.confluence"):
            report = check_confluence(sysm)
        tr.note("rewrite.critical_pairs", report.checked)
        return report

    def check(report):
        return (report.confluent == expected["confluent"]
                and report.checked == expected["checked"])

    return Request("confluence", run, check)


def ore_request(pres, tower, expected):
    def run(tr):
        with tr.span("families.extract_ore"):
            return extract_ore(pres, tower)

    def check(ore):
        for table, want in ((ore.sigma, expected["sigma"]),
                            (ore.delta, expected["delta"])):
            got = {f"{a}*{b}": poly for (a, b), poly in table.items()}
            if set(got) != set(want):
                return False
            if any(got[k] != parse_machine(v) for k, v in want.items()):
                return False
        return True

    return Request("ore", run, check)


def case_request(case_id, claim, status):
    def run(tr):
        with tr.span(f"verify.case.{claim}"):
            return run_suite(case_id, k=CORPUS_K)

    def check(reports):
        return (len(reports) == 1 and reports[0].case_id == case_id
                and reports[0].status == status and reports[0].ok)

    return Request("case", run, check)


# ---------------------------------------------------------------------------
# Workload builders
# ---------------------------------------------------------------------------

def _fixed_normalize(press, entries, wanted):
    if [(e["pres"], e["expr"]) for e in entries] != wanted:
        raise SystemExit("expected/*.json does not list the workload's inputs; "
                         "rerun perfbench/make_expected.py")
    requests, inputs, pool = [], [], {}
    for e in entries:
        pres = press[e["pres"]]
        expected = parse_machine(e["nf"])
        requests.append(normalize_request(pres, e["expr"], expected))
        inputs.append((pres, parse_expr(e["expr"], pres)))
        pool.setdefault(e["pres"], []).append(expected)
    return requests, inputs, pool


def _layer_probes(press, layers, oracle_entries, normalize_probe=()):
    """Requests that time the layers a workload's own pass does not reach."""
    corpus = {cid: (claim, status) for cid, claim, status in
              load_expected("corpus")["cases"]}
    ore_press = {key: press.get(key) or load_presentation(key, NULL)
                 for key, _ in ORE_TOWERS}
    probes = {
        "verify.oracle": [oracle_request(press[e["pres"]], e["expr"],
                                         parse_machine(e["nf"]))
                          for e in oracle_entries
                          if e["oracle_words"] is not None
                          and e["oracle_words"] <= ORACLE_PROBE_WORDS],
        "rewrite.confluence": [confluence_request(pres, layers["confluence"][key])
                               for key, pres in press.items()],
        "families.extract_ore": [ore_request(ore_press[key], tower, want)
                                 for (key, tower), want in zip(ORE_TOWERS,
                                                               layers["ore"])],
        "verify.case": [case_request(cid, *corpus[cid])
                        for cid in VERIFY_PROBE_CASES],
        "rewrite.normalize": list(normalize_probe),
    }
    return probes


def build(name, seed, press):
    """The workload's request list for one pass; ``seed`` only shapes
    ``session``, the other three have fixed inputs."""
    layers = load_expected("layers")
    if name == "corpus":
        exp = load_expected("corpus")
        requests = [case_request(cid, claim, status)
                    for cid, claim, status in exp["cases"]]
        power, inputs, pool = _fixed_normalize(press, exp["power"],
                                               CORPUS_POWER_INPUTS)
        return Workload(name, requests, inputs,
                        _layer_probes(press, layers, exp["power"], power), pool,
                        pass_check=_same_reports_check())
    if name in ("growth", "words"):
        exp = load_expected(name)
        wanted = GROWTH_INPUTS if name == "growth" else WORDS_INPUTS
        requests, inputs, pool = _fixed_normalize(press, exp["requests"], wanted)
        return Workload(name, requests, inputs,
                        _layer_probes(press, layers, exp["requests"]), pool)
    if name == "session":
        return _session(seed, press, layers)
    raise ValueError(f"unknown workload {name!r}")


def _session(seed, press, layers):
    """``--seed`` orders the requests, offsets each presentation's walk
    through its pool words, and draws coefficients, commutator pairs and
    oracle words.  The mix is the same for
    every seed, so that runs with different seeds measure the same load: each
    pass has the same number of confluence checks, normalize and
    commutator requests per presentation, every pool word of a
    presentation about equally often, each number of terms (1-3) and each
    output format equally often, each Ore tower equally often, and one oracle
    word from each of its cost strata."""
    exp = load_expected("session")
    rng = Random(seed)
    keys = sorted(press)
    words = {key: [(e["expr"], parse_machine(e["nf"])) for e in exp["words"][key]]
             for key in keys}
    coeffs = [(t, parse_expr(t).coefficient(())) for t in COEFF_TEXTS]
    counts = dict(SESSION_MIX, confluence=SESSION_CONFLUENCE * len(keys))
    kinds = [kind for kind, count in counts.items() for _ in range(count)]
    rng.shuffle(kinds)
    # oracle words by cost (words the oracle visits), cut into equal strata
    oracle_pool = sorted((e["oracle_words"], key, e["expr"]) for key in keys
                         for e in exp["words"][key]
                         if e["oracle_words"] is not None
                         and len(e["expr"].split("*")) <= ORACLE_MAX_LEN)
    stride = len(oracle_pool) / counts["oracle"]
    oracle_draws = [oracle_pool[int(i * stride) + rng.randrange(int(stride))]
                    for i in range(counts["oracle"])]
    rng.shuffle(oracle_draws)
    # each presentation walks its pool in the stored order from a seeded
    # offset: the polynomials are consecutive windows of that walk, so every
    # seed sees nearly the same multiset of request costs
    cycles = {key: (words[key], [rng.randrange(len(words[key]))]) for key in keys}
    nth = dict.fromkeys(counts, 0)
    requests, inputs, pool = [], [], {}
    for kind in kinds:
        i = nth[kind]
        nth[kind] += 1
        key = keys[i % len(keys)]
        pres = press[key]
        if kind == "normalize":
            round_ = i // len(keys)
            order, cursor = cycles[key]
            parts, expected = [], None
            for _ in range(1 + round_ % 3):
                text, nf = order[cursor[0] % len(order)]
                cursor[0] += 1
                ctext, c = rng.choice(coeffs)
                parts.append(f"({ctext})*{text}")
                expected = nf * c if expected is None else expected + nf * c
            text = " + ".join(parts)
            requests.append(normalize_request(pres, text, expected,
                                              FORMATS[round_ // 3 % 3]))
            inputs.append((pres, parse_expr(text, pres)))
            pool.setdefault(key, []).append(expected)
        elif kind == "commutator":
            e = rng.choice(exp["commutators"][key])
            expected = parse_machine(e["nf"])
            requests.append(commutator_request(pres, e["a"], e["b"], expected))
            inputs.append((pres, commutator(parse_expr(e["a"], pres),
                                            parse_expr(e["b"], pres))))
            pool.setdefault(key, []).append(expected)
        elif kind == "oracle":
            _, okey, text = oracle_draws[i]
            nf = dict(words[okey])[text]
            requests.append(oracle_request(press[okey], text, nf))
        elif kind == "confluence":
            requests.append(confluence_request(pres, layers["confluence"][key]))
        else:
            t = i % len(ORE_TOWERS)
            tkey, tower = ORE_TOWERS[t]
            requests.append(ore_request(press[tkey], tower, layers["ore"][t]))
    return Workload("session", requests, inputs, _layer_probes(press, layers, []),
                    pool)


def _same_reports_check():
    """Pass check of ``corpus``: every pass must give the bytes of the first.

    Returns the indices of the cases whose report differs."""
    first = []

    def check(outcomes):
        reports = [out[0] if isinstance(out, list) and out else None
                   for out in outcomes]
        if any(r is None for r in reports):
            return [i for i, r in enumerate(reports) if r is None]
        text = reports_to_json(reports)
        if not first:
            first.append((text, [r.as_dict() for r in reports]))
            return []
        if text == first[0][0]:
            return []
        return [i for i, r in enumerate(reports)
                if i >= len(first[0][1]) or r.as_dict() != first[0][1][i]] or [0]

    return check
