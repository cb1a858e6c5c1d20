"""Write the benchmark's expected answers to ``perfbench/expected/``.

Run from the repository root::

    python3 perfbench/make_expected.py

Normal forms are stored in the machine format (``qheis-poly-v1``).  Each one
is cross-checked once against the all-paths oracle ``brute_force_reduce``
wherever the oracle stays under its word cap; ``oracle_words`` records how
many words it visited, or null when it passed the cap.  The corpus's
(case id, claim, status) sequence is recorded as the engine reports it, and
every case must behave as expected.
Rerun this only when a change of answers is intended, and say so.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from random import Random

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from qheis import (OracleOverflow, brute_force_reduce, check_confluence,  # noqa: E402
                   commutator, extract_ore, format_expr, normalize, run_suite)

import workloads as W  # noqa: E402
from tracing import NULL  # noqa: E402

SESSION_WORDS = 40       # pool words per presentation
SESSION_MAX_LEN = 5
POOL_SEED = 20250604     # fixes the pool; the run's --seed picks from it


def machine(poly):
    return format_expr(poly, "machine")


def oracle_words(pres, poly, nf):
    """Words the oracle visited to confirm ``nf``; None past its cap."""
    cache = {}
    try:
        got = brute_force_reduce(poly, pres.system(), cache=cache)
    except (OracleOverflow, RecursionError):
        return None
    if got != nf:
        raise SystemExit(f"{pres.name}: oracle disagrees with normalize on {poly!r}")
    return len(cache)


def entry(press, key, text, oracle=True):
    pres = press[key]
    poly = pres.parse(text)
    nf = normalize(poly, pres.system())
    words = oracle_words(pres, poly, nf) if oracle else None
    print(f"  {key} {text}: oracle words {words}", file=sys.stderr, flush=True)
    return {"pres": key, "expr": text, "nf": machine(nf), "oracle_words": words}


def session_words(pres, rng):
    gens = [g.sym for g in pres.generators]
    seen, out = set(), []
    while len(out) < SESSION_WORDS:
        word = "*".join(rng.choice(gens) for _ in range(rng.randint(1, SESSION_MAX_LEN)))
        if word not in seen:
            seen.add(word)
            out.append(word)
    return out


def main():
    t0 = time.perf_counter()
    keys = dict.fromkeys(k for used in W.PRESENTATIONS.values() for k in used)
    press = {k: W.load_presentation(k, NULL) for k in keys}
    out = {}

    reports = run_suite("all", k=W.CORPUS_K)
    bad = [r.case_id for r in reports if not r.ok]
    if bad:
        raise SystemExit(f"corpus cases not behaving as expected: {bad}")
    out["corpus"] = {
        "k": W.CORPUS_K,
        "cases": [[r.case_id, r.claim, r.status] for r in reports],
        "power": [entry(press, k, t) for k, t in W.CORPUS_POWER_INPUTS],
    }
    out["growth"] = {"requests": [entry(press, k, t) for k, t in W.GROWTH_INPUTS]}
    out["words"] = {"requests": [entry(press, k, t) for k, t in W.WORDS_INPUTS]}

    rng = Random(POOL_SEED)
    words, comms = {}, {}
    for key in W.PRESENTATIONS["session"]:
        pres = press[key]
        words[key] = [
            {k: v for k, v in entry(press, key, w,
                                    len(w.split("*")) <= W.ORACLE_MAX_LEN).items()
             if k != "pres"}
            for w in session_words(pres, rng)]
        gens = [g.sym for g in pres.generators]
        comms[key] = []
        for a in gens:
            for b in gens:
                if a != b:
                    poly = commutator(pres.parse(a), pres.parse(b))
                    nf = normalize(poly, pres.system())
                    if oracle_words(pres, poly, nf) is None:
                        raise SystemExit(f"{key}: oracle over its cap on [{a}, {b}]")
                    comms[key].append({"a": a, "b": b, "nf": machine(nf)})
    out["session"] = {"pool_seed": POOL_SEED, "words": words, "commutators": comms}

    confluence = {}
    for key, pres in press.items():
        report = check_confluence(pres.system())
        confluence[key] = {"confluent": report.confluent, "checked": report.checked}
    ore = []
    for key, tower in W.ORE_TOWERS:
        data = extract_ore(press[key], tower)
        ore.append({
            "pres": key, "tower": list(tower),
            "sigma": {f"{a}*{b}": machine(p) for (a, b), p in data.sigma.items()},
            "delta": {f"{a}*{b}": machine(p) for (a, b), p in data.delta.items()},
        })
    out["layers"] = {"confluence": confluence, "ore": ore}

    W.EXPECTED.mkdir(exist_ok=True)
    for name, data in out.items():
        with open(W.EXPECTED / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(f"wrote {len(out)} files to {W.EXPECTED} in {time.perf_counter() - t0:.1f} s")


if __name__ == "__main__":
    main()
