"""What the benchmark reports: workloads, metrics and units.

Shared by ``run.py`` and ``worker.py``; imports nothing from the engine.
"""

from __future__ import annotations

import math

WORKLOADS = {
    "corpus": "the product, qheis verify --suite all: coefficient work dominates "
              "and the rewrite layer is a small share",
    "growth": "inputs that grow (gaddis y^k*x^k, deglex p^k*x^k): rewrite steps "
              "grow as k^3 and coefficients grow with them",
    "words": "invlex y^a*x^b in gha and q_gha: many words and small coefficients, "
             "so rewrite self time dominates and the coefficient kernel is bypassed",
    "session": "seeded stream of short interactive requests: per-call costs of "
               "parser, printer, oracle and critical pairs",
}

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

CLAIMS = ("poly_identity", "relation_set_equivalence", "power_identity",
          "ore_match", "specialization")

PER_LAYER = {
    "coeffs.mul_us": "us", "coeffs.add_us": "us", "coeffs.eq_us": "us",
    "coeffs.inv_us": "us", "coeffs.terms_max": "count",
    "ncpoly.mul_us": "us", "ncpoly.add_us": "us",
    "rewrite.normalize_ms": "ms", "rewrite.steps": "count", "rewrite.step_us": "us",
    "rewrite.orient_ms": "ms", "rewrite.confluence_ms": "ms",
    "rewrite.critical_pairs": "count",
    "families.catalog_ms": "ms", "families.extract_ore_ms": "ms",
    "parser.parse_us": "us", "printer.format_us": "us",
    **{f"verify.case_ms.{claim}": "ms" for claim in CLAIMS},
    "verify.oracle_ms": "ms", "verify.oracle_words": "count",
    "cli.import_ms": "ms", "cli.spawn_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

# Tail percentile per workload: the highest of p90/p99 that leaves at least
# ten samples beyond it at the workload's minimum sample count.  It is fixed
# per workload so that the metric does not jump between percentiles when a
# run happens to fit one pass more or less.
TAIL_PCT = {"corpus": 90, "growth": 90, "words": 90, "session": 99}
TAIL_BEYOND = 10


def tail_rank(n, pct):
    """1-based nearest-rank index of the ``pct`` percentile of ``n`` samples."""
    return max(1, math.ceil(n * pct / 100))


def min_passes(requests_per_pass, pct):
    """Fewest passes that leave TAIL_BEYOND samples beyond the percentile."""
    m = 1
    while m * requests_per_pass - tail_rank(m * requests_per_pass, pct) < TAIL_BEYOND:
        m += 1
    return m

