"""qheis: exact symbolic engine for q-deformed Heisenberg algebras.

Finitely presented noncommutative algebras over an exact coefficient field
(Gaussian-rational functions in q^(1/2), p^(1/2), hbar and opaque central
symbols), normalized by oriented rewrite rules, with diamond-lemma
confluence checking, Ore-tower extraction and a verification corpus for the
cataloged deformations.
"""

from .coeffs import Coefficient, qnumber
from .errors import (AlphabetError, DivisionByZero, ExponentOverflow,
                     NonTermination, NotOreShaped, OracleDivergence,
                     OracleOverflow, OrientationError, ParamError, ParseError,
                     PoleAtPoint, QheisError, SchemaError, UnboundGenerator,
                     UnboundVariable, UnknownFamily)
from .families import (FAMILIES, OreData, Presentation, UnifiedParams,
                       catalog, classical_limit, extract_ore, family_ids,
                       presentation_from_ore, unified)
from .ncpoly import Generator, NCPoly, Word, commutator, substitute
from .parser import parse_expr
from .presfile import (load_presentation, load_presentation_file,
                       save_presentation, save_presentation_file)
from .printer import format_coefficient, format_expr, parse_machine
from .rewrite import (ConfluenceReport, CriticalPair, RewriteRule,
                      RewriteSystem, TermOrder, check_confluence, complete,
                      critical_pairs, normalize, orient, reduce_trace)
from .verify import (SpecializationRow, VerificationCase, VerificationReport,
                     brute_force_reduce, build_cases, ideal_membership,
                     render_table, reports_to_json, run_suite, suite_ok,
                     verify_poly_identity, verify_power_identities,
                     verify_relation_set_equivalence, verify_specialization)

__version__ = "0.1.0"
