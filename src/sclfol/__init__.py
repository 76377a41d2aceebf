"""sclfol: a clause-learning prover for first-order logic without equality.

The calculus builds a ground trail bounded by a limiting literal, learns
non-redundant clauses from conflicts, and either refutes the input or
returns a partial model of the bounded grounding.  Independent brute-force
oracles check proofs, models, entailment and redundancy.
"""

__version__ = "0.1.0"

from .terms import (
    Atom, Clause, Closure, Fn, Literal, Signature, Subst, Var,
    alpha_equal, apply, is_ground, match, mgu, rename_apart, same_multiset,
)
from .orderings import (
    Bound, CountKBO, GroundLPO, Precedence, TrailOrder, bounded_groundings,
    bounded_instances, make_ordering,
)
from .state import (
    Decision, ProblemState, Propagation, Trail, TrailEntry, clause_level,
    literal_level, soundness_check,
)
from .calculus import (
    GuardFailed, apply_backtrack, apply_conflict, apply_decide,
    apply_factorize, apply_grow, apply_propagate, apply_resolve, apply_skip,
    find_false_instance, propagation_candidates, reasonable_decisions,
)
from .strategy import (
    InvariantViolation, RunConfig, RunResult, Statistics, configure_bound,
    next_beta, resolve_conflict_loop, run, synthesize_beta,
)
from .oracle import (
    check_model, check_proof, ground_entails, ground_sat,
    is_redundant_snapshot, subsumes,
)
from .frontend import (
    ParseError, ProblemFile, UnsupportedFeature, parse_clause_text,
    parse_literal_text, parse_native, parse_problem, parse_tptp_cnf,
)
from .proofs import Proof, proof_from_text, proof_to_text

__all__ = [name for name in dir() if not name.startswith("_")]
