"""The rule system: guarded partial transitions on problem states.

Each ``apply_*`` function checks its side conditions and either returns the
successor state or raises ``GuardFailed`` naming the violated condition.
The searches (false-instance matching, propagation candidates, reasonable
decisions) are what a driver uses to pick rule instances; they are
deterministic: clauses by pool position, literals by position, groundings
in the enumeration order of the atoms below the bound.

Between two Grows every rule works on the same finite set of atoms below
the bound, so the searches keep on the ``Bound`` what only depends on it
and on the pool, and a step pays for what changed:

* each clause's bounded groundings with their ground instances
  (``orderings.grounded_instances``), which the propagation search reads
  instead of applying substitutions;
* a decision index: the atoms that instantiate a pool literal, each with
  its first source, in enumeration order.  A learned clause is matched only
  against the atoms that have no source yet; a Decide walks the index and
  skips the defined atoms.  ``first_reasonable_decision`` stops at the first
  candidate that enables no conflict.

After a Propagate or Decide, the conflict search visits only the clauses
that can take the complement of the newest trail literal
(``find_false_instance(after_push=True)``).  None of this changes which
candidates come out, or in which order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .orderings import grounded_instances
from .state import Decision, NotOnTrail, ProblemState, Propagation, Trail, \
    TrailEntry, clause_level
from .terms import (
    Atom, Clause, Closure, Literal, Subst, apply, canonical_variant,
    is_ground, match, mgu, rename_apart, unify_all,
)


class GuardFailed(Exception):
    def __init__(self, rule: str, reason: str):
        super().__init__(f"{rule}: {reason}")
        self.rule = rule
        self.reason = reason


def _require(cond: bool, rule: str, reason: str):
    if not cond:
        raise GuardFailed(rule, reason)


# ---------------------------------------------------------------------------
# Model building rules
# ---------------------------------------------------------------------------

def propagation_split(clause: Clause, lit_index: int,
                      sigma: Subst) -> tuple[Clause, int, list[int]]:
    """Splits C0 | C1 | L for Propagate and factors C1 into L.

    Returns the annotated clause (C0 | L) after applying the mgu of the C1
    literals with L, the position of L inside it, and the C0 positions of
    the original clause.
    """
    lit_val = apply(sigma, clause[lit_index])
    dup = [q for q in range(len(clause))
           if q != lit_index and apply(sigma, clause[q]) == lit_val]
    delta = unify_all([clause[lit_index]] + [clause[q] for q in dup])
    assert delta is not None, "literals with equal ground instances unify"
    keep = [q for q in range(len(clause)) if q not in dup]
    annotated = Clause(tuple(apply(delta, clause[q]) for q in keep))
    rest = [q for q in keep if q != lit_index]
    return annotated, keep.index(lit_index), rest


def apply_propagate(state: ProblemState, clause: Clause, lit_index: int,
                    sigma: Subst) -> ProblemState:
    _require(state.conflict is None, "propagate", "a conflict is active")
    _require(clause in state.pool, "propagate", "clause not in the pool")
    _require(0 <= lit_index < len(clause), "propagate", "bad literal index")
    instance = apply(sigma, clause)
    _require(is_ground(instance), "propagate",
             "substitution does not ground the clause")
    _require(state.bound.clause_below(instance), "propagate",
             f"instance {instance} is not below the bound {state.bound.beta}")
    lit_val = instance[lit_index]
    annotated, ann_idx, rest = propagation_split(clause, lit_index, sigma)
    for q in rest:
        _require(state.trail.truth_value(apply(sigma, clause[q])) is False,
                 "propagate", f"side literal {apply(sigma, clause[q])} is "
                              f"not false under the trail")
    _require(not state.trail.is_defined(lit_val), "propagate",
             f"{lit_val} is already defined")
    entry = TrailEntry(lit_val, Propagation(Closure(annotated, sigma), ann_idx))
    return ProblemState(state.trail.push(entry), state.initial, state.learned,
                        state.bound, state.decisions, None)


def apply_decide(state: ProblemState, clause: Clause, lit_index: int,
                 sigma: Subst, negate: bool = False) -> ProblemState:
    """Decides an instance of a pool-clause literal, or of its complement.

    The rule text draws decision literals from the clauses themselves; the
    calculus additionally permits guessing the complement of such an
    instance, which is how runs explore both polarities of an atom that
    occurs with only one sign.
    """
    _require(state.conflict is None, "decide", "a conflict is active")
    _require(clause in state.pool, "decide", "clause not in the pool")
    _require(0 <= lit_index < len(clause), "decide", "bad literal index")
    lit = apply(sigma, clause[lit_index])
    if negate:
        lit = lit.complement()
    _require(is_ground(lit), "decide", f"{lit} is not ground")
    _require(not state.trail.is_defined(lit), "decide",
             f"{lit} is already defined")
    _require(state.bound.literal_below(lit), "decide",
             f"{lit} is not strictly below the bound {state.bound.beta}")
    entry = TrailEntry(lit, Decision(state.decisions + 1))
    return ProblemState(state.trail.push(entry), state.initial, state.learned,
                        state.bound, state.decisions + 1, None)


def apply_conflict(state: ProblemState, clause: Clause,
                   sigma: Subst) -> ProblemState:
    _require(state.conflict is None, "conflict", "a conflict is active")
    _require(clause in state.pool, "conflict", "clause not in the pool")
    instance = apply(sigma, clause)
    _require(is_ground(instance), "conflict",
             "substitution does not ground the clause")
    _require(state.trail.all_false(instance), "conflict",
             f"instance {instance} is not false under the trail")
    return ProblemState(state.trail, state.initial, state.learned,
                        state.bound, state.decisions, Closure(clause, sigma))


# ---------------------------------------------------------------------------
# Conflict resolution rules
# ---------------------------------------------------------------------------

def apply_skip(state: ProblemState) -> ProblemState:
    _require(state.conflict is not None, "skip", "no active conflict")
    _require(len(state.trail) > 0, "skip", "empty trail")
    top = state.trail[-1]
    ground = state.conflict.ground_clause()
    _require(top.literal.complement() not in ground.literals, "skip",
             f"complement of {top.literal} occurs in the conflict")
    k = state.decisions - (1 if top.is_decision else 0)
    return ProblemState(state.trail.pop(), state.initial, state.learned,
                        state.bound, k, state.conflict)


def apply_factorize(state: ProblemState, i: int, j: int) -> ProblemState:
    _require(state.conflict is not None, "factorize", "no active conflict")
    clause, sigma = state.conflict.clause, state.conflict.subst
    n = len(clause)
    _require(0 <= i < n and 0 <= j < n and i != j, "factorize",
             "bad literal positions")
    _require(apply(sigma, clause[i]) == apply(sigma, clause[j]), "factorize",
             "literals differ under the grounding substitution")
    eta = mgu(clause[i], clause[j])
    assert eta is not None, "literals with equal ground instances unify"
    new_clause = Clause(tuple(apply(eta, lit)
                              for q, lit in enumerate(clause.literals)
                              if q != j))
    return ProblemState(state.trail, state.initial, state.learned,
                        state.bound, state.decisions,
                        Closure(new_clause, sigma))


def apply_resolve(state: ProblemState) -> ProblemState:
    """Resolves the conflict with the propagation on top of the trail, on
    the first conflict literal complementing it.

    The parent closure is renamed apart first and the grounding
    substitutions are merged.  The trail is unchanged; the propagated
    literal is removed later by Skip.
    """
    _require(state.conflict is not None, "resolve", "no active conflict")
    _require(len(state.trail) > 0, "resolve", "empty trail")
    top = state.trail[-1]
    _require(isinstance(top.annotation, Propagation), "resolve",
             "trail top is not a propagation")
    conflict = state.conflict
    ground = conflict.ground_clause()
    _require(top.literal.complement() in ground.literals, "resolve",
             "complement of the top literal does not occur in the conflict")
    k = ground.literals.index(top.literal.complement())

    conflict, parent = rename_apart(conflict, top.annotation.closure)
    ann_idx = top.annotation.lit_index
    eta = mgu(parent.clause[ann_idx], conflict.clause[k].complement())
    assert eta is not None, "ground-complementary literals unify"
    new_lits = (
        tuple(apply(eta, lit) for q, lit in enumerate(conflict.clause.literals)
              if q != k)
        + tuple(apply(eta, lit) for q, lit in enumerate(parent.clause.literals)
                if q != ann_idx))
    merged = conflict.subst.merge(parent.subst)
    return ProblemState(state.trail, state.initial, state.learned,
                        state.bound, state.decisions,
                        Closure(Clause(new_lits), merged))


def apply_backtrack(state: ProblemState) -> ProblemState:
    """Learns the conflict clause and jumps to the shortest trail prefix on
    which no grounding of it is false."""
    _require(state.conflict is not None, "backtrack", "no active conflict")
    clause, sigma = state.conflict.clause, state.conflict.subst
    _require(not clause.is_empty, "backtrack", "conflict clause is empty")
    _require(len(state.trail) > 0, "backtrack", "empty trail")
    top = state.trail[-1]
    _require(top.is_decision, "backtrack", "trail top is not a decision")
    _require(top.annotation.level == state.decisions, "backtrack",
             "top decision is not the current level")

    ground = state.conflict.ground_clause()
    _require(top.literal.complement() in ground.literals, "backtrack",
             "no conflict literal complements the top decision")
    rest = ground.without(ground.literals.index(top.literal.complement()))
    try:
        level = clause_level(rest, state)
    except NotOnTrail:
        raise GuardFailed("backtrack", "remaining conflict literals are not "
                                       "all defined on the trail")
    _require(level < state.decisions, "backtrack",
             f"remaining conflict literals are of level {level}, "
             f"not below {state.decisions}")

    shortest = None
    complements = state.trail.complements
    for p in range(1, len(state.trail) + 1):
        if false_grounding(clause, complements[:p]) is not None:
            shortest = p
            break
    assert shortest is not None, "the conflict is false under the full trail"
    new_trail = state.trail.prefix(shortest - 1)
    learned = canonical_variant(clause)
    return ProblemState(new_trail, state.initial,
                        state.learned + (learned,), state.bound,
                        new_trail.decision_count(), None)


def apply_grow(state: ProblemState, beta2: Literal) -> ProblemState:
    """Clears the trail and strictly increases the bound; learned clauses
    are kept."""
    _require(state.conflict is None, "grow", "a conflict is active")
    _require(is_ground(beta2), "grow", f"{beta2} is not ground")
    cmp = state.bound.ordering.compare_atoms(state.bound.beta.atom, beta2.atom)
    _require(cmp < 0, "grow",
             f"{beta2} is not strictly above {state.bound.beta}")
    return ProblemState(Trail(), state.initial, state.learned,
                        state.bound.grow_to(beta2), 0, None)


# ---------------------------------------------------------------------------
# Applicability searches
# ---------------------------------------------------------------------------

def false_grounding(clause: Clause, targets: tuple[Literal, ...],
                    first_match: Optional[tuple[int, Literal]] = None
                    ) -> Optional[Subst]:
    """A grounding taking every literal of ``clause`` to one of ``targets``.

    With the complements of a trail's literals as ``targets``, that is a
    grounding false under the trail.  Works by matching each literal
    against the targets, backtracking over candidates left to right.  When
    ``first_match`` is (position, ground literal), that clause position is
    pinned to that ground literal before the search.
    """
    order = list(range(len(clause)))
    start: Optional[Subst] = Subst()
    if first_match is not None:
        pin, lit = first_match
        start = match(clause[pin], lit, None) \
            if clause[pin].positive == lit.positive else None
        if start is None:
            return None
        order.remove(pin)

    def extend(i: int, sigma: Subst) -> Optional[Subst]:
        if i == len(order):
            return sigma
        lit = clause[order[i]]
        for target in targets:
            if target.positive != lit.positive:
                continue
            m = match(lit, target, sigma)
            if m is not None:
                found = extend(i + 1, m)
                if found is not None:
                    return found
        return None

    return extend(0, start)


def find_false_instance(state: ProblemState, after_push: bool = False) \
        -> Optional[tuple[Clause, Subst]]:
    """First pool clause with a grounding false under the trail, searching
    clauses by pool position.

    ``after_push`` tells that no instance was false before the trail's last
    literal was pushed.  A newly false instance then has a literal whose
    instance is the complement of the pushed one, so only the clauses with
    a literal of that sign that matches it are searched; in pool order and
    unpinned, so the same clause and grounding come out.
    """
    targets = state.trail.complements
    newest = targets[-1] if after_push and targets else None
    for clause in state.pool:
        if newest is not None and not any(
                lit.positive == newest.positive
                and match(lit.atom, newest.atom) is not None
                for lit in clause):
            continue
        sigma = false_grounding(clause, targets)
        if sigma is not None:
            return clause, sigma
    return None


@dataclass(frozen=True)
class PropagationOption:
    clause: Clause
    lit_index: int
    sigma: Subst
    literal: Literal  # the ground literal that would go on the trail


def propagation_candidates(state: ProblemState,
                           avoid: tuple[str, ...] = ()) \
        -> Iterator[PropagationOption]:
    """All Propagate instances, deterministically ordered.

    A bounded grounding of a pool clause propagates when exactly one ground
    literal of the instance is undefined and the rest are false.
    """
    for clause in state.pool:
        for sigma, instance in grounded_instances(clause, state.bound):
            undefined: list[int] = []
            satisfied = False
            for q, lit in enumerate(instance.literals):
                value = state.trail.truth_value(lit)
                if value is True:
                    satisfied = True
                    break
                if value is None:
                    undefined.append(q)
            if satisfied or not undefined:
                continue
            first = instance[undefined[0]]
            if any(instance[q] != first for q in undefined[1:]):
                continue
            if first.atom.pred in avoid:
                continue
            yield PropagationOption(clause, undefined[0], sigma, first)


@dataclass(frozen=True)
class DecideOption:
    clause: Clause
    lit_index: int
    sigma: Subst
    negate: bool
    literal: Literal  # the ground literal that would go on the trail


class _DecisionIndex:
    """The atoms below a bound that instantiate a pool literal, each with
    its first source, in the enumeration order of the atoms.

    An atom's first source is the first pool clause, and in it the first
    literal, whose atom matches it, of either sign.  The pool grows only at
    its end, so a source never changes: an appended clause is matched only
    against the atoms that have none yet.
    """

    def __init__(self, bound):
        self.pool: tuple[Clause, ...] = ()
        # (position in the enumeration, atom) of the atoms with no source
        self.unsourced: dict[str, list[tuple[int, Atom]]] = {}
        for i, atom in enumerate(bound.atoms_below()):
            self.unsourced.setdefault(atom.pred, []).append((i, atom))
        # (position, atom, its positive and its negative option), by position
        self.entries: list[tuple[int, Atom, DecideOption, DecideOption]] = []

    def extend(self, pool: tuple[Clause, ...]):
        found = []
        for clause in pool[len(self.pool):]:
            for q, lit in enumerate(clause.literals):
                pending = self.unsourced.get(lit.atom.pred)
                if not pending:
                    continue
                left = []
                for i, atom in pending:
                    m = match(lit.atom, atom)
                    if m is None:
                        left.append((i, atom))
                        continue
                    found.append((i, atom,
                                  DecideOption(clause, q, m, not lit.positive,
                                               Literal(atom, True)),
                                  DecideOption(clause, q, m, lit.positive,
                                               Literal(atom, False))))
                self.unsourced[lit.atom.pred] = left
        self.pool = pool
        if found:
            self.entries = sorted(self.entries + found,
                                  key=lambda entry: entry[0])


def _decision_index(state: ProblemState) -> _DecisionIndex:
    """The bound's index, extended to the state's pool; rebuilt when the
    pool does not extend the one it was built for."""
    pool = state.pool
    index = state.bound.decision_index
    if index is None or pool[:len(index.pool)] != index.pool:
        index = state.bound.decision_index = _DecisionIndex(state.bound)
    if len(pool) > len(index.pool):
        index.extend(pool)
    return index


def _decide_options(state: ProblemState,
                    avoid: tuple[str, ...]) -> Iterator[DecideOption]:
    position = state.trail.position_of_atom
    for _, atom, positive, negative in _decision_index(state).entries:
        if atom.pred not in avoid and position(atom) is None:
            yield positive
            yield negative


def decision_candidates(state: ProblemState,
                        avoid: tuple[str, ...] = ()) -> list[DecideOption]:
    """Undefined bounded instances of pool literals, both polarities,
    ordered by the atom enumeration (positive sign first)."""
    return list(_decide_options(state, avoid))


def enables_conflict(state: ProblemState, lit: Literal) -> bool:
    """Would some clause instance become false right after deciding ``lit``?

    A newly false instance must use the new literal, so the matcher pins one
    clause literal to its complement.
    """
    target = lit.complement()
    targets = state.trail.complements + (target,)
    for clause in state.pool:
        for pin in range(len(clause)):
            if clause[pin].positive != target.positive:
                continue
            if false_grounding(clause, targets,
                               first_match=(pin, target)) is not None:
                return True
    return False


def reasonable_decisions(state: ProblemState,
                         avoid: tuple[str, ...] = ()) -> list[DecideOption]:
    """Decide candidates that do not enable an immediate Conflict."""
    return [opt for opt in decision_candidates(state, avoid)
            if not enables_conflict(state, opt.literal)]


def first_reasonable_decision(state: ProblemState,
                              avoid: tuple[str, ...] = ()) \
        -> Optional[DecideOption]:
    """The first of ``reasonable_decisions``, testing no candidate after
    it."""
    return next((opt for opt in _decide_options(state, avoid)
                 if not enables_conflict(state, opt.literal)), None)
