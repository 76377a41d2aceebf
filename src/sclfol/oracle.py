"""Independent brute-force verification oracles.

Everything here is deliberately slow and direct: exhaustive DPLL over ground
clauses, definition-unfolding entailment, redundancy by enumerating smaller
ground instances, and proof replay built only on the term kernel.  By
convention this module must not call into the calculus or strategy modules,
so its answers are an independent check on them.  Besides the term
kernel, whose one matcher ``terms.match`` is checked by brute force, it
shares with the search only ``orderings.bounded_codes``, which is checked
by brute force too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .orderings import Bound, EnumerationCapExceeded, TrailOrder, \
    bounded_groundings, bounded_instances, bounded_instances_of_set
from .proofs import Derivation, FactorizeStep, Proof, ResolveStep, Step
from .terms import (
    Atom, Clause, Closure, Literal, Subst, alpha_equal, apply, is_ground,
    match, mgu, rename_apart, same_multiset, unify_all, variables_of,
)

DEFAULT_ATOM_CAP = 24


class CapExceeded(RuntimeError):
    def __init__(self, n_atoms: int, cap: int):
        super().__init__(f"{n_atoms} ground atoms exceed the cap of {cap}")


# ---------------------------------------------------------------------------
# Ground satisfiability
# ---------------------------------------------------------------------------

def ground_sat(clauses: Iterable[Clause],
               cap_atoms: int = DEFAULT_ATOM_CAP) -> Optional[dict[Atom, bool]]:
    """Exhaustive DPLL.  Returns a satisfying total assignment or None.

    Deterministic: atoms are indexed in sorted text order and branched on
    smallest-index first, trying True before False.
    """
    clause_list = [tuple(c.literals) for c in clauses]
    atoms = sorted({lit.atom for c in clause_list for lit in c}, key=str)
    if len(atoms) > cap_atoms:
        raise CapExceeded(len(atoms), cap_atoms)
    index = {a: i + 1 for i, a in enumerate(atoms)}
    cnf = []
    for c in clause_list:
        enc = frozenset(index[l.atom] if l.positive else -index[l.atom]
                        for l in c)
        if any(-x in enc for x in enc):
            continue  # tautology
        cnf.append(enc)

    assignment = _dpll(cnf, {})
    if assignment is None:
        return None
    return {a: assignment.get(i, False) for a, i in index.items()}


def _dpll(cnf: list[frozenset[int]], assign: dict[int, bool]):
    cnf = list(cnf)
    assign = dict(assign)
    while True:
        simplified = []
        unit = None
        for clause in cnf:
            undecided = []
            satisfied = False
            for lit in clause:
                val = assign.get(abs(lit))
                if val is None:
                    undecided.append(lit)
                elif val == (lit > 0):
                    satisfied = True
                    break
            if satisfied:
                continue
            if not undecided:
                return None
            if len(undecided) == 1 and unit is None:
                unit = undecided[0]
            simplified.append(frozenset(undecided))
        cnf = simplified
        if unit is None:
            break
        assign[abs(unit)] = unit > 0
    if not cnf:
        return assign
    var = min(abs(l) for clause in cnf for l in clause)
    for value in (True, False):
        result = _dpll(cnf, {**assign, var: value})
        if result is not None:
            return result
    return None


def ground_sat_bruteforce(clauses: Iterable[Clause],
                          cap_atoms: int = 16) -> Optional[dict[Atom, bool]]:
    """Truth-table search; the second route for cross-checking ground_sat."""
    clause_list = [tuple(c.literals) for c in clauses]
    atoms = sorted({lit.atom for c in clause_list for lit in c}, key=str)
    if len(atoms) > cap_atoms:
        raise CapExceeded(len(atoms), cap_atoms)
    for values in itertools.product((True, False), repeat=len(atoms)):
        model = dict(zip(atoms, values))
        if all(any(model[l.atom] == l.positive for l in c) for c in clause_list):
            return model
    return None


def ground_entails(premises: Iterable[Clause], clause: Clause,
                   cap_atoms: int = DEFAULT_ATOM_CAP) -> bool:
    """S entails C iff S plus the complements of C's literals is unsatisfiable."""
    units = [Clause.of(lit.complement()) for lit in clause]
    return ground_sat(list(premises) + units, cap_atoms) is None


def entails_bounded(pool: Sequence[Clause], clause: Clause, bound: Bound,
                    cap_atoms: int = DEFAULT_ATOM_CAP,
                    pool_ground: Optional[list[Clause]] = None) -> bool:
    """Every bounded ground instance of ``clause`` follows from the bounded
    ground instances of ``pool``."""
    if pool_ground is None:
        pool_ground = bounded_instances_of_set(pool, bound)
    return all(ground_entails(pool_ground, inst, cap_atoms)
               for inst in bounded_instances(clause, bound))


def check_entailment_definition(premises: Sequence[Clause], clause: Clause,
                                cap_atoms: int = 16) -> bool:
    """Definition unfolding: every total assignment satisfying the premises
    satisfies the clause.  Truth-table route, for cross-checking."""
    clause_lits = tuple(clause.literals)
    atoms = sorted({l.atom for c in list(premises) + [clause] for l in c},
                   key=str)
    if len(atoms) > cap_atoms:
        raise CapExceeded(len(atoms), cap_atoms)
    for values in itertools.product((True, False), repeat=len(atoms)):
        model = dict(zip(atoms, values))
        if all(any(model[l.atom] == l.positive for l in c) for c in premises):
            if not any(model[l.atom] == l.positive for l in clause_lits):
                return False
    return True


# ---------------------------------------------------------------------------
# Redundancy at a trail snapshot
# ---------------------------------------------------------------------------

def is_redundant_snapshot(clause: Clause, pool: Sequence[Clause],
                          snapshot: TrailOrder, bound: Bound,
                          cap_atoms: int = 64) -> bool:
    """Clause redundancy against ``pool`` under the trail-induced order.

    A ground instance is redundant when it already occurs among the bounded
    ground instances of the pool, or is entailed by the strictly smaller
    ones.  The clause is redundant when every bounded instance is.  Bounded
    instances suffice: any pool instance with a literal at or above the
    bound contains an undefined literal that dominates every literal of the
    (bounded, hence smaller) candidate instance.
    """
    pool_ground = bounded_instances_of_set(pool, bound)
    for sigma in bounded_groundings(clause, bound):
        inst = apply(sigma, clause)
        if any(same_multiset(inst, d) for d in pool_ground):
            continue
        smaller = [d for d in pool_ground
                   if snapshot.compare_clauses(d, inst) < 0]
        if ground_entails(smaller, inst, cap_atoms):
            continue
        return False
    return True


# ---------------------------------------------------------------------------
# Model checking
# ---------------------------------------------------------------------------

def check_model(trail_literals: Iterable[Literal], clauses: Sequence[Clause],
                bound: Bound) -> Optional[Clause]:
    """Checks the literal set against every bounded ground instance.

    A ground clause is true when it shares a literal with the model.
    Returns None if all instances hold, otherwise the first falsified
    instance in the order of ``bounded_instances``.  Each clause's
    groundings are searched in that order by a walk of this function's
    own, not read from the cache of ``orderings.bounded_codes``: a partial
    grounding is dropped as soon as the model makes one of its literals
    true.  The partial groundings searched for one clause count against
    ``bound.cap``, past which ``EnumerationCapExceeded`` is raised: the cap
    limits the work done, not the instances the clause has.  The literal
    set is taken as given; ``check-model`` rejects an inconsistent one
    before calling this.
    """
    model = set(trail_literals)
    # the atoms of the model's negative and of its positive literals
    holds = ({lit.atom for lit in model if not lit.positive},
             {lit.atom for lit in model if lit.positive})
    for clause in clauses:
        determined, earlier = [], set()
        for lit in clause.literals:
            variables = variables_of(lit)
            determined.append(variables <= earlier)
            earlier |= variables
        found = _falsified_from(0, None, (), clause, determined, holds,
                                bound, [0])
        if found is not None:
            return found
    return None


def _falsified_from(i: int, sigma: Optional[Subst], atoms: tuple[Atom, ...],
                    clause: Clause, determined: list[bool], holds: tuple,
                    bound: Bound, searched: list[int]) -> Optional[Clause]:
    """The first instance of ``clause`` with no true literal whose grounding
    extends ``sigma``, which took its first ``i`` literals to ``atoms``;
    ``searched`` counts the partial groundings searched."""
    searched[0] += 1
    if searched[0] > bound.cap:
        raise EnumerationCapExceeded(bound.cap, f"groundings of {clause}")
    literals = clause.literals
    if i == len(literals):
        return Clause(tuple(Literal(atom, lit.positive)
                            for atom, lit in zip(atoms, literals)))
    pattern, true = literals[i].atom, holds[literals[i].positive]
    if determined[i]:
        atom = pattern if sigma is None else apply(sigma, pattern)
        if atom in true or atom not in bound.atom_id:
            return None
        return _falsified_from(i + 1, sigma, atoms + (atom,), clause,
                               determined, holds, bound, searched)
    for atom in bound.atoms_by_predicate.get(pattern.pred, ()):
        m = None if atom in true else match(pattern, atom, sigma)
        if m is not None:
            found = _falsified_from(i + 1, m, atoms + (atom,), clause,
                                    determined, holds, bound, searched)
            if found is not None:
                return found
    return None


# ---------------------------------------------------------------------------
# Proof replay
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepMismatch:
    derivation: str
    step: int  # -1 for the conflict line, len(steps) for the final clause
    message: str

    def __str__(self):
        return f"{self.derivation}, step {self.step}: {self.message}"


def check_proof(clauses_by_name: dict[str, Clause],
                proof: Proof) -> Optional[StepMismatch]:
    """Replays every derivation with the term kernel only.

    Confirms that each Resolve parent is an input clause or an earlier
    learned clause, that every step's side conditions hold, that the
    replayed clause equals the recorded one up to renaming, and that the
    refutation section derives the empty clause.
    """
    known = dict(clauses_by_name)
    for deriv in proof.derivations:
        fail = _replay_derivation(known, deriv)
        if fail is not None:
            return fail
        known[deriv.name] = deriv.clause
    last = proof.refutation
    if last not in known:
        return StepMismatch(last, -1, "refutation names an unknown clause")
    if not known[last].is_empty:
        return StepMismatch(last, -1, "refutation clause is not empty")
    return None


def _replay_derivation(known: dict[str, Clause],
                       deriv: Derivation) -> Optional[StepMismatch]:
    if deriv.start.clause_ref not in known:
        return StepMismatch(deriv.name, -1,
                            f"unknown conflict clause {deriv.start.clause_ref}")
    clause = known[deriv.start.clause_ref]
    subst = deriv.start.subst
    if not is_ground(apply(subst, clause)):
        return StepMismatch(deriv.name, -1,
                            "conflict substitution is not grounding")
    current = Closure(clause, subst)
    for n, step in enumerate(deriv.steps):
        parent = None
        if isinstance(step, ResolveStep):
            parent = known.get(step.clause_ref)
            if parent is None:
                return StepMismatch(deriv.name, n, f"unknown resolve parent "
                                                   f"{step.clause_ref}")
        result = replay_step(current, step, parent)
        if isinstance(result, str):
            return StepMismatch(deriv.name, n, result)
        current = result
    if not alpha_equal(current.clause, deriv.clause):
        return StepMismatch(
            deriv.name, len(deriv.steps),
            f"replayed {current.clause}, recorded {deriv.clause}")
    return None


def replay_step(current: Closure, step: Step,
                parent: Optional[Clause] = None) -> Union[Closure, str]:
    """One Resolve or Factorize of a derivation, replayed from the conflict
    closure ``current`` with the term kernel: the closure it yields, or
    what is wrong with the step.  ``parent`` is the clause a ``ResolveStep``
    names.  Whatever clauses entail ``current.clause`` and ``parent``
    entail the clause yielded."""
    if isinstance(step, ResolveStep):
        return _replay_resolve(parent, current, step)
    return _replay_factorize(current, step)


def propagation_annotation(clause: Clause, lit_index: int,
                           sigma: Subst) -> tuple[Clause, int]:
    """The factored clause a Propagate step annotates the trail with.

    Duplicate literals that ground to the propagated literal are merged into
    the propagated one by their mgu; all other literals are kept in place.
    This duplicates ``calculus.propagation_split`` on purpose: the oracle
    imports neither ``calculus`` nor ``strategy``, so it stays independent.
    """
    lit_val = apply(sigma, clause[lit_index])
    dup = [q for q in range(len(clause))
           if q != lit_index and apply(sigma, clause[q]) == lit_val]
    delta = unify_all([clause[lit_index]] + [clause[q] for q in dup])
    if delta is None:
        raise ValueError("duplicate literals with equal instances must unify")
    keep = [q for q in range(len(clause)) if q not in dup]
    annotated = Clause(tuple(apply(delta, clause[q]) for q in keep))
    return annotated, keep.index(lit_index)


def _replay_resolve(parent: Clause, current: Closure, step: ResolveStep):
    if not 0 <= step.lit_index < len(parent):
        return f"literal index {step.lit_index} out of range"
    if not is_ground(apply(step.subst, parent)):
        return "parent substitution is not grounding"
    ann_clause, ann_idx = propagation_annotation(parent, step.lit_index,
                                                 step.subst)
    current, parent_closure = rename_apart(
        current, Closure(ann_clause, step.subst))
    k = step.conflict_index
    if not 0 <= k < len(current.clause):
        return f"conflict index {k} out of range"
    resolved = current.clause[k]
    top_lit = apply(parent_closure.subst, parent_closure.clause[ann_idx])
    if top_lit != apply(current.subst, resolved).complement():
        return ("resolved literal does not match the complement of the "
                "propagated literal")
    eta = mgu(parent_closure.clause[ann_idx], resolved.complement())
    if eta is None:
        return "resolve mgu failed"
    new_lits = (
        tuple(apply(eta, lit) for q, lit in enumerate(current.clause.literals)
              if q != k)
        + tuple(apply(eta, lit)
                for q, lit in enumerate(parent_closure.clause.literals)
                if q != ann_idx))
    return Closure(Clause(new_lits), current.subst.merge(parent_closure.subst))


def _replay_factorize(current: Closure, step: FactorizeStep):
    i, j = step.i, step.j
    n = len(current.clause)
    if not (0 <= i < n and 0 <= j < n and i != j):
        return f"factorize indices {i},{j} out of range"
    li, lj = current.clause[i], current.clause[j]
    if apply(current.subst, li) != apply(current.subst, lj):
        return "factorized literals have different ground instances"
    eta = mgu(li, lj)
    if eta is None:
        return "factorize mgu failed"
    new_lits = tuple(apply(eta, lit)
                     for q, lit in enumerate(current.clause.literals) if q != j)
    return Closure(Clause(new_lits), current.subst)
