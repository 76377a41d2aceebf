"""The rule system: guarded partial transitions on problem states.

Each ``apply_*`` function checks its side conditions and either returns the
successor state or raises ``GuardFailed`` naming the violated condition.
The searches (false-instance matching, propagation candidates, reasonable
decisions) are what a driver uses to pick rule instances; they are
deterministic: clauses by pool position, literals by position, groundings
in the enumeration order of the atoms below the bound.

The searches range over the bounded ground instances of a consistent trail
below the bound.  Every trail the driver builds is one: Decide and
Propagate push only literals below the bound, Grow empties the trail, and
soundness condition 6 requires it.  On such a trail every grounding false
under it is a bounded instance.

Between two Grows every rule works on the same finite set of atoms below
the bound, so the searches keep one ``GroundIndex`` on the ``Bound``
(``Bound.ground_index``), built for a pool and synced to a trail.  It
works in integers: the id of an atom is its position below the bound
(``Bound.atom_id``), and the code of a literal is ``2 * id`` plus a sign
bit, 1 when negative, so a complement is ``code ^ 1``.  This module keeps
no grounding or matching code of its own: ``orderings`` matches each
literal pattern against the atoms below the bound (``atom_matches``) and
grounds each clause once per bound from those tables, caching the codes
on the bound, where the soundness checks and the oracle read them too.
The index holds:

* the bounded ground instances of the pool clauses, numbered in pool order
  and then grounding order, each kept as its pool clause and the codes of
  its literals in clause order, as ``orderings.bounded_codes`` gives them.
  Each is filed by the truth values of its distinct literals under the
  trail: with a true literal it is neither; with none true and exactly one
  undefined it is a unit, and the Propagate candidates are the units in
  order; with none undefined it is false, and Conflict takes the pool
  clause of the lowest-numbered one.  No ``Clause``, ``Literal`` or
  grounding is built for an instance; a candidate is decoded when a search
  yields it, its grounding read off the match tables by
  ``orderings.grounding_of``;
* the decision sources, a table by atom id: the first source of each atom
  that instantiates a pool literal, read off the literals' match tables,
  or ``None``.  A Decide walks it by id, skipping the atoms that are
  defined or have no source, and builds an atom's two options the first
  time it yields them, keeping them in the atom's slot.
  ``first_reasonable_decision`` stops at the first candidate that enables
  no conflict, which is one whose complement is the undefined literal of
  no unit.  The walk starts at a cursor, an id below which every sourced
  atom is defined, and moves it past the atoms it skips at the start.  A
  sync lowers it to the id of each atom in the entries the new trail
  drops, and new sources lower it to the least id they source.

When the pool extends the one the index was built for (a learned clause
is appended), only the new clauses are grounded and matched; any other
pool rebuilds it.  The index keeps no assignment of its own: it reads
``Trail.first`` through the atom of each code, and the entry at that
position off ``Trail.log``.  A sync collects the instances of the atoms
of the entries the old and the new trail do not share
(``Trail.shared_prefix``), sliced off their logs, and files them again
under the new trail in one loop, which also files an extension's new
instances, so a step pays for what changed.  Nothing is counted, so
returning to an earlier trail through Skip or Backtrack takes nothing
back: it files the same instances again.

The index holds no reference to its bound, and a Grow hands its decision
sources on (``GroundIndex.grown``): every atom below the old bound is below
the new one, and its first source depends on the pool alone.  The grown
bound's atoms begin with the old ones under either ordering, so every atom
keeps its id.  The grown index copies the table, options built so far
included, and sources only the new atoms from the pool; an old atom
without a source gets one only from a clause learned later.  The grown
bound also takes over the match tables (``Bound.grow_to``), so a run
matches each pool literal against each atom once and walks the pool's
groundings afresh on each bound.  The old index is not kept.  None of this
changes which candidates come out, or in which order.
"""

from __future__ import annotations

import bisect
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Optional

from .orderings import atom_id_of, atom_matches, bounded_codes, \
    grounding_of
from .state import Decision, NotOnTrail, ProblemState, Propagation, Trail, \
    TrailEntry, clause_level
from .terms import (
    Atom, Clause, Closure, Literal, Subst, apply, canonical_variant,
    is_ground, match, mgu, rename_apart, unify_all, variables_in_order,
)


class GuardFailed(Exception):
    def __init__(self, rule: str, reason: str):
        super().__init__(f"{rule}: {reason}")
        self.rule = rule
        self.reason = reason


def _require(cond: bool, rule: str, reason):
    """Raises unless ``cond``; ``reason`` is the message, or a function
    giving it, called only when the guard fails."""
    if not cond:
        raise GuardFailed(rule,
                          reason if isinstance(reason, str) else reason())


# ---------------------------------------------------------------------------
# Model building rules
# ---------------------------------------------------------------------------

def propagation_split(clause: Clause, lit_index: int,
                      instance: Clause) -> tuple[Clause, int, list[int]]:
    """Splits C0 | C1 | L for Propagate and factors C1 into L.

    ``instance`` is the ground instance of ``clause`` the Propagate uses;
    C1 holds the other literals whose instance is that of L.  Returns the
    annotated clause (C0 | L) after applying the mgu of the C1 literals
    with L, the position of L inside it, and the C0 positions of the
    original clause.  With C1 empty that is ``clause`` itself.
    """
    lit_val = instance[lit_index]
    dup = [q for q in range(len(clause))
           if q != lit_index and instance[q] == lit_val]
    if not dup:
        return clause, lit_index, [q for q in range(len(clause))
                                   if q != lit_index]
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
    atom_id = state.bound.atom_id  # atoms ground and strictly below beta
    if not all(q.atom in atom_id for q in instance.literals):
        _require(is_ground(instance), "propagate",
                 "substitution does not ground the clause")
        _require(state.bound.clause_below(instance), "propagate",
                 lambda: f"instance {instance} is not below the bound "
                         f"{state.bound.beta}")
    lit_val = instance[lit_index]
    annotated, ann_idx, rest = propagation_split(clause, lit_index,
                                                 instance)
    for q in rest:
        _require(state.trail.truth_value(instance[q]) is False, "propagate",
                 lambda: f"side literal {instance[q]} is not false under "
                         f"the trail")
    _require(not state.trail.is_defined(lit_val), "propagate",
             lambda: f"{lit_val} is already defined")
    entry = TrailEntry(lit_val, Propagation(Closure(annotated, sigma), ann_idx,
                                            (clause, lit_index)))
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
    # an atom below the bound is ground and strictly below beta
    below = lit.atom in state.bound.atom_id
    _require(below or is_ground(lit), "decide",
             lambda: f"{lit} is not ground")
    _require(not state.trail.is_defined(lit), "decide",
             lambda: f"{lit} is already defined")
    _require(below or state.bound.literal_below(lit), "decide",
             lambda: f"{lit} is not strictly below the bound "
                     f"{state.bound.beta}")
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
             lambda: f"instance {instance} is not false under the trail")
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
             lambda: f"complement of {top.literal} occurs in the conflict")
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
             lambda: f"remaining conflict literals are of level {level}, "
                     f"not below {state.decisions}")

    # the longest prefix without a false grounding, by bisection: a
    # grounding false under a prefix is false under every longer one
    literals = state.trail.literals
    kept = bisect.bisect_left(
        range(len(literals)), True,
        key=lambda n: false_grounding(clause, literals[:n + 1]) is not None)
    assert kept < len(literals), "the conflict is false under the full trail"
    new_trail = state.trail.prefix(kept)
    learned = canonical_variant(clause)
    return ProblemState(new_trail, state.initial,
                        state.learned + (learned,), state.bound,
                        new_trail.decision_count(), None)


def apply_grow(state: ProblemState, beta2: Literal) -> ProblemState:
    """Clears the trail and strictly increases the bound; learned clauses
    are kept."""
    _require(state.conflict is None, "grow", "a conflict is active")
    _require(is_ground(beta2), "grow", lambda: f"{beta2} is not ground")
    cmp = state.bound.ordering.compare_atoms(state.bound.beta.atom, beta2.atom)
    _require(cmp < 0, "grow",
             lambda: f"{beta2} is not strictly above {state.bound.beta}")
    bound = state.bound.grow_to(beta2)
    if state.bound.ground_index is not None:
        bound.ground_index = state.bound.ground_index.grown(state.bound,
                                                            bound)
    return ProblemState(Trail(), state.initial, state.learned, bound, 0,
                        None)


# ---------------------------------------------------------------------------
# Applicability searches
# ---------------------------------------------------------------------------

def false_grounding(clause: Clause,
                    literals: tuple[Literal, ...]) -> Optional[Subst]:
    """A grounding taking every literal of ``clause`` to the complement of
    one of ``literals``.

    With a trail's literals, that is a grounding false under the trail.
    Works by matching each literal against those of the other sign,
    backtracking over candidates left to right.
    """
    return _false_from(clause, literals, 0, Subst())


def _false_from(clause: Clause, literals: tuple[Literal, ...], i: int,
                sigma: Subst) -> Optional[Subst]:
    """``false_grounding`` for the literals of ``clause`` from position
    ``i`` on, extending ``sigma``."""
    if i == len(clause):
        return sigma
    lit = clause[i]
    for target in literals:
        if target.positive == lit.positive:
            continue
        m = match(lit.atom, target.atom, sigma)
        if m is not None:
            found = _false_from(clause, literals, i + 1, m)
            if found is not None:
                return found
    return None


@dataclass(frozen=True)
class PropagationOption:
    clause: Clause
    lit_index: int
    sigma: Subst
    literal: Literal  # the ground literal that would go on the trail


@dataclass(frozen=True, slots=True)
class DecideOption:
    clause: Clause
    lit_index: int
    sigma: Subst
    negate: bool
    literal: Literal  # the ground literal that would go on the trail


class GroundIndex:
    """What the searches keep about one bound: the bounded ground instances
    of a pool as literal codes, filed under a trail, and the decision
    sources of the atoms below the bound (see the module docstring).  It
    holds no reference to the bound; the methods that need it are passed
    it.

    ``sources`` is indexed by atom id: ``None`` for an atom that no pool
    literal instantiates, else the atom's first source, as its pool clause,
    the literal's position in it and the images of the literal's variables
    (``variables_in_order``), until a decide walk first yields the atom and
    puts its two ``DecideOption``s there, positive first.  It ends at the
    last sourced atom.

    ``extend`` adds the clauses appended to the pool; ``sync`` files the
    instances again under another trail, which must be consistent;
    ``grown`` hands the decision sources to the index of a grown bound.
    """

    def __init__(self, bound):
        """The empty index of ``bound``."""
        self.atoms: tuple[Atom, ...] = bound.atoms_below()  # by id
        self.atom_id: dict[Atom, int] = bound.atom_id
        self.pool: tuple[Clause, ...] = ()  # the pool sources are taken from
        self.grounded = 0  # the pool clauses whose instances are filed
        # (pool clause, literal codes in clause order), by instance number
        self.instances: list[tuple[Clause, tuple[int, ...]]] = []
        self.distinct: list[tuple[int, ...]] = []  # codes, by instance
        # the instances with a distinct literal of each atom, by atom id
        self.occurrences: dict[int, list[int]] = {}
        self.units: dict[int, int] = {}  # unit -> its undefined code
        self.awaiting: Counter = Counter()  # units per undefined code
        self.falsified: set[int] = set()
        self.trail = Trail()  # the trail the instances are filed under
        # the initial and learned clauses of the state last synced to
        self.parts: tuple = (None, None)
        self.sources: list = []
        # no atom with a source and a lower id is undefined under
        # ``self.trail``
        self.cursor = 0

    def grown(self, parent, bound) -> "GroundIndex":
        """The empty index of ``bound``, grown from ``parent``, the bound of
        this index, with this index's decision sources.  The atoms below
        ``bound`` begin with those below ``parent`` (see ``Bound``), which
        keep their ids and their slots, options built so far included, or
        stay unsourced for the clauses appended later; only the new atoms
        are sourced, from the rows of the pool literals' match tables.
        """
        index = GroundIndex(bound)
        index.pool, index.sources = self.pool, list(self.sources)
        for clause in self.pool:
            _source(clause, index.sources, bound, len(parent.atoms_below()))
        return index

    def extend(self, pool: tuple[Clause, ...], bound):
        for clause in pool[len(self.pool):]:
            self.cursor = min(self.cursor,
                              _source(clause, self.sources, bound))
        instances, occurrences = self.instances, self.occurrences
        start = i = len(instances)
        for clause in pool[self.grounded:]:
            for codes in bounded_codes(clause, bound):
                distinct = tuple(dict.fromkeys(codes))
                instances.append((clause, codes))
                self.distinct.append(distinct)
                for code in distinct:
                    occurrences.setdefault(code >> 1, []).append(i)
                i += 1
        self._file(range(start, i))
        self.pool = pool
        self.grounded = len(pool)

    def sync(self, trail: Trail):
        old = self.trail
        shared = old.shared_prefix(trail)
        # the entries after the shared ones, sliced off each trail's log
        dropped = old.log[shared:len(old)]
        atom_id, occurrences = self.atom_id, self.occurrences
        touched = set()
        for entries in (dropped, trail.log[shared:len(trail)]):
            for entry in entries:
                touched.update(occurrences.get(
                    atom_id.get(entry.literal.atom), ()))
        for entry in dropped:  # its atom may be undefined now
            i = atom_id.get(entry.literal.atom)
            if i is not None and i < self.cursor:
                self.cursor = i
        self.trail = trail
        self._file(touched)

    def _file(self, touched):
        """Files each instance numbered in ``touched`` as a unit, as false,
        or neither, by the truth values of its distinct literals under
        ``self.trail``."""
        if not touched:
            return
        # ``first`` before ``log``: it moves a trail shorter than its log
        # to a log of its own, which a sync that touches nothing skips
        first, entries = self.trail.first, self.trail.log
        atoms, distinct = self.atoms, self.distinct
        units, awaiting, falsified = self.units, self.awaiting, self.falsified
        for i in touched:
            undefined = []
            for code in distinct[i]:
                pos = first.get(atoms[code >> 1])
                if pos is None:
                    undefined.append(code)
                elif entries[pos].literal.positive == (not code & 1):
                    undefined = None  # a true literal: neither
                    break
            old = units.pop(i, None)
            if old is not None:
                awaiting[old] -= 1
            if undefined == []:
                falsified.add(i)
            else:
                falsified.discard(i)
                if undefined and len(undefined) == 1:
                    units[i] = undefined[0]
                    awaiting[undefined[0]] += 1


def _source(clause: Clause, sources: list, bound, first: int = 0) -> int:
    """Makes ``clause`` the first source of the atoms from id ``first`` on
    that its literals match, by their ``atom_matches``, and that have no
    source in ``sources``, which it lengthens to the last of them; returns
    the least id it sources, or ``len(sources)``."""
    least = len(sources)
    for q, lit in enumerate(clause.literals):
        table = atom_matches(lit.atom, bound)
        if table and table[-1][0] >= len(sources):
            sources += [None] * (table[-1][0] + 1 - len(sources))
        for i, images in islice(table, bisect.bisect_left(
                table, first, key=atom_id_of), None):
            if sources[i] is None:
                sources[i] = (clause, q, images)
                if i < least:
                    least = i
    return least


def _ground_index(state: ProblemState) -> GroundIndex:
    """The bound's index, extended to the state's pool and synced to its
    trail; rebuilt when the pool does not extend the one it was built
    for.  Only synced when it was last synced to the same initial and
    learned clauses, and taken as it is when also to the same trail."""
    index = state.bound.ground_index
    if index is None or index.parts[0] is not state.initial \
            or index.parts[1] is not state.learned:
        pool = state.pool
        if index is None or pool[:len(index.pool)] != index.pool:
            index = state.bound.ground_index = GroundIndex(state.bound)
        if len(pool) > index.grounded:
            index.extend(pool, state.bound)
        index.parts = (state.initial, state.learned)
    if index.trail is not state.trail:
        index.sync(state.trail)
    return index


def find_false_instance(state: ProblemState) \
        -> Optional[tuple[Clause, Subst]]:
    """The first pool clause with a grounding false under the trail, by
    pool position, with the first such grounding that ``false_grounding``
    finds.  Ranges over the bounded instances of a consistent trail below
    the bound, which hold every false grounding of such a trail.
    """
    index = _ground_index(state)
    if not index.falsified:
        return None
    clause = index.instances[min(index.falsified)][0]
    sigma = false_grounding(clause, state.trail.literals)
    assert sigma is not None, "a false instance is a false grounding"
    return clause, sigma


def propagation_candidates(state: ProblemState,
                           avoid: tuple[str, ...] = ()) \
        -> Iterator[PropagationOption]:
    """All Propagate instances, deterministically ordered.

    A bounded ground instance of a pool clause propagates when none of its
    literals is true and exactly one of its distinct literals is undefined
    under the trail, which must be consistent and below the bound.  The
    literal index is the first position of that literal.  Each option is
    decoded from the unit's codes when it is reached.
    """
    index = _ground_index(state)
    instances, atoms = index.instances, index.atoms
    for i, code in sorted(index.units.items()):
        atom = atoms[code >> 1]
        if atom.pred in avoid:
            continue
        clause, codes = instances[i]
        yield PropagationOption(clause, codes.index(code),
                                grounding_of(clause, codes, state.bound),
                                Literal(atom, not code & 1))


def _decide_options(state: ProblemState,
                    avoid: tuple[str, ...]) -> Iterator[DecideOption]:
    """The options of the sourced undefined atoms, in id order, each pair
    built from its source the first time it is yielded and kept in its
    slot.  The walk starts at the index's cursor, and moves it past the
    atoms it starts with that are defined or have no source."""
    index = _ground_index(state)
    sources, atoms, defined = index.sources, index.atoms, state.trail.first
    j, n = index.cursor, len(sources)
    while j < n and (sources[j] is None or atoms[j] in defined):
        j += 1
    index.cursor = j
    for j in range(j, n):
        slot = sources[j]
        if slot is None:
            continue
        atom = atoms[j]
        if atom.pred in avoid or atom in defined:
            continue
        if len(slot) == 3:  # (pool clause, literal index, images)
            clause, q, images = slot
            lit = clause[q]
            m = Subst._of(dict(zip(variables_in_order(lit.atom), images)))
            slot = sources[j] = (
                DecideOption(clause, q, m, not lit.positive,
                             Literal(atom, True)),
                DecideOption(clause, q, m, lit.positive,
                             Literal(atom, False)))
        yield slot[0]
        yield slot[1]


def decision_candidates(state: ProblemState,
                        avoid: tuple[str, ...] = ()) -> list[DecideOption]:
    """Undefined bounded instances of pool literals, both polarities,
    ordered by the atom enumeration (positive sign first)."""
    return list(_decide_options(state, avoid))


def enables_conflict(state: ProblemState, lit: Literal) -> bool:
    """Would some bounded instance become false right after deciding the
    undefined literal ``lit``, on a consistent trail below the bound?

    Exactly when the complement of ``lit`` is the undefined literal of a
    unit: an instance that becomes false has that complement, the one
    literal the Decide makes false, and all its other literals were false
    before.  The complement's code is that of ``lit`` with the sign bit
    flipped.
    """
    index = _ground_index(state)
    i = index.atom_id.get(lit.atom)
    return i is not None and \
        index.awaiting[(2 * i + (not lit.positive)) ^ 1] > 0


def reasonable_decisions(state: ProblemState,
                         avoid: tuple[str, ...] = ()) -> list[DecideOption]:
    """Decide candidates that do not enable an immediate Conflict over the
    bounded instances, on a consistent trail below the bound."""
    return [opt for opt in decision_candidates(state, avoid)
            if not enables_conflict(state, opt.literal)]


def first_reasonable_decision(state: ProblemState,
                              avoid: tuple[str, ...] = ()) \
        -> Optional[DecideOption]:
    """The first of ``reasonable_decisions``, testing no candidate after
    it."""
    return next((opt for opt in _decide_options(state, avoid)
                 if not enables_conflict(state, opt.literal)), None)
