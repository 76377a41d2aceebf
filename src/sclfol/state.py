"""The problem state: annotated trail, decision levels, soundness checking.

A state is the six-tuple (trail; initial clauses; learned clauses; bound;
decision counter; conflict status).  States are immutable values; the rules
in the calculus module produce new states.

The conflict status is either None (no conflict), a closure with a nonempty
clause (an active conflict), or a closure with the empty clause (refutation
found).  The empty-clause closure is distinct from "no conflict".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

from . import oracle
from .orderings import Bound, TrailOrder, bounded_instances_of_set
from .terms import Atom, Clause, Closure, Literal, apply, is_ground, match


@dataclass(frozen=True)
class Decision:
    level: int

    def __str__(self):
        return str(self.level)


@dataclass(frozen=True)
class Propagation:
    closure: Closure
    lit_index: int  # position of the propagated literal inside the closure

    def __str__(self):
        return str(self.closure)


Annotation = Union[Decision, Propagation]


@dataclass(frozen=True)
class TrailEntry:
    literal: Literal
    annotation: Annotation

    def __post_init__(self):
        if not is_ground(self.literal):
            raise ValueError(f"trail literal {self.literal} is not ground")

    @property
    def is_decision(self) -> bool:
        return isinstance(self.annotation, Decision)

    def __str__(self):
        return f"{self.literal}^{self.annotation}"


@dataclass(frozen=True)
class Trail:
    """A sequence of trail entries, never changed once built.

    Lookups go through an index built on the first query: each atom's
    first position, so an inconsistent trail reads as its earliest entry.
    ``complements`` holds the complemented trail literals, in trail order.
    """

    entries: tuple[TrailEntry, ...] = ()

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    @property
    def literals(self) -> tuple[Literal, ...]:
        return tuple(e.literal for e in self.entries)

    def push(self, entry: TrailEntry) -> "Trail":
        return Trail(self.entries + (entry,))

    def pop(self) -> "Trail":
        return Trail(self.entries[:-1])

    def prefix(self, n: int) -> "Trail":
        return Trail(self.entries[:n])

    def decision_count(self) -> int:
        return sum(1 for e in self.entries if e.is_decision)

    @cached_property
    def _first_position(self) -> dict[Atom, int]:
        first: dict[Atom, int] = {}
        for i, e in enumerate(self.entries):
            first.setdefault(e.literal.atom, i)
        return first

    @cached_property
    def complements(self) -> tuple[Literal, ...]:
        return tuple(e.literal.complement() for e in self.entries)

    def position_of_atom(self, atom: Atom) -> Optional[int]:
        return self._first_position.get(atom)

    def truth_value(self, lit: Literal) -> Optional[bool]:
        """True if the literal is on the trail, False if its complement is,
        None otherwise."""
        pos = self.position_of_atom(lit.atom)
        if pos is None:
            return None
        return self.entries[pos].literal == lit

    def is_defined(self, lit: Literal) -> bool:
        return self.position_of_atom(lit.atom) is not None

    def all_false(self, clause: Clause) -> bool:
        return all(self.truth_value(lit) is False for lit in clause)

    def __str__(self):
        return ", ".join(str(e) for e in self.entries)


@dataclass(frozen=True)
class ProblemState:
    trail: Trail
    initial: tuple[Clause, ...]
    learned: tuple[Clause, ...]
    bound: Bound
    decisions: int
    conflict: Optional[Closure] = None

    @staticmethod
    def start(clauses, bound: Bound) -> "ProblemState":
        return ProblemState(Trail(), tuple(clauses), (), bound, 0, None)

    @property
    def pool(self) -> tuple[Clause, ...]:
        return self.initial + self.learned

    @property
    def is_bot(self) -> bool:
        return self.conflict is not None and self.conflict.clause.is_empty

    def trail_order(self) -> TrailOrder:
        return TrailOrder(self.trail.literals, self.bound.ordering)

    def __str__(self):
        learned = "{" + ", ".join(str(c) for c in self.learned) + "}"
        status = "T" if self.conflict is None else self.conflict
        return (f"({self.trail}; N; {learned}; {self.bound.beta}; "
                f"{self.decisions}; {status})")


class NotOnTrail(ValueError):
    pass


def literal_level(lit: Literal, state: ProblemState) -> int:
    """Level of a defined literal: the level of the first decision at or
    left of its occurrence; 0 when no decision precedes it."""
    pos = state.trail.position_of_atom(lit.atom)
    if pos is None:
        raise NotOnTrail(str(lit))
    level = 0
    for entry in state.trail.entries[:pos + 1]:
        if entry.is_decision:
            level = entry.annotation.level
    return level


class UndefinedLiteral(ValueError):
    pass


def clause_level(clause: Clause, state: ProblemState) -> int:
    """Maximal literal level; the empty clause has level 0."""
    level = 0
    for lit in clause:
        if state.trail.position_of_atom(lit.atom) is None:
            raise UndefinedLiteral(str(lit))
        level = max(level, literal_level(lit, state))
    return level


# ---------------------------------------------------------------------------
# Soundness checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    condition: int  # 1..6
    witness: str

    def __str__(self):
        return f"condition {self.condition}: {self.witness}"


def soundness_check(state: ProblemState, cap_atoms: int = 128,
                    cache: Optional[dict] = None) -> list[Violation]:
    """Checks the six sound-state conditions; returns violations, never raises.

    1. the trail is consistent;
    2. each propagation's side clause is false and its literal undefined
       under the preceding prefix, and the annotated clause follows from
       the clause pool;
    3. each decision literal is undefined under the preceding prefix;
    4. the initial clauses entail every learned clause;
    5. an active conflict closure is false under the trail and its ground
       instance follows from the bounded groundings of the initial clauses;
    6. every trail literal is below the bound and instantiates a pool
       literal (of either polarity, matching how decisions are drawn).

    The entailment checks in 2, 4 and 5 are decided exactly over the
    beta-bounded groundings.
    """
    if cache is None:
        cache = {}
    out: list[Violation] = []
    trail = state.trail
    pool = state.pool

    for i, entry in enumerate(trail):
        if trail.position_of_atom(entry.literal.atom) != i:
            out.append(Violation(1, f"{entry.literal} conflicts with an "
                                    f"earlier literal on the same atom"))

    for i, entry in enumerate(trail):
        defined_before = trail.position_of_atom(entry.literal.atom) != i
        if isinstance(entry.annotation, Propagation):
            closure = entry.annotation.closure
            idx = entry.annotation.lit_index
            lit = apply(closure.subst, closure.clause[idx])
            if lit != entry.literal:
                out.append(Violation(2, f"annotation of {entry.literal} "
                                        f"propagates {lit}"))
                continue
            side = closure.clause.without(idx)
            # the prefix holds an atom exactly when its first position does
            if not all(trail.truth_value(q) is False
                       and trail.position_of_atom(q.atom) < i
                       for q in apply(closure.subst, side)):
                out.append(Violation(2, f"side literals of {closure} are not "
                                        f"all false under the prefix"))
            if defined_before:
                out.append(Violation(2, f"{entry.literal} already defined "
                                        f"before its propagation"))
            if not _entails_cached(pool, closure.clause, state.bound,
                                   cap_atoms, cache, tag="pool"):
                out.append(Violation(2, f"pool does not entail {closure.clause}"))
        else:
            if defined_before:
                out.append(Violation(3, f"decision {entry.literal} already "
                                        f"defined before its position"))

    for learned in state.learned:
        if not _entails_cached(state.initial, learned, state.bound,
                               cap_atoms, cache, tag="initial"):
            out.append(Violation(4, f"initial clauses do not entail {learned}"))

    if state.conflict is not None:
        inst = state.conflict.ground_clause()
        if not trail.all_false(inst):
            out.append(Violation(5, f"conflict {state.conflict} is not false "
                                    f"under the trail"))
        n_ground = _ground_pool(state.initial, state.bound, cache, "initial")
        try:
            if not oracle.ground_entails(n_ground, inst, cap_atoms):
                out.append(Violation(5, f"bounded groundings do not entail "
                                        f"{inst}"))
        except oracle.CapExceeded as exc:
            out.append(Violation(5, f"entailment check failed: {exc}"))

    pool_literals = [lit for c in pool for lit in c]
    for entry in trail:
        if not state.bound.literal_below(entry.literal):
            out.append(Violation(6, f"{entry.literal} is not below "
                                    f"{state.bound.beta}"))
        if not _instantiates_pool(entry.literal, pool_literals):
            out.append(Violation(6, f"{entry.literal} instantiates no pool "
                                    f"literal"))
    return out


def _instantiates_pool(lit: Literal, pool_literals) -> bool:
    # either polarity: decisions may guess the complement of a clause literal
    for cand in pool_literals:
        if match(cand.atom, lit.atom) is not None:
            return True
    return False


def _ground_pool(clauses, bound: Bound, cache: dict, tag: str):
    key = (tag, len(clauses), bound.beta)
    if key not in cache:
        cache[key] = bounded_instances_of_set(clauses, bound)
    return cache[key]


def _entails_cached(clauses, clause: Clause, bound: Bound, cap_atoms: int,
                    cache: dict, tag: str) -> bool:
    key = ("ent", tag, len(clauses), bound.beta, clause)
    if key in cache:
        return cache[key]
    ground = _ground_pool(clauses, bound, cache, tag)
    try:
        ok = oracle.entails_bounded(clauses, clause, bound, cap_atoms,
                                    pool_ground=ground)
    except oracle.CapExceeded:
        ok = False
    cache[key] = ok
    return ok


# ---------------------------------------------------------------------------
# Trace serialization
# ---------------------------------------------------------------------------

def trace_line(rule: str, detail: str, state: ProblemState) -> str:
    """One transition per line: rule, acted-on item, resulting k and status.

    Tab-separated with a stable field order, so traces diff cleanly.
    """
    if state.conflict is None:
        status = "T"
    elif state.is_bot:
        status = f"bot . {state.conflict.subst}"
    else:
        status = str(state.conflict)
    return f"{rule}\t{detail}\tk={state.decisions}\tstatus={status}"
