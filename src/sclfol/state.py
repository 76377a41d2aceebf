"""The problem state: annotated trail, decision levels, soundness checking.

A state is the six-tuple (trail; initial clauses; learned clauses; bound;
decision counter; conflict status).  States are immutable values; the rules
in the calculus module produce new states.

The conflict status is either None (no conflict), a closure with a nonempty
clause (an active conflict), or a closure with the empty clause (refutation
found).  The empty-clause closure is distinct from "no conflict".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Optional, Union

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
    # the pool clause and literal index it was applied to; None by hand
    source: Optional[tuple[Clause, int]] = field(
        default=None, compare=False, repr=False)

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


class Trail:
    """A sequence of trail entries, never changed once built.

    A trail is the first ``len`` entries of a log: one list of entries,
    only ever appended to, and each atom's first position in it.  The
    trails made from one another by ``push``, ``pop`` and ``prefix`` share
    their log, as a CDCL solver's trail is one array that it cuts short on
    backtrack (Een and Sorensson, "An Extensible SAT-solver", 2003).
    ``pop`` and ``prefix`` only shorten the length.  ``push`` onto a trail
    as long as its log appends the entry, and the atom's position if the
    atom is new.  A trail shorter than its log moves to a log of its own
    entries when it is pushed onto or asked for ``first``; in a run that
    happens once per Backtrack, not once per step.

    Lookups go through the log's map, in which a position counts only
    below the trail's length, so an inconsistent trail reads as its
    earliest entry.  The map is the one record of the trail's assignment,
    which everything else reads.  A level is read off the entries left of
    a position (``literal_level``), and the decisions are counted where
    asked.  Trails compare and hash by their entries.
    """

    __slots__ = ("_log", "_first", "_len")

    def __init__(self, entries: Iterable[TrailEntry] = ()):
        self._log, self._first = _log_of(entries)
        self._len = len(self._log)

    def __len__(self):
        return self._len

    def __iter__(self):
        return islice(self._log, self._len)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self._log.__getitem__, range(self._len)[i]))
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("trail index out of range")
        return self._log[i]

    @property
    def entries(self) -> tuple[TrailEntry, ...]:
        return tuple(self)

    @property
    def literals(self) -> tuple[Literal, ...]:
        return tuple(e.literal for e in self)

    def _move(self):
        """Moves this trail, shorter than its log, to a copy of its own
        entries."""
        self._log, self._first = _log_of(self._log[:self._len])

    def push(self, entry: TrailEntry) -> "Trail":
        log, n = self._log, self._len
        if len(log) > n:
            self._move()
            log = self._log
        log.append(entry)
        self._first.setdefault(entry.literal.atom, n)
        return _view(log, self._first, n + 1)

    def pop(self) -> "Trail":
        return self.prefix(self._len - 1)

    def prefix(self, n: int) -> "Trail":
        """The first ``n`` entries: all of them if there are fewer, none
        if ``n`` is negative."""
        return _view(self._log, self._first, max(0, min(n, self._len)))

    def shared_prefix(self, other: "Trail") -> int:
        """How many leading entries this trail and ``other`` share as the
        same objects: the shorter length for two trails of one log, and
        otherwise as many as compare identical."""
        if self._log is other._log:
            return min(self._len, other._len)
        a, b = self._log, other._log
        n, most = 0, min(self._len, other._len)
        while n < most and a[n] is b[n]:
            n += 1
        return n

    @property
    def first(self) -> dict[Atom, int]:
        """Each atom's first position: the dict of this trail's log, once
        the trail is as long as its log (it moves to a copy otherwise).
        It holds this trail's map until a trail is pushed onto this one."""
        if len(self._log) > self._len:
            self._move()
        return self._first

    @property
    def log(self) -> list[TrailEntry]:
        """The entries of this trail's log, to read and not to change:
        they begin with the trail's, and after ``first`` they are the
        trail's."""
        return self._log

    def decision_count(self) -> int:
        return sum(isinstance(e.annotation, Decision) for e in self)

    def position_of_atom(self, atom: Atom) -> Optional[int]:
        pos = self._first.get(atom)
        return None if pos is None or pos >= self._len else pos

    def truth_value(self, lit: Literal) -> Optional[bool]:
        """True if the literal is on the trail, False if its complement is,
        None otherwise."""
        pos = self.position_of_atom(lit.atom)
        if pos is None:
            return None
        return self._log[pos].literal == lit

    def is_defined(self, lit: Literal) -> bool:
        return self.position_of_atom(lit.atom) is not None

    def all_false(self, clause: Clause) -> bool:
        return all(self.truth_value(lit) is False for lit in clause)

    def __eq__(self, other):
        if not isinstance(other, Trail):
            return NotImplemented
        return self._len == other._len and (
            self._log is other._log or self.entries == other.entries)

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"Trail(entries={self.entries!r})"

    def __str__(self):
        return ", ".join(str(e) for e in self)


def _log_of(entries: Iterable[TrailEntry]) -> tuple[list, dict]:
    """The log of ``entries``: their list, and each atom's first position
    in it."""
    log, first = list(entries), {}
    for i, e in enumerate(log):
        first.setdefault(e.literal.atom, i)
    return log, first


def _view(log: list, first: dict, n: int) -> Trail:
    """The trail of the first ``n`` entries of the log ``log``, whose map
    is ``first``."""
    trail = object.__new__(Trail)
    trail._log, trail._first, trail._len = log, first, n
    return trail


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
    """Level of a defined literal: the level of the last decision at or
    left of its occurrence; 0 when no decision precedes it."""
    pos = state.trail.position_of_atom(lit.atom)
    if pos is None:
        raise NotOnTrail(str(lit))
    trail = state.trail
    return next((trail[i].annotation.level for i in range(pos, -1, -1)
                 if isinstance(trail[i].annotation, Decision)), 0)


def clause_level(clause: Clause, state: ProblemState) -> int:
    """Maximal literal level; the empty clause has level 0.  Raises
    ``NotOnTrail`` when a literal is undefined."""
    return max((literal_level(lit, state) for lit in clause), default=0)


# ---------------------------------------------------------------------------
# Soundness checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    condition: int  # 1..6
    witness: str

    def __str__(self):
        return f"condition {self.condition}: {self.witness}"


SOUNDNESS_ATOM_CAP = 128  # ground atoms per entailment check of --check full


def soundness_check(state: ProblemState,
                    cache: Optional[dict] = None) -> list[Violation]:
    """Checks the six sound-state conditions; returns violations, never raises.

    1. the trail is consistent;
    2. each propagation's side clause is false and its literal undefined
       under the preceding prefix, and the annotated clause follows from
       the clause pool;
    3. each decision literal is undefined under the preceding prefix;
    4. the initial clauses entail every learned clause;
    5. an active conflict closure is false under the trail and its ground
       instance follows from the initial clauses;
    6. every trail literal is below the bound and instantiates a pool
       literal (of either polarity, matching how decisions are drawn).

    The entailments of 2, 4 and 5 need no check for a clause in
    ``cache["derived"]``: a set of clauses the initial clauses are known to
    entail.  A run's recorder fills it under ``--check full``: it holds the
    initial clauses, and each clause the recorder certified by replaying
    the step that made it (a factored propagation clause, a conflict
    clause, a learned clause) from certified clauses.  These are
    first-order facts, so the set outlives a Grow.  A clause of the pool
    needs no check under 2 either: the pool entails its own members.  Any
    other entailment is decided exactly over the beta-bounded groundings,
    which is sufficient but, with function symbols, not necessary; a check
    that exceeds ``SOUNDNESS_ATOM_CAP`` atoms is reported as failed.

    A ``cache`` carried over the states of one run gives the same result
    as none, for less work.  It keeps each entailment verdict (under 2 and
    4 per clause, under 5 per conflict instance; never a cap overflow), the
    pool's atoms by predicate for 6 and, after a result without
    violations, the trail, bound and pool checked.
    While the bound is the same object and the pool extends that one,
    conditions 1, 2, 3 and 6 are skipped for the entries the trail still
    shares with it (``Trail.shared_prefix``): they read only the entries up
    to their own, and a larger pool entails and instantiates at least as
    much.
    """
    if cache is None:
        cache = {}
    out: list[Violation] = []
    trail = state.trail
    pool = state.pool
    derived = cache.get("derived", ())
    unchecked = range(_verified_prefix(state, cache), len(trail))

    for i in unchecked:
        if trail.position_of_atom(trail[i].literal.atom) != i:
            out.append(Violation(1, f"{trail[i].literal} conflicts with an "
                                    f"earlier literal on the same atom"))

    for i in unchecked:
        entry = trail[i]
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
            if closure.clause not in derived and closure.clause not in pool:
                violation = _entailment_violation(
                    2, "pool does not entail", pool, closure.clause,
                    state.bound, cache, tag="pool")
                if violation is not None:
                    out.append(violation)
        else:
            if defined_before:
                out.append(Violation(3, f"decision {entry.literal} already "
                                        f"defined before its position"))

    for learned in state.learned:
        if learned in derived:
            continue
        violation = _entailment_violation(
            4, "initial clauses do not entail", state.initial, learned,
            state.bound, cache, tag="initial")
        if violation is not None:
            out.append(violation)

    if state.conflict is not None:
        inst = state.conflict.ground_clause()
        if not trail.all_false(inst):
            out.append(Violation(5, f"conflict {state.conflict} is not false "
                                    f"under the trail"))
        if state.conflict.clause not in derived:
            key = ("conflict", state.bound.beta, inst)
            try:
                if key not in cache:
                    n_ground = _ground_pool(state.initial, state.bound,
                                            cache, "initial")
                    cache[key] = oracle.ground_entails(n_ground, inst,
                                                       SOUNDNESS_ATOM_CAP)
                if not cache[key]:
                    out.append(Violation(5, f"bounded groundings do not "
                                            f"entail {inst}"))
            except oracle.CapExceeded as exc:
                out.append(Violation(5, f"entailment check failed: {exc}"))

    if unchecked:
        atom_id = state.bound.atom_id  # the atoms below beta
        pool_atoms = _pool_atoms(state, cache)
    for i in unchecked:
        lit = trail[i].literal
        if lit.atom not in atom_id and not state.bound.literal_below(lit):
            out.append(Violation(6, f"{lit} is not below {state.bound.beta}"))
        # either polarity: decisions may guess the complement of a clause
        # literal
        if all(match(atom, lit.atom) is None
               for atom in pool_atoms.get(lit.atom.pred, ())):
            out.append(Violation(6, f"{lit} instantiates no pool literal"))

    if not out:
        cache["sound"] = (trail, state.bound, pool)
    return out


def _verified_prefix(state: ProblemState, cache: dict) -> int:
    """How many leading trail entries the last sound result in ``cache``
    covers for conditions 1, 2, 3 and 6 (see ``soundness_check``)."""
    trail, bound, pool = cache.get("sound", (Trail(), None, ()))
    if bound is not state.bound or state.pool[:len(pool)] != pool:
        return 0
    return trail.shared_prefix(state.trail)


def _pool_atoms(state: ProblemState, cache: dict) -> dict[str, tuple]:
    """The distinct atoms of the pool's literals by predicate, kept in
    ``cache`` while ``state.initial`` and ``state.learned`` are the same
    tuples (``state.pool`` is a new one on every call)."""
    initial, learned, by_pred = cache.get("pool atoms", ((), (), None))
    if by_pred is None or initial is not state.initial \
            or learned is not state.learned:
        atoms: dict[str, dict[Atom, None]] = {}
        for clause in state.pool:
            for lit in clause:
                atoms.setdefault(lit.atom.pred, {})[lit.atom] = None
        by_pred = {pred: tuple(found) for pred, found in atoms.items()}
        cache["pool atoms"] = (state.initial, state.learned, by_pred)
    return by_pred


def _ground_pool(clauses, bound: Bound, cache: dict, tag: str):
    key = (tag, len(clauses), bound.beta)
    if key not in cache:
        cache[key] = bounded_instances_of_set(clauses, bound)
    return cache[key]


def _entailment_violation(condition: int, failure: str, clauses,
                          clause: Clause, bound: Bound, cache: dict,
                          tag: str) -> Optional[Violation]:
    """None when ``clauses`` entail ``clause`` over the bounded groundings;
    otherwise ``failure`` followed by the clause, or the cap overflow."""
    key = ("ent", tag, len(clauses), bound.beta, clause)
    if key not in cache:
        ground = _ground_pool(clauses, bound, cache, tag)
        try:
            cache[key] = oracle.entails_bounded(
                clauses, clause, bound, SOUNDNESS_ATOM_CAP, pool_ground=ground)
        except oracle.CapExceeded as exc:
            return Violation(condition, f"entailment check failed: {exc}")
    if cache[key]:
        return None
    return Violation(condition, f"{failure} {clause}")


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
