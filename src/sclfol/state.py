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


class _Node:
    """A trail's place in the persistent map of first positions that the
    trails made from one another share (see ``Trail``): the root holds the
    map in ``first``; any other node links to a neighbouring trail's node,
    with the changes (atom, its position, or None for no position) that
    turn that trail's map into this one's, and the number of leading
    entries the two trails share."""

    __slots__ = ("first", "link", "changes", "shared")

    def __init__(self, first: dict):
        self.first = first
        self.link: Optional[_Node] = None

    def reroot(self) -> dict:
        """Makes this node the root, reversing the links on the way to
        the old one; returns the map, now this trail's."""
        path = []
        node = self
        while node.link is not None:
            path.append(node)
            node = node.link
        first = node.first
        for child in reversed(path):  # ``child.link`` is ``node``, the root
            node.changes = tuple(_change(first, atom, pos)
                                 for atom, pos in child.changes)
            node.link, node.shared, node.first = child, child.shared, None
            child.link, child.first = None, first
            node = child
        return first

    def hand_on(self, changes, shared: int) -> "_Node":
        """A new root that takes the map over from this node, the root,
        once its caller has changed the map: ``changes`` turn it back into
        this node's, and the two trails share ``shared`` leading
        entries."""
        child = _Node(self.first)
        self.first, self.link, self.shared = None, child, shared
        self.changes = changes
        return child


def _change(first: dict, atom: Atom, pos: Optional[int]):
    """Gives ``atom`` the position ``pos`` in ``first`` (none if None);
    returns the change that undoes it."""
    old = first.get(atom)
    if pos is None:
        del first[atom]
    else:
        first[atom] = pos
    return atom, old


def _linked(node: _Node, target: _Node, n: int) -> int:
    """At most ``n``: the fewest entries shared by the trails along the
    links from ``node`` to ``target``, which its trail and ``target``'s
    therefore share; 0 when ``target`` is not on the way to the root."""
    while node is not target:
        if node.link is None:
            return 0
        n = min(n, node.shared)
        node = node.link
    return n


@dataclass(frozen=True, slots=True)
class Trail:
    """A sequence of trail entries, never changed once built.

    Lookups go through ``first``, each atom's first position, so an
    inconsistent trail reads as its earliest entry.  It is the one record
    of the trail's assignment, which everything else reads.  A level is
    read off the entries left of a position (``literal_level``), and the
    decisions are counted where asked.

    ``push``, ``pop`` and ``prefix`` hand the map on: the trails made from
    one another share one dict, a persistent map by rerooting (Baker's
    trick; Conchon and Filliatre, "A Persistent Union-Find Data
    Structure", 2007).  The dict holds the map of one trail, the root; the
    node of every other trail links to a neighbour, the trail it was made
    from or one made from it, with the changes between their maps.  A new
    trail becomes the root by changing only the entries it adds or drops.
    Asking an older trail for its map moves the root back to it along the
    links, undoing those changes, so every trail keeps its answers and
    ``first`` returns the same dict; it holds a trail's map until another
    trail that shares it is made or asked.  The link also gives the
    entries two neighbours share (``shared_prefix``) without a walk.  A
    trail built from its entries builds its map in one pass.
    """

    entries: tuple[TrailEntry, ...] = ()
    _node: _Node = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        first: dict[Atom, int] = {}
        for i, e in enumerate(self.entries):
            first.setdefault(e.literal.atom, i)
        _set_node(self, _Node(first))

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    @property
    def literals(self) -> tuple[Literal, ...]:
        return tuple(e.literal for e in self.entries)

    def _made(self, entries: tuple, changes, shared: int) -> "Trail":
        """The trail of ``entries``, made from this one after ``changes``
        (see ``_Node.hand_on``) turned the map into its own."""
        trail = _new(Trail)
        _set_entries(trail, entries)
        _set_node(trail, self._node.hand_on(changes, shared))
        return trail

    def push(self, entry: TrailEntry) -> "Trail":
        first, n = self.first, len(self.entries)
        atom = entry.literal.atom
        if atom in first:
            return self._made(self.entries + (entry,), (), n)
        first[atom] = n
        return self._made(self.entries + (entry,), ((atom, None),), n)

    def pop(self) -> "Trail":
        return self.prefix(len(self.entries) - 1)

    def prefix(self, n: int) -> "Trail":
        entries = self.entries[:n]
        first, kept = self.first, len(entries)
        changes = []
        for i in range(kept, len(self.entries)):
            atom = self.entries[i].literal.atom
            if first.get(atom) == i:
                del first[atom]
                changes.append((atom, i))
        return self._made(entries, changes, kept)

    def shared_prefix(self, other: "Trail") -> int:
        """How many leading entries this trail and ``other`` share as the
        same objects.  When one is made from the other, the link between
        them says.  Otherwise the links from one towards the other give a
        count to start from, and the entries after it are compared."""
        a, b = self.entries, other.entries
        n = _linked(self._node, other._node, len(a)) \
            or _linked(other._node, self._node, len(b))
        while n < len(a) and n < len(b) and a[n] is b[n]:
            n += 1
        return n

    @property
    def first(self) -> dict[Atom, int]:
        """Each atom's first position: the dict this trail shares, which
        holds this trail's map until another trail is made from it or
        asked."""
        node = self._node
        return node.first if node.link is None else node.reroot()

    def decision_count(self) -> int:
        return sum(isinstance(e.annotation, Decision) for e in self.entries)

    def position_of_atom(self, atom: Atom) -> Optional[int]:
        return self.first.get(atom)

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


_new = object.__new__
_set_entries, _set_node = Trail.entries.__set__, Trail._node.__set__


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
    entries = state.trail.entries
    return next((entries[i].annotation.level for i in range(pos, -1, -1)
                 if isinstance(entries[i].annotation, Decision)), 0)


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
