"""The run driver: regular rule scheduling, conflict resolution, growing.

Scheduling policy (regular mode):

* Conflict has precedence over every other rule.
* In conflict status, Skip/Factorize/Resolve are applied per the factoring
  policy until Backtrack's guard holds or the empty clause appears.
* Otherwise Propagate is preferred over Decide (except under the random
  heuristic, which draws uniformly from both); Decide candidates are
  filtered so no decision enables an immediate conflict.
* Predicates on the avoid list are deprioritized, not forbidden: they are
  used only when nothing else applies, so verdicts stay correct.
* When nothing applies the run stalls: the trail models the bounded
  grounding.  If the grow policy still has budget, the bound is raised and
  the trail rebuilt; otherwise the run ends with a verified partial model.

Exhaustive-propagation mode makes propagation mandatory before any decision
and ignores the avoid list; it exists to reproduce the exponential trail
growth of propagation-first scheduling and carries no non-redundancy
guarantee.
"""

from __future__ import annotations

import functools
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import calculus, oracle
from .calculus import (
    DecideOption, PropagationOption, apply_backtrack,
    apply_conflict, apply_decide, apply_factorize, apply_grow,
    apply_propagate, apply_resolve, apply_skip, find_false_instance,
    propagation_candidates, reasonable_decisions,
)
from .orderings import (
    Bound, CountKBO, GroundLPO, Precedence, TrailOrder,
    ground_atoms_of_weight, make_ordering,
)
from .proofs import ConflictStart, Derivation, FactorizeStep, Proof, \
    ResolveStep
from .state import ProblemState, Propagation, soundness_check, trace_line
from .terms import (
    Atom, Clause, Fn, Literal, Signature, Subst, symbol_count, variables_of,
)


class InvariantViolation(Exception):
    pass


class SignatureExhausted(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    ordering: str = "kbo"
    precedence: Optional[Sequence[str]] = None
    beta: Optional[Literal] = None
    beta_weight: Optional[int] = None
    heuristic: str = "first"  # first | random
    avoid: tuple[str, ...] = ()
    seed: int = 0
    factoring: str = "eager"  # eager | lazy
    mode: str = "regular"  # regular | exhaustive
    max_growths: int = 0  # 0 = grow off
    max_steps: int = 200_000
    check: str = "off"  # off | invariants | full
    enumeration_cap: int = 10 ** 6
    sat_cap: int = 128


@dataclass
class Statistics:
    rule_counts: Counter = field(default_factory=Counter)
    propagations_by_predicate: Counter = field(default_factory=Counter)
    max_trail: int = 0
    max_trail_by_predicate: Counter = field(default_factory=Counter)
    learned: int = 0
    growths: int = 0
    steps: int = 0
    conflicts_total: int = 0
    conflicts_with_propagation_top: int = 0
    episodes: int = 0
    episodes_with_resolve: int = 0
    unreasonable_decides: int = 0

    def as_block(self) -> str:
        lines = [f"verdict_steps={self.steps}"]
        for rule in sorted(self.rule_counts):
            lines.append(f"rule_{rule}={self.rule_counts[rule]}")
        for pred in sorted(self.propagations_by_predicate):
            lines.append(
                f"propagations_{pred}={self.propagations_by_predicate[pred]}")
        lines.append(f"max_trail={self.max_trail}")
        lines.append(f"learned={self.learned}")
        lines.append(f"growths={self.growths}")
        return "\n".join(lines)


@dataclass
class LearnedRecord:
    """What non-redundancy is judged against: the pool and trail-order
    snapshot taken when the conflict of the learning episode fired."""
    clause: Clause
    pool: tuple[Clause, ...]
    snapshot: TrailOrder
    bound: Bound


@dataclass
class RunResult:
    verdict: str  # unsat | sat-bounded | resource-out
    stats: Statistics
    proof: Optional[Proof] = None
    model: Optional[tuple[Literal, ...]] = None
    final_bound: Optional[Bound] = None
    trace: list[str] = field(default_factory=list)
    learned_records: list[LearnedRecord] = field(default_factory=list)
    learned_names: dict[str, Clause] = field(default_factory=dict)
    final_state: Optional[ProblemState] = None

    @property
    def status_line(self) -> str:
        return {"unsat": "UNSATISFIABLE",
                "sat-bounded": "SATISFIABLE-BOUNDED",
                "resource-out": "UNKNOWN(resource)"}[self.verdict]


# ---------------------------------------------------------------------------
# Bound configuration
# ---------------------------------------------------------------------------

BETA_SYMBOL = "betaTop"


def default_beta_weight(clauses: Sequence[Clause]) -> int:
    biggest = max((symbol_count(c) for c in clauses if len(c) > 0), default=1)
    return biggest + 2


def synthesize_beta(signature: Signature, weight: int,
                    precedence: Optional[Precedence] = None) \
        -> tuple[Literal, Signature]:
    """A fresh maximal atom dominating every atom of at most ``weight``
    symbols under count-KBO.

    Uses a fresh predicate of maximal precedence.  With constants available
    the atom gets exactly ``weight + 1`` symbols, so everything at or below
    ``weight`` is strictly smaller by weight alone; without constants the
    signature is propositional and precedence decides.  The arguments are
    the constant least in ``precedence`` (by default, the default one), so
    that no atom of the fresh predicate lies below the bound.
    """
    name = BETA_SYMBOL
    taken = set(signature.symbols())
    while name in taken:
        name += "_"
    constants = signature.constants
    if constants and weight >= 1:
        arity = weight
        if precedence is None:
            precedence = Precedence.default_for(signature)
        smallest = Fn(min(constants, key=precedence.rank.__getitem__))
        atom = Atom(name, (smallest,) * arity)
    else:
        arity = 0
        atom = Atom(name)
    return Literal(atom), signature.with_predicate(name, arity)


def _precedence(signature: Signature, cfg: RunConfig) -> Precedence:
    """The configured precedence, completed by the signature's other
    symbols in their listed order; the default one if none is given."""
    if cfg.precedence is None:
        return Precedence.default_for(signature)
    symbols = list(cfg.precedence)
    symbols += [sym for sym in signature.symbols() if sym not in symbols]
    return Precedence(symbols)


def configure_bound(clauses: Sequence[Clause], cfg: RunConfig) -> Bound:
    if cfg.beta is not None:
        signature = Signature.from_clauses(clauses, extra_literals=[cfg.beta])
        beta = cfg.beta
    else:
        if cfg.ordering != "kbo":
            raise ValueError("a weight-synthesized bound needs the kbo "
                             "ordering; pass an explicit beta literal")
        weight = cfg.beta_weight if cfg.beta_weight is not None \
            else default_beta_weight(clauses)
        signature = Signature.from_clauses(clauses)
        beta, signature = synthesize_beta(signature, weight,
                                          _precedence(signature, cfg))
    ordering = make_ordering(cfg.ordering, _precedence(signature, cfg))
    return Bound(beta, ordering, signature, cfg.enumeration_cap)


def next_beta(bound: Bound) -> Literal:
    """The canonical next bound literal: the largest atom of the smallest
    constructible weight above the current one (KBO), or the successor atom
    in the finite enumeration (LPO).  Raises when no larger atom exists."""
    ordering = bound.ordering
    beta_atom = bound.beta.atom
    sig = bound.signature
    memo: dict = {}
    if isinstance(ordering, CountKBO):
        base = symbol_count(beta_atom)
        window = max(16, 2 + max([k for _, k in sig.functions] or [0])
                     + max([k for _, k in sig.predicates] or [0]))
        for w in range(base + 1, base + window + 1):
            atoms = ground_atoms_of_weight(sig, w, memo, ordering=ordering)
            if atoms:
                return Literal(atoms[-1])  # ascending: the largest
        raise SignatureExhausted(str(bound.beta))
    assert isinstance(ordering, GroundLPO)
    # an LPO bound has no proper function symbols, so its atoms are finite
    heaviest = 1 + max([k for _, k in sig.predicates] or [0])
    above = [a for w in range(1, heaviest + 1)
             for a in ground_atoms_of_weight(sig, w, memo, ordering=ordering)
             if ordering.compare_atoms(a, beta_atom) > 0]
    if not above:
        raise SignatureExhausted(str(bound.beta))
    return Literal(min(above, key=functools.cmp_to_key(ordering.compare_atoms)))


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------

def run(clauses: Sequence[Clause], cfg: RunConfig,
        names: Optional[Sequence[str]] = None) -> RunResult:
    clauses = tuple(clauses)
    if names is None:
        names = [f"c{i + 1}" for i in range(len(clauses))]
    bound = configure_bound(clauses, cfg)
    state = ProblemState.start(clauses, bound)
    rec = _Recorder(cfg, list(names), clauses)
    rng = random.Random(cfg.seed)
    growths = 0

    while rec.stats.steps < cfg.max_steps:
        if state.conflict is not None:
            if state.is_bot:
                rec.close_episode(state)
                return rec.finish_unsat(state)
            state = _conflict_resolution_step(state, cfg, rec)
            continue

        found = find_false_instance(state)
        if found is not None:
            clause, sigma = found
            if rec.last_rule == "decide":
                rec.stats.unreasonable_decides += 1
                if cfg.check != "off":
                    raise InvariantViolation(
                        f"decide enabled an immediate conflict with "
                        f"{clause} . {sigma}")
            new = apply_conflict(state, clause, sigma)
            rec.on_conflict(state, new, clause, sigma)
            state = new
            continue

        choice = _choose_extension(state, cfg, rng)
        if choice is not None:
            kind, option = choice
            if kind == "propagate":
                new = apply_propagate(state, option.clause, option.lit_index,
                                      option.sigma)
                rec.on_propagate(new, option)
            else:
                new = apply_decide(state, option.clause, option.lit_index,
                                   option.sigma, option.negate)
                rec.on_decide(new, option)
            state = new
            continue

        # stalled: the trail models the bounded grounding
        if growths < cfg.max_growths:
            try:
                beta2 = next_beta(state.bound)
            except SignatureExhausted:
                return rec.finish_sat(state)
            new = apply_grow(state, beta2)
            growths += 1
            rec.on_grow(state, new)
            state = new
            continue
        return rec.finish_sat(state)

    return rec.finish_resource_out(state)


def resolve_conflict_loop(state: ProblemState, cfg: RunConfig,
                          rec: Optional["_Recorder"] = None) -> ProblemState:
    """Runs one whole conflict-resolution episode: Skip/Factorize/Resolve
    until Backtrack applies (or the conflict collapses to the empty
    clause)."""
    if rec is None:
        rec = _Recorder(cfg, [], state.initial)
        rec.on_conflict(state, state, state.conflict.clause,
                        state.conflict.subst)
    while state.conflict is not None and not state.is_bot:
        state = _conflict_resolution_step(state, cfg, rec)
    return state


def _conflict_resolution_step(state: ProblemState, cfg: RunConfig,
                              rec: "_Recorder") -> ProblemState:
    closure = state.conflict
    ground = closure.ground_clause()

    if cfg.factoring == "eager":
        pair = _duplicate_pair(ground)
        if pair is not None:
            new = apply_factorize(state, *pair)
            rec.on_factorize(new, *pair)
            return new

    top = state.trail[-1]
    comp_positions = [q for q, lit in enumerate(ground.literals)
                      if lit == top.literal.complement()]
    if isinstance(top.annotation, Propagation) and comp_positions:
        new = apply_resolve(state, comp_positions[0])
        rec.on_resolve(state, new, top, comp_positions[0])
        return new
    if not comp_positions:
        new = apply_skip(state)
        rec.on_skip(state, new, top)
        return new

    # decision on top whose complement occurs in the conflict
    if len(comp_positions) > 1:
        i, j = comp_positions[0], comp_positions[1]
        new = apply_factorize(state, i, j)
        rec.on_factorize(new, i, j)
        return new
    new = apply_backtrack(state)
    rec.on_backtrack(state, new)
    return new


def _duplicate_pair(ground: Clause) -> Optional[tuple[int, int]]:
    seen: dict[Literal, int] = {}
    for q, lit in enumerate(ground.literals):
        if lit in seen:
            return seen[lit], q
        seen[lit] = q
    return None


def _choose_extension(state: ProblemState, cfg: RunConfig,
                      rng: random.Random):
    if cfg.mode == "exhaustive":
        prop = next(iter(propagation_candidates(state)), None)
        if prop is not None:
            return "propagate", prop
        decides = reasonable_decisions(state)
        return ("decide", decides[0]) if decides else None

    # the avoid list is only a preference: a second pass admits everything
    for avoid in (cfg.avoid, ()):
        if cfg.heuristic == "random":
            options: list = [("propagate", p)
                             for p in propagation_candidates(state, avoid)]
            options += [("decide", d)
                        for d in reasonable_decisions(state, avoid)]
            if options:
                return rng.choice(options)
        else:
            prop = next(iter(propagation_candidates(state, avoid)), None)
            if prop is not None:
                return "propagate", prop
            decides = reasonable_decisions(state, avoid)
            if decides:
                return "decide", decides[0]
        if not avoid:  # this pass already admitted every predicate
            break
    return None


# ---------------------------------------------------------------------------
# Recording: traces, proofs, snapshots, invariant checking
# ---------------------------------------------------------------------------

class _Recorder:
    def __init__(self, cfg: RunConfig, names: list[str],
                 clauses: Sequence[Clause]):
        self.cfg = cfg
        self.stats = Statistics()
        self.trace: list[str] = []
        self.clause_by_name: dict[str, Clause] = {}
        self.name_by_clause: dict[Clause, str] = {}
        for clause, name in zip(clauses, names):
            self._add_name(clause, name)
        self.learned_name_set: set[str] = set()
        self._learned_counter = 0
        self.derivations: list[Derivation] = []
        self.learned_records: list[LearnedRecord] = []
        self.episode_start: Optional[ConflictStart] = None
        self.episode_steps: list = []
        self.episode_resolves = 0
        self.episode_snapshot: Optional[TrailOrder] = None
        self.episode_pool: tuple[Clause, ...] = ()
        self.propagation_sources: dict = {}
        self.last_rule: Optional[str] = None
        self.sound_cache: dict = {}

    # -- naming ------------------------------------------------------------

    def name_of(self, clause: Clause) -> str:
        name = self.name_by_clause.get(clause)
        if name is None:
            name = f"a{len(self.clause_by_name) + 1}"
            self._add_name(clause, name)
        return name

    def add_learned_name(self, clause: Clause) -> str:
        while True:
            self._learned_counter += 1
            name = f"u{self._learned_counter}"
            if name not in self.clause_by_name:
                break
        self._add_name(clause, name)
        self.learned_name_set.add(name)
        return name

    def _add_name(self, clause: Clause, name: str):
        # a clause answers to its first name
        self.clause_by_name[name] = clause
        self.name_by_clause.setdefault(clause, name)

    # -- transitions ---------------------------------------------------

    def _after(self, rule: str, detail: str, state: ProblemState):
        self.stats.steps += 1
        self.stats.rule_counts[rule] += 1
        self.stats.max_trail = max(self.stats.max_trail, len(state.trail))
        self.last_rule = rule
        self.trace.append(trace_line(rule, detail, state))
        self._check(state)

    def _check(self, state: ProblemState):
        if self.cfg.check == "off":
            return
        if state.decisions != state.trail.decision_count():
            raise InvariantViolation(
                f"decision counter {state.decisions} does not match the "
                f"trail ({state.trail.decision_count()} decisions)")
        if self.cfg.check == "full":
            violations = soundness_check(state, self.cfg.sat_cap,
                                         self.sound_cache)
            if violations:
                raise InvariantViolation(
                    "; ".join(str(v) for v in violations))

    def _count_pushed(self, state: ProblemState):
        """Only a push can raise a predicate's count on the trail."""
        pred = state.trail[-1].literal.atom.pred
        n = sum(1 for e in state.trail if e.literal.atom.pred == pred)
        by_pred = self.stats.max_trail_by_predicate
        by_pred[pred] = max(by_pred[pred], n)

    def on_propagate(self, state: ProblemState, option: PropagationOption):
        self._count_pushed(state)
        entry = state.trail[-1]
        self.propagation_sources[entry.annotation] = (
            self.name_of(option.clause), option.lit_index, option.clause)
        self.stats.propagations_by_predicate[option.literal.atom.pred] += 1
        self._after("propagate",
                    f"{option.literal} from {self.name_of(option.clause)} . "
                    f"{option.sigma}", state)

    def on_decide(self, state: ProblemState, option: DecideOption):
        self._count_pushed(state)
        self._after("decide", str(option.literal), state)

    def on_conflict(self, prev: ProblemState, state: ProblemState,
                    clause: Clause, sigma: Subst):
        self.stats.conflicts_total += 1
        if len(prev.trail) > 0 and not clause.is_empty:
            top = prev.trail[-1]
            if isinstance(top.annotation, Propagation):
                self.stats.conflicts_with_propagation_top += 1
            elif self.cfg.check != "off":
                raise InvariantViolation(
                    f"conflict fired with decision {top.literal} on top")
        self.episode_start = ConflictStart(
            self.name_of(clause), sigma.restrict(variables_of(clause)))
        self.episode_steps = []
        self.episode_resolves = 0
        self.episode_snapshot = state.trail_order()
        self.episode_pool = state.pool
        self._after("conflict",
                    f"{self.name_of(clause)} . {sigma}", state)

    def on_skip(self, prev: ProblemState, state: ProblemState, top):
        self._after("skip", str(top.literal), state)

    def on_factorize(self, state: ProblemState, i: int, j: int):
        self.episode_steps.append(FactorizeStep(i, j))
        self._after("factorize", f"{i} {j}", state)

    def on_resolve(self, prev: ProblemState, state: ProblemState, top,
                   conflict_index: int):
        source = self.propagation_sources.get(top.annotation)
        if source is None:
            # propagation placed by a script rather than this driver
            name, lit_index = self.name_of(top.annotation.closure.clause), \
                top.annotation.lit_index
            pool_clause = top.annotation.closure.clause
        else:
            name, lit_index, pool_clause = source
        sigma = top.annotation.closure.subst.restrict(
            variables_of(pool_clause))
        self.episode_steps.append(
            ResolveStep(name, lit_index, sigma, conflict_index))
        self.episode_resolves += 1
        self._after("resolve", f"with {name} on {top.literal}", state)

    def on_backtrack(self, prev: ProblemState, state: ProblemState):
        learned = state.learned[-1]
        name = self.add_learned_name(learned)
        if self.episode_start is not None:
            self.derivations.append(Derivation(
                name, self.episode_start, tuple(self.episode_steps), learned))
        if self.episode_snapshot is not None:
            self.learned_records.append(LearnedRecord(
                learned, self.episode_pool, self.episode_snapshot,
                prev.bound))
        self._close_episode_stats()
        self._after("backtrack",
                    f"learn {learned} to level {state.decisions}", state)
        if self.cfg.check != "off":
            if calculus.false_grounding(learned, state.trail.complements) \
                    is not None:
                raise InvariantViolation(
                    f"learned clause {learned} is still falsifiable after "
                    f"backtracking")
        if self.cfg.check == "full" and self.episode_snapshot is not None:
            if oracle.is_redundant_snapshot(learned, self.episode_pool,
                                            self.episode_snapshot, prev.bound,
                                            self.cfg.sat_cap):
                raise InvariantViolation(
                    f"learned clause {learned} is redundant at its snapshot")

    def close_episode(self, state: ProblemState):
        """Called when the conflict collapsed to the empty clause."""
        if self.episode_start is not None:
            name = self.add_learned_name(Clause())
            self.derivations.append(Derivation(
                name, self.episode_start, tuple(self.episode_steps),
                Clause()))
            self.episode_start = None
        self._close_episode_stats()

    def _close_episode_stats(self):
        self.stats.episodes += 1
        if self.episode_resolves > 0:
            self.stats.episodes_with_resolve += 1
        self.episode_resolves = 0

    def on_grow(self, prev: ProblemState, state: ProblemState):
        self.stats.growths += 1
        self._after("grow",
                    f"beta {prev.bound.beta} -> {state.bound.beta}", state)

    # -- results -------------------------------------------------------

    def finish_unsat(self, state: ProblemState) -> RunResult:
        self.stats.learned = len(state.learned)
        proof = None
        if self.derivations:
            proof = Proof(tuple(self.derivations), self.derivations[-1].name)
            if self.cfg.check == "full":
                mismatch = oracle.check_proof(
                    {n: c for n, c in self.clause_by_name.items()
                     if n not in self.learned_name_set}, proof)
                if mismatch is not None:
                    raise InvariantViolation(f"proof replay failed: "
                                             f"{mismatch}")
        return RunResult("unsat", self.stats, proof=proof,
                         final_bound=state.bound, trace=self.trace,
                         learned_records=self.learned_records,
                         learned_names={n: c for n, c in
                                        self.clause_by_name.items()
                                        if n in self.learned_name_set},
                         final_state=state)

    def finish_sat(self, state: ProblemState) -> RunResult:
        self.stats.learned = len(state.learned)
        model = state.trail.literals
        falsified = oracle.check_model(model, state.initial, state.bound)
        if falsified is not None:
            raise InvariantViolation(
                f"model check failed: {falsified} is false under the trail")
        return RunResult("sat-bounded", self.stats, model=model,
                         final_bound=state.bound, trace=self.trace,
                         learned_records=self.learned_records,
                         final_state=state)

    def finish_resource_out(self, state: ProblemState) -> RunResult:
        self.stats.learned = len(state.learned)
        return RunResult("resource-out", self.stats,
                         final_bound=state.bound, trace=self.trace,
                         learned_records=self.learned_records,
                         final_state=state)
