import itertools
import random

import pytest

from conftest import (
    assert_clause_alpha, assert_conflict, assert_trail, cl, lpo_refutation_scenario,
    lpo_refutation_script, grow_example, grow_script, lit, random_bs_problem, sub,
)
from sclfol.calculus import (
    GuardFailed, apply_backtrack, apply_conflict, apply_decide,
    apply_factorize, apply_grow, apply_propagate, apply_resolve, apply_skip,
    decision_candidates, find_false_instance, propagation_candidates,
    reasonable_decisions,
)
from sclfol.orderings import bounded_instances_of_set
from sclfol.state import Decision, ProblemState, Propagation, Trail, TrailEntry
from sclfol import strategy
from sclfol.strategy import RunConfig, configure_bound, run
from sclfol.terms import Closure, Subst, apply, same_multiset


class TestGoldenRefutationTrace:
    """Replays the printed refutation and checks every state."""

    def test_full_trace(self):
        states = lpo_refutation_script()
        rules = [r for r, _ in states]
        assert rules == [
            "start", "decide", "propagate", "conflict", "resolve",
            "factorize", "skip", "backtrack", "propagate", "propagate",
            "conflict", "resolve", "skip", "factorize", "resolve",
        ]
        s = dict(enumerate(st for _, st in states))

        assert_trail(s[0])
        assert s[0].decisions == 0 and s[0].conflict is None

        assert_trail(s[1], "~P(a)")
        assert s[1].trail[0].annotation == Decision(1)
        assert s[1].decisions == 1

        assert_trail(s[2], "~P(a)", "~Q(b)")
        ann = s[2].trail[1].annotation
        assert isinstance(ann, Propagation)
        assert_clause_alpha(ann.closure.clause, "P(X) | ~Q(Y)")
        assert same_multiset(ann.closure.ground_clause(), cl("P(a) | ~Q(b)"))

        assert_conflict(s[3], "P(X) | Q(b)", "P(a) | Q(b)")
        assert_conflict(s[4], "P(X) | P(Y)", "P(a) | P(a)")
        assert_conflict(s[5], "P(X)", "P(a)")
        assert_trail(s[6], "~P(a)")
        assert s[6].decisions == 1

        assert_trail(s[7])
        assert s[7].decisions == 0 and s[7].conflict is None
        assert len(s[7].learned) == 1
        assert_clause_alpha(s[7].learned[0], "P(X)")

        assert_trail(s[8], "P(a)")
        ann8 = s[8].trail[0].annotation
        assert_clause_alpha(ann8.closure.clause, "P(X)")

        assert_trail(s[9], "P(a)", "Q(b)")
        ann9 = s[9].trail[1].annotation
        assert_clause_alpha(ann9.closure.clause, "~P(a) | Q(X)")
        assert same_multiset(ann9.closure.ground_clause(), cl("~P(a) | Q(b)"))

        assert_conflict(s[10], "~P(X) | ~Q(b)", "~P(a) | ~Q(b)")
        assert_conflict(s[11], "~P(X) | ~P(a)", "~P(a) | ~P(a)")
        assert_trail(s[12], "P(a)")
        assert_conflict(s[13], "~P(a)", "~P(a)")

        assert s[14].is_bot
        assert s[14].conflict.clause.is_empty
        assert s[14].decisions == 0

    def test_unit_propagation_annotates_own_closure(self):
        states = dict(lpo_refutation_script())
        # after backtracking, the learned unit propagates annotated by itself
        s7 = lpo_refutation_script()[7][1]
        s8 = apply_propagate(s7, s7.learned[0], 0, sub("{X -> a}"))
        ann = s8.trail[0].annotation
        assert ann.closure.clause == s7.learned[0]
        assert ann.lit_index == 0


class TestPropagateGuards:
    def test_instance_must_be_below_bound(self):
        sc = grow_example()
        states = grow_script()
        pre_grow = states[2][1]  # trail P(a), P(g(a)) under the small bound
        c1 = sc.clauses[0]
        with pytest.raises(GuardFailed, match="below the bound"):
            apply_propagate(pre_grow, c1, 1, sub("{X -> g(a)}"))

    def test_literal_must_be_undefined(self):
        states = grow_script()
        s = states[2][1]
        with pytest.raises(GuardFailed, match="already defined"):
            apply_propagate(s, grow_example().clauses[1], 0, sub("{}"))

    def test_side_literals_must_be_false(self):
        sc = grow_example()
        s0 = ProblemState.start(sc.clauses, sc.bound)
        with pytest.raises(GuardFailed, match="not false"):
            apply_propagate(s0, sc.clauses[0], 1, sub("{X -> a}"))

    def test_clause_must_be_in_pool(self):
        sc = grow_example()
        s0 = ProblemState.start(sc.clauses, sc.bound)
        with pytest.raises(GuardFailed, match="pool"):
            apply_propagate(s0, cl("P(X)"), 0, sub("{X -> a}"))

    def test_duplicate_instances_factored_into_annotation(self):
        sc = configure_scenario(["P(X) | P(Y) | Q(b)"])
        s0 = ProblemState.start(sc[0], sc[1])
        s1 = apply_decide(s0, sc[0][0], 2, Subst(), negate=True)  # ~Q(b)
        s2 = apply_propagate(s1, sc[0][0], 0, sub("{X -> a, Y -> a}"))
        ann = s2.trail[-1].annotation
        assert_clause_alpha(ann.closure.clause, "P(X) | Q(b)")


def configure_scenario(texts, **cfg_kwargs):
    clauses = tuple(cl(t) for t in texts)
    cfg = RunConfig(**cfg_kwargs)
    bound = configure_bound(clauses, cfg)
    return clauses, bound


class TestDecideGuards:
    def test_defined_literal_rejected(self):
        states = lpo_refutation_script()
        s1 = states[1][1]
        sc = lpo_refutation_scenario()
        with pytest.raises(GuardFailed, match="already defined"):
            apply_decide(s1, sc.clauses[2], 0, sub("{}"))

    def test_atom_equal_to_bound_rejected(self):
        sc = grow_example()
        s0 = ProblemState.start(sc.clauses, sc.bound)
        with pytest.raises(GuardFailed, match="below the bound"):
            apply_decide(s0, sc.clauses[2], 0, sub("{}"))  # atom(beta) itself

    def test_decide_increments_counter(self):
        sc = lpo_refutation_scenario()
        s0 = ProblemState.start(sc.clauses, sc.bound)
        s1 = apply_decide(s0, sc.clauses[0], 0, sub("{X -> a}"))
        assert s1.decisions == 1
        assert s1.trail[0].annotation == Decision(1)


class TestConflictGuards:
    def test_not_false_rejected(self):
        sc = lpo_refutation_scenario()
        s0 = ProblemState.start(sc.clauses, sc.bound)
        with pytest.raises(GuardFailed, match="not false"):
            apply_conflict(s0, sc.clauses[0], sub("{X -> a}"))

    def test_growing_scenario_conflict(self):
        s7 = grow_script()[7][1]
        assert_conflict(s7, "~P(g(g(a)))", "~P(g(g(a)))")


class TestSkipGuards:
    def test_complement_in_conflict_rejected(self):
        s3 = lpo_refutation_script()[3][1]  # conflict P(X)|Q(b), top ~Q(b)
        with pytest.raises(GuardFailed, match="occurs in the conflict"):
            apply_skip(s3)

    def test_skipping_decision_decrements(self):
        sc = lpo_refutation_scenario()
        trail = Trail((TrailEntry(lit("Q(a)"), Decision(1)),))
        s = ProblemState(trail, sc.clauses, (), sc.bound, 1,
                         Closure(cl("P(b)"), Subst()))
        s2 = apply_skip(s)
        assert s2.decisions == 0 and len(s2.trail) == 0

    def test_skipping_propagation_keeps_counter(self):
        s6 = lpo_refutation_script()[6][1]
        # state 6 came from skipping the propagation ~Q(b): k stayed 1
        assert s6.decisions == 1


class TestFactorizeGuards:
    def test_no_duplicates_rejected(self):
        s3 = lpo_refutation_script()[3][1]
        with pytest.raises(GuardFailed, match="differ under the grounding"):
            apply_factorize(s3, 0, 1)

    def test_result_keeps_grounding(self):
        s4 = lpo_refutation_script()[4][1]
        s5 = apply_factorize(s4, 0, 1)
        assert s5.conflict.subst == s4.conflict.subst


class TestResolveGuards:
    def test_without_complement_on_top_rejected(self):
        s5 = lpo_refutation_script()[5][1]  # conflict P(X), top ~Q(b)
        with pytest.raises(GuardFailed, match="does not occur"):
            apply_resolve(s5)

    def test_trail_unchanged(self):
        s3 = lpo_refutation_script()[3][1]
        s4 = apply_resolve(s3)
        assert s4.trail == s3.trail


class TestBacktrack:
    def test_refutation_backtrack(self):
        s6 = lpo_refutation_script()[6][1]
        s7 = apply_backtrack(s6)
        assert len(s7.trail) == 0
        assert s7.decisions == 0
        assert_clause_alpha(s7.learned[0], "P(X)")

    def test_non_decision_top_rejected(self):
        s5 = lpo_refutation_script()[5][1]
        with pytest.raises(GuardFailed, match="not a decision"):
            apply_backtrack(s5)

    def test_level_guard(self):
        # remaining literals at the current level block backtracking
        clauses, bound = configure_scenario(
            ["P(a) | P(b)", "~P(a) | ~P(b)", "Q(a) | Q(b)"])
        s = ProblemState.start(clauses, bound)
        s = apply_decide(s, clauses[0], 0, Subst())   # P(a)^1
        s = apply_decide(s, clauses[0], 1, Subst())   # P(b)^2
        s = apply_conflict(s, clauses[1], Subst())
        with pytest.raises(GuardFailed, match="level"):
            # ~P(a) in the remainder sits at level 1 < 2, but the clause has
            # no literal complementing the top before resolving; craft the
            # direct case instead: conflict ~P(b) | ~P(b)
            apply_backtrack(ProblemState(
                s.trail, s.initial, s.learned, s.bound, s.decisions,
                Closure(cl("~P(b) | ~P(b)"), Subst())))

    def test_undefined_remainder_rejected(self):
        clauses, bound = configure_scenario(["P(a) | Q(b)", "~P(a) | ~Q(b)"])
        s = ProblemState.start(clauses, bound)
        s = apply_decide(s, clauses[0], 0, Subst())   # P(a)^1
        with pytest.raises(GuardFailed, match="not all defined"):
            # ~Q(b) is undefined, so the rest of the conflict has no level
            apply_backtrack(ProblemState(
                s.trail, s.initial, s.learned, s.bound, s.decisions,
                Closure(clauses[1], Subst())))


def test_backtrack_minimality_bruteforce(monkeypatch):
    # the prefix Backtrack keeps against a brute force over every prefix
    # for the shortest with a false bounded instance of the conflict
    # clause: a hand-built state first, then every Backtrack of runs with
    # random decisions on random problems
    clauses, bound = configure_scenario(["~P(X) | Q(X)", "P(a) | P(b)"])
    s = ProblemState.start(clauses, bound)
    c1, c2 = clauses
    s = apply_decide(s, c1, 0, sub("{X -> a}"), negate=True)   # P(a)^1
    s = apply_decide(s, c1, 0, sub("{X -> b}"), negate=True)   # P(b)^2
    s = apply_decide(s, c1, 1, sub("{X -> b}"), negate=True)   # ~Q(b)^3
    # conflict ~P(X) | Q(X) with {X -> b} is false: P(b) true, Q(b) false
    conflict = Closure(cl("~P(X) | Q(X)"), sub("{X -> b}"))
    states = [ProblemState(s.trail, s.initial, s.learned, s.bound,
                           s.decisions, conflict)]

    def recorded(state):
        states.append(state)
        return apply_backtrack(state)
    monkeypatch.setattr(strategy, "apply_backtrack", recorded)
    rng = random.Random(248)
    for _ in range(150):
        run(random_bs_problem(rng), RunConfig(
            heuristic="random", seed=rng.randrange(10_000), max_steps=5_000))
    assert len(states) > 100
    for s in states:
        result = apply_backtrack(s)
        instances = bounded_instances_of_set([s.conflict.clause], s.bound)
        expected = next(p for p in range(1, len(s.trail) + 1)
                        if any(s.trail.prefix(p).all_false(inst)
                               for inst in instances))
        assert result.trail == s.trail.prefix(expected - 1)
        assert result.decisions == result.trail.decision_count()


class TestGrow:
    def test_learned_clauses_preserved(self):
        sc = grow_example()
        s = ProblemState(Trail(), sc.clauses, (cl("P(X)"),), sc.bound, 0,
                         None)
        grown = apply_grow(s, lit("P(g(g(g(a))))"))
        assert grown.learned == s.learned
        assert len(grown.trail) == 0

    def test_equal_bound_rejected(self):
        sc = grow_example()
        s = ProblemState.start(sc.clauses, sc.bound)
        with pytest.raises(GuardFailed, match="strictly above"):
            apply_grow(s, lit("P(g(g(a)))"))


class TestFindFalseInstance:
    def test_refutation_after_two_steps(self):
        s2 = lpo_refutation_script()[2][1]
        clause, sigma = find_false_instance(s2)
        assert clause == lpo_refutation_scenario().clauses[0]
        assert sigma == sub("{X -> a}")

    def test_empty_trail_no_conflict(self):
        sc = lpo_refutation_scenario()
        assert find_false_instance(ProblemState.start(sc.clauses, sc.bound)) \
            is None

    def test_agrees_with_exhaustive_grounding(self):
        rng = random.Random(99)
        for _ in range(80):
            clauses = tuple(random_bs_problem(rng))
            bound = configure_bound(clauses, RunConfig())
            atoms = bound.atoms_below()
            n = min(len(atoms), 4)
            for bits in itertools.product((True, False), repeat=n):
                entries = tuple(
                    TrailEntry(__import__("sclfol").Literal(atoms[i], bits[i]),
                               Decision(i + 1))
                    for i in range(n))
                state = ProblemState(Trail(entries), clauses, (), bound,
                                     n, None)
                found = find_false_instance(state)
                ground = bounded_instances_of_set(clauses, bound)
                brute = any(state.trail.all_false(inst) for inst in ground)
                assert (found is not None) == brute
                if found is not None:
                    inst = apply(found[1], found[0])
                    assert state.trail.all_false(inst)


class TestDecisionSearches:
    def test_refutation_opening_offers_the_negative_decision(self):
        sc = lpo_refutation_scenario()
        s0 = ProblemState.start(sc.clauses, sc.bound)
        options = reasonable_decisions(s0)
        assert lit("~P(a)") in {o.literal for o in options}

    def test_unreasonable_decision_filtered(self):
        clauses, bound = configure_scenario(["P(a) | Q(b)"])
        s = ProblemState.start(clauses, bound)
        s = apply_decide(s, clauses[0], 0, Subst(), negate=True)  # ~P(a)
        options = reasonable_decisions(s)
        literals = {o.literal for o in options}
        assert lit("~Q(b)") not in literals
        assert lit("Q(b)") in literals

    def test_all_defined_gives_no_candidates(self):
        clauses, bound = configure_scenario(["P(a)"], beta_weight=2)
        s = ProblemState.start(clauses, bound)
        s = apply_propagate(s, clauses[0], 0, Subst())
        assert reasonable_decisions(s) == []

    def test_candidates_cover_both_polarities(self):
        clauses, bound = configure_scenario(["~P(a) | ~Q(a)"])
        s = ProblemState.start(clauses, bound)
        literals = {o.literal for o in decision_candidates(s)}
        assert lit("P(a)") in literals and lit("~P(a)") in literals


class TestPropagationCandidates:
    def test_unit_clause_propagates_everywhere(self):
        sc = grow_example()
        s0 = ProblemState.start(sc.clauses, sc.bound)
        options = list(propagation_candidates(s0))
        assert [str(o.literal) for o in options] == ["P(a)"]

    def test_avoid_filters_predicates(self):
        clauses, bound = configure_scenario(["R(X)", "P | R(X)"])
        s = ProblemState.start(clauses, bound)
        assert all(o.literal.atom.pred != "R"
                   for o in propagation_candidates(s, avoid=("R",)))
