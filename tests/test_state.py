import random

import pytest

from conftest import (
    looping_script, cl, lpo_refutation_scenario, lpo_refutation_script, grow_example,
    grow_script, lit, sub,
)
from sclfol.state import (
    Decision, NotOnTrail, ProblemState, Propagation, Trail, TrailEntry,
    clause_level, literal_level, soundness_check, trace_line,
)
from sclfol.terms import Closure, Subst


def entry(literal_text, annotation):
    return TrailEntry(lit(literal_text), annotation)


def satisfiable_scenario():
    from conftest import Scenario
    from sclfol import Bound, Precedence, Signature, make_ordering
    clauses = (cl("Q(b)"),)
    beta = lit("R(b)")
    signature = Signature.from_clauses(
        clauses, extra_literals=[beta, lit("P(a)")])
    ordering = make_ordering("lpo", Precedence(["a", "b", "P", "Q", "R"]))
    return Scenario(clauses, ("c1",), Bound(beta, ordering, signature))


def state_with(scenario, entries, learned=(), decisions=None, conflict=None):
    trail = Trail(tuple(entries))
    k = trail.decision_count() if decisions is None else decisions
    return ProblemState(trail, scenario.clauses, tuple(learned),
                        scenario.bound, k, conflict)


class TestTruthValue:
    def test_false_when_complement_on_trail(self):
        trail = Trail((entry("~P(a)", Decision(1)),))
        assert trail.truth_value(lit("P(a)")) is False

    def test_undefined(self):
        trail = Trail((entry("~P(a)", Decision(1)),))
        assert trail.truth_value(lit("Q(b)")) is None

    def test_true_after_propagations(self):
        trail = Trail((entry("P(a)", Decision(1)),
                       entry("Q(b)", Decision(2))))
        assert trail.truth_value(lit("Q(b)")) is True

    def test_index_agrees_with_first_occurrence_scan(self):
        # repeated atoms included: the earliest entry of an atom decides
        rng = random.Random(5)
        atoms = [f"{p}({c})" for p in "PQ" for c in "abc"]
        for _ in range(200):
            trail = Trail(tuple(
                entry(rng.choice(["", "~"]) + rng.choice(atoms), Decision(1))
                for _ in range(rng.randint(0, 8))))
            for text in atoms:
                for query in (lit(text), lit(text).complement()):
                    scan = [i for i, e in enumerate(trail)
                            if e.literal.atom == query.atom]
                    pos = scan[0] if scan else None
                    assert trail.position_of_atom(query.atom) == pos
                    expected = None if pos is None \
                        else trail[pos].literal == query
                    assert trail.truth_value(query) is expected


class TestLevels:
    def test_propagation_after_decision_is_level_one(self):
        sc = lpo_refutation_scenario()
        c2 = sc.clauses[1]
        s = state_with(sc, [
            entry("~P(a)", Decision(1)),
            entry("~Q(b)", Propagation(
                Closure(c2, sub("{X -> a, Y -> b}")), 1)),
        ])
        assert literal_level(lit("~Q(b)"), s) == 1
        assert literal_level(lit("Q(b)"), s) == 1

    def test_propagation_at_level_zero(self):
        sc = lpo_refutation_scenario()
        u1 = cl("P(X)")
        s = ProblemState(
            Trail((entry("P(a)", Propagation(Closure(u1, sub("{X -> a}")),
                                             0)),)),
            sc.clauses, (u1,), sc.bound, 0, None)
        assert literal_level(lit("P(a)"), s) == 0

    def test_not_on_trail(self):
        sc = lpo_refutation_scenario()
        with pytest.raises(NotOnTrail):
            literal_level(lit("Q(a)"), state_with(sc, []))

    def test_empty_clause_level_zero(self):
        sc = lpo_refutation_scenario()
        assert clause_level(cl("$false"), state_with(sc, [])) == 0

    def test_clause_level_is_max(self):
        sc = lpo_refutation_scenario()
        s = state_with(sc, [
            entry("~P(a)", Decision(1)),
            entry("~P(b)", Decision(2)),
        ])
        assert clause_level(cl("P(a) | P(b)"), s) == 2
        assert clause_level(cl("P(a)"), s) == 1

    def test_monotone_along_trail(self):
        sc = lpo_refutation_scenario()
        s = state_with(sc, [
            entry("~P(a)", Decision(1)),
            entry("~Q(a)", Decision(2)),
            entry("~Q(b)", Decision(3)),
        ])
        levels = [literal_level(e.literal, s) for e in s.trail]
        assert levels == sorted(levels)


class TestSoundness:
    def test_initial_state_is_sound(self):
        sc = lpo_refutation_scenario()
        assert soundness_check(ProblemState.start(sc.clauses, sc.bound)) == []

    def test_inconsistent_trail_condition_1(self):
        sc = lpo_refutation_scenario()
        s = state_with(sc, [entry("P(a)", Decision(1)),
                            entry("~P(a)", Decision(2))])
        assert 1 in {v.condition for v in soundness_check(s)}

    def test_bad_propagation_condition_2(self):
        sc = lpo_refutation_scenario()
        c1 = sc.clauses[0]  # P(X) | Q(b): Q(b) not false under empty prefix
        s = state_with(sc, [
            entry("P(a)", Propagation(Closure(c1, sub("{X -> a}")), 0)),
        ])
        assert 2 in {v.condition for v in soundness_check(s)}

    def test_unjustified_propagation_condition_2(self):
        # needs a satisfiable pool: an unsatisfiable one entails anything
        sc = satisfiable_scenario()
        ghost = cl("P(X)")  # not entailed by the clause set {Q(b)}
        s = state_with(sc, [
            entry("P(a)", Propagation(Closure(ghost, sub("{X -> a}")), 0)),
        ])
        assert 2 in {v.condition for v in soundness_check(s)}

    def test_redefined_decision_condition_3(self):
        sc = lpo_refutation_scenario()
        s = state_with(sc, [entry("P(a)", Decision(1)),
                            entry("~P(a)", Decision(2))])
        assert 3 in {v.condition for v in soundness_check(s)}

    def test_unentailed_learned_clause_condition_4(self):
        sc = satisfiable_scenario()
        s = state_with(sc, [], learned=[cl("Q(a)")])
        assert 4 in {v.condition for v in soundness_check(s)}

    def test_non_false_conflict_condition_5(self):
        sc = lpo_refutation_scenario()
        c1 = sc.clauses[0]
        s = state_with(sc, [], conflict=Closure(c1, sub("{X -> a}")))
        assert 5 in {v.condition for v in soundness_check(s)}

    def test_unbounded_trail_literal_condition_6(self):
        sc = grow_example()
        s = ProblemState(
            Trail((entry("P(g(g(a)))", Decision(1)),)),
            sc.clauses, (), sc.bound, 1, None)
        assert 6 in {v.condition for v in soundness_check(s)}

    def test_trail_literal_without_pool_source_condition_6(self):
        sc = lpo_refutation_scenario()
        s = state_with(sc, [entry("R(a)", Decision(1))])
        assert 6 in {v.condition for v in soundness_check(s)}

    def test_complement_decisions_are_accepted(self):
        # guessing the complement of a clause-literal instance stays sound
        sc = lpo_refutation_scenario()
        s = state_with(sc, [entry("~Q(a)", Decision(1))])
        assert soundness_check(s) == []

    @pytest.mark.parametrize("script", [lpo_refutation_script, grow_script,
                                        looping_script])
    def test_every_scripted_state_is_sound(self, script):
        for rule, state in script():
            assert soundness_check(state) == [], f"after {rule}"


class TestTraceLine:
    def test_stable_fields(self):
        sc = lpo_refutation_scenario()
        s = state_with(sc, [entry("~P(a)", Decision(1))])
        line = trace_line("decide", "~P(a)", s)
        assert line == "decide\t~P(a)\tk=1\tstatus=T"

    def test_conflict_status(self):
        sc = lpo_refutation_scenario()
        s = state_with(sc, [], conflict=Closure(cl("$false"), Subst()))
        assert trace_line("resolve", "x", s).endswith("status=bot . {}")
