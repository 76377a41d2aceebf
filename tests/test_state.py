import dataclasses
import random

import pytest

from conftest import (
    looping_script, cl, lpo_refutation_scenario, lpo_refutation_script, grow_example,
    grow_script, lit, sub,
)
from sclfol.oracle import entails_bounded
from sclfol.orderings import Bound, bounded_groundings
from sclfol.strategy import RunConfig, configure_bound
from sclfol.state import (
    SOUNDNESS_ATOM_CAP, Decision, NotOnTrail, ProblemState, Propagation, Trail,
    TrailEntry, clause_level, literal_level, soundness_check, trace_line,
)
from sclfol.terms import Clause, Closure, Literal, Subst, apply, match


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

    def test_first_agrees_with_trail_scans(self):
        # first positions, levels and decision counts against walks of the
        # trail, on random trails with repeated atoms and uneven decision
        # levels, each built in one piece and by pushes onto trails whose
        # map was mostly built first, so that a push must leave that map
        # alone
        sc = lpo_refutation_scenario()
        rng = random.Random(6)
        touch = random.Random(7)
        atoms = [f"{p}({c})" for p in "PQ" for c in "abc"]
        for _ in range(200):
            entries = []
            for _ in range(rng.randint(0, 8)):
                literal = lit(rng.choice(["", "~"]) + rng.choice(atoms))
                annotation = Decision(rng.randint(1, 4)) \
                    if rng.random() < 0.4 else Propagation(
                        Closure(Clause((literal,)), Subst()), 0)
                entries.append(TrailEntry(literal, annotation))
            pushed, parents = Trail(), []
            for e in entries:
                if touch.random() < 0.8:
                    parents.append((pushed, pushed.first))
                pushed = pushed.push(e)
            assert pushed.entries == tuple(entries)
            for trail in (Trail(tuple(entries)), pushed):
                self.check_first(sc, trail, atoms)
            # a push leaves the answers of the trail it extends as they were
            for parent, _ in parents:
                assert parent.first == Trail(parent.entries).first
                self.check_first(sc, parent, atoms)

    def test_versions_answer_as_their_scans_in_any_order(self):
        # pushes (repeated atoms, and second pushes onto trails that have
        # a child), pops (of the empty trail too) and prefixes (longer
        # than the trail too) made from random earlier versions.  After
        # each, random pairs of versions are compared, and then every
        # version is asked in a random order, so that the map the versions
        # share moves between them
        sc = lpo_refutation_scenario()
        rng = random.Random(19)
        atoms = [f"{p}({c})" for p in "PQ" for c in "abc"]
        queries = [lit(sign + text) for sign in ("", "~") for text in atoms]
        # entries pushed again, so that trails not made from one another
        # share entries after their common part
        pushed = [TrailEntry(literal, annotation) for literal in queries
                  for annotation in (Decision(1), Decision(2), Propagation(
                      Closure(Clause((literal,)), Subst()), 0))]
        for _ in range(40):
            versions = [Trail()]
            for _ in range(20):
                trail = rng.choice(versions)
                move = rng.random()
                if move < 0.55:
                    e = rng.choice(pushed)
                    made = trail.push(e)
                    assert made.entries == trail.entries + (e,)
                elif move < 0.7:
                    made = trail.pop()
                    assert made.entries == trail.entries[:-1]
                else:
                    n = rng.randint(0, len(trail) + 2)
                    made = trail.prefix(n)
                    assert made.entries == trail.entries[:n]
                versions.append(made)
                for trail in rng.sample(versions, len(versions)):
                    other = rng.choice(versions)
                    shared = 0
                    for a, b in zip(trail.entries, other.entries):
                        if a is not b:
                            break
                        shared += 1
                    assert trail.shared_prefix(other) == shared
                    assert other.shared_prefix(trail) == shared
                for trail in rng.sample(versions, len(versions)):
                    self.check_first(sc, trail, atoms)
                    for query in queries:
                        on = [e.literal for e in trail
                              if e.literal.atom == query.atom][:1]
                        assert trail.truth_value(query) == \
                            (on[0] == query if on else None)

    def check_first(self, sc, trail, atoms):
        assert trail.decision_count() == sum(1 for e in trail if e.is_decision)
        s = ProblemState(trail, sc.clauses, (), sc.bound,
                         trail.decision_count(), None)
        for text in atoms:
            query = lit(text)
            first = next((i for i, e in enumerate(trail)
                          if e.literal.atom == query.atom), None)
            assert trail.position_of_atom(query.atom) == first
            if first is None:
                with pytest.raises(NotOnTrail):
                    literal_level(query, s)
                continue
            decided = [e.annotation.level for e in trail[:first + 1]
                       if e.is_decision]
            assert literal_level(query, s) == \
                (decided[-1] if decided else 0)


class TestTrailValues:
    def trails(self):
        """The trail of the three entries below, made four ways, and the
        trail two pushes made from the shared prefix of the last one."""
        a, b, c = (entry("P(a)", Decision(1)), entry("~Q(b)", Decision(2)),
                   entry("Q(a)", Decision(3)))
        pushed = Trail().push(a).push(b).push(c)
        shared = Trail().push(a).push(b)
        other = shared.push(entry("P(b)", Decision(3)))
        return (Trail((a, b, c)), pushed,
                pushed.push(entry("P(c)", Decision(4))).prefix(3),
                shared.push(c)), other

    def test_equal_entries_make_equal_trails(self):
        # from entries, by pushes, as a prefix of a longer trail, and by a
        # second push onto a shared trail, which moves that one to a log of
        # its own
        trails, other = self.trails()
        built, pushed, cut, second = trails
        for trail in trails:
            assert trail == built and hash(trail) == hash(built)
            assert repr(trail) == repr(built)
            assert list(trail) == list(built.entries)
        assert other.log is not second.log
        assert other.entries[:2] == second.entries[:2]
        # a push onto a trail as long as its log appends to that log
        assert pushed.push(other[-1]).log is pushed.log

    def test_a_trail_differs_from_its_proper_prefixes(self):
        built = self.trails()[0][0]
        for n in range(len(built)):
            assert built != built.prefix(n) and built.prefix(n) != built
        assert built != built.entries
        assert built.pop() == built.prefix(2) == Trail(built.entries[:2])

    def test_states_on_equal_trails_are_equal(self):
        sc = lpo_refutation_scenario()
        trails, _ = self.trails()
        states = [ProblemState(trail, sc.clauses, (), sc.bound, 3, None)
                  for trail in trails]
        assert all(state == states[0] for state in states)
        assert states[0] != dataclasses.replace(states[0],
                                                trail=trails[0].pop())


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

    def test_uncertified_conflict_past_the_cap_fails_its_check(self):
        # a state that no run recorded has no certificates: its conflict is
        # decided over the bounded groundings, whose 156 atoms pass the cap
        clauses = (cl("P(X,Y) | ~C(X)"),
                   *(cl(f"C({c})") for c in "abcdefghijkl"), cl("~P(a,b)"))
        s = ProblemState(
            Trail((entry("C(a)", Propagation(Closure(clauses[1], Subst()),
                                             0)),
                   entry("P(a,b)", Propagation(
                       Closure(clauses[0], sub("{X -> a, Y -> b}")), 0)))),
            clauses, (), configure_bound(clauses, RunConfig()), 0,
            Closure(clauses[-1], Subst()))
        assert [str(v) for v in soundness_check(s)] == [
            "condition 5: entailment check failed: 156 ground atoms exceed "
            "the cap of 128"]
        # the conflict instantiates an initial clause, which certifies it
        assert soundness_check(s, {"derived": set(clauses)}) == []

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

    def test_carried_cache_follows_the_learned_clauses(self):
        # the pool's atoms are kept per initial and learned clauses: R(a)
        # instantiates the learned clause alone (the LPO example's initial
        # clauses are unsatisfiable, so they entail it)
        sc = lpo_refutation_scenario()
        cache: dict = {}
        decided = [entry("R(a)", Decision(1))]
        assert soundness_check(state_with(sc, []), cache) == []
        assert soundness_check(
            state_with(sc, decided, learned=[cl("R(X)")]), cache) == []
        assert [str(v) for v in soundness_check(state_with(sc, decided),
                                                cache)] == [
            "condition 6: R(a) instantiates no pool literal"]

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

    # the bounded initial clauses of the LPO example are unsatisfiable, so
    # they entail every clause and no learned clause can break condition 4
    @pytest.mark.parametrize("script,conditions", [
        (lpo_refutation_script, {1, 2, 3, 5, 6}),
        (grow_script, {1, 2, 3, 4, 5, 6}),
        (looping_script, {1, 2, 3, 4, 5, 6}),
    ])
    def test_carried_cache_catches_every_unsound_step(self, script,
                                                      conditions):
        cache: dict = {}
        broken = set()
        for rule, state in script():
            assert soundness_check(state, cache) == [], f"after {rule}"
            for condition, bad in unsound_successors(state):
                fresh = soundness_check(bad)
                where = f"condition {condition} after {rule}"
                assert condition in {v.condition for v in fresh}, where
                assert soundness_check(bad, dict(cache)) == fresh, where
                broken.add(condition)
        assert broken == conditions

    @pytest.mark.parametrize("change", ["smaller pool", "other bound"])
    def test_cache_covers_only_the_same_bound_and_a_larger_pool(self,
                                                                 change):
        # ~P(a) instantiates only the learned clause, and the other bound
        # has it on top
        sc = satisfiable_scenario()
        sound = state_with(sc, [entry("~P(a)", Decision(1))],
                           learned=[cl("Q(b) | P(a)")])
        cache: dict = {}
        assert soundness_check(sound, cache) == []
        if change == "smaller pool":
            later = dataclasses.replace(sound, learned=())
        else:
            later = dataclasses.replace(sound, bound=Bound(
                lit("P(a)"), sc.bound.ordering, sc.bound.signature))
        fresh = soundness_check(later)
        assert [v.condition for v in fresh] == [6]
        assert soundness_check(later, cache) == fresh


def unsound_successors(state):
    """(condition, state) pairs: ``state`` followed by one step that breaks
    the condition, for each condition such a step can be built for."""
    trail, bound, pool = state.trail, state.bound, state.pool

    def push(literal, annotation):
        decisions = state.decisions + isinstance(annotation, Decision)
        return dataclasses.replace(
            state, trail=trail.push(TrailEntry(literal, annotation)),
            decisions=decisions)

    def decide(literal):
        return push(literal, Decision(state.decisions + 1))

    def entailed(clauses, literal):
        return entails_bounded(clauses, Clause.of(literal), bound,
                               SOUNDNESS_ATOM_CAP)

    undefined = [Literal(atom, positive)
                 for atom in bound.atoms_below() for positive in (True, False)
                 if not trail.is_defined(Literal(atom))]
    if len(trail):
        yield 1, decide(trail[0].literal.complement())
        yield 3, decide(trail[-1].literal)
    side_not_false = next((
        (clause, sigma, i) for clause in pool if len(clause) > 1
        for sigma in bounded_groundings(clause, bound)
        for i, target in enumerate(apply(sigma, clause))
        if not trail.is_defined(target)
        and not all(trail.truth_value(q) is False
                    for q in apply(sigma, clause.without(i)))), None)
    if side_not_false is not None:
        clause, sigma, i = side_not_false
        yield 2, push(apply(sigma, clause[i]),
                      Propagation(Closure(clause, sigma), i))
    ghost = next((q for q in undefined if not entailed(pool, q)), None)
    if ghost is not None:
        yield 2, push(ghost, Propagation(Closure(Clause.of(ghost), Subst()),
                                         0))
    unentailed = next((q for q in undefined
                       if not entailed(state.initial, q)), None)
    if unentailed is not None:
        yield 4, dataclasses.replace(
            state, learned=state.learned + (Clause.of(unentailed),))
    not_false = next(((clause, sigma) for clause in state.initial
                      for sigma in bounded_groundings(clause, bound)
                      if not trail.all_false(apply(sigma, clause))), None)
    if not_false is not None:
        yield 5, dataclasses.replace(state, conflict=Closure(*not_false))
    if not trail.is_defined(bound.beta):
        yield 6, decide(bound.beta)
    sourceless = next((q for q in undefined
                       if not any(match(p.atom, q.atom) is not None
                                  for c in pool for p in c)), None)
    if sourceless is not None:
        yield 6, decide(sourceless)


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
