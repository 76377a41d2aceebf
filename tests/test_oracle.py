import random

import pytest

from conftest import (
    FACTORING_EAGER_CLAUSE, FACTORING_LAZY_CLAUSE, cl, lpo_refutation_scenario, lpo_refutation_script,
    factoring_divergence_state, grow_example, lit, random_bs_problem, sub,
)
from sclfol.frontend import parse_native
from sclfol.oracle import (
    CapExceeded, StepMismatch, check_entailment_definition, check_model,
    check_proof, ground_entails, ground_sat, ground_sat_bruteforce,
    is_redundant_snapshot, subsumes,
)
from sclfol.orderings import bounded_instances_of_set
from sclfol.proofs import (
    Derivation, Proof, ResolveStep, proof_from_text, proof_to_text,
)
from sclfol.strategy import RunConfig, configure_bound, run
from sclfol.terms import Clause


def props(*texts):
    return [cl(t) for t in texts]


class TestGroundSat:
    def test_four_propositional_clauses_unsat(self):
        clauses = props("P | Q", "P | ~Q", "~P | Q", "~P | ~Q")
        assert ground_sat(clauses) is None

    def test_empty_set_satisfiable(self):
        assert ground_sat([]) == {}

    def test_refutation_bounded_grounding_unsat(self):
        sc = lpo_refutation_scenario()
        ground = bounded_instances_of_set(sc.clauses, sc.bound)
        assert ground_sat(ground) is None

    def test_assignment_satisfies(self):
        clauses = props("P(a) | Q(b)", "~P(a)")
        model = ground_sat(clauses)
        assert model is not None
        for c in clauses:
            assert any(model[l.atom] == l.positive for l in c)

    def test_cap(self):
        clauses = [cl(" | ".join(f"P{i}" for i in range(30)))]
        with pytest.raises(CapExceeded):
            ground_sat(clauses, cap_atoms=24)

    def test_dpll_matches_truth_table(self):
        rng = random.Random(23)
        for _ in range(250):
            clauses = [
                Clause(tuple(
                    lit(("" if rng.random() < 0.5 else "~") + f"P{rng.randint(0, 5)}")
                    for _ in range(rng.randint(1, 3))))
                for _ in range(rng.randint(1, 8))
            ]
            fast = ground_sat(clauses)
            slow = ground_sat_bruteforce(clauses)
            assert (fast is None) == (slow is None)


class TestGroundEntails:
    def test_unit_entails_superclause(self):
        assert ground_entails(props("P(a)"), cl("P(a) | Q(b)"))

    def test_empty_premises_entail_nothing_contingent(self):
        assert not ground_entails([], cl("P(a)"))

    def test_resolution_consequence(self):
        assert ground_entails(props("P | Q", "~Q"), cl("P"))

    def test_tautology_always_entailed(self):
        assert ground_entails([], cl("P(a) | ~P(a)"))

    def test_agrees_with_definition_unfolding(self):
        rng = random.Random(31)
        for _ in range(200):
            premises = [
                Clause(tuple(
                    lit(("" if rng.random() < 0.5 else "~") + f"P{rng.randint(0, 4)}")
                    for _ in range(rng.randint(1, 3))))
                for _ in range(rng.randint(0, 6))
            ]
            goal = Clause(tuple(
                lit(("" if rng.random() < 0.5 else "~") + f"P{rng.randint(0, 4)}")
                for _ in range(rng.randint(1, 2))))
            assert ground_entails(premises, goal) == \
                check_entailment_definition(premises, goal)


class TestRedundancy:
    def test_pool_member_is_redundant(self):
        sc = lpo_refutation_scenario()
        snapshot = lpo_refutation_script()[3][1].trail_order()
        assert is_redundant_snapshot(sc.clauses[0], sc.clauses, snapshot,
                                     sc.bound)

    def test_learned_unit_not_redundant_at_snapshot(self):
        states = lpo_refutation_script()
        conflict_state = states[3][1]
        learned = states[7][1].learned[0]
        snapshot = conflict_state.trail_order()
        assert not is_redundant_snapshot(learned, conflict_state.pool,
                                         snapshot, conflict_state.bound)

    def test_divergent_learned_clauses_non_redundant(self):
        state, sc = factoring_divergence_state()
        snapshot = state.trail_order()
        for text in (FACTORING_EAGER_CLAUSE, "vars: x y\n" + FACTORING_LAZY_CLAUSE):
            clause = parse_native(text).clauses[0]
            assert not is_redundant_snapshot(clause, sc.clauses, snapshot,
                                             sc.bound)

    def test_monotone_in_the_pool(self):
        # growing the pool never flips redundant -> non-redundant
        rng = random.Random(47)
        checked = 0
        for _ in range(40):
            clauses = tuple(random_bs_problem(rng))
            bound = configure_bound(clauses, RunConfig())
            from sclfol.orderings import TrailOrder
            snapshot = TrailOrder((), bound.ordering)
            candidate = clauses[0]
            small = clauses[1:3]
            big = clauses[1:]
            r_small = is_redundant_snapshot(candidate, small, snapshot, bound)
            r_big = is_redundant_snapshot(candidate, big, snapshot, bound)
            if r_small:
                checked += 1
                assert r_big
        assert checked > 0


class TestSubsumption:
    def test_divergent_learned_clauses_incomparable(self):
        c1 = parse_native("vars: x y\n" + FACTORING_LAZY_CLAUSE).clauses[0]
        c2 = cl(FACTORING_EAGER_CLAUSE)
        assert not subsumes(c1, c2)
        assert not subsumes(c2, c1)

    def test_classic_subsumption(self):
        general = cl("P(X) | R(X,Y)")
        specific = cl("P(X) | R(X,g(Z)) | P(Z)")
        assert subsumes(general, specific)
        assert not subsumes(specific, general)

    def test_multiset_discipline(self):
        # a duplicated literal needs two distinct targets
        assert not subsumes(cl("P(X) | P(Y)"), cl("P(a)"))
        assert subsumes(cl("P(X) | P(Y)"), cl("P(a) | P(b)"))


class TestCheckModel:
    def test_growing_scenario_model_ok(self):
        sc = grow_example()
        assert check_model([lit("P(a)"), lit("P(g(a))")], sc.clauses,
                           sc.bound) is None

    def test_falsified_instance_reported(self):
        clauses = (cl("P(a)"),)
        bound = configure_bound(clauses, RunConfig())
        falsified = check_model([lit("~P(a)")], clauses, bound)
        assert falsified == cl("P(a)")

    def test_driver_models_cross_check(self):
        rng = random.Random(53)
        seen_sat = 0
        for _ in range(40):
            clauses = random_bs_problem(rng)
            result = run(clauses, RunConfig(max_steps=20_000))
            if result.verdict != "sat-bounded":
                continue
            seen_sat += 1
            assert check_model(result.model, clauses, result.final_bound) \
                is None
        assert seen_sat > 5


class TestCheckProof:
    def lpo_refutation_proof(self):
        sc = lpo_refutation_scenario()
        result = run(sc.clauses, RunConfig(
            ordering="lpo", precedence=["a", "b", "P", "Q", "R"],
            beta=lit("R(b)")), ("c1", "c2", "c3", "c4"))
        return sc, result.proof

    def test_refutation_proof_ok(self):
        sc, proof = self.lpo_refutation_proof()
        assert check_proof(dict(zip(sc.names, sc.clauses)), proof) is None

    def test_grow_proof_ok(self):
        sc = grow_example()
        result = run(sc.clauses, RunConfig(
            ordering="kbo", precedence=["a", "g", "P"],
            beta=lit("P(g(g(a)))"), max_growths=1), sc.names)
        assert result.verdict == "unsat"
        assert check_proof(dict(zip(sc.names, sc.clauses)), result.proof) \
            is None

    def test_tampered_substitution_detected(self):
        sc, proof = self.lpo_refutation_proof()
        deriv = proof.derivations[0]
        bad_steps = []
        for step in deriv.steps:
            if isinstance(step, ResolveStep) and step.subst.mapping:
                step = ResolveStep(step.clause_ref, step.lit_index,
                                   sub("{X -> a}"), step.conflict_index)
            bad_steps.append(step)
        tampered = Proof(
            (Derivation(deriv.name, deriv.start, tuple(bad_steps),
                        deriv.clause),) + proof.derivations[1:],
            proof.refutation)
        mismatch = check_proof(dict(zip(sc.names, sc.clauses)), tampered)
        assert isinstance(mismatch, StepMismatch)

    def test_tampered_learned_clause_detected(self):
        sc, proof = self.lpo_refutation_proof()
        deriv = proof.derivations[0]
        tampered = Proof(
            (Derivation(deriv.name, deriv.start, deriv.steps, cl("Q(a)")),)
            + proof.derivations[1:],
            proof.refutation)
        mismatch = check_proof(dict(zip(sc.names, sc.clauses)), tampered)
        assert mismatch is not None and mismatch.derivation == deriv.name

    def test_unknown_parent_detected(self):
        sc, proof = self.lpo_refutation_proof()
        mismatch = check_proof({"c9": cl("P(a)")}, proof)
        assert mismatch is not None

    def test_serialization_round_trip(self):
        sc, proof = self.lpo_refutation_proof()
        text = proof_to_text(proof)
        assert proof_from_text(text) == proof
