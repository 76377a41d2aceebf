import time

import pytest

from conftest import (
    NONUNIT_BLOWUP_TEXT, LOOPING_TEXT, LPO_REFUTATION_TEXT, FACTORING_EAGER_CLAUSE,
    FACTORING_LAZY_CLAUSE, GROW_TEXT, UNIT_BLOWUP_TEXT, assert_clause_alpha,
    assert_conflict, assert_trail, cap_bounds, cl, factoring_divergence_state,
    grow_example, grow_script, lit,
)
from sclfol import strategy
from sclfol.frontend import parse_native
from sclfol.oracle import check_model, check_proof
from sclfol.orderings import EnumerationCapExceeded
from sclfol.strategy import (
    RunConfig, SignatureExhausted, configure_bound, default_beta_weight,
    next_beta, resolve_conflict_loop, run, synthesize_beta,
)
from sclfol.terms import Signature, alpha_equal


def run_text(text, **cfg_kwargs):
    problem = parse_native(text)
    cfg = RunConfig(**cfg_kwargs)
    return run(problem.clauses, cfg, problem.names), problem


class TestLpoRefutationRun:
    def cfg(self, **kw):
        base = dict(ordering="lpo", precedence=["a", "b", "P", "Q", "R"],
                    beta=lit("R(b)"), check="full")
        base.update(kw)
        return base

    def test_refutes_with_checkable_proof(self):
        result, problem = run_text(LPO_REFUTATION_TEXT, **self.cfg())
        assert result.verdict == "unsat"
        assert result.proof is not None
        assert check_proof(problem.by_name(), result.proof) is None

    def test_learned_clauses_recorded_with_snapshots(self):
        result, _ = run_text(LPO_REFUTATION_TEXT, **self.cfg())
        assert len(result.learned_records) >= 1
        for record in result.learned_records:
            assert record.snapshot is not None

    def test_regular_run_statistics(self):
        result, _ = run_text(LPO_REFUTATION_TEXT, **self.cfg())
        s = result.stats
        assert s.conflicts_total == s.conflicts_with_propagation_top
        assert s.episodes == s.episodes_with_resolve
        assert s.unreasonable_decides == 0

    def test_trace_deterministic(self):
        r1, _ = run_text(LPO_REFUTATION_TEXT, **self.cfg())
        r2, _ = run_text(LPO_REFUTATION_TEXT, **self.cfg())
        assert r1.trace == r2.trace


class TestGrowRuns:
    def cfg(self, **kw):
        base = dict(ordering="kbo", precedence=["a", "g", "P"],
                    beta=lit("P(g(g(a)))"), check="full")
        base.update(kw)
        return base

    def test_grow_once_then_refute(self):
        result, problem = run_text(GROW_TEXT, **self.cfg(max_growths=1))
        assert result.verdict == "unsat"
        assert result.stats.growths == 1
        assert check_proof(problem.by_name(), result.proof) is None
        assert str(result.final_bound.beta) == "P(g(g(g(a))))"

    def test_grow_off_builds_partial_model(self):
        result, problem = run_text(GROW_TEXT, **self.cfg())
        assert result.verdict == "sat-bounded"
        assert set(map(str, result.model)) == {"P(a)", "P(g(a))"}
        assert check_model(result.model, problem.clauses,
                           result.final_bound) is None

    def test_scripted_trace_states(self):
        states = grow_script()
        s = dict(enumerate(st for _, st in states))
        assert_trail(s[1], "P(a)")
        assert_trail(s[2], "P(a)", "P(g(a))")
        assert str(s[3].bound.beta) == "P(g(g(g(a))))"
        assert_trail(s[3])
        assert_trail(s[6], "P(a)", "P(g(a))", "P(g(g(a)))")
        assert_conflict(s[7], "~P(g(g(a)))", "~P(g(g(a)))")
        assert_conflict(s[8], "~P(g(a))", "~P(g(a))")
        assert_trail(s[9], "P(a)", "P(g(a))")
        assert_conflict(s[10], "~P(a)", "~P(a)")
        assert_trail(s[11], "P(a)")
        assert s[12].is_bot
        assert all(st.decisions == 0 for st in s.values())

    def test_stall_really_models_bounded_grounding(self):
        # before growing, the trail satisfies every bounded instance
        sc = grow_example()
        pre_grow = grow_script()[2][1]
        assert check_model(pre_grow.trail.literals, sc.clauses, sc.bound) \
            is None


class TestNextBeta:
    def test_weight_increment(self):
        bound = grow_example().bound
        assert str(next_beta(bound)) == "P(g(g(g(a))))"

    def test_constants_only_signature_exhausts(self):
        clauses = (cl("P(a) | P(b)"),)
        bound = configure_bound(clauses, RunConfig())
        with pytest.raises(SignatureExhausted):
            next_beta(bound)

    def test_iteration_dominates_every_atom(self):
        # fairness: repeated growing passes any fixed ground atom
        sc = grow_example()
        bound = sc.bound
        target = lit("P(g(g(g(g(g(g(a)))))))")  # weight 8
        for _ in range(10):
            if bound.ordering.compare_atoms(target.atom,
                                            bound.beta.atom) < 0:
                break
            bound = bound.grow_to(next_beta(bound))
        else:
            raise AssertionError("growing never dominated the target")

    def test_largest_atom_is_built_directly(self):
        # 177,309 atoms share the next weight; only the largest is built
        bound = configure_bound((cl("P(f(a),b) | Q(c,X)"),), RunConfig())
        start = time.perf_counter()
        beta = next_beta(bound)
        elapsed = time.perf_counter() - start
        assert str(beta) == "betaTop(f(c),c,c,c,c,c,c,c,c)"
        assert elapsed < 0.05, f"next_beta took {elapsed:.3f} s"


class TestBetaSynthesis:
    def test_fresh_predicate_dominates_weight(self):
        sig = Signature((("P", 2),), (("a", 0), ("b", 0)))
        beta, sig2 = synthesize_beta(sig, 5)
        assert beta.atom.pred not in dict(sig.predicates)
        bound = configure_bound((cl("P(a,b)"),), RunConfig(beta_weight=5))
        # every P atom over the constants sits below the synthesized bound
        assert {str(a) for a in bound.atoms_below()} >= \
            {"P(a,a)", "P(a,b)", "P(b,a)", "P(b,b)"}

    @pytest.mark.parametrize("precedence", [None, ["b", "a"]])
    def test_arguments_are_the_precedence_least_constant(self, precedence):
        # with any other constant, atoms of the fresh predicate fall below
        bound = configure_bound((cl("P(a,b) | ~P(b,a)"),),
                                RunConfig(precedence=precedence))
        atoms = bound.atoms_below()
        assert len(atoms) == 4
        assert all(a.pred == "P" for a in atoms)

    def test_propositional_signature(self):
        bound = configure_bound((cl("P | ~Q"),), RunConfig())
        assert {str(a) for a in bound.atoms_below()} == {"P", "Q"}

    @pytest.mark.parametrize("text, precedence", [
        ("q\n~q\n", None), ("q | r\n~q\n~r\n", ["r"])],
        ids=["default", "user"])
    def test_fresh_predicate_tops_the_precedence(self, text, precedence):
        # "q" sorts after "betaTop", yet must lie below the bound
        problem = parse_native(text)
        cfg = RunConfig(precedence=precedence, check="full")
        bound = configure_bound(problem.clauses, cfg)
        assert "q" in {str(a) for a in bound.atoms_below()}
        assert run(problem.clauses, cfg, problem.names).verdict == "unsat"

    def test_default_weight_covers_biggest_clause(self):
        clauses = (cl("P(X,Y) | ~P(Y,X)"),)
        assert default_beta_weight(clauses) == 8


class TestFactoringPolicies:
    def test_eager_learns_the_factored_clause(self):
        state, _ = factoring_divergence_state()
        end = resolve_conflict_loop(state, RunConfig(factoring="eager"))
        assert_clause_alpha(end.learned[-1], FACTORING_EAGER_CLAUSE)
        assert end.decisions == 3

    def test_lazy_learns_the_wide_clause(self):
        state, _ = factoring_divergence_state()
        end = resolve_conflict_loop(state, RunConfig(factoring="lazy"))
        learned = end.learned[-1]
        assert len(learned) == 7
        expected = parse_native("vars: x y\n" + FACTORING_LAZY_CLAUSE).clauses[0]
        assert alpha_equal(learned, expected)


class TestExponentialContrast:
    def test_exhaustive_mode_propagates_all_instances(self):
        result, _ = run_text(UNIT_BLOWUP_TEXT, check="invariants")
        assert result.verdict == "unsat"
        assert result.stats.propagations_by_predicate["R"] == 8
        assert result.stats.max_trail_by_predicate["R"] == 8

    def test_regular_mode_avoiding_r(self):
        result, _ = run_text(UNIT_BLOWUP_TEXT, avoid=("R",), check="invariants")
        assert result.verdict == "unsat"
        assert result.stats.propagations_by_predicate["R"] == 0
        assert result.stats.max_trail_by_predicate["R"] == 0
        assert result.stats.max_trail <= 4

    def test_nonunit_blowup_contrast(self):
        exhaustive, _ = run_text(NONUNIT_BLOWUP_TEXT, check="invariants")
        assert exhaustive.verdict == "unsat"
        assert exhaustive.stats.max_trail_by_predicate["R"] == 8
        regular, problem = run_text(NONUNIT_BLOWUP_TEXT, avoid=("R",),
                                    check="invariants")
        assert regular.verdict == "unsat"
        assert regular.stats.max_trail_by_predicate["R"] == 0
        # the refutation rests on the eight propositional clauses alone
        used = {step.clause_ref
                for deriv in regular.proof.derivations
                for step in (deriv.steps + (deriv.start,))
                if hasattr(step, "clause_ref")}
        input_refs = {r for r in used if not r.startswith("u")}
        assert input_refs <= set(problem.names[:8])


class TestLoopingRegression:
    @pytest.mark.parametrize("beta_text", [
        "P(f(f(f(a))))", "P(f(f(f(f(f(a))))))",
    ])
    def test_terminates_and_stays_bounded(self, beta_text):
        problem = parse_native(LOOPING_TEXT)
        cfg = RunConfig(ordering="kbo", precedence=["a", "f", "P"],
                        beta=lit(beta_text), check="full", max_steps=10_000)
        result = run(problem.clauses, cfg, problem.names)
        assert result.verdict == "sat-bounded"
        bound = result.final_bound
        assert all(bound.literal_below(l) for l in result.model)


class TestIncrementalSoundness:
    def test_carried_cache_changes_no_result(self, bs_corpus, monkeypatch):
        # every full-check step is checked twice: with the run's cache and
        # without one
        check = strategy.soundness_check
        cached = []

        def both_ways(state, cache=None):
            got = check(state, cache)
            assert got == check(state), str(state)
            cached.append(cache is not None)
            return got

        monkeypatch.setattr(strategy, "soundness_check", both_ways)
        runs = [(clauses, RunConfig(check="full", max_steps=50_000))
                for clauses in bs_corpus[:100]]
        runs.append((parse_native(GROW_TEXT).clauses, RunConfig(
            precedence=["a", "g", "P"], beta=lit("P(g(g(a)))"),
            max_growths=1, check="full")))
        runs.append((parse_native(LOOPING_TEXT).clauses, RunConfig(
            precedence=["a", "f", "P"], beta=lit("P(f(f(f(a))))"),
            max_growths=2, check="full")))
        verdicts = [run(clauses, cfg).verdict for clauses, cfg in runs]
        assert verdicts[-2:] == ["unsat", "sat-bounded"]
        assert len(cached) > 500 and all(cached)


class TestDriverBehaviors:
    def test_empty_problem_is_satisfiable(self):
        result = run((), RunConfig())
        assert result.verdict == "sat-bounded"
        assert result.model == ()

    def test_resource_out(self):
        result, _ = run_text(LPO_REFUTATION_TEXT, ordering="lpo",
                             precedence=["a", "b", "P", "Q", "R"],
                             beta=lit("R(b)"), max_steps=3)
        assert result.verdict == "resource-out"
        assert result.status_line == "UNKNOWN(resource)"

    def test_random_heuristic_is_seed_deterministic(self):
        kw = dict(ordering="lpo", precedence=["a", "b", "P", "Q", "R"],
                  beta=lit("R(b)"), heuristic="random", seed=11)
        r1, _ = run_text(LPO_REFUTATION_TEXT, **kw)
        r2, _ = run_text(LPO_REFUTATION_TEXT, **kw)
        assert r1.trace == r2.trace
        assert r1.verdict == "unsat"

    def test_avoid_everything_still_correct(self):
        # avoidance is a preference; verdicts must not change
        result, _ = run_text(UNIT_BLOWUP_TEXT, avoid=("R", "P", "Q"),
                             check="invariants")
        assert result.verdict == "unsat"

    def test_decide_source_can_be_learned_clause(self):
        # after learning, decisions may instantiate learned literals too
        result, _ = run_text(LPO_REFUTATION_TEXT, ordering="lpo",
                             precedence=["a", "b", "P", "Q", "R"],
                             beta=lit("R(b)"))
        assert result.verdict == "unsat"

    def test_wide_synthesized_bound_is_built_promptly(self):
        # betaTop gets arity 17 here; the bound holds only the 18 P and Q
        # atoms, and building it must not visit the betaTop atoms above it
        start = time.perf_counter()
        result, _ = run_text("P(a,b) | Q(c,X) | P(X,Y) | Q(Y,a) | P(b,c)\n"
                             "~P(X,Y)\n", max_steps=10)
        assert time.perf_counter() - start < 10
        assert result.verdict == "resource-out"
        assert len(result.final_bound.atoms_below()) == 18


class TestEnumerationCap:
    GROW = dict(precedence=["a", "g", "P"], beta=lit("P(g(g(a)))"),
                max_growths=1)

    def test_grow_past_the_cap_is_resource_out(self, monkeypatch):
        # the grow bound holds 3 atoms; uncapped, the run refutes after it
        cap_bounds(monkeypatch, 2)
        result, _ = run_text(GROW_TEXT, **self.GROW)
        assert result.verdict == "resource-out"
        assert result.stats.growths == 0
        assert len(result.final_bound.atoms_below()) == 2

    def test_groundings_past_the_cap_are_resource_out(self, monkeypatch):
        # 6 atoms below the bound, but P(X) | Q(Y) has 9 groundings
        cap_bounds(monkeypatch, 6)
        result, _ = run_text("P(X) | Q(Y)\n~P(a)\nQ(b) | Q(c)\n")
        assert result.verdict == "resource-out"
        assert len(result.final_bound.atoms_below()) == 6

    def test_initial_bound_past_the_cap_raises(self, monkeypatch):
        cap_bounds(monkeypatch, 1)
        with pytest.raises(EnumerationCapExceeded):
            run_text(GROW_TEXT, **self.GROW)


class TestDegenerateInputs:
    def test_empty_clause_in_input_refutes_immediately(self):
        problem = parse_native("P(a)\n$false\n")
        result = run(problem.clauses, RunConfig(check="full"), problem.names)
        assert result.verdict == "unsat"
        assert check_proof(problem.by_name(), result.proof) is None
        assert result.stats.rule_counts["conflict"] == 1

    def test_unit_contradiction(self):
        problem = parse_native("P(a)\n~P(a)\n")
        result = run(problem.clauses, RunConfig(check="full"), problem.names)
        assert result.verdict == "unsat"
        assert check_proof(problem.by_name(), result.proof) is None

    def test_rule_applications_are_recorded(self):
        problem = parse_native("P(a)\n~P(a)\n")
        result = run(problem.clauses, RunConfig(), problem.names)
        assert [line.split("\t")[0] for line in result.trace] == \
            ["propagate", "conflict", "resolve"]

    def test_single_unit_clause_model(self):
        result, problem = run_text("P(a)\n")
        assert result.verdict == "sat-bounded"
        assert lit("P(a)") in result.model
        assert check_model(result.model, problem.clauses,
                           result.final_bound) is None
