"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import hashlib
import time
from collections import Counter

from conftest import (
    NONUNIT_BLOWUP_PROPOSITIONAL, NONUNIT_BLOWUP_TEXT, LOOPING_TEXT,
    LPO_REFUTATION_TEXT, FACTORING_EAGER_CLAUSE, FACTORING_LAZY_CLAUSE, GROW_TEXT, UNIT_BLOWUP_TEXT,
    looping_script, assert_clause_alpha, assert_conflict,
    assert_trail, cl, lpo_refutation_scenario, lpo_refutation_script, factoring_divergence_state,
    grow_script, lit, sub,
)
from sclfol.frontend import parse_native
from sclfol.oracle import (
    check_model, check_proof, ground_sat, is_redundant_snapshot, subsumes,
)
from sclfol.orderings import bounded_instances_of_set
from sclfol.state import (
    Decision, ProblemState, Propagation, Trail, TrailEntry, soundness_check,
)
from sclfol.strategy import RunConfig, resolve_conflict_loop, run
from sclfol.terms import Closure, alpha_equal


def _passed(n, message):
    print(f"ACCEPTANCE criterion {n}: PASS - {message}")


def _regular_run_assertions(stats):
    assert stats.conflicts_total == stats.conflicts_with_propagation_top
    assert stats.episodes == stats.episodes_with_resolve
    assert stats.unreasonable_decides == 0


def lpo_refutation_cfg(**kw):
    base = dict(ordering="lpo", precedence=["a", "b", "P", "Q", "R"],
                beta=lit("R(b)"))
    base.update(kw)
    return RunConfig(**base)


def grow_cfg(**kw):
    base = dict(ordering="kbo", precedence=["a", "g", "P"],
                beta=lit("P(g(g(a)))"))
    base.update(kw)
    return RunConfig(**base)


REGULAR_STATS = []


def test_criterion_1_refutation_golden_trace():
    start = time.perf_counter()

    states = lpo_refutation_script()
    assert [r for r, _ in states] == [
        "start", "decide", "propagate", "conflict", "resolve", "factorize",
        "skip", "backtrack", "propagate", "propagate", "conflict", "resolve",
        "skip", "factorize", "resolve"]
    s = [st for _, st in states]
    assert_trail(s[1], "~P(a)")
    assert s[1].decisions == 1
    assert_trail(s[2], "~P(a)", "~Q(b)")
    assert_conflict(s[3], "P(X) | Q(b)", "P(a) | Q(b)")
    assert_conflict(s[4], "P(X) | P(Y)", "P(a) | P(a)")
    assert_conflict(s[5], "P(X)", "P(a)")
    assert_trail(s[6], "~P(a)")
    assert_trail(s[7])
    assert s[7].decisions == 0 and [str(c) for c in s[7].learned] == ["P(X)"]
    assert_trail(s[8], "P(a)")
    assert_trail(s[9], "P(a)", "Q(b)")
    assert_conflict(s[10], "~P(X) | ~Q(b)", "~P(a) | ~Q(b)")
    assert_conflict(s[11], "~P(X) | ~P(a)", "~P(a) | ~P(a)")
    assert_trail(s[12], "P(a)")
    assert_conflict(s[13], "~P(a)", "~P(a)")
    assert s[14].is_bot and s[14].decisions == 0

    problem = parse_native(LPO_REFUTATION_TEXT)
    result = run(problem.clauses, lpo_refutation_cfg(), problem.names)
    assert result.verdict == "unsat"
    assert check_proof(problem.by_name(), result.proof) is None
    REGULAR_STATS.append(("lpo_refutation_scenario", result.stats))

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(1, f"14 scripted states match; free run refutes and the proof "
               f"replays ({elapsed:.2f}s)")


def test_criterion_2_grow_golden_trace():
    start = time.perf_counter()

    states = grow_script()
    assert [r for r, _ in states] == [
        "start", "propagate", "propagate", "grow", "propagate", "propagate",
        "propagate", "conflict", "resolve", "skip", "resolve", "skip",
        "resolve"]
    s = [st for _, st in states]
    assert_trail(s[2], "P(a)", "P(g(a))")
    assert str(s[3].bound.beta) == "P(g(g(g(a))))" and len(s[3].trail) == 0
    assert_trail(s[6], "P(a)", "P(g(a))", "P(g(g(a)))")
    assert_conflict(s[7], "~P(g(g(a)))", "~P(g(g(a)))")
    assert_conflict(s[8], "~P(g(a))", "~P(g(a))")
    assert_conflict(s[10], "~P(a)", "~P(a)")
    assert s[12].is_bot

    problem = parse_native(GROW_TEXT)
    grown = run(problem.clauses, grow_cfg(max_growths=1), problem.names)
    assert grown.verdict == "unsat"
    assert grown.stats.growths == 1
    assert str(grown.final_bound.beta) == "P(g(g(g(a))))"
    assert check_proof(problem.by_name(), grown.proof) is None
    REGULAR_STATS.append(("grow-on", grown.stats))

    stalled = run(problem.clauses, grow_cfg(), problem.names)
    assert stalled.verdict == "sat-bounded"
    assert set(map(str, stalled.model)) == {"P(a)", "P(g(a))"}
    assert check_model(stalled.model, problem.clauses,
                       stalled.final_bound) is None
    REGULAR_STATS.append(("grow-off", stalled.stats))

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(2, f"stalls at {{P(a), P(g(a))}}, grows once to P(g(g(g(a)))) "
               f"and refutes; grow=off yields a checked model "
               f"({elapsed:.2f}s)")


def test_criterion_3_factoring_divergence():
    start = time.perf_counter()

    conflict_state, sc = factoring_divergence_state()
    snapshot = conflict_state.trail_order()

    eager = resolve_conflict_loop(conflict_state, RunConfig(factoring="eager"))
    c2 = eager.learned[-1]
    assert_clause_alpha(c2, FACTORING_EAGER_CLAUSE)

    lazy = resolve_conflict_loop(conflict_state, RunConfig(factoring="lazy"))
    c1 = lazy.learned[-1]
    assert len(c1) == 7
    expected_c1 = parse_native("vars: x y\n" + FACTORING_LAZY_CLAUSE).clauses[0]
    assert alpha_equal(c1, expected_c1)

    for learned in (c1, c2):
        assert not is_redundant_snapshot(learned, sc.clauses, snapshot,
                                         sc.bound)
    assert not subsumes(c1, c2)
    assert not subsumes(c2, c1)

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(3, f"eager learns {c2}; lazy learns the seven-literal clause; "
               f"both non-redundant, neither subsumes ({elapsed:.2f}s)")


def test_criterion_4_nonredundant_learning(bs_corpus_results):
    results, elapsed = bs_corpus_results
    assert len(results) >= 500
    learned_total = 0
    for result in results:
        for record in result.learned_records:
            learned_total += 1
            assert not is_redundant_snapshot(
                record.clause, record.pool, record.snapshot, record.bound), \
                f"redundant learned clause {record.clause}"
    assert elapsed < 300.0
    _passed(4, f"{learned_total} learned clauses over {len(results)} random "
               f"sets, all non-redundant at their snapshots "
               f"({elapsed:.1f}s corpus)")


def test_criterion_5_soundness_preservation(bs_corpus_results):
    # scripted golden traces: every state passes the checker
    for script in (lpo_refutation_script, grow_script, looping_script):
        for rule, state in script():
            assert soundness_check(state) == [], f"after {rule}"

    # driver transitions for criteria 1-3 under full checking (a violation
    # raises InvariantViolation and would fail these runs)
    p1 = parse_native(LPO_REFUTATION_TEXT)
    assert run(p1.clauses, lpo_refutation_cfg(check="full"),
               p1.names).verdict == "unsat"
    pg = parse_native(GROW_TEXT)
    assert run(pg.clauses, grow_cfg(check="full", max_growths=1),
               pg.names).verdict == "unsat"
    conflict_state, _ = factoring_divergence_state()
    assert soundness_check(conflict_state) == []

    # criterion-4 corpus ran with check="full" (see the fixture): done
    results, _ = bs_corpus_results
    assert len(results) >= 500

    # mutation tests: each corrupted guard reports its condition index
    sc = lpo_refutation_scenario()

    def state_of(entries, **kw):
        trail = Trail(tuple(entries))
        return ProblemState(trail, sc.clauses, kw.get("learned", ()),
                            sc.bound, trail.decision_count(),
                            kw.get("conflict"))

    sat_clauses = (cl("Q(b)"),)
    sat_state = lambda entries, **kw: ProblemState(
        Trail(tuple(entries)), sat_clauses, kw.get("learned", ()), sc.bound,
        Trail(tuple(entries)).decision_count(), kw.get("conflict"))

    mutations = {
        1: state_of([TrailEntry(lit("P(a)"), Decision(1)),
                     TrailEntry(lit("~P(a)"), Decision(2))]),
        2: sat_state([TrailEntry(lit("P(a)"), Propagation(
            Closure(cl("P(X)"), sub("{X -> a}")), 0))]),
        3: state_of([TrailEntry(lit("P(a)"), Decision(1)),
                     TrailEntry(lit("~P(a)"), Decision(2))]),
        4: sat_state([], learned=(cl("P(a)"),)),
        5: state_of([], conflict=Closure(cl("P(X) | Q(b)"), sub("{X -> a}"))),
        6: state_of([TrailEntry(lit("R(a)"), Decision(1))]),
    }
    for condition, bad_state in mutations.items():
        found = {v.condition for v in soundness_check(bad_state)}
        assert condition in found, f"condition {condition} not reported"

    _passed(5, "all scripted and driver transitions sound; six mutations "
               "report their condition indices")


def test_criterion_6_correct_termination(bs_corpus, bs_corpus_results):
    results, _ = bs_corpus_results
    agreements = 0
    for clauses, result in zip(bs_corpus, results):
        assert result.verdict in ("unsat", "sat-bounded"), \
            "step limit must never fire on the corpus"
        ground = bounded_instances_of_set(
            list(clauses), result.final_bound)
        oracle_unsat = ground_sat(ground, cap_atoms=64) is None
        assert (result.verdict == "unsat") == oracle_unsat
        if result.verdict == "sat-bounded":
            assert check_model(result.model, clauses,
                               result.final_bound) is None
        agreements += 1
    unsat = sum(1 for r in results if r.verdict == "unsat")
    _passed(6, f"{agreements}/{len(results)} verdicts agree with the ground "
               f"oracle ({unsat} unsat); all models check")


def test_corpus_trace_fingerprint(bs_corpus_results):
    # the traces and verdicts are the contract: a change that keeps the
    # prover's behaviour keeps this digest
    results, _ = bs_corpus_results
    digest = hashlib.sha256()
    for result in results:
        digest.update(("\n".join(result.trace) + result.verdict).encode())
    verdicts = Counter(result.verdict for result in results)
    assert digest.hexdigest().startswith("6c7ec91f8cc06499")
    assert verdicts == {"sat-bounded": 433, "unsat": 67}
    assert sum(result.stats.learned for result in results) == 64


def test_criterion_7_exponential_contrast():
    start = time.perf_counter()

    s1 = parse_native(UNIT_BLOWUP_TEXT)
    exhaustive = run(s1.clauses, RunConfig(mode="exhaustive"), s1.names)
    assert exhaustive.verdict == "unsat"
    assert exhaustive.stats.propagations_by_predicate["R"] == 8

    regular = run(s1.clauses, RunConfig(avoid=("R",)), s1.names)
    assert regular.verdict == "unsat"
    assert regular.stats.propagations_by_predicate["R"] == 0
    assert regular.stats.max_trail_by_predicate["R"] == 0
    assert regular.stats.max_trail <= 4
    REGULAR_STATS.append(("unit-blowup-regular", regular.stats))

    appa = parse_native(NONUNIT_BLOWUP_TEXT)
    appa_exhaustive = run(appa.clauses, RunConfig(mode="exhaustive"),
                          appa.names)
    assert appa_exhaustive.verdict == "unsat"
    assert appa_exhaustive.stats.max_trail_by_predicate["R"] == 8

    appa_regular = run(appa.clauses, RunConfig(avoid=("R",)), appa.names)
    assert appa_regular.verdict == "unsat"
    assert appa_regular.stats.max_trail_by_predicate["R"] == 0
    used = {step.clause_ref
            for deriv in appa_regular.proof.derivations
            for step in deriv.steps + (deriv.start,)
            if hasattr(step, "clause_ref")}
    input_refs = {r for r in used if r in set(appa.names)}
    assert input_refs <= set(NONUNIT_BLOWUP_PROPOSITIONAL)
    REGULAR_STATS.append(("nonunit-blowup-regular", appa_regular.stats))

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passed(7, f"exhaustive mode needs all 8 ground instances; regular mode "
               f"refutes with none and trail <= "
               f"{regular.stats.max_trail} ({elapsed:.2f}s)")


def test_criterion_8_looping_instantiation_regression():
    start = time.perf_counter()

    states = looping_script()
    assert [r for r, _ in states] == [
        "start", "decide", "decide", "propagate", "conflict", "resolve",
        "skip", "backtrack"]
    s = [st for _, st in states]
    assert_trail(s[1], "P(a)")
    assert_trail(s[2], "P(a)", "~P(f(f(a)))")
    assert_trail(s[3], "P(a)", "~P(f(f(a)))", "~P(f(a))")
    ann = s[3].trail[-1].annotation
    assert_clause_alpha(ann.closure.clause, "~P(X) | ~P(f(X))")
    assert_conflict(s[4], "P(X) | P(f(X))", "P(f(a)) | P(f(f(a)))")
    assert_clause_alpha(s[5].conflict.clause, "~P(X) | P(f(f(X)))")
    assert_trail(s[7], "P(a)")
    assert s[7].decisions == 1
    assert_clause_alpha(s[7].learned[0], "~P(X) | P(f(f(X)))")

    problem = parse_native(LOOPING_TEXT)
    for beta_text in ("P(f(f(f(a))))", "P(f(f(f(f(f(a))))))"):
        cfg = RunConfig(ordering="kbo", precedence=["a", "f", "P"],
                        beta=lit(beta_text), max_steps=10_000)
        result = run(problem.clauses, cfg, problem.names)
        assert result.verdict != "resource-out"
        bound = result.final_bound
        for line in result.trace:
            assert "status=" in line
        assert all(bound.literal_below(l)
                   for l in result.final_state.trail.literals)
        REGULAR_STATS.append((f"looping-{beta_text}", result.stats))

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(8, f"six-step trace replays and learns ~P(X) | P(f(f(X))); "
               f"bounded runs terminate on the trail below the bound "
               f"({elapsed:.2f}s)")


def test_criterion_9_resolve_in_regular_runs(bs_corpus_results):
    results, _ = bs_corpus_results
    checked = 0
    for result in results:
        _regular_run_assertions(result.stats)
        checked += 1
    for name, stats in REGULAR_STATS:
        _regular_run_assertions(stats)
        checked += 1
    assert checked >= 500
    _passed(9, f"{checked} regular runs: every conflict fired on a "
               f"propagation and every episode resolved at least once")
