"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import dataclasses
import gc
import hashlib
import importlib.util
import json
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from conftest import (
    NONUNIT_BLOWUP_PROPOSITIONAL, NONUNIT_BLOWUP_TEXT, LOOPING_TEXT,
    LPO_REFUTATION_TEXT, FACTORING_EAGER_CLAUSE, FACTORING_LAZY_CLAUSE, GROW_TEXT, UNIT_BLOWUP_TEXT,
    looping_script, assert_clause_alpha, assert_conflict,
    assert_trail, cl, lpo_refutation_scenario, lpo_refutation_script, factoring_divergence_state,
    grow_script, lit, sub,
)
from sclfol.frontend import parse_literal_text, parse_native
from sclfol.oracle import (
    check_model, check_proof, ground_sat, is_redundant_snapshot,
)
from sclfol.orderings import bounded_instances_of_set
from sclfol.state import (
    Decision, ProblemState, Propagation, Trail, TrailEntry, soundness_check,
)
from sclfol import oracle, orderings, strategy
from sclfol import state as state_module
from sclfol.strategy import RunConfig, resolve_conflict_loop, run
from sclfol.terms import Clause, Closure, alpha_equal, subsumes


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


def _trace_fingerprint(results):
    digest = hashlib.sha256()
    for result in results:
        digest.update(("\n".join(result.trace) + result.verdict).encode())
    return digest.hexdigest()[:16]


def test_corpus_trace_fingerprint(bs_corpus_results):
    # the traces and verdicts are the contract: a change that keeps the
    # prover's behaviour keeps this digest
    results, _ = bs_corpus_results
    verdicts = Counter(result.verdict for result in results)
    assert _trace_fingerprint(results) == "6c7ec91f8cc06499"
    assert verdicts == {"sat-bounded": 433, "unsat": 67}
    assert sum(result.stats.learned for result in results) == 64


@pytest.mark.parametrize("check", ["off", "invariants"])
def test_corpus_trace_fingerprint_unchecked(bs_corpus, check):
    # the checking mode changes nothing a run does: the corpus under the
    # lighter modes keeps the digest of the full-check runs above
    cfg = RunConfig(check=check, max_steps=50_000)
    results = [run(clauses, cfg) for clauses in bs_corpus]
    assert _trace_fingerprint(results) == "6c7ec91f8cc06499"


def test_invariants_catch_a_miscounted_backtrack(bs_corpus, bs_corpus_results,
                                                 monkeypatch):
    # a Backtrack whose state claims one decision more than its trail holds
    # fails the recorder's own count under invariants, in every corpus run
    # that backtracks, and in no other
    real = strategy.apply_backtrack

    def miscounted(state):
        new = real(state)
        return dataclasses.replace(new, decisions=new.decisions + 1)

    monkeypatch.setattr(strategy, "apply_backtrack", miscounted)
    cfg = RunConfig(check="invariants", max_steps=50_000)
    results, _ = bs_corpus_results
    caught = 0
    for clauses, result in zip(bs_corpus, results):
        if result.stats.rule_counts["backtrack"]:
            with pytest.raises(strategy.InvariantViolation,
                               match="decision counter"):
                run(clauses, cfg)
            caught += 1
        else:
            assert run(clauses, cfg).trace == result.trace
    assert caught == 64


# nested g/2 terms and a bound of 1,459 atoms after one Grow: what the
# function-free, first-heuristic corpus does not reach
GROWCAP_TEXT = """\
P(a)
~P(X) | P(g(X,X))
Q(b) | Q(c)
R(d,e)
~P(g(g(g(g(g(g(g(g(a,a),a),a),a),a),a),a),a))
"""


def test_large_bound_trace_fingerprint():
    problem = parse_native(GROWCAP_TEXT)
    result = run(problem.clauses, RunConfig(beta_weight=4, max_growths=1),
                 problem.names)
    assert _trace_fingerprint([result]) == "12e867d792b07acc"
    assert result.verdict == "sat-bounded"
    assert result.stats.steps == 317
    assert len(result.final_bound.atoms_below()) == 1459


def test_large_bound_two_grows_fingerprint():
    # two Grows, each handing its decision sources to the grown index:
    # 17,084 atoms below the last bound
    problem = parse_native(GROWCAP_TEXT)
    result = run(problem.clauses, RunConfig(beta_weight=4, max_growths=2),
                 problem.names)
    assert _trace_fingerprint([result]) == "8dce5f82e86718b1"
    assert result.verdict == "sat-bounded"
    assert result.stats.steps == 601
    assert len(result.final_bound.atoms_below()) == 17084


def test_large_bound_three_grows_fingerprint():
    # the long trails: up to 3,408 entries, each a new trail whose map of
    # first positions is built on its first query
    problem = parse_native(GROWCAP_TEXT)
    result = run(problem.clauses, RunConfig(beta_weight=4, max_growths=3),
                 problem.names)
    assert _trace_fingerprint([result]) == "12b760f03d0c061a"
    assert result.verdict == "sat-bounded"
    assert result.stats.steps == 4010
    assert len(result.final_bound.atoms_below()) == 23334
    assert result.stats.max_trail == 3408


@pytest.mark.parametrize("check", ["off", "invariants"])
def test_large_bound_four_grows_fingerprint(check):
    # the large-bound case: 285,834 atoms below the last bound
    problem = parse_native(GROWCAP_TEXT)
    result = run(problem.clauses, RunConfig(beta_weight=4, max_growths=4,
                                            check=check), problem.names)
    assert _trace_fingerprint([result]) == "6fae8d0f467140ab"
    assert result.verdict == "sat-bounded"
    assert result.stats.steps == 7419
    assert len(result.final_bound.atoms_below()) == 285834
    assert result.stats.max_trail == 3408


def test_large_bound_five_grows_fingerprint():
    # the long trails: up to 47,158 entries, each step pushing onto the
    # log the trails share, over 373,334 atoms below the last bound
    problem = parse_native(GROWCAP_TEXT)
    result = run(problem.clauses, RunConfig(beta_weight=4, max_growths=5),
                 problem.names)
    assert _trace_fingerprint([result]) == "3b5e67cdbf89edcb"
    assert result.verdict == "sat-bounded"
    assert result.stats.steps == 54578
    assert len(result.final_bound.atoms_below()) == 373334
    assert result.stats.max_trail == 47158


def test_runs_leave_no_cyclic_garbage(bs_corpus):
    # a run's bounds, ground indexes and trails die by reference count:
    # nothing a run leaves behind waits for the cycle collector
    grow_fn = _grow_fn_runs(20)
    growcap = parse_native(GROWCAP_TEXT)
    gc.collect()
    gc.disable()
    try:
        for check in ("off", "full"):
            for clauses in bs_corpus[:20]:
                run(clauses, RunConfig(check=check, max_steps=50_000))
        run(growcap.clauses, RunConfig(beta_weight=4, max_growths=2),
            growcap.names)
        for parsed, cfg in grow_fn:
            run(parsed.clauses, cfg, parsed.names)
        for clauses in bs_corpus[:20]:
            run(clauses, RunConfig(heuristic="random", max_steps=50_000))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_each_pattern_meets_each_atom_once_per_run(monkeypatch):
    # a Grow hands the bound's match tables on, so a run matches each
    # literal pattern against each atom once, over all the bounds it grows
    # through.  The table builder matches with no partial substitution
    matched = Counter()
    match = orderings.match

    def counted(pattern, target, partial=None):
        if partial is None:
            matched[pattern, target] += 1
        return match(pattern, target, partial)

    monkeypatch.setattr(orderings, "match", counted)
    growcap = parse_native(GROWCAP_TEXT)
    for parsed, cfg in [(growcap, RunConfig(beta_weight=4, max_growths=2))] \
            + _grow_fn_runs(20):
        matched.clear()
        result = run(parsed.clauses, cfg, parsed.names)
        assert result.stats.growths > 0 and matched
        assert max(matched.values()) == 1, [
            f"{pattern} against {atom}: {n} times"
            for (pattern, atom), n in matched.items() if n > 1]


def test_each_term_is_built_once_per_run(monkeypatch):
    # a Grow hands the bound's ground terms and argument tuples on, and a
    # count-KBO Grow enumerates only the atoms from the old beta up: over
    # all the bounds a run grows through, each uncut argument-tuple list is
    # built once and each atom comes out of the enumeration once
    built, returned = Counter(), Counter()
    arg_tuples = orderings._arg_tuples
    atoms_of_weight = orderings.ground_atoms_of_weight

    def counted_tuples(signature, total, arity, memo, ordering, *cuts):
        if arity and all(cut is None for cut in cuts) \
                and (total, arity) not in memo:
            built[total, arity] += 1
        return arg_tuples(signature, total, arity, memo, ordering, *cuts)

    def counted_atoms(*args, **kwargs):
        atoms = atoms_of_weight(*args, **kwargs)
        returned.update(atoms)
        return atoms

    monkeypatch.setattr(orderings, "_arg_tuples", counted_tuples)
    monkeypatch.setattr(orderings, "ground_atoms_of_weight", counted_atoms)
    growcap = parse_native(GROWCAP_TEXT)
    for parsed, cfg in [(growcap, RunConfig(beta_weight=4, max_growths=2))] \
            + _grow_fn_runs(20):
        built.clear()
        returned.clear()
        result = run(parsed.clauses, cfg, parsed.names)
        assert result.stats.growths > 0 and built and returned
        assert max(built.values()) == 1, [
            f"{arity} arguments of {total} symbols: built {n} times"
            for (total, arity), n in built.items() if n > 1]
        assert max(returned.values()) == 1, [
            f"{atom}: {n} times" for atom, n in returned.items() if n > 1]


def test_bound_setup_compares_no_terms(monkeypatch, bs_corpus):
    # count-KBO lists each weight's terms in ascending order, so the
    # enumeration cuts argument tuples at the cut terms' positions: no
    # terms are compared while a bound is built, afresh or by a Grow
    calls = Counter()
    building = []
    compare_terms = orderings.CountKBO.compare_terms
    bound_init = orderings.Bound.__init__

    def counted_compare(ordering, s, t):
        calls["building a bound" if building else "elsewhere"] += 1
        return compare_terms(ordering, s, t)

    def tracked_init(bound, *args, **kwargs):
        building.append(bound)
        try:
            bound_init(bound, *args, **kwargs)
        finally:
            building.pop()

    monkeypatch.setattr(orderings.CountKBO, "compare_terms", counted_compare)
    monkeypatch.setattr(orderings.Bound, "__init__", tracked_init)
    for clauses in bs_corpus[:50]:
        run(clauses, RunConfig(max_steps=50_000))
    for parsed, cfg in _grow_fn_runs(20):
        run(parsed.clauses, cfg, parsed.names)
    assert calls["elsewhere"] > 0 and calls["building a bound"] == 0, calls


def test_random_heuristic_trace_fingerprint(bs_corpus):
    cfg = RunConfig(heuristic="random", check="invariants", max_steps=50_000)
    results = [run(clauses, cfg) for clauses in bs_corpus[:100]]
    assert _trace_fingerprint(results) == "996900846974692d"


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_perfbench(name):
    # perfbench is a directory of scripts, not a package; read it by path
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look it up there
    spec.loader.exec_module(module)
    return module


def _load_workloads():
    expected = json.loads((PERFBENCH / "expected.json").read_text())
    return _load_perfbench("workloads"), expected


def _grow_fn_runs(n):
    """The first ``n`` problems of the benchmark's grow-fn stream, parsed,
    each with the run configuration perfbench/run.py gives it."""
    workloads, _ = _load_workloads()
    workload = workloads.WORKLOADS["grow-fn"]
    return [(parse_native(problem.text),
             RunConfig(beta=parse_literal_text(problem.bound),
                       check=workload.check,
                       max_growths=workload.max_growths,
                       max_steps=workloads.MAX_STEPS))
            for problem in workload.problems(workloads.DEFAULT_SEED, n)]


def test_perfbench_tracer_installs():
    # perfbench/tracer.py wraps prover functions and methods by name: a
    # renamed or deleted one fails here, not only in a `--trace 1` run.
    # The two problems grow, and decide and backtrack, under full checking.
    import sclfol
    runs = [(parse_native(GROW_TEXT),
             RunConfig(beta=lit("P(a)"), max_growths=2, check="full")),
            (parse_native(LPO_REFUTATION_TEXT), RunConfig(check="full"))]
    plain = [run(p.clauses, cfg, p.names).trace for p, cfg in runs]
    tracer = _load_perfbench("tracer").Tracer()
    try:
        tracer.install(sclfol)
        traced = [run(p.clauses, cfg, p.names).trace for p, cfg in runs]
    finally:
        tracer.uninstall()
    assert traced == plain
    names = {span[3] for span in tracer.spans}
    assert {"calculus.apply_grow", "calculus.apply_backtrack",
            "state.soundness_check"} <= names
    assert tracer.counts["calculus.false_grounding"] > 0
    assert tracer.counts["calculus.enables_conflict"] > 0


def test_grow_fn_trace_fingerprint():
    # the benchmark's grow-fn stream: nested unary terms, Grow, Skip and
    # Backtrack, with the run configuration perfbench/run.py gives it
    _, expected = _load_workloads()
    results = [run(parsed.clauses, cfg, parsed.names)
               for parsed, cfg in _grow_fn_runs(100)]
    assert _trace_fingerprint(results) == expected["grow-fn"]["100"]
    assert expected["grow-fn"]["100"] == "aa9a370685269636"


def test_full_check_accepts_every_grow_fn_run():
    # with function symbols the bounded groundings can miss an entailment
    # that a learned clause's derivation proves (ROADMAP item 1); full
    # checking certifies it by the recorded steps and changes nothing
    for parsed, cfg in _grow_fn_runs(300):
        off = run(parsed.clauses, cfg, parsed.names)
        full = run(parsed.clauses, dataclasses.replace(cfg, check="full"),
                   parsed.names)
        assert (full.verdict, full.trace) == (off.verdict, off.trace)


def test_full_check_certifies_by_replayed_steps(bs_corpus, monkeypatch):
    # the recorder certifies every factored propagation clause, conflict
    # and learned clause of these runs by replaying its step, so the
    # soundness check decides no entailment over the bounded groundings
    bounded = []
    checking = [False]
    check = strategy.soundness_check
    entailment_violation = state_module._entailment_violation
    ground_entails = oracle.ground_entails

    def tracked_check(*args):
        checking[0] = True
        try:
            return check(*args)
        finally:
            checking[0] = False

    def tracked_violation(*args, **kwargs):
        bounded.append(args[3])
        return entailment_violation(*args, **kwargs)

    def tracked_entails(premises, clause, *args):
        if checking[0]:
            bounded.append(clause)
        return ground_entails(premises, clause, *args)

    monkeypatch.setattr(strategy, "soundness_check", tracked_check)
    monkeypatch.setattr(state_module, "_entailment_violation",
                        tracked_violation)
    monkeypatch.setattr(oracle, "ground_entails", tracked_entails)
    results = [run(clauses, RunConfig(check="full", max_steps=50_000))
               for clauses in bs_corpus[:100]]
    assert sum(result.stats.rule_counts["resolve"] for result in results)
    assert bounded == []


def test_full_check_catches_a_resolvent_missing_a_literal(bs_corpus,
                                                          monkeypatch):
    # the certificates are not taken on trust: a Resolve that drops a
    # literal makes a closure its replay does not reproduce, so the bounded
    # check decides the clause learned from it.  This run ends sat-bounded,
    # so no proof check would catch it either
    resolve = strategy.apply_resolve

    def dropping(state):
        new = resolve(state)
        closure = new.conflict
        return dataclasses.replace(new, conflict=Closure(
            Clause(closure.clause.literals[:-1]), closure.subst))

    assert run(bs_corpus[11], RunConfig()).verdict == "sat-bounded"
    monkeypatch.setattr(strategy, "apply_resolve", dropping)
    with pytest.raises(strategy.InvariantViolation,
                       match="condition 4: initial clauses do not entail"):
        run(bs_corpus[11], RunConfig(check="full", max_steps=50_000))


def test_recorder_counts_the_trail_by_predicate(bs_corpus, monkeypatch):
    # the recorder keeps the entries per predicate of the trail it records
    # through pushes, Skips, Backtracks and Grows: at every recorded state
    # they are the trail's, also for a recorder started on a non-empty
    # trail, and a run's maxima are the maxima over its states
    def on_trail(state):
        return Counter(e.literal.atom.pred for e in state.trail)

    recorded = []
    after = strategy._Recorder._after

    def recording(rec, rule, detail, state):
        assert +rec.by_predicate == on_trail(state), rule
        recorded.append(state)
        after(rec, rule, detail, state)

    monkeypatch.setattr(strategy._Recorder, "_after", recording)
    rules = Counter()

    def check(clauses, cfg, names=None):
        recorded.clear()
        result = run(clauses, cfg, names)
        most = Counter()
        for state in recorded:
            most |= on_trail(state)
        assert result.stats.max_trail_by_predicate == most
        rules.update(result.stats.rule_counts)

    for heuristic in ("first", "random"):
        for clauses in bs_corpus[:50]:
            check(clauses, RunConfig(heuristic=heuristic, max_steps=50_000))
    for parsed, cfg in _grow_fn_runs(20):
        check(parsed.clauses, cfg, parsed.names)
    blowup = parse_native((Path(__file__).parent / "data" /
                           "unit_blowup.native").read_text())
    for avoid in ((), ("R",)):
        check(blowup.clauses, RunConfig(avoid=avoid), blowup.names)
    assert min(rules[rule] for rule in ("skip", "backtrack", "grow")) > 0

    conflict_state, _ = factoring_divergence_state()
    assert len(conflict_state.trail) > 0
    for factoring in ("eager", "lazy"):
        recorded.clear()
        resolve_conflict_loop(conflict_state, RunConfig(factoring=factoring))
        assert len(recorded) > 1


def test_criterion_7_exponential_contrast():
    start = time.perf_counter()

    s1 = parse_native(UNIT_BLOWUP_TEXT)
    exhaustive = run(s1.clauses, RunConfig(), s1.names)
    assert exhaustive.verdict == "unsat"
    assert exhaustive.stats.propagations_by_predicate["R"] == 8

    regular = run(s1.clauses, RunConfig(avoid=("R",)), s1.names)
    assert regular.verdict == "unsat"
    assert regular.stats.propagations_by_predicate["R"] == 0
    assert regular.stats.max_trail_by_predicate["R"] == 0
    assert regular.stats.max_trail <= 4
    REGULAR_STATS.append(("unit-blowup-regular", regular.stats))

    appa = parse_native(NONUNIT_BLOWUP_TEXT)
    appa_exhaustive = run(appa.clauses, RunConfig(), appa.names)
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
    _passed(7, f"propagation-first scheduling needs all 8 ground "
               f"instances; avoiding R refutes with none and trail <= "
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
