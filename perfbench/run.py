"""The sclfol benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from a checkout of the repository; the prover is imported from its
``src`` directory and from nowhere else.  One process, one caller, a
closed loop: each problem of the workload goes to ``sclfol.run`` only
after the previous one returned.  Workloads are defined in
``workloads.py``; README.md says why each exists.

``--trace 0`` times the loop for at least ``--seconds`` seconds of solver
time and at least ``MIN_SAMPLES`` problems, checks every verdict with the
independent oracles outside the timer, and prints the end-to-end metrics.
``--trace 1`` runs the workload's first ``traced`` problems twice, untraced
and then with the wrappers of ``tracer.py`` installed, and prints the
per-layer metrics and the tracing overhead.  Either way the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

Exit codes: 0 when every output checked out; 1 when the oracles rejected a
verdict, a trace fingerprint did not match, or a result changed between
runs of the same problem; 2 when the prover cannot be imported from the
checkout.  Spans, fingerprints and per-problem digests go to
``.perfbench_out/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import json
import os
import resource
import signal
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from tracer import RULES, Tracer
from workloads import DEFAULT_SEED, MAX_STEPS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
EXPECTED = Path(__file__).resolve().parent / "expected.json"

HASH_SEED = "0"
MIN_SAMPLES = 100  # p90 with ten samples beyond it
SETUP_REPEATS = 3
GROUND_ATOM_CAP = 32  # a BS problem has at most 27 atoms
FINGERPRINT_PREFIXES = (20, 100, 300)
# the median time of ``calibrate`` on the 2-vCPU Xeon VM the benchmark was
# written on, under Python 3.11
REFERENCE_S = 40e-6


def calibrate() -> float:
    """Seconds a fixed piece of interpreter work takes right now: dict and
    tuple traffic like the prover's, best of three, with the cyclic
    collector held off so that it cannot run inside the sample."""
    collecting = gc.isenabled()
    gc.disable()
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        table = {}
        for i in range(100):
            table[i, i & 7] = table.get((i - 1, (i - 1) & 7), 0) + i % 7
        best = min(best, perf_counter() - start)
    if collecting:
        gc.enable()
    return best


class ReferenceClock:
    """Times calls in wall time and in reference time.

    The host's speed swings by a quarter within a minute (a shared 2-vCPU
    VM), and a wall clock passes that straight into every metric.  So
    ``calibrate`` is sampled right before and after every timed call and
    every ``PERIOD_S`` during it, from a SIGALRM handler whose own time is
    taken out of the call's wall time.  A call's reference time is its
    wall time scaled by how much slower than ``REFERENCE_S`` the samples
    taken within ``WINDOW_S`` of it ran on average: one sample is noisy,
    while the host's speed changes over seconds.
    """

    PERIOD_S = 0.05
    WINDOW_S = 0.5

    def __init__(self):
        self._times: list[float] = []  # when each sample was taken
        self._samples: list[float] = []
        self._stolen = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _sample(self) -> float:
        start = perf_counter()
        self._samples.append(calibrate())
        self._times.append(start)
        return perf_counter() - start

    def _tick(self, signum, frame):
        self._stolen += self._sample()

    def call(self, fn):
        """Returns ``fn()``; ``last`` is then (start, end, wall seconds),
        also when ``fn`` raised."""
        self._sample()
        self._stolen = 0.0
        start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        try:
            return fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            end = perf_counter()
            self.last = (start, end, end - start - self._stolen)
            self._sample()

    def reference(self, start, end, wall) -> float:
        """Reference seconds of a call timed by ``call``."""
        lo = bisect.bisect_left(self._times, start - self.WINDOW_S)
        hi = bisect.bisect_right(self._times, end + self.WINDOW_S)
        return wall * REFERENCE_S / statistics.fmean(self._samples[lo:hi])


class Checkout(Exception):
    """The prover cannot be imported from this checkout."""


def import_sclfol():
    """Imports ``sclfol`` afresh from the checkout's ``src``."""
    for name in [m for m in sys.modules
                 if m == "sclfol" or m.startswith("sclfol.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        sclfol = importlib.import_module("sclfol")
    except ImportError as exc:
        raise Checkout(f"cannot import sclfol from {SRC}: {exc}") from exc
    if not Path(sclfol.__file__).resolve().is_relative_to(SRC):
        raise Checkout(f"sclfol was imported from {sclfol.__file__}, "
                       f"not from {SRC}")
    return sclfol


def set_up(workload, seed):
    """Imports the prover afresh, generates the workload's texts and parses
    them.  Returns the module and the parsed problems."""
    sclfol = import_sclfol()
    items = []
    for problem in workload.problems(seed, workload.size):
        parsed = sclfol.parse_native(problem.text)
        beta = (sclfol.parse_literal_text(problem.bound)
                if problem.bound is not None else None)
        cfg = sclfol.RunConfig(beta=beta, check=workload.check,
                               max_growths=workload.max_growths,
                               max_steps=MAX_STEPS)
        items.append((problem, parsed, cfg))
    return sclfol, items


def rejection(sclfol, workload, parsed, result):
    """Why the oracles reject the result, or None when they accept it."""
    oracle = sclfol.oracle
    if result.verdict == "unsat":
        if result.proof is None:
            return "unsat without a proof"
        mismatch = oracle.check_proof(dict(zip(parsed.names, parsed.clauses)),
                                      result.proof)
        if mismatch is not None:
            return f"proof rejected: {mismatch}"
    elif result.verdict == "sat-bounded":
        falsified = oracle.check_model(result.model, parsed.clauses,
                                       result.final_bound)
        if falsified is not None:
            return f"model falsifies {falsified}"
    if workload.ground_check and result.verdict != "resource-out":
        ground = sclfol.orderings.bounded_instances_of_set(
            parsed.clauses, result.final_bound)
        satisfiable = oracle.ground_sat(ground, GROUND_ATOM_CAP) is not None
        if satisfiable != (result.verdict == "sat-bounded"):
            return (f"{result.verdict}, but the bounded grounding is "
                    f"{'satisfiable' if satisfiable else 'unsatisfiable'}")
    return None


class Loop:
    """Runs problems in schedule order, cycling when the schedule runs out,
    and keeps what the report needs: wall and reference times, per-problem
    trace digests and the running trace fingerprint.  With ``verify`` the
    oracles check each first-pass result; a repeated problem must reproduce
    its first trace."""

    def __init__(self, sclfol, workload, items, clock, verify=True):
        self.sclfol, self.workload, self.items = sclfol, workload, items
        self.verify = verify
        self.clock = clock
        self.calls: list[tuple] = []  # (start, end, wall seconds)
        self.digests: list[str] = []  # per schedule position, first pass
        self.fingerprints: dict[int, str] = {}
        self._hash = hashlib.sha256()
        self.failures: list[str] = []
        self.errors: list[str] = []  # wrong outputs, not just failures
        self.steps = self.learned = self.growths = 0

    @property
    def wall(self) -> list[float]:
        return [wall for _, _, wall in self.calls]

    @property
    def times(self) -> list[float]:
        """Reference seconds per problem."""
        return [self.clock.reference(*call) for call in self.calls]

    def step(self):
        n = len(self.calls)
        position = n % len(self.items)
        problem, parsed, cfg = self.items[position]
        try:
            result = self.clock.call(
                lambda: self.sclfol.run(parsed.clauses, cfg, parsed.names))
            error = None
        except Exception:  # a crash is a failed problem, not a failed run
            result, error = None, traceback.format_exc()
        self.calls.append(self.clock.last)
        label = f"problem {n} (stream index {problem.index})"
        if result is None:
            self.failures.append(f"{label} raised:\n{error}")
            text = b"raised"
        else:
            self.steps += result.stats.steps
            self.learned += result.stats.learned
            self.growths += result.stats.growths
            # what the ROADMAP's corpus fingerprint hashes per problem
            text = ("\n".join(result.trace) + result.verdict).encode()
        digest = hashlib.sha256(text).hexdigest()[:16]
        if n >= len(self.items):
            if digest != self.digests[position]:
                self.errors.append(f"{label}: trace differs from its first "
                                   f"run")
                self.failures.append(label)
            return
        self.digests.append(digest)
        self._hash.update(text)
        if n + 1 in FINGERPRINT_PREFIXES:
            self.fingerprints[n + 1] = self._hash.hexdigest()[:16]
        if result is None or not self.verify:
            return
        if result.verdict == "resource-out":
            self.failures.append(f"{label} ended resource-out")
            return
        reason = rejection(self.sclfol, self.workload, parsed, result)
        if reason is not None:
            self.errors.append(f"{label}: {reason}")
            self.failures.append(label)


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------

def source_hash() -> str:
    """Identifies the prover's code, so that digests left by other code
    are never compared."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "sclfol").glob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def check_fingerprints(workload, seed, loop) -> list[str]:
    """Compares with the recorded default-seed fingerprints and with the
    digests another workload of the same stream left for this seed and
    this code."""
    errors = []
    if seed == DEFAULT_SEED:
        expected = json.loads(EXPECTED.read_text()).get(workload.name, {})
        for prefix, want in expected.items():
            got = loop.fingerprints.get(int(prefix))
            if got is not None and got != want:
                errors.append(f"fingerprint of the first {prefix} problems "
                              f"is {got}, recorded {want}")
    OUT.mkdir(exist_ok=True)
    store = OUT / f"digests-{workload.stream}-seed{seed}-{source_hash()}.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    for other, digests in known.items():
        if other == workload.name:
            continue
        for i, (mine, theirs) in enumerate(zip(loop.digests, digests)):
            if mine != theirs:
                errors.append(f"problem {i}: trace differs from {other}'s")
                break
    if len(loop.digests) >= len(known.get(workload.name, ())):
        known[workload.name] = loop.digests
        store.write_text(json.dumps(known))
    return errors


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def end_to_end(workload, seed, seconds, setups, sclfol, items, clock):
    loop = Loop(sclfol, workload, items, clock)
    least = max(MIN_SAMPLES, workload.traced)
    spent = 0.0
    while spent < seconds or len(loop.calls) < least:
        loop.step()
        spent += loop.calls[-1][2]
    errors = loop.errors + check_fingerprints(workload, seed, loop)
    times, walls = loop.times, loop.wall
    n = len(times)
    ms = [t * 1000 for t in times]
    print(f"wall clock: {n / sum(walls):.4g} problems/s, p50 "
          f"{statistics.median(walls) * 1000:.4g} ms, p90 "
          f"{statistics.quantiles(walls, n=10)[-1] * 1000:.4g} ms; "
          f"reference time / wall time {sum(times) / sum(walls):.3f}")
    metrics = {
        "problems_per_s": (n / sum(times), "1/s",
                           f"{n} problems in {sum(times):.2f} s"),
        "verdict_ms.p50": (statistics.median(ms), "ms", f"n={n}"),
        "verdict_ms.p90": (statistics.quantiles(ms, n=10)[-1], "ms",
                           f"n={n}"),
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} set-ups"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB", "whole process"),
    }
    print(f"failed_frac {len(loop.failures) / n:.4f} "
          f"({len(loop.failures)} of {n} problems)")
    print(f"steps {loop.steps}, learned {loop.learned}, "
          f"growths {loop.growths}")
    for prefix, fp in sorted(loop.fingerprints.items()):
        print(f"fingerprint first {prefix} problems: {fp}")
    return loop, errors, metrics


def per_layer(workload, sclfol, items, clock, seed):
    first = items[:workload.traced]
    plain = Loop(sclfol, workload, first, clock)
    for _ in first:
        plain.step()
    errors = plain.errors + check_fingerprints(workload, seed, plain)

    tracer = Tracer()
    traced = Loop(sclfol, workload, first, clock, verify=False)
    tracer.install(sclfol)
    try:
        for i, (problem, _, _) in enumerate(first):
            tracer.problem = i
            sclfol.parse_native(problem.text)
            traced.step()
    finally:
        tracer.uninstall()
    if traced.digests != plain.digests:
        errors.append("tracing changed a trace")
    scale = [ref / wall if wall else 1.0
             for ref, wall in zip(traced.times, traced.wall)]
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload.name}-seed{seed}.jsonl", scale)

    calls, busy, selfs, groups = tracer.summary(scale)
    counts = tracer.counts
    rules = [f"calculus.apply_{rule}" for rule in RULES]
    untraced, with_tracing = sum(plain.times), sum(traced.times)

    def ratio(a, b):
        return a / b if b else 0.0

    s, c, r = "s", "count", "ratio"
    metrics = {
        "orderings.bound_s": (groups["bound"], s),
        "orderings.atoms_visited": (counts["orderings.atoms_visited"], c),
        "orderings.atoms_kept": (counts["orderings.atoms_kept"], c),
        "orderings.keep_ratio": (ratio(counts["orderings.atoms_kept"],
                                       counts["orderings.atoms_visited"]), r),
        "orderings.compare_calls": (counts["orderings.compare_atoms"], c),
        "orderings.groundings_s": (busy["orderings.bounded_groundings"], s),
        "orderings.groundings_calls": (
            calls["orderings.bounded_groundings"], c),
        "strategy.run_s": (busy["strategy.run"], s),
        "strategy.self_s": (selfs.get("strategy.run", 0.0), s),
        "strategy.next_beta_s": (busy["strategy.next_beta"], s),
        "strategy.next_beta_calls": (calls["strategy.next_beta"], c),
        "strategy.growths": (traced.growths, c),
        "strategy.steps": (traced.steps, c),
        "strategy.learned": (traced.learned, c),
        "calculus.false_instance_s": (busy["calculus.find_false_instance"], s),
        "calculus.false_instance_calls": (
            calls["calculus.find_false_instance"], c),
        "calculus.propagate_search_s": (
            busy["calculus.propagation_candidates"], s),
        "calculus.propagate_search_calls": (
            calls["calculus.propagation_candidates"], c),
        "calculus.decide_search_s": (busy["calculus.reasonable_decisions"], s),
        "calculus.decide_search_calls": (
            calls["calculus.reasonable_decisions"], c),
        "calculus.enables_conflict_calls": (
            counts["calculus.enables_conflict"], c),
        "calculus.decide_yield": (ratio(counts["calculus.decide_reasonable"],
                                        counts["calculus.decide_candidates"]),
                                  r),
        "calculus.false_grounding_calls": (
            counts["calculus.false_grounding"], c),
        "calculus.rules_s": (sum(busy[name] for name in rules), s),
        "calculus.backtrack_s": (busy["calculus.apply_backtrack"], s),
        "state.soundness_s": (busy["state.soundness_check"], s),
        "state.soundness_calls": (calls["state.soundness_check"], c),
        "state.trail_lookups": (counts["state.Trail.position_of_atom"], c),
        "state.trail_copied": (counts["state.trail_copied"], c),
        "oracle.entails_s": (groups["entails"], s),
        "oracle.ground_sat_calls": (counts["oracle.ground_sat"], c),
        "oracle.redundancy_s": (busy["oracle.is_redundant_snapshot"], s),
        "oracle.check_proof_s": (busy["oracle.check_proof"], s),
        "oracle.check_model_s": (busy["oracle.check_model"], s),
        "terms.match_calls": (counts["terms.match"], c),
        "terms.apply_calls": (counts["terms.apply"], c),
        "terms.mgu_calls": (counts["terms.mgu"], c),
        "frontend.parse_s": (busy["frontend.parse_native"], s),
        "trace.overhead_s": (with_tracing - untraced, s),
        "trace.overhead_frac": (ratio(with_tracing - untraced, untraced), r),
    }
    print(f"{len(first)} problems, {len(tracer.spans)} spans; "
          f"untraced {untraced:.3f} s, traced {with_tracing:.3f} s")
    return plain, errors, {
        name: (value, unit, "") for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    try:
        clock, calls = ReferenceClock(), []
        for _ in range(SETUP_REPEATS):
            sclfol, items = clock.call(lambda: set_up(workload, args.seed))
            calls.append(clock.last)
    except Checkout as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    setups = [clock.reference(*call) for call in calls]
    # The problem set is the benchmark's, not the prover's: keep the cyclic
    # collector from rescanning it during every timed run, as it would not
    # in a process that solves one problem.
    gc.collect()
    gc.freeze()

    print(f"workload {workload.name}, seed {args.seed}: closed loop, one "
          f"caller, {len(items)} problems generated")
    if args.trace:
        loop, errors, metrics = per_layer(workload, sclfol, items, clock,
                                          args.seed)
        declared = "per_layer"
    else:
        loop, errors, metrics = end_to_end(workload, args.seed, args.seconds,
                                           setups, sclfol, items, clock)
        declared = "end_to_end"
    for failure in loop.failures:
        print(f"failed: {failure}", file=sys.stderr)
    for error in errors:
        print(f"WRONG: {error}", file=sys.stderr)
    for name, (value, unit, note) in metrics.items():
        print(f"{name:34} {value:14.6g} {unit:6} {note}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec[declared]]
    print(json.dumps({
        "correct": not errors,
        "attempted": len(loop.calls),
        "failed": len(loop.failures),
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in names},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashes decide dict layouts, which move run times by up to
        # a tenth from one interpreter to the next; pin them.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
