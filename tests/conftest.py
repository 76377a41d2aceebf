"""Shared scenario builders: worked examples, scripted traces, random corpus."""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

from sclfol import (
    Bound, Clause, Fn, Literal, Precedence, ProblemState, Signature, Var,
    apply_backtrack, apply_conflict, apply_decide, apply_factorize,
    apply_grow, apply_propagate, apply_resolve, apply_skip, make_ordering,
)
from sclfol.frontend import (
    parse_clause_text, parse_literal_text, parse_native, parse_subst_text,
)
from sclfol.state import Decision, Propagation, Trail, TrailEntry
from sclfol.terms import Atom, Closure, alpha_equal, same_multiset


def lit(text):
    return parse_literal_text(text)


def cl(text):
    return parse_clause_text(text)


def sub(text):
    return parse_subst_text(text)


def assert_clause_alpha(actual: Clause, expected_text: str):
    expected = cl(expected_text)
    assert alpha_equal(actual, expected), f"{actual} !~ {expected}"


def assert_conflict(state, clause_text: str, ground_text: str):
    """The conflict closure matches up to renaming and grounds as printed."""
    assert state.conflict is not None
    assert_clause_alpha(state.conflict.clause, clause_text)
    assert same_multiset(state.conflict.ground_clause(), cl(ground_text)), \
        f"{state.conflict.ground_clause()} != {ground_text}"


def assert_trail(state, *literal_texts: str):
    assert state.trail.literals == tuple(lit(t) for t in literal_texts), \
        f"trail {list(map(str, state.trail.literals))} != {literal_texts}"


# ---------------------------------------------------------------------------
# Worked example: four clauses refuted under an LPO bound R(b)
# ---------------------------------------------------------------------------

LPO_REFUTATION_TEXT = """\
P(X) | Q(b)
P(X) | ~Q(Y)
~P(a) | Q(X)
~P(X) | ~Q(b)
"""


@dataclass
class Scenario:
    clauses: tuple[Clause, ...]
    names: tuple[str, ...]
    bound: Bound

    @property
    def by_name(self):
        return dict(zip(self.names, self.clauses))


def lpo_refutation_scenario() -> Scenario:
    problem = parse_native(LPO_REFUTATION_TEXT)
    beta = lit("R(b)")
    signature = Signature.from_clauses(problem.clauses, extra_literals=[beta])
    ordering = make_ordering("lpo", Precedence(["a", "b", "P", "Q", "R"]))
    return Scenario(tuple(problem.clauses), tuple(problem.names),
                    Bound(beta, ordering, signature))


def lpo_refutation_script() -> list[tuple[str, ProblemState]]:
    """The reference 14-transition refutation, replayed rule by rule."""
    sc = lpo_refutation_scenario()
    c1, c2, c3, c4 = sc.clauses
    states = []
    s = ProblemState.start(sc.clauses, sc.bound)
    states.append(("start", s))

    def step(rule, new):
        states.append((rule, new))
        return new

    s = step("decide", apply_decide(s, c3, 0, sub("{}")))
    s = step("propagate", apply_propagate(s, c2, 1, sub("{X -> a, Y -> b}")))
    s = step("conflict", apply_conflict(s, c1, sub("{X -> a}")))
    s = step("resolve", apply_resolve(s))
    s = step("factorize", apply_factorize(s, 0, 1))
    s = step("skip", apply_skip(s))
    s = step("backtrack", apply_backtrack(s))
    u1 = s.learned[0]
    s = step("propagate", apply_propagate(s, u1, 0, sub("{X -> a}")))
    s = step("propagate", apply_propagate(s, c3, 1, sub("{X -> b}")))
    s = step("conflict", apply_conflict(s, c4, sub("{X -> a}")))
    s = step("resolve", apply_resolve(s))
    s = step("skip", apply_skip(s))
    s = step("factorize", apply_factorize(s, 0, 1))
    s = step("resolve", apply_resolve(s))
    return states


# ---------------------------------------------------------------------------
# Growing-bound example: refutation only after raising the bound
# ---------------------------------------------------------------------------

GROW_TEXT = """\
~P(X) | P(g(X))
P(a)
~P(g(g(a)))
"""


def cap_bounds(monkeypatch, cap: int):
    """Runs started after this build their bounds with enumeration cap
    ``cap``; grown bounds keep it."""
    from sclfol import strategy
    configure = strategy.configure_bound

    def capped(clauses, cfg):
        bound = configure(clauses, cfg)
        return Bound(bound.beta, bound.ordering, bound.signature, cap=cap)
    monkeypatch.setattr(strategy, "configure_bound", capped)


def grow_example() -> Scenario:
    problem = parse_native(GROW_TEXT)
    beta = lit("P(g(g(a)))")
    signature = Signature.from_clauses(problem.clauses, extra_literals=[beta])
    ordering = make_ordering("kbo", Precedence(["a", "g", "P"]))
    return Scenario(tuple(problem.clauses), tuple(problem.names),
                    Bound(beta, ordering, signature))


def grow_script() -> list[tuple[str, ProblemState]]:
    sc = grow_example()
    c1, c2, c3 = sc.clauses
    states = []
    s = ProblemState.start(sc.clauses, sc.bound)
    states.append(("start", s))

    def step(rule, new):
        states.append((rule, new))
        return new

    s = step("propagate", apply_propagate(s, c2, 0, sub("{}")))
    s = step("propagate", apply_propagate(s, c1, 1, sub("{X -> a}")))
    s = step("grow", apply_grow(s, lit("P(g(g(g(a))))")))
    s = step("propagate", apply_propagate(s, c2, 0, sub("{}")))
    s = step("propagate", apply_propagate(s, c1, 1, sub("{X -> a}")))
    s = step("propagate", apply_propagate(s, c1, 1, sub("{X -> g(a)}")))
    s = step("conflict", apply_conflict(s, c3, sub("{}")))
    s = step("resolve", apply_resolve(s))
    s = step("skip", apply_skip(s))
    s = step("resolve", apply_resolve(s))
    s = step("skip", apply_skip(s))
    s = step("resolve", apply_resolve(s))
    return states


# ---------------------------------------------------------------------------
# Factoring-divergence example: one conflict state, two learnable clauses
# ---------------------------------------------------------------------------

def factoring_divergence_state() -> tuple[ProblemState, Scenario]:
    d = cl("Q | R(a,Y) | R(X,b)")
    c = cl("Q | S(X,Y) | P(X) | P(Y) | ~R(X,Y)")
    beta = lit("~R(b,b)")
    signature = Signature.from_clauses([d, c], extra_literals=[beta])
    ordering = make_ordering("kbo",
                             Precedence(["a", "b", "Q", "P", "S", "R"]))
    bound = Bound(beta, ordering, signature)
    sigma = sub("{X -> a, Y -> b}")
    trail = Trail((
        TrailEntry(lit("~P(a)"), Decision(1)),
        TrailEntry(lit("~P(b)"), Decision(2)),
        TrailEntry(lit("~S(a,b)"), Decision(3)),
        TrailEntry(lit("~Q"), Decision(4)),
        TrailEntry(lit("~R(a,b)"), Propagation(Closure(c, sigma), 4)),
    ))
    base = ProblemState(trail, (d, c), (), bound, 4, None)
    conflict = apply_conflict(base, d, sigma)
    sc = Scenario((d, c), ("d", "c"), bound)
    return conflict, sc


FACTORING_EAGER_CLAUSE = "Q | S(a,b) | P(a) | P(b)"
FACTORING_LAZY_CLAUSE = "Q | S(x,b) | P(x) | P(b) | S(a,y) | P(a) | P(y)"


# ---------------------------------------------------------------------------
# Exponential-propagation clause sets
# ---------------------------------------------------------------------------

UNIT_BLOWUP_TEXT = """\
R(X1,X2,X3,a,b)
P | Q
P | ~Q
~P | Q
~P | ~Q
"""

NONUNIT_BLOWUP_TEXT = """\
P | Q | S
P | Q | ~S
P | ~Q | S
P | ~Q | ~S
~P | Q | S
~P | Q | ~S
~P | ~Q | S
~P | ~Q | ~S
P | R(X1,X2,X3,a,b)
S | R(X1,X2,X3,a,b)
Q | R(X1,X2,X3,a,b)
~P | R(X1,X2,X3,a,b)
~Q | R(X1,X2,X3,a,b)
~S | R(X1,X2,X3,a,b)
"""

NONUNIT_BLOWUP_PROPOSITIONAL = tuple(f"c{i}" for i in range(1, 9))


# ---------------------------------------------------------------------------
# Looping-instantiation regression set
# ---------------------------------------------------------------------------

LOOPING_TEXT = """\
~P(X) | ~P(f(X))
P(X) | P(f(X))
"""


def looping_scenario(beta_text="P(f(f(f(a))))") -> Scenario:
    problem = parse_native(LOOPING_TEXT)
    beta = lit(beta_text)
    signature = Signature.from_clauses(problem.clauses, extra_literals=[beta])
    ordering = make_ordering("kbo", Precedence(["a", "f", "P"]))
    return Scenario(tuple(problem.clauses), tuple(problem.names),
                    Bound(beta, ordering, signature))


def looping_script() -> list[tuple[str, ProblemState]]:
    sc = looping_scenario()
    c1, c2 = sc.clauses
    states = []
    s = ProblemState.start(sc.clauses, sc.bound)
    states.append(("start", s))

    def step(rule, new):
        states.append((rule, new))
        return new

    s = step("decide", apply_decide(s, c2, 0, sub("{X -> a}")))
    s = step("decide", apply_decide(s, c1, 1, sub("{X -> f(a)}")))
    s = step("propagate", apply_propagate(s, c1, 1, sub("{X -> a}")))
    s = step("conflict", apply_conflict(s, c2, sub("{X -> f(a)}")))
    s = step("resolve", apply_resolve(s))
    s = step("skip", apply_skip(s))
    s = step("backtrack", apply_backtrack(s))
    return states


# ---------------------------------------------------------------------------
# Random Bernays-Schoenfinkel corpus
# ---------------------------------------------------------------------------

def random_bs_problem(rng: random.Random) -> list[Clause]:
    """At most 3 predicates of arity <= 2, 3 constants, 8 clauses, 3
    literals per clause; no empty clauses.

    Skewed toward 2-3 literal clauses so runs actually decide and learn
    instead of refuting by unit propagation alone.
    """
    preds = [(f"P{i}", rng.randint(0, 2)) for i in range(rng.randint(2, 3))]
    consts = [Fn(c) for c in "abc"[:rng.randint(2, 3)]]
    variables = [Var("X"), Var("Y"), Var("Z")]
    clauses = []
    for _ in range(rng.randint(5, 8)):
        lits = []
        for _ in range(rng.randint(2, 3)):
            name, arity = rng.choice(preds)
            args = tuple(rng.choice(consts + variables) for _ in range(arity))
            lits.append(Literal(Atom(name, args), rng.random() < 0.5))
        clauses.append(Clause(tuple(lits)))
    return clauses


CORPUS_SIZE = 500


@pytest.fixture(scope="session")
def bs_corpus():
    rng = random.Random(20240917)
    return [random_bs_problem(rng) for _ in range(CORPUS_SIZE)]


@pytest.fixture(scope="session")
def bs_corpus_results(bs_corpus):
    """Every corpus problem run once, grow off, with full checking.

    Returns (results, elapsed_seconds); the full-check mode raises on any
    soundness or non-redundancy violation, so a clean pass here already
    certifies every transition of every run.
    """
    import time
    from sclfol.strategy import RunConfig, run
    cfg = RunConfig(check="full", max_steps=50_000)
    start = time.perf_counter()
    results = [run(clauses, cfg) for clauses in bs_corpus]
    return results, time.perf_counter() - start
