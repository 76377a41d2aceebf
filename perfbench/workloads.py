"""Seeded problem generators and the benchmark's workload definitions.

Every problem is produced as native-format text; the prover receives
nothing but that text, parsed with ``sclfol.parse_native``, plus a bound
literal given as text.  The generators use only ``random.Random(seed)``, so
a seed always yields the same texts.

Run time per problem is heavy-tailed, so a plain random sample of a few
hundred problems changes its cost by tens of percent from seed to seed.
Each workload therefore sorts its stream into cost classes that can be
read off the text, and schedules the stream so that every prefix holds
each class in a fixed share (see ``schedule``).  The seed still picks every
problem; it no longer picks the mix.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

DEFAULT_SEED = 20240917
MAX_STEPS = 50_000
GROW_BUDGET = 4


@dataclass(frozen=True)
class Problem:
    index: int  # position in the seeded stream
    cls: str  # cost class, for scheduling
    text: str  # native-format clauses
    bound: Optional[str]  # bound literal; None lets the prover synthesize one


@dataclass(frozen=True)
class Workload:
    name: str
    stream: str  # workloads with the same stream run the same problems
    problems: Callable[[int, int], list[Problem]]  # (seed, count)
    size: int  # problems generated in set-up; the run cycles through them
    check: str  # RunConfig.check
    max_growths: int  # RunConfig.max_growths
    ground_check: bool  # also compare each verdict with oracle.ground_sat
    traced: int  # problems in the traced run


def schedule(stream: Iterator[Problem], shares: dict[str, float],
             count: int) -> list[Problem]:
    """``count`` problems from ``stream``, in an order in which every prefix
    holds each class in its share, to within one problem.

    At each position the class furthest behind its share goes next, taking
    the earliest stream problem of that class not yet used; problems of a
    class that is ahead wait.  A prefix of the schedule does not depend on
    ``count``.
    """
    pending: dict[str, deque] = {k: deque() for k in shares}
    taken = dict.fromkeys(shares, 0)
    out: list[Problem] = []
    for i in range(1, count + 1):
        cls = max(shares, key=lambda k: i * shares[k] - taken[k])
        while not pending[cls]:
            p = next(stream)
            pending[p.cls].append(p)
        out.append(pending[cls].popleft())
        taken[cls] += 1
    return out


def _atom_text(name: str, args) -> str:
    return f"{name}({','.join(args)})" if args else name


def _literal_text(name: str, args, positive: bool) -> str:
    return ("" if positive else "~") + _atom_text(name, args)


# ---------------------------------------------------------------------------
# Random Bernays-Schoenfinkel problems
# ---------------------------------------------------------------------------

def bs_problem(rng: random.Random, index: int,
               explicit_bound: bool) -> Problem:
    """Draw for draw the test suite's corpus generator (``random_bs_problem``
    in ``tests/conftest.py``): 2-3 predicates of arity <= 2, 2-3
    constants, 5-8 clauses of 2-3 literals.

    With ``explicit_bound`` the bound is ``betaTop(c,c,c)`` over the
    smallest constant ``c`` (propositional ``betaTop`` without constants):
    one symbol heavier than any atom of the problem, so it admits the same
    atoms as the synthesized bound without enumerating its arity.
    """
    preds = [(f"P{i}", rng.randint(0, 2)) for i in range(rng.randint(2, 3))]
    consts = list("abc"[:rng.randint(2, 3)])
    terms = consts + ["X", "Y", "Z"]
    lines, used, biggest = [], set(), 0
    for _ in range(rng.randint(5, 8)):
        lits, size = [], 0
        for _ in range(rng.randint(2, 3)):
            name, arity = rng.choice(preds)
            args = tuple(rng.choice(terms) for _ in range(arity))
            lits.append(_literal_text(name, args, rng.random() < 0.5))
            used.update(a for a in args if a in consts)
            size += 1 + arity
        biggest = max(biggest, size)
        lines.append(" | ".join(lits))
    bound = None
    if explicit_bound:
        bound = _atom_text("betaTop", (min(used),) * 3 if used else ())
    return Problem(index, bs_class(len(used), biggest + 2),
                   "\n".join(lines) + "\n", bound)


def bs_class(constants: int, beta_weight: int) -> str:
    """Building the synthesized bound visits about
    ``constants ** beta_weight`` atoms, where the bound weighs two symbols
    more than the largest clause; that product decides nearly all of a
    run's time.  Rare cheap shapes are pooled."""
    if constants <= 1:
        return "n01"
    if beta_weight <= 7:
        return f"n{constants}w<=7"
    return f"n{constants}w{beta_weight}"


# Class shares in the generator's output, measured over 200,000 problems
# (seeds 1-10, 20,000 each).
BS_SHARES = {
    "n01": 0.1631,
    "n2w<=7": 0.0860, "n2w8": 0.1163, "n2w9": 0.0942, "n2w10": 0.0676,
    "n2w11": 0.1266,
    "n3w<=7": 0.0281, "n3w8": 0.0735, "n3w9": 0.0688, "n3w10": 0.0601,
    "n3w11": 0.1157,
}


def bs_problems(explicit_bound: bool):
    def build(seed: int, count: int) -> list[Problem]:
        rng = random.Random(seed)
        stream = (bs_problem(rng, i, explicit_bound)
                  for i in itertools.count())
        return schedule(stream, BS_SHARES, count)
    return build


# ---------------------------------------------------------------------------
# Problems with a unary function symbol, for growing bounds
# ---------------------------------------------------------------------------

def fn_problem(rng: random.Random, index: int) -> Problem:
    """2-3 predicates of arity 1-2, the constant ``a``, the unary function
    ``f``, 3-6 clauses of 1-3 literals with arguments nested up to depth 2.
    The bound is ``P0(a,...,a)``.

    A term is kept as (depth, leaf): ``f(f(X))`` is (2, "X").
    """
    preds = [(f"P{i}", rng.randint(1, 2)) for i in range(rng.randint(2, 3))]
    clauses = []
    for _ in range(rng.randint(3, 6)):
        clause = []
        for _ in range(rng.randint(1, 3)):
            name, arity = rng.choice(preds)
            args = tuple((rng.randint(0, 2), rng.choice("aXY"))
                         for _ in range(arity))
            clause.append((name, args, rng.random() < 0.5))
        clauses.append(clause)
    text = "".join(
        " | ".join(_literal_text(name, [f"{'f(' * d}{leaf}{')' * d}"
                                        for d, leaf in args], positive)
                   for name, args, positive in clause) + "\n"
        for clause in clauses)
    p0 = preds[0]
    return Problem(index, fn_class(p0, clauses), text,
                   _atom_text(p0[0], ("a",) * p0[1]))


def fn_class(p0, clauses) -> str:
    """Two predictors of run time: how many atoms below the final bound
    some clause literal matches, in steps of five, and how many unit
    clauses there are.

    A satisfiable run ends with about as many trail literals as there are
    matched atoms, and its time grows steeply with trail length; unit
    clauses make short refutations likely.  The bound ``P0(a,...,a)``
    weighs ``1 + arity``, and each growth admits the atoms one symbol
    heavier, four times when ``f`` occurs.  With one constant a ground term
    is ``f`` applied k times to ``a``, so an atom is its predicate and one k
    per argument.  Fewer than ten and more than 24 matched atoms are
    pooled, as are three or more units.
    """
    literals = [(name, args) for clause in clauses for name, args, _ in clause]
    arity = dict((name, len(args)) for name, args in literals)
    arity[p0[0]] = p0[1]
    nested = any(d for _, args in literals for d, _ in args)
    top = 1 + p0[1] + (GROW_BUDGET if nested else 0)  # heaviest atom weight
    matched = 0
    for pred, n in arity.items():
        for ks in itertools.product(range(top), repeat=n):
            if 1 + n + sum(ks) > top:
                continue
            if any(name == pred and _matches(args, ks)
                   for name, args in literals):
                matched += 1
    units = sum(1 for clause in clauses if len(clause) == 1)
    return f"r{min(max(matched // 5, 1), 5)}u{min(units, 3)}"


def _matches(args, ks) -> bool:
    shift = {}
    for (depth, leaf), k in zip(args, ks):
        if leaf == "a":
            if k != depth:
                return False
        elif k < depth or shift.setdefault(leaf, k - depth) != k - depth:
            return False
    return True


# Class shares in the generator's output, measured over 200,000 problems
# (seeds 1-10, 20,000 each).
FN_SHARES = {
    "r1u0": 0.0223, "r1u1": 0.0605, "r1u2": 0.0604, "r1u3": 0.0373,
    "r2u0": 0.0682, "r2u1": 0.1420, "r2u2": 0.1127, "r2u3": 0.0665,
    "r3u0": 0.0461, "r3u1": 0.0865, "r3u2": 0.0678, "r3u3": 0.0388,
    "r4u0": 0.0255, "r4u1": 0.0457, "r4u2": 0.0347, "r4u3": 0.0184,
    "r5u0": 0.0146, "r5u1": 0.0251, "r5u2": 0.0184, "r5u3": 0.0085,
}


def fn_problems(seed: int, count: int) -> list[Problem]:
    rng = random.Random(seed)
    stream = (fn_problem(rng, i) for i in itertools.count())
    return schedule(stream, FN_SHARES, count)


WORKLOADS = {w.name: w for w in (
    Workload("synth-bound", "bs", bs_problems(explicit_bound=False),
             size=600, check="off", max_growths=0, ground_check=True,
             traced=20),
    Workload("full-check", "bs", bs_problems(explicit_bound=True),
             size=1200, check="full", max_growths=0, ground_check=True,
             traced=300),
    Workload("grow-fn", "fn", fn_problems,
             size=1000, check="off", max_growths=GROW_BUDGET,
             ground_check=False, traced=100),
)}
