import functools
import itertools
import random
from collections import Counter

import pytest

from conftest import cl, factoring_divergence_state, grow_example, lit
from sclfol import orderings
from sclfol.calculus import (
    DecideOption, GroundIndex, PropagationOption, apply_grow,
    decision_candidates, find_false_instance, first_reasonable_decision,
    propagation_candidates, reasonable_decisions,
)
from sclfol.orderings import (
    Bound, CountKBO, EnumerationCapExceeded, OrderingConfigError, Precedence,
    TrailOrder, bounded_codes, bounded_groundings, bounded_instances,
    ground_atoms_of_weight, ground_terms_of_weight, grounding_of,
    make_ordering,
)
from sclfol.state import Decision, ProblemState, Trail, TrailEntry
from sclfol.strategy import (
    RunConfig, SignatureExhausted, configure_bound, next_beta, run,
)
from sclfol.terms import (
    Atom, Clause, Fn, Literal, Signature, Subst, Var, apply, match,
    symbol_count, variables_in_order, variables_of,
)


def kbo_agp():
    return make_ordering("kbo", Precedence(["a", "g", "P"]))


def lpo_five_symbols():
    return make_ordering("lpo", Precedence(["a", "b", "P", "Q", "R"]))


def sig_agp():
    return Signature((("P", 1),), (("a", 0), ("g", 1)))


def sig_five_symbols():
    return Signature((("P", 1), ("Q", 1), ("R", 1)), (("a", 0), ("b", 0)))


class TestCompareAtoms:
    def test_kbo_weight_decides(self):
        ord_ = kbo_agp()
        assert ord_.compare_atoms(lit("P(a)").atom, lit("P(g(a))").atom) < 0

    def test_equal(self):
        ord_ = kbo_agp()
        a = lit("P(g(a))").atom
        assert ord_.compare_atoms(a, a) == 0

    def test_lpo_precedence(self):
        ord_ = lpo_five_symbols()
        assert ord_.compare_atoms(lit("Q(b)").atom, lit("R(b)").atom) < 0
        assert ord_.compare_atoms(lit("P(b)").atom, lit("Q(a)").atom) < 0
        assert ord_.compare_atoms(lit("R(a)").atom, lit("R(b)").atom) < 0

    def _total_order_laws(self, ordering, atoms):
        for a in atoms:
            assert ordering.compare_atoms(a, a) == 0
        for a, b in itertools.permutations(atoms, 2):
            ab = ordering.compare_atoms(a, b)
            assert ab != 0, f"{a} and {b} compare equal"
            assert ordering.compare_atoms(b, a) == -ab
        for a, b, c in itertools.permutations(atoms, 3):
            if ordering.compare_atoms(a, b) < 0 and \
                    ordering.compare_atoms(b, c) < 0:
                assert ordering.compare_atoms(a, c) < 0

    def test_strict_total_order_kbo(self):
        memo = {}
        atoms = [a for w in range(1, 5)
                 for a in ground_atoms_of_weight(sig_agp(), w, memo)]
        self._total_order_laws(kbo_agp(), atoms)

    def test_strict_total_order_lpo(self):
        consts = [Fn("a"), Fn("b")]
        atoms = [Atom(p, (c,)) for p in ("P", "Q", "R") for c in consts]
        self._total_order_laws(lpo_five_symbols(), atoms)

    def test_lpo_total_on_nested_terms(self):
        # same-head comparisons must stay total when arguments nest
        ordering = make_ordering("lpo", Precedence(["a", "g", "f", "P"]))
        terms = {Fn("a")}
        for _ in range(2):
            terms |= {Fn("f", (t,)) for t in terms} \
                | {Fn("g", (t,)) for t in terms}
        atoms = [Atom("P", (t,)) for t in sorted(terms, key=str)]
        self._total_order_laws(ordering, atoms)


class TestBound:
    def test_atoms_below_growing_bound(self):
        bound = grow_example().bound
        assert [str(a) for a in bound.atoms_below()] == ["P(a)", "P(g(a))"]

    def test_atoms_below_minimal_atom(self):
        bound = Bound(lit("P(a)"), kbo_agp(), sig_agp())
        assert bound.atoms_below() == ()

    def test_atoms_below_lpo_bound(self):
        bound = Bound(lit("R(b)"), lpo_five_symbols(), sig_five_symbols())
        assert {str(a) for a in bound.atoms_below()} == \
            {"P(a)", "P(b)", "Q(a)", "Q(b)", "R(a)"}

    def test_atoms_below_is_bruteforce_fixpoint(self):
        # atoms_below and next_beta against atoms built with itertools and
        # filtered with compare_atoms, on random signatures and precedences
        for kind, ordering, sig, atoms, beta, context in _random_bounds():
            cmp = ordering.compare_atoms
            bound = Bound(Literal(beta), ordering, sig)
            expected = sorted((a for a in atoms if cmp(a, beta) < 0),
                              key=functools.cmp_to_key(cmp))
            assert bound.atoms_below() == tuple(expected), context
            try:
                got = next_beta(bound).atom
            except SignatureExhausted:
                got = None
            assert got == _bruteforce_next_beta(atoms, beta, cmp,
                                                kind), context

    def test_literal_below(self):
        b1 = Bound(lit("R(b)"), lpo_five_symbols(), sig_five_symbols())
        assert b1.literal_below(lit("P(a)"))
        assert not b1.literal_below(lit("R(b)"))
        assert not b1.literal_below(lit("~R(b)"))  # atoms decide
        b2 = grow_example().bound
        assert not b2.literal_below(lit("P(g(g(a)))"))
        assert b2.literal_below(lit("P(g(a))"))

    def test_clause_below(self):
        b1 = Bound(lit("R(b)"), lpo_five_symbols(), sig_five_symbols())
        assert b1.clause_below(cl("P(a) | Q(b)"))
        assert not b1.clause_below(cl("P(a) | R(b)"))
        assert b1.clause_below(cl("$false"))

    def test_lpo_with_proper_functions_rejected(self):
        ordering = make_ordering("lpo", Precedence(["a", "g", "P"]))
        with pytest.raises(OrderingConfigError):
            Bound(lit("P(g(g(a)))"), ordering, sig_agp())

    def test_cap_exceeded(self):
        with pytest.raises(EnumerationCapExceeded):
            Bound(lit("P(g(g(g(g(a)))))"), kbo_agp(), sig_agp(), cap=2)

    def test_nonground_beta_rejected(self):
        with pytest.raises(OrderingConfigError):
            Bound(lit("P(X)"), kbo_agp(), sig_agp())


def _random_bounds():
    """(kind, ordering, signature, atoms, beta, context) on 120 seeded
    random signatures (1-3 predicates of arity 0-3, 1-3 constants,
    optionally ``f/1`` and ``g/2``) and precedences, both orderings; up to
    three betas of at most four symbols each; ``atoms`` holds every atom of
    at most seven symbols."""
    rng = random.Random(20260418)
    for case in range(120):
        kind = "kbo" if case % 3 else "lpo"
        functions = () if kind == "lpo" else rng.choice(
            [(), (("f", 1),), (("g", 2),), (("f", 1), ("g", 2))])
        sig = Signature(
            tuple((f"P{i}", rng.randint(0, 3))
                  for i in range(rng.randint(1, 3))),
            tuple((c, 0) for c in "abc"[:rng.randint(1, 3)])
            + functions)
        symbols = list(sig.symbols())
        rng.shuffle(symbols)
        ordering = make_ordering(kind, Precedence(symbols))
        atoms = _bruteforce_atoms(sig, 7)
        light = [a for a in atoms if symbol_count(a) <= 4]
        for beta in rng.sample(light, min(3, len(light))):
            yield (kind, ordering, sig, atoms, beta,
                   f"{kind} {symbols} {sig} beta {beta}")


def _bruteforce_terms(sig, max_weight):
    """Every ground term of at most ``max_weight`` symbols over ``sig``,
    with its symbol count."""
    size = {Fn(c): 1 for c in sig.constants}
    grown = True
    while grown:
        grown = False
        for f, k in sig.functions:
            pool = [t for t in size if size[t] <= max_weight - k]
            for args in itertools.product(pool, repeat=k):
                w = 1 + sum(size[a] for a in args)
                if w <= max_weight and Fn(f, args) not in size:
                    size[Fn(f, args)] = w
                    grown = True
    return size


def _bruteforce_atoms(sig, max_weight):
    """Every ground atom of at most ``max_weight`` symbols over ``sig``."""
    size = _bruteforce_terms(sig, max_weight - 1)
    atoms = []
    for p, k in sig.predicates:
        pool = [t for t in size if size[t] <= max_weight - k]
        atoms += [Atom(p, args) for args in itertools.product(pool, repeat=k)
                  if 1 + sum(size[a] for a in args) <= max_weight]
    return atoms


def _random_clause(rng, sig):
    """1-3 literals of both polarities over ``sig``, arguments drawn from
    three variables (so repeated ones are common), constants and ``f``/``g``
    nested up to twice; about one literal in five is ground."""
    variables = [Var(v) for v in "XYZ"]
    nesting = [(f, k) for f, k in sig.functions if k > 0]

    def term(depth, ground):
        r = rng.random()
        if nesting and depth < 2 and r < 0.3:
            f, k = rng.choice(nesting)
            return Fn(f, tuple(term(depth + 1, ground) for _ in range(k)))
        if not ground and r < 0.8:
            return rng.choice(variables)
        return Fn(rng.choice(sig.constants))

    literals = []
    for _ in range(rng.randint(1, 3)):
        p, k = rng.choice(sig.predicates)
        ground = rng.random() < 0.2
        literals.append(Literal(Atom(p, tuple(term(0, ground)
                                              for _ in range(k))),
                                rng.random() < 0.5))
    return Clause(tuple(literals))


def _bruteforce_groundings(clause, beta, ordering, sig, atoms):
    """(ranks, sigma) for every map ``sigma`` of the variables of
    ``clause`` onto brute-force terms that puts every atom of the instance
    below ``beta``, ranks being the positions of those atoms below beta;
    sorted by ranks.  ``atoms`` must hold every atom below beta."""
    cmp = ordering.compare_atoms
    rank = {a: i for i, a in enumerate(sorted(
        (a for a in atoms if cmp(a, beta) < 0),
        key=functools.cmp_to_key(cmp)))}
    # an atom below beta has at most beta's symbol count under count-KBO;
    # an LPO bound has constants only
    terms = list(_bruteforce_terms(sig, symbol_count(beta) - 1))
    variables = sorted(variables_of(clause), key=str)
    # each literal is checked as soon as its variables are mapped: by k,
    # those whose last variable is the k-th
    checked = [[] for _ in range(len(variables) + 1)]
    for q in clause:
        checked[max((variables.index(v) + 1 for v in variables_of(q)),
                    default=0)].append(q)
    found = []

    def extend(mapping):
        sigma = Subst(mapping)
        if any(cmp(apply(sigma, q.atom), beta) >= 0
               for q in checked[len(mapping)]):
            return
        if len(mapping) < len(variables):
            for t in terms:
                extend({**mapping, variables[len(mapping)]: t})
        else:
            found.append(([rank[apply(sigma, q.atom)] for q in clause],
                          sigma))

    extend({})
    found.sort(key=lambda pair: pair[0])
    return found


def _codes_of(clause, found):
    """The literal codes of the brute-force groundings ``found``: twice the
    rank of each literal's atom, plus one when it is negative."""
    return tuple(tuple(2 * i + (not q.positive) for i, q in zip(ranks, clause))
                 for ranks, _ in found)


def _bruteforce_next_beta(atoms, beta, cmp, kind):
    """The least atom above beta under LPO; under count-KBO the greatest
    atom of the least weight above beta's.  ``atoms`` must hold every atom
    up to three symbols heavier than beta: with arities of at most three
    and function arities of at most two, the next weight is that close."""
    if kind == "lpo":
        above = [a for a in atoms if cmp(a, beta) > 0]
        return min(above, key=functools.cmp_to_key(cmp), default=None)
    heavier = [a for a in atoms if symbol_count(a) > symbol_count(beta)]
    if not heavier:
        return None
    lightest = min(map(symbol_count, heavier))
    return max((a for a in heavier if symbol_count(a) == lightest),
               key=functools.cmp_to_key(cmp))


def _bruteforce_below(sig, beta, ordering):
    """Every atom over ``sig`` below ``beta`` under count-KBO, ascending,
    found by comparing each atom of at most ``beta``'s symbol count."""
    cmp = ordering.compare_atoms
    return tuple(sorted((a for a in _bruteforce_atoms(sig, symbol_count(beta))
                         if cmp(a, beta) < 0), key=functools.cmp_to_key(cmp)))


class TestBoundSetup:
    @pytest.mark.parametrize("functions", [
        (), ("a",), ("a", "b"), ("a", "f"), ("a", "g"), ("a", "b", "g", "h"),
        ("a", "f", "g"), ("f", "g")],
        ids=lambda names: "".join(names) or "none")
    def test_fills_agrees_with_bruteforce(self, functions):
        # constants only (one weight), a unary function (every weight from
        # 1 up), binary and ternary ones alone (only some weights) and
        # no constant (no ground term); the questions come in a seeded
        # random order, so the kept sums grow out of order
        arities = {"a": 0, "b": 0, "f": 1, "g": 2, "h": 3}
        sig = Signature((("P", 1),),
                        tuple((name, arities[name]) for name in functions))
        # the weights of the ground terms, built up as f(t1, ..., tk)
        # weighs 1 plus the weights of t1, ..., tk
        weights = {1} if sig.constants else set()
        for _ in range(12):
            weights |= {1 + sum(ws) for _, k in sig.functions if k
                        for ws in itertools.product(weights, repeat=k)
                        if 1 + sum(ws) <= 12}
        fills = orderings._symbols(
            sig, {}, CountKBO(Precedence.default_for(sig)))
        questions = [(total, arity)
                     for total in range(13) for arity in range(5)]
        random.Random(20261021).shuffle(questions)
        sums = {arity: {sum(ws) for ws in itertools.product(weights,
                                                            repeat=arity)}
                for arity in range(5)}
        for total, arity in questions:
            assert orderings._fills(total, arity, fills) == \
                (total in sums[arity]), (functions, total, arity)

    def test_grow_chains_agree_with_fresh_bounds_and_bruteforce(self):
        # three count-KBO Grows to next_beta from betas of at most three
        # symbols: each grown bound holds the atoms of a fresh bound of
        # its beta, and those that brute force puts below it; so the cuts
        # by position see the largest atoms of their weights, which
        # _random_bounds does not draw
        rng = random.Random(20261022)
        grown = 0
        for _ in range(100):
            sig = Signature(
                tuple((f"P{i}", rng.randint(0, 2))
                      for i in range(rng.randint(1, 2))),
                tuple((c, 0) for c in "ab"[:rng.randint(1, 2)])
                + rng.choice([(), (("f", 1),), (("g", 2),),
                              (("f", 1), ("g", 2))]))
            symbols = list(sig.symbols())
            rng.shuffle(symbols)
            ordering = make_ordering("kbo", Precedence(symbols))
            beta = rng.choice(_bruteforce_atoms(sig, 3))
            bound = Bound(Literal(beta), ordering, sig)
            for _ in range(3):
                try:
                    beta2 = next_beta(bound)
                except SignatureExhausted:
                    break
                bound = bound.grow_to(beta2)
                context = f"{symbols} {sig} {beta} -> {beta2}"
                assert bound.atoms_below() == \
                    Bound(beta2, ordering, sig).atoms_below() == \
                    _bruteforce_below(sig, beta2.atom, ordering), context
                grown += 1
        assert grown > 100, grown

    def test_lpo_grow_chains_agree_with_fresh_bounds_and_bruteforce(self):
        # ground-LPO Grows to next_beta over constants, from a random beta
        # until the signature is exhausted: each grown bound is a fresh
        # bound of its beta, holds the atoms brute force puts below it,
        # and grows to the least atom above it; exhaustion comes exactly
        # at the largest atom
        rng = random.Random(20261024)
        grown = 0
        for _ in range(30):
            sig = Signature(
                tuple((f"P{i}", rng.randint(0, 3))
                      for i in range(rng.randint(1, 3))),
                tuple((c, 0) for c in "abc"[:rng.randint(1, 3)]))
            symbols = list(sig.symbols())
            rng.shuffle(symbols)
            ordering = make_ordering("lpo", Precedence(symbols))
            cmp = ordering.compare_atoms
            atoms = _bruteforce_atoms(sig, 4)
            beta = rng.choice(atoms)
            bound = Bound(Literal(beta), ordering, sig)
            while True:
                context = f"{symbols} {sig} beta {beta}"
                fresh = Bound(Literal(beta), ordering, sig)
                assert bound.atom_id == fresh.atom_id, context
                assert bound.atoms_below() == fresh.atoms_below() == tuple(
                    sorted((a for a in atoms if cmp(a, beta) < 0),
                           key=functools.cmp_to_key(cmp))), context
                try:
                    beta2 = next_beta(bound)
                except SignatureExhausted:
                    assert _bruteforce_next_beta(atoms, beta, cmp, "lpo") \
                        is None, context
                    break
                assert beta2.atom == _bruteforce_next_beta(atoms, beta, cmp,
                                                           "lpo"), context
                beta = beta2.atom
                bound = bound.grow_to(beta2)
                grown += 1
        assert grown > 100, grown

    def test_lpo_cap_stops_before_heavier_weights(self, monkeypatch):
        # over 11 constants, the 121 atoms of P/2 pass a cap of 100 below a
        # beta of Q/3, which LPO puts above every P atom: the enumeration
        # stops at weight 3 and builds none of the 1,331 Q atoms
        sig = Signature((("P", 2), ("Q", 3)),
                        tuple((f"c{i:02}", 0) for i in range(11)))
        ordering = make_ordering("lpo", Precedence.default_for(sig))
        weights = []

        def recorded(signature, weight, *args, **kwargs):
            weights.append(weight)
            return ground_atoms_of_weight(signature, weight, *args, **kwargs)

        monkeypatch.setattr(orderings, "ground_atoms_of_weight", recorded)
        beta = Literal(Atom("Q", (Fn("c00"),) * 3))
        with pytest.raises(EnumerationCapExceeded):
            Bound(beta, ordering, sig, cap=100)
        assert weights == [1, 2, 3]
        # with the cap one higher than the P atoms, every weight is built
        weights.clear()
        assert len(Bound(beta, ordering, sig, cap=121).atoms_below()) == 121
        assert weights == [1, 2, 3, 4]

    @pytest.mark.parametrize("functions", [
        (("a", 0), ("b", 0)), (("a", 0), ("f", 1)), (("a", 0), ("g", 2)),
        (("f", 1), ("g", 2))],
        ids=["constants", "unary", "binary", "no-constant"])
    def test_kbo_next_beta_agrees_with_bruteforce(self, functions):
        # next_beta is the largest atom of the least heavier weight that
        # holds one, and the signature is exhausted when brute force finds
        # no heavier atom
        rng = random.Random(20261025)
        for _ in range(25):
            sig = Signature(
                (("P0", 0),) + tuple((f"P{i}", rng.randint(0, 3))
                                     for i in range(1, rng.randint(1, 3))),
                functions)
            symbols = list(sig.symbols())
            rng.shuffle(symbols)
            ordering = make_ordering("kbo", Precedence(symbols))
            cmp = ordering.compare_atoms
            light = _bruteforce_atoms(sig, 4)
            for beta in rng.sample(light, min(3, len(light))):
                try:
                    got = next_beta(Bound(Literal(beta), ordering, sig)).atom
                except SignatureExhausted:
                    got = None
                assert got == _bruteforce_next_beta(
                    _bruteforce_atoms(sig, symbol_count(beta) + 3), beta,
                    cmp, "kbo"), f"{symbols} {sig} beta {beta}"

    def test_synthesized_bounds_agree_with_bruteforce(self):
        # configure_bound at beta weights 5-12 on random clause sets over
        # constants, under the default and under a random precedence: its
        # atoms are those brute force puts below the synthesized beta,
        # whose fresh predicate takes the least constant everywhere, so
        # none of that predicate's atoms is below it.  Up to 10^4 atoms of
        # the fresh predicate are compared one by one.
        rng = random.Random(20261023)
        for case in range(40):
            sig = Signature(
                tuple((f"P{i}", rng.randint(0, 3))
                      for i in range(rng.randint(1, 3))),
                tuple((c, 0) for c in "abc"[:rng.randint(1, 3)]))
            weight = rng.randint(5, 8 if len(sig.constants) == 3 else 12)
            clauses = [_random_clause(rng, sig) for _ in range(3)]
            symbols = sorted({s for c in clauses
                              for s in Signature.from_clauses([c]).symbols()})
            rng.shuffle(symbols)
            cfg = RunConfig(beta_weight=weight,
                            precedence=symbols if case % 2 else None)
            bound = configure_bound(clauses, cfg)
            assert bound.atoms_below() == _bruteforce_below(
                bound.signature, bound.beta.atom, bound.ordering), \
                f"{clauses} {cfg}"

    def test_a_symbol_missing_from_the_precedence_is_refused(self):
        # the symbols are sorted by their ranks in the precedence, which
        # must hold each of them
        ordering = make_ordering("kbo", Precedence(["a", "P"]))
        with pytest.raises(OrderingConfigError, match="symbol g not in"):
            Bound(lit("P(a)"), ordering, sig_agp())


class TestBoundedGroundings:
    def test_unit_clause_below_grow_bound(self):
        bound = grow_example().bound
        insts = bounded_instances(cl("P(X)"), bound)
        assert [str(c) for c in insts] == ["P(a)", "P(g(a))"]

    def test_ground_clause(self):
        bound = grow_example().bound
        assert bounded_instances(cl("P(a)"), bound) == [cl("P(a)")]
        assert bounded_instances(cl("~P(g(g(a)))"), bound) == []

    def test_empty_clause(self):
        bound = grow_example().bound
        assert bounded_instances(cl("$false"), bound) == [cl("$false")]

    def test_count_is_product_of_candidates(self):
        bound = Bound(lit("R(b)"), lpo_five_symbols(), sig_five_symbols())
        # two independent variables: candidates(P) x candidates(Q) = 2 * 2
        subs = bounded_groundings(cl("P(X) | Q(Y)"), bound)
        assert len(subs) == 4

    def test_agrees_with_bruteforce_instantiation(self):
        bound = Bound(lit("R(b)"), lpo_five_symbols(), sig_five_symbols())
        clause = cl("P(X) | ~Q(Y) | R(X)")
        expected = set()
        for x, y in itertools.product([Fn("a"), Fn("b")], repeat=2):
            tau = Subst({Var("X"): x, Var("Y"): y})
            inst = apply(tau, clause)
            if all(bound.literal_below(l) for l in inst):
                expected.add(str(inst))
        got = {str(c) for c in bounded_instances(clause, bound)}
        assert got == expected

    def test_groundings_are_bruteforce_instantiations(self):
        # random clauses over the signatures of the atoms-below cross-check:
        # every map of the variables onto brute-force terms, kept when
        # compare_atoms puts every literal below beta, in the order of the
        # literals' atoms below beta, left to right
        rng = random.Random(20260419)
        for kind, ordering, sig, atoms, beta, context in _random_bounds():
            bound = Bound(Literal(beta), ordering, sig)
            for _ in range(2):
                clause = _random_clause(rng, sig)
                found = _bruteforce_groundings(clause, beta, ordering, sig,
                                               atoms)
                expected = tuple(sigma for _, sigma in found)
                got = bounded_groundings(clause, bound)
                assert set(got) == set(expected), f"{context}: {clause}"
                assert got == expected, f"{context}: {clause}"
                assert bounded_instances(clause, bound) == \
                    [apply(sigma, clause) for sigma in expected]
                # the shared enumerator itself: each code decodes to the
                # rank and sign of the brute-force instance's literal
                assert bounded_codes(clause, bound) == \
                    _codes_of(clause, found), f"{context}: {clause}"

    def test_carried_match_tables_agree_with_fresh_bounds(self):
        # each bound grown twice with grow_to, to random larger betas, after
        # grounding some of the clauses on it: a grown bound equals a fresh
        # bound of its beta in its atoms, their ids and its next beta,
        # although it shares its parent's terms and argument tuples and,
        # under count-KBO, starts from its parent's atoms and ids and
        # enumerates only from its parent's beta on.  A grown count-KBO
        # bound reads the match tables it took over, some matched against
        # its parent's atoms and some only against its grandparent's, and
        # grounds as the fresh bound does and as brute force does.  The
        # first Grow stays within beta's weight where it can, from a beta
        # that is then not the largest of its weight.  Last, a parent of
        # another ordering and one of another signature hand nothing on.
        # Checked under both orderings; betas of at most four symbols keep
        # the brute force to a few seconds.
        rng = random.Random(20261115)
        cases = Counter()
        for kind, ordering, sig, atoms, beta, context in _random_bounds():
            cmp = ordering.compare_atoms
            clauses = [_random_clause(rng, sig) for _ in range(4)]
            bound = Bound(Literal(beta), ordering, sig)
            for grows in range(3):
                fresh = Bound(bound.beta, ordering, sig)
                _assert_same_bound(bound, fresh, f"{context} -> {bound.beta}")
                for clause in clauses[:2 + grows]:
                    found = _bruteforce_groundings(clause, bound.beta.atom,
                                                   ordering, sig, atoms)
                    assert bounded_codes(clause, bound) == \
                        bounded_codes(clause, fresh) == \
                        _codes_of(clause, found), \
                        f"{context}: {clause} below {bound.beta}"
                above = [a for a in atoms if symbol_count(a) <= 4
                         and cmp(a, bound.beta.atom) > 0]
                if grows == 2 or not above:
                    break
                level = [a for a in above if symbol_count(a)
                         == symbol_count(bound.beta.atom)]
                if kind == "kbo" and level:
                    cases["not the largest of its weight"] += 1
                if kind == "kbo" and level and grows == 0:
                    cases["within one weight"] += 1
                    beta2 = rng.choice(level)
                else:
                    beta2 = rng.choice(above)
                old = bound.atoms_below()
                bound = bound.grow_to(Literal(beta2))
                assert bound.atoms_below()[:len(old)] == old, context
            other = make_ordering(kind, Precedence(
                list(ordering.precedence.rank)[::-1]))
            _assert_same_bound(Bound(bound.beta, other, sig, parent=bound),
                               Bound(bound.beta, other, sig),
                               f"{context} reversed -> {bound.beta}")
            smaller = Signature(sig.predicates, sig.functions[:-1])
            if smaller.functions:
                beta2 = rng.choice(_bruteforce_atoms(smaller, 4))
                _assert_same_bound(Bound(Literal(beta2), ordering, smaller,
                                         parent=bound),
                                   Bound(Literal(beta2), ordering, smaller),
                                   f"{context} over {smaller} -> {beta2}")
                cases["another signature"] += 1
        assert min(cases.values()) > 10 and len(cases) == 3, cases

    def test_each_clause_is_grounded_once_per_bound(self, bs_corpus,
                                                    monkeypatch):
        # the search, the soundness checks and the oracle's entailment and
        # redundancy checks read one cache of groundings on the bound: over
        # a --check full slice of the corpus no clause is walked twice
        # below one bound, and the checks do read the cache
        walks, reads = Counter(), Counter()
        walk, codes_of = orderings._walk_codes, orderings.bounded_codes

        def counted_walk(q, *args):
            # the walk's last three parameters are the clause, the bound
            # and the output list
            clause, bound = args[-3:-1]
            if q == 0:
                walks[bound, clause] += 1
            walk(q, *args)

        # the decoders the checks call read it through this name; calculus
        # binds its own, so the search's reads are not counted
        def counted_read(clause, bound):
            reads[bound, clause] += 1
            return codes_of(clause, bound)

        monkeypatch.setattr(orderings, "_walk_codes", counted_walk)
        monkeypatch.setattr(orderings, "bounded_codes", counted_read)
        for clauses in bs_corpus[:50]:
            run(clauses, RunConfig(check="full", max_steps=50_000))
        assert walks and reads
        assert max(walks.values()) == 1, [
            f"{clause} below {bound.beta}: {n} walks"
            for (bound, clause), n in walks.items() if n > 1]

    def test_cap_check_matches_the_recursive_walk(self, monkeypatch):
        # the walk adds its last literal's rows in a loop and tests the cap
        # before each; it raises for exactly the caps for which the walk
        # that made one call per grounding raised, on random one-literal,
        # joined two- and three-literal, ground and empty clauses, with
        # every cap from 0 to one past the grounding count
        rng = random.Random(20261022)
        shapes, last = Counter(), Counter()
        for kind, ordering, sig, atoms, beta, context in itertools.islice(
                _random_bounds(), 0, None, 4):
            bound = Bound(Literal(beta), ordering, sig)
            below = bound.atoms_below()
            clauses = [_random_clause(rng, sig) for _ in range(4)] + [
                Clause(tuple(Literal(rng.choice(below if below and
                                                rng.random() < 0.8
                                                else atoms),
                                     rng.random() < 0.5)
                             for _ in range(rng.randint(1, 3)))),
                Clause(())]
            for clause in clauses:
                count = len(bounded_codes(clause, bound))
                if count > 40:
                    continue
                shapes[_clause_shape(clause)] += 1
                for cap in range(count + 2):
                    monkeypatch.setattr(bound, "cap", cap)
                    bound._groundings.pop(clause, None)
                    steps = [(sign, slots, orderings._rows(pattern, shared,
                                                           bound))
                             for pattern, sign, shared, slots
                             in orderings._plan(clause, bound)]
                    expected = None
                    try:
                        _recursive_walk(0, (), (), steps, clause, bound, [])
                    except EnumerationCapExceeded as e:
                        expected = str(e)
                    got = None
                    try:
                        bounded_codes(clause, bound)
                    except EnumerationCapExceeded as e:
                        got = str(e)
                    assert got == expected, f"{context}: {clause}, cap {cap}"
                    if cap == count - 1:  # raised only by a later step
                        last[got is not None] += 1
                    else:
                        assert (got is None) == (cap >= count), \
                            f"{context}: {clause}, cap {cap}"
                monkeypatch.undo()
        assert len(shapes) == 7 and min(shapes.values()) > 5, shapes
        assert last[True] > 5 and last[False] > 5, last


def _clause_shape(clause):
    """Empty, ground, one literal, or two or three literals joined by a
    shared variable or not."""
    if not clause.literals:
        return "empty"
    if not variables_of(clause):
        return "ground"
    if len(clause) == 1:
        return "one literal"
    seen, joined = set(), False
    for lit in clause.literals:
        variables = set(variables_in_order(lit.atom))
        joined = joined or bool(seen & variables)
        seen |= variables
    return f"{len(clause)} literals, {'joined' if joined else 'apart'}"


def _recursive_walk(q, images, codes, steps, clause, bound, out):
    """The grounding walk of ``bounded_codes`` as it was with one call per
    grounding, which tests the cap on entry: the reference for the caps it
    raises for."""
    if len(out) > bound.cap:
        raise EnumerationCapExceeded(bound.cap, f"groundings of {clause}")
    if q == len(steps):
        out.append(codes)
        return
    sign, slots, rows = steps[q]
    for i, new in rows.get(tuple([images[s] for s in slots]), ()):
        _recursive_walk(q + 1, images + new, codes + (2 * i + sign,), steps,
                        clause, bound, out)


class TestDecisionIndex:
    def test_agrees_with_a_scan_of_every_atom(self):
        # decision_candidates against a scan of every atom below the bound
        # and every pool literal: on random states, then with a learned
        # clause appended, a shorter pool, and a grown bound
        rng = random.Random(20260420)
        for kind, ordering, sig, atoms, beta, context in _random_bounds():
            bound = Bound(Literal(beta), ordering, sig)
            initial = tuple(_random_clause(rng, sig)
                            for _ in range(rng.randint(1, 3)))
            learned = _random_clause(rng, sig)
            try:
                grown = bound.grow_to(next_beta(bound))
            except SignatureExhausted:
                grown = bound
            for b, extra in ((bound, ()), (bound, (learned,)), (bound, ()),
                             (grown, ()), (grown, (learned,))):
                below = b.atoms_below()
                trail = Trail(tuple(
                    TrailEntry(Literal(atom, rng.random() < 0.5),
                               Decision(level + 1))
                    for level, atom in enumerate(
                        rng.sample(below, rng.randint(0, len(below) // 2)))))
                state = ProblemState(trail, initial, extra, b,
                                     len(trail), None)
                avoid = tuple(rng.sample([p for p, _ in sig.predicates], 1))
                for skip in ((), avoid):
                    expected = _scanned_decisions(state, skip)
                    assert decision_candidates(state, skip) == expected, \
                        f"{context}: {initial} + {extra}"
                reasonable = reasonable_decisions(state)
                assert first_reasonable_decision(state) == \
                    (reasonable[0] if reasonable else None)


def _scanned_decisions(state, avoid):
    """Each undefined atom below the bound, not of an ``avoid`` predicate,
    with its first pool clause and literal that match it, either sign;
    positive first."""
    out = []
    for atom in state.bound.atoms_below():
        if atom.pred in avoid or state.trail.is_defined(Literal(atom)):
            continue
        source = next(((clause, q, m, lit.positive)
                       for clause in state.pool
                       for q, lit in enumerate(clause.literals)
                       for m in (match(lit.atom, atom),) if m is not None),
                      None)
        if source is None:
            continue
        clause, q, sigma, src_positive = source
        out += [DecideOption(clause, q, sigma, src_positive != positive,
                             Literal(atom, positive))
                for positive in (True, False)]
    return out


class TestGroundIndex:
    def test_agrees_with_rescans_along_random_walks(self):
        # one bound's index driven through trail states that a run could
        # reach in any order: pushes, pops, backtrack-style jumps to a
        # prefix, jumps to an unrelated trail; then with a learned clause
        # appended, a shorter pool, and a grown bound.  The pool holds a
        # repeated literal (p(X..) | p(c..) at X=c) and a tautology
        # (p(X..) | ~p(c..) at X=c).  Every state is compared with
        # rescans of every bounded grounding and of the trail.  Every third
        # bound of the cross-checks above keeps this to a few seconds.
        rng = random.Random(20260421)
        for kind, ordering, sig, atoms, beta, context in itertools.islice(
                _random_bounds(), 0, None, 3):
            bound = Bound(Literal(beta), ordering, sig)
            p, k = rng.choice(sig.predicates)
            x = Atom(p, (Var("X"),) * k)
            c = Atom(p, (Fn(sig.constants[0]),) * k)
            initial = (Clause((Literal(x), Literal(c))),
                       Clause((Literal(x), Literal(c, False)))) + tuple(
                _random_clause(rng, sig) for _ in range(rng.randint(1, 3)))
            learned = _random_clause(rng, sig)
            try:
                grown = bound.grow_to(next_beta(bound))
            except SignatureExhausted:
                grown = bound
            avoid = (rng.choice(sig.predicates)[0],)
            trail = Trail()
            for b, extra in ((bound, ()), (bound, (learned,)), (bound, ()),
                             (grown, ()), (grown, (learned,))):
                # every decision option of this bound and pool
                options = _scanned_decisions(
                    ProblemState(Trail(), initial, extra, b, 0, None), ())
                for _ in range(4):
                    trail = _random_step(rng, trail, b)
                    state = ProblemState(trail, initial, extra, b,
                                         trail.decision_count(), None)
                    where = (f"{context}: "
                             f"{'; '.join(map(str, initial + extra))} "
                             f"on {trail}")
                    propagations = _scanned_propagations(state)
                    for skip in ((), avoid):
                        assert list(propagation_candidates(state, skip)) == [
                            opt for opt in propagations
                            if opt.literal.atom.pred not in skip], where
                    assert find_false_instance(state) == \
                        _scanned_false_instance(state), where
                    assert reasonable_decisions(state) == [
                        opt for opt in options
                        if not trail.is_defined(opt.literal)
                        and not _scanned_enables_conflict(state, opt.literal)
                    ], where


    def test_codes_decode_to_grounded_instances(self):
        # the index files each instance as literal codes 2 * id + sign bit,
        # the id being the atom's position below the bound, exactly as
        # bounded_codes gives them, pool clause by pool clause; decoded,
        # with the grounding read off the match tables, they are the groundings
        # and instances of bounded_groundings and bounded_instances, in
        # order, on the random signatures and clauses of the groundings
        # cross-check
        rng = random.Random(20261021)
        for kind, ordering, sig, atoms, beta, context in _random_bounds():
            bound = Bound(Literal(beta), ordering, sig)
            below = bound.atoms_below()
            pool = tuple(_random_clause(rng, sig) for _ in range(3))
            index = GroundIndex(bound)
            index.extend(pool, bound)
            where = f"{context}: {'; '.join(map(str, pool))}"
            assert index.instances == [
                (clause, codes) for clause in pool
                for codes in bounded_codes(clause, bound)], where
            assert index.distinct == [
                tuple(dict.fromkeys(codes)) for _, codes in index.instances
            ], where
            decoded = [(clause, grounding_of(clause, codes, bound),
                        Clause(tuple(Literal(below[c >> 1], not c & 1)
                                     for c in codes)))
                       for clause, codes in index.instances]
            assert decoded == [
                (clause, sigma, instance) for clause in pool
                for sigma, instance in zip(bounded_groundings(clause, bound),
                                           bounded_instances(clause, bound))
            ], where
            assert all(instance == apply(sigma, clause)
                       for clause, sigma, instance in decoded), where

    def test_source_table_after_each_extend(self, monkeypatch, bs_corpus):
        # the decision-source table against a scan after every extend and
        # Grow, along the random walks above and the first 100 corpus
        # runs; a learned clause appended after a decide walk sources
        # atoms below the cursor, which must come down to them
        cases = _check_source_tables(monkeypatch)
        self.test_agrees_with_rescans_along_random_walks()
        for clauses in bs_corpus[:100]:
            run(clauses, RunConfig(max_steps=50_000))
        assert cases["extend"] > 100 and cases["sourced below the cursor"] \
            > 5, cases


class TestCarriedGrow:
    def test_grown_index_agrees_with_scans(self):
        # the driver grows a bound after searching it, so apply_grow hands
        # the decision sources of its index and the bound's atom ids and
        # match tables to the grown one.  Two Grows, each after a walk of
        # pushes, pops and jumps, on both orderings.  Between them a unit
        # is learned over every atom of each predicate: the atoms the
        # first index left unsourced must find their source in one.  Every
        # third bound of the cross-checks above, offset from those of
        # TestGroundIndex; a Grow past 150 atoms ends a case, which keeps
        # this to a few seconds.
        rng = random.Random(20261019)
        grown = Counter()
        for kind, ordering, sig, atoms, beta, context in itertools.islice(
                _random_bounds(), 1, None, 3):
            initial = tuple(_random_clause(rng, sig)
                            for _ in range(rng.randint(1, 3)))
            learned = tuple(
                Clause((Literal(Atom(p, tuple(Var(f"X{i}")
                                              for i in range(k))),
                                rng.random() < 0.5),))
                for p, k in sig.predicates)
            avoid = (rng.choice(sig.predicates)[0],)
            state = ProblemState.start(initial,
                                       Bound(Literal(beta), ordering, sig))
            for extras in (((),), ((), learned), (learned,)):
                for extra in extras:
                    for _ in range(3):
                        trail = _random_step(rng, state.trail, state.bound)
                        state = ProblemState(trail, initial, extra,
                                             state.bound,
                                             trail.decision_count(), None)
                        _assert_searches_agree(state, avoid, context)
                try:
                    fresh = Bound(next_beta(state.bound), ordering, sig)
                except SignatureExhausted:
                    break
                if len(fresh.atoms_below()) > 150:
                    break
                state = apply_grow(state, fresh.beta)
                assert state.bound.atoms_below() == fresh.atoms_below(), \
                    context
                assert state.bound.atom_id == fresh.atom_id, context
                grown[kind] += 1
        assert grown["kbo"] > 0 and grown["lpo"] > 0, grown

    def test_source_table_after_each_grow(self, monkeypatch):
        # the decision-source table against a scan after every extend and
        # Grow of the walks above: a Grow carries the slots whose options a
        # decide walk built, and the units learned after it source the
        # atoms the pool left without a source, some below the cursor
        cases = _check_source_tables(monkeypatch)
        self.test_grown_index_agrees_with_scans()
        assert cases["carried built options"] > 5 and \
            cases["sourced below the cursor"] > 5, cases


def _check_source_tables(monkeypatch):
    """Makes every ``GroundIndex.extend`` and ``grown`` check the source
    table they leave with ``_assert_source_table``.  Returns the counts of
    the calls and of the cases met: an extension that sources an atom
    below the cursor it starts with, and a Grow that carries a slot whose
    options are built."""
    cases = Counter()
    extend, grown = GroundIndex.extend, GroundIndex.grown

    def checked_extend(index, pool, bound):
        cursor, before = index.cursor, list(index.sources)
        extend(index, pool, bound)
        _assert_source_table(index, bound)
        cases["extend"] += 1
        if any(slot is not None and (i >= len(before) or before[i] is None)
               for i, slot in enumerate(index.sources[:cursor])):
            cases["sourced below the cursor"] += 1

    def checked_grown(index, parent, bound):
        new = grown(index, parent, bound)
        _assert_source_table(new, bound)
        cases["grown"] += 1
        if any(slot is not None and len(slot) == 2 for slot in new.sources):
            cases["carried built options"] += 1
        return new

    monkeypatch.setattr(GroundIndex, "extend", checked_extend)
    monkeypatch.setattr(GroundIndex, "grown", checked_grown)
    return cases


def _assert_source_table(index, bound):
    """Each slot of ``index.sources`` holds the first pool clause and
    literal whose pattern ``match``es the slot's atom, with the images of
    the literal's variables or the two options built from them, or
    ``None`` when no pool literal matches; the table ends at its last
    sourced atom.  No atom below the cursor has a source and is undefined
    under the index's trail."""
    atoms, sources = bound.atoms_below(), index.sources
    where = (f"below {bound.beta}: {'; '.join(map(str, index.pool))} "
             f"on {index.trail}")
    assert len(sources) <= len(atoms), where
    assert not sources or sources[-1] is not None, where
    for i, atom in enumerate(atoms):
        slot = sources[i] if i < len(sources) else None
        source = next(((clause, q, m)
                       for clause in index.pool
                       for q, lit in enumerate(clause.literals)
                       for m in (match(lit.atom, atom),) if m is not None),
                      None)
        if source is None:
            assert slot is None, f"{atom} {where}"
            continue
        clause, q, sigma = source
        pattern = clause[q]
        assert slot == (clause, q, tuple(
            sigma.mapping[v] for v in variables_in_order(pattern.atom))) \
            or slot == (
                DecideOption(clause, q, sigma, not pattern.positive,
                             Literal(atom, True)),
                DecideOption(clause, q, sigma, pattern.positive,
                             Literal(atom, False))), f"{atom} {where}"
    for i in range(min(index.cursor, len(sources))):
        assert sources[i] is None or index.trail.is_defined(
            Literal(atoms[i])), f"{atoms[i]} below the cursor {where}"


def _assert_same_bound(bound, fresh, context):
    """``bound`` has the atoms, ids and next beta of ``fresh``."""
    assert bound.atoms_below() == fresh.atoms_below(), context
    assert bound.atom_id == fresh.atom_id, context
    nexts = []
    for b in (bound, fresh):
        try:
            nexts.append(next_beta(b))
        except SignatureExhausted:
            nexts.append(None)
    assert nexts[0] == nexts[1], context


def _assert_searches_agree(state, avoid, context):
    """The decision searches and the propagation candidates of ``state``
    equal their scans."""
    where = (f"{context}: {'; '.join(map(str, state.pool))} "
             f"on {state.trail}")
    for skip in ((), avoid):
        assert decision_candidates(state, skip) == \
            _scanned_decisions(state, skip), where
    reasonable = [opt for opt in _scanned_decisions(state, ())
                  if not _scanned_enables_conflict(state, opt.literal)]
    assert first_reasonable_decision(state) == \
        (reasonable[0] if reasonable else None), where
    assert reasonable_decisions(state) == reasonable, where
    assert list(propagation_candidates(state)) == \
        _scanned_propagations(state), where


def _random_step(rng, trail, bound):
    """Pushes of 1-3 undefined atoms below ``bound`` (either sign), a pop,
    a cut to a random prefix, or a fresh trail of 1-3 new entries."""
    move = rng.random()
    if move < 0.15:
        trail = Trail()
    elif move < 0.3:
        return trail.prefix(rng.randint(0, len(trail)))
    elif move < 0.45:
        return trail.pop()
    undefined = [a for a in bound.atoms_below()
                 if not trail.is_defined(Literal(a))]
    for atom in rng.sample(undefined, min(len(undefined), rng.randint(1, 3))):
        trail = trail.push(TrailEntry(Literal(atom, rng.random() < 0.5),
                                      Decision(len(trail) + 1)))
    return trail


def _scanned_false_grounding(clause, targets, pin=None):
    """Every literal of ``clause`` matched to one of ``targets``, left to
    right with backtracking; with ``pin`` = (position, ground literal),
    that position matched to that literal first."""
    order = list(range(len(clause)))
    start = Subst()
    if pin is not None:
        q, target = pin
        start = match(clause[q], target)
        if start is None:
            return None
        order.remove(q)

    def extend(i, sigma):
        if i == len(order):
            return sigma
        for target in targets:
            m = match(clause[order[i]], target, sigma)
            if m is not None:
                found = extend(i + 1, m)
                if found is not None:
                    return found
        return None
    return extend(0, start)


def _complements(trail):
    return tuple(lit.complement() for lit in trail.literals)


def _scanned_false_instance(state):
    """The first pool clause with a grounding false under the trail."""
    for clause in state.pool:
        sigma = _scanned_false_grounding(clause, _complements(state.trail))
        if sigma is not None:
            return clause, sigma
    return None


def _scanned_propagations(state):
    """Each bounded grounding with no true literal and one undefined
    literal, at its first position, by pool position then grounding."""
    out = []
    for clause in state.pool:
        for sigma in bounded_groundings(clause, state.bound):
            instance = apply(sigma, clause)
            values = [state.trail.truth_value(lit) for lit in instance]
            undefined = {lit for lit, v in zip(instance, values) if v is None}
            if True in values or len(undefined) != 1:
                continue
            q = values.index(None)
            out.append(PropagationOption(clause, q, sigma, instance[q]))
    return out


def _scanned_enables_conflict(state, lit):
    """Some pool clause has a grounding false under the trail and ``lit``
    that takes one of its literals to the complement of ``lit``."""
    target = lit.complement()
    targets = _complements(state.trail) + (target,)
    return any(_scanned_false_grounding(clause, targets, (q, target))
               is not None
               for clause in state.pool for q in range(len(clause)))


class TestTrailOrder:
    def order(self):
        trail = (lit("~P(a)"), lit("~Q(b)"))
        return TrailOrder(trail, lpo_five_symbols())

    def test_chain(self):
        t = self.order()
        chain = [lit("~P(a)"), lit("P(a)"), lit("~Q(b)"), lit("Q(b)"),
                 lit("P(b)")]
        for x, y in zip(chain, chain[1:]):
            assert t.compare(x, y) < 0

    def test_reflexive_equal(self):
        t = self.order()
        assert t.compare(lit("P(b)"), lit("P(b)")) == 0

    def test_submultiset(self):
        t = self.order()
        assert t.compare_clauses(cl("~P(a)"), cl("P(a) | ~P(a)")) < 0

    def test_undefined_dominates_defined(self):
        t = self.order()
        assert t.compare(lit("Q(b)"), lit("P(b)")) < 0

    @staticmethod
    def _dm_less(order, c, d):
        """Direct Dershowitz-Manna definition as an independent oracle:
        remove a nonempty sub-multiset X of d, add Y with every y < some
        x in X."""
        from collections import Counter
        cs, ds = Counter(c.literals), Counter(d.literals)
        common = cs & ds
        left = list((cs - common).elements())
        right = list((ds - common).elements())
        if not left and not right:
            return False
        return bool(right) and all(
            any(order.compare(l, r) < 0 for r in right) for l in left)

    def test_multiset_extension_matches_dm_oracle(self):
        rng = random.Random(5)
        t = self.order()
        pool = [lit(s) for s in
                ("P(a)", "~P(a)", "P(b)", "~P(b)", "Q(a)", "~Q(b)", "Q(b)")]
        for _ in range(500):
            c = Clause(tuple(rng.choice(pool)
                             for _ in range(rng.randint(0, 3))))
            d = Clause(tuple(rng.choice(pool)
                             for _ in range(rng.randint(0, 3))))
            got = t.compare_clauses(c, d)
            assert (got < 0) == self._dm_less(t, c, d), f"{c} vs {d}"
            assert (got > 0) == self._dm_less(t, d, c), f"{c} vs {d}"

    def test_divergence_conflict_dominates_its_smaller_clauses(self):
        state, sc = factoring_divergence_state()
        snapshot = state.trail_order()
        conflict_ground = state.conflict.ground_clause()
        for text in ("Q | S(a,b) | P(a) | P(b)", "~P(a) | ~Q", "$false"):
            assert snapshot.compare_clauses(cl(text), conflict_ground) < 0

    def test_position_matches_trail_sequence(self):
        t = self.order()
        ranked = sorted(
            [lit("~P(a)"), lit("P(a)"), lit("~Q(b)"), lit("Q(b)")],
            key=lambda l: [t.compare(l, m) for m in
                           (lit("~P(a)"), lit("P(a)"), lit("~Q(b)"),
                            lit("Q(b)"))].count(1))
        assert ranked == [lit("~P(a)"), lit("P(a)"), lit("~Q(b)"),
                          lit("Q(b)")]


def test_ground_term_enumeration():
    sig = sig_agp()
    memo = {}
    assert [str(t) for t in ground_terms_of_weight(sig, 1, memo)] == ["a"]
    assert [str(t) for t in ground_terms_of_weight(sig, 2, memo)] == ["g(a)"]
    assert [str(t) for t in ground_terms_of_weight(sig, 3, memo)] == ["g(g(a))"]


def test_precedence_rejects_duplicates_and_unknowns():
    with pytest.raises(OrderingConfigError):
        Precedence(["a", "a"])
    with pytest.raises(OrderingConfigError):
        # equal weights force the precedence lookup for the unknown symbol
        kbo_agp().compare_atoms(Atom("Z", (Fn("a"),)), Atom("P", (Fn("a"),)))
