import functools
import itertools
import random

import pytest

from conftest import cl, factoring_divergence_state, grow_example, lit
from sclfol.orderings import (
    Bound, EnumerationCapExceeded, OrderingConfigError, Precedence,
    TrailOrder, bounded_groundings, bounded_instances,
    ground_atoms_of_weight, ground_terms_of_weight, make_ordering,
)
from sclfol.strategy import SignatureExhausted, next_beta
from sclfol.terms import (
    Atom, Clause, Fn, Literal, Signature, Subst, apply, symbol_count,
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
            cmp = ordering.compare_atoms
            atoms = _bruteforce_atoms(sig, 7)
            light = [a for a in atoms if symbol_count(a) <= 4]
            for beta in rng.sample(light, min(3, len(light))):
                bound = Bound(Literal(beta), ordering, sig)
                expected = sorted((a for a in atoms if cmp(a, beta) < 0),
                                  key=functools.cmp_to_key(cmp))
                context = f"{kind} {symbols} {sig} beta {beta}"
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


def _bruteforce_atoms(sig, max_weight):
    """Every ground atom of at most ``max_weight`` symbols over ``sig``."""
    size = {Fn(c): 1 for c in sig.constants}  # term -> symbol count
    grown = True
    while grown:
        grown = False
        for f, k in sig.functions:
            pool = [t for t in size if size[t] <= max_weight - 1 - k]
            for args in itertools.product(pool, repeat=k):
                w = 1 + sum(size[a] for a in args)
                if w < max_weight and Fn(f, args) not in size:
                    size[Fn(f, args)] = w
                    grown = True
    atoms = []
    for p, k in sig.predicates:
        pool = [t for t in size if size[t] <= max_weight - k]
        atoms += [Atom(p, args) for args in itertools.product(pool, repeat=k)
                  if 1 + sum(size[a] for a in args) <= max_weight]
    return atoms


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
        from sclfol.terms import Var
        expected = set()
        for x, y in itertools.product([Fn("a"), Fn("b")], repeat=2):
            tau = Subst({Var("X"): x, Var("Y"): y})
            inst = apply(tau, clause)
            if all(bound.literal_below(l) for l in inst):
                expected.add(str(inst))
        got = {str(c) for c in bounded_instances(clause, bound)}
        assert got == expected


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
