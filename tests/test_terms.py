import itertools
import random

import pytest

from conftest import cl, lit, sub
from sclfol.terms import (
    Atom, Clause, Closure, Fn, Literal, Signature, SignatureError, Subst,
    Var, alpha_equal, apply, canonical_variant, is_ground, match, mgu,
    rename_apart, rename_clause, same_multiset, symbol_count, variables_of,
)


def test_literal_complement_involution():
    for text in ("P(a)", "~Q(X,b)", "R"):
        l = lit(text)
        assert l.complement().complement() == l


def test_is_ground():
    assert is_ground(lit("P(g(a),b)"))
    assert not is_ground(lit("P(g(X),b)"))
    assert is_ground(cl("$false"))


class TestMgu:
    def test_constant_against_variable(self):
        sigma = mgu(lit("Q(b)"), lit("Q(Y)"))
        assert sigma == sub("{Y -> b}")

    def test_identical_literals(self):
        assert mgu(lit("P(X)"), lit("P(X)")) == Subst()

    def test_occurs_check(self):
        assert mgu(lit("P(X,f(X))"), lit("P(Y,Y)")) is None

    def test_occurs_check_exhaustive(self):
        # no substitution into terms of depth <= 2 over {a, f} unifies them
        terms = [Fn("a"), Fn("f", (Fn("a"),)), Fn("f", (Fn("f", (Fn("a"),)),))]
        a, b = lit("P(X,f(X))"), lit("P(Y,Y)")
        for tx, ty in itertools.product(terms, repeat=2):
            sigma = Subst({Var("X"): tx, Var("Y"): ty})
            assert apply(sigma, a) != apply(sigma, b)

    def test_polarity_must_match(self):
        assert mgu(lit("P(X)"), lit("~P(a)")) is None

    def test_symbol_clash(self):
        assert mgu(lit("P(a)"), lit("P(b)")) is None
        assert mgu(lit("P(a)"), lit("Q(a)")) is None

    def test_nested(self):
        sigma = mgu(lit("P(f(X),X)"), lit("P(Y,a)"))
        assert apply(sigma, lit("P(f(X),X)")) == lit("P(f(a),a)")


def random_term(rng, depth, variables):
    if depth == 0 or rng.random() < 0.35:
        return rng.choice([Fn("a"), Fn("b")] + variables)
    name, arity = rng.choice([("f", 1), ("g", 2)])
    return Fn(name, tuple(random_term(rng, depth - 1, variables)
                          for _ in range(arity)))


def random_literal(rng):
    variables = [Var("X"), Var("Y"), Var("Z")]
    args = tuple(random_term(rng, 2, variables) for _ in range(2))
    return Literal(Atom("P", args), rng.random() < 0.5)


class TestMguProperties:
    def test_unifies_and_idempotent(self):
        rng = random.Random(7)
        unified = 0
        for _ in range(400):
            a = Literal(random_literal(rng).atom)
            b = Literal(random_literal(rng).atom)
            sigma = mgu(a, b)
            if sigma is None:
                continue
            unified += 1
            assert apply(sigma, a) == apply(sigma, b)
            for v in sigma.domain:
                assert apply(sigma, apply(sigma, v)) == apply(sigma, v)
        assert unified > 20  # the generator must produce real coverage

    def test_most_general_against_bruteforce(self):
        # every ground unifier found by enumeration factors through the mgu
        rng = random.Random(11)
        ground_pool = [Fn("a"), Fn("b"), Fn("f", (Fn("a"),)),
                       Fn("f", (Fn("b"),))]
        for _ in range(150):
            a, b = random_literal(rng), random_literal(rng)
            sigma = mgu(a, b)
            vs = sorted(variables_of((a, b)), key=lambda v: v.name)
            for images in itertools.product(ground_pool, repeat=len(vs)):
                tau = Subst(dict(zip(vs, images)))
                if apply(tau, a) != apply(tau, b):
                    continue
                assert sigma is not None, f"{a} and {b} unify via {tau}"
                for v in vs:
                    assert apply(tau, apply(sigma, v)) == apply(tau, v)

    def test_failure_means_no_shared_ground_instance(self):
        rng = random.Random(13)
        ground_pool = [Fn("a"), Fn("b"), Fn("f", (Fn("a"),))]
        for _ in range(150):
            a, b = random_literal(rng), random_literal(rng)
            if mgu(a, b) is not None:
                continue
            vs = sorted(variables_of((a, b)), key=lambda v: v.name)
            for images in itertools.product(ground_pool, repeat=len(vs)):
                tau = Subst(dict(zip(vs, images)))
                assert apply(tau, a) != apply(tau, b)


class TestApply:
    def test_clause(self):
        sigma = sub("{X -> a, Y -> b}")
        assert apply(sigma, cl("P(X) | ~Q(Y)")) == cl("P(a) | ~Q(b)")

    def test_identity(self):
        c = cl("P(X) | Q(b)")
        assert apply(Subst(), c) == c
        # an x -> x binding is dropped
        trivial = Subst({Var("X"): Var("X")})
        assert trivial == Subst() and not trivial.domain
        assert str(trivial) == "{}" and apply(trivial, c) == c

    def test_nested_image(self):
        sigma = sub("{X -> g(a)}")
        assert apply(sigma, cl("~P(X) | P(g(X))")) == cl("~P(g(a)) | P(g(g(a)))")


class TestRenameApart:
    def test_shares_no_variables(self):
        first = Closure(cl("P(X) | Q(b)"), sub("{X -> a}"))
        second = Closure(cl("P(X) | ~Q(Y)"), sub("{X -> a, Y -> b}"))
        r1, r2 = rename_apart(first, second)
        assert r1 is first
        assert not (variables_of(r1.clause) & variables_of(r2.clause))
        assert alpha_equal(r2.clause, second.clause)

    def test_ground_closures_unchanged(self):
        first = Closure(cl("P(a)"), Subst())
        second = Closure(cl("Q(b)"), Subst())
        r1, r2 = rename_apart(first, second)
        assert r2.clause == second.clause

    def test_ground_instances_preserved(self):
        rng = random.Random(3)
        for _ in range(100):
            lits = tuple(random_literal(rng) for _ in range(rng.randint(1, 3)))
            clause = Clause(lits)
            grounding = Subst({
                v: random_term(rng, 1, []) for v in variables_of(clause)})
            first = Closure(cl("P(a,a)"), Subst())
            second = Closure(clause, grounding)
            _, renamed = rename_apart(first, second)
            assert renamed.ground_clause() == second.ground_clause()


class TestMatch:
    def test_simple(self):
        assert match(lit("R(X,b)"), lit("R(a,b)")) == sub("{X -> a}")

    def test_clash_with_partial(self):
        assert match(lit("R(X,b)"), lit("R(a,b)"), sub("{X -> b}")) is None

    def test_polarity(self):
        assert match(lit("~R(X)"), lit("R(a)")) is None

    def test_structure_clash(self):
        assert match(lit("R(f(X))"), lit("R(a)")) is None

    def test_simultaneous_consistency(self):
        # chained matches agree with direct enumeration of groundings
        pattern1, pattern2 = lit("P(X,Y)"), lit("Q(Y)")
        targets1 = [lit("P(a,b)"), lit("P(b,b)")]
        targets2 = [lit("Q(a)"), lit("Q(b)")]
        found = set()
        for t1 in targets1:
            m1 = match(pattern1, t1)
            for t2 in targets2:
                m2 = match(pattern2, t2, m1)
                if m2 is not None:
                    found.add(m2)
        ground_pool = [Fn("a"), Fn("b")]
        expected = set()
        for x, y in itertools.product(ground_pool, repeat=2):
            # bound in the opposite order to the matcher's: equality, hash
            # and printing are over the bindings, not their order
            tau = Subst({Var("Y"): y, Var("X"): x})
            if apply(tau, pattern1) in targets1 and apply(tau, pattern2) in targets2:
                expected.add(tau)
        assert found == expected
        assert {hash(s) for s in found} == {hash(s) for s in expected}
        assert {str(s) for s in found} == {str(s) for s in expected}


class TestClauseHelpers:
    def test_multiset_semantics(self):
        assert same_multiset(cl("P(a) | P(a)"), cl("P(a) | P(a)"))
        assert not same_multiset(cl("P(a) | P(a)"), cl("P(a)"))
        assert same_multiset(cl("P(a) | Q(b)"), cl("Q(b) | P(a)"))

    def test_empty_clause_is_distinct(self):
        assert cl("$false").is_empty
        assert str(cl("$false")) == "$false"

    def test_alpha_equal(self):
        assert alpha_equal(cl("P(X) | P(Y)"), cl("P(Y) | P(X)"))
        assert alpha_equal(cl("P(X) | Q(X)"), cl("P(Z) | Q(Z)"))
        assert not alpha_equal(cl("P(X) | Q(X)"), cl("P(X) | Q(Y)"))
        assert not alpha_equal(cl("P(X)"), cl("P(a)"))

    def test_canonical_variant(self):
        assert canonical_variant(cl("P(U1) | Q(V9,U1)")) == cl("P(X) | Q(Y,X)")

    def test_symbol_count(self):
        assert symbol_count(lit("P(g(g(a)))")) == 4
        assert symbol_count(cl("P | Q")) == 2


class TestSignature:
    def test_arity_mismatch_rejected(self):
        with pytest.raises(SignatureError):
            Signature.from_clauses([cl("P(a) | P(a,b)")])

    def test_predicate_function_namespaces_disjoint(self):
        with pytest.raises(SignatureError):
            Signature.from_clauses([cl("P(a)"), cl("a")])

    def test_inference(self):
        sig = Signature.from_clauses([cl("P(f(X),b) | ~Q")])
        assert sig.predicate_arities == {"P": 2, "Q": 0}
        assert sig.function_arities == {"f": 1, "b": 0}
        assert sig.constants == ("b",)
        assert sig.has_proper_functions


def test_rename_clause_avoids_taken_names():
    clause = cl("P(X) | Q(Y)")
    renamed, _ = rename_clause(clause, {Var("X"), Var("Y")})
    assert not (variables_of(renamed) & {Var("X"), Var("Y")})
    assert alpha_equal(renamed, clause)
