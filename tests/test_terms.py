import gc
import itertools
import pickle
import random
import sys
import threading
import weakref
from collections import Counter
from copy import deepcopy

import pytest

from conftest import cl, lit, sub
from sclfol import terms
from sclfol.frontend import parse_native
from sclfol.strategy import RunConfig, run
from sclfol.terms import (
    Atom, Clause, Closure, Fn, Literal, Signature, SignatureError, Subst,
    Var, alpha_equal, apply, canonical_variant, is_ground, match, mgu,
    rename_apart, rename_clause, same_multiset, symbol_count, term_depth,
    variables_of,
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

    def test_term_depth(self):
        assert [term_depth(t) for t in lit("P(X,a,f(X),g(a,f(f(b))))")
                .atom.args] == [1, 1, 2, 4]


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


# ---------------------------------------------------------------------------
# The term kernels against plain recursive references
# ---------------------------------------------------------------------------

def _ref_is_ground(obj):
    if isinstance(obj, Var):
        return False
    if isinstance(obj, (Fn, Atom)):
        return all(_ref_is_ground(a) for a in obj.args)
    if isinstance(obj, Literal):
        return _ref_is_ground(obj.atom)
    return all(_ref_is_ground(lit) for lit in obj.literals)


def _ref_text(obj):
    if isinstance(obj, Var):
        return obj.name
    if isinstance(obj, (Fn, Atom)):
        head = obj.name if isinstance(obj, Fn) else obj.pred
        if not obj.args:
            return head
        return f"{head}({','.join(_ref_text(a) for a in obj.args)})"
    if isinstance(obj, Literal):
        return ("" if obj.positive else "~") + _ref_text(obj.atom)
    return " | ".join(_ref_text(lit) for lit in obj.literals) or "$false"


def _ref_variables(obj, order=None):
    """The variables of ``obj`` in first-occurrence order, by a walk."""
    order = [] if order is None else order
    if isinstance(obj, Var):
        if obj not in order:
            order.append(obj)
    elif isinstance(obj, (Fn, Atom)):
        for a in obj.args:
            _ref_variables(a, order)
    elif isinstance(obj, Literal):
        _ref_variables(obj.atom, order)
    else:
        for lit in obj.literals:
            _ref_variables(lit, order)
    return tuple(order)


def _parsed(text, kind):
    """The object of type ``kind`` that ``parse_native`` reads from its
    text: a term as the argument of a unary predicate."""
    if kind in (Var, Fn):
        return parse_native(f"Q({text})").clauses[0][0].atom.args[0]
    clause = parse_native(text).clauses[0]
    if kind is Clause:
        return clause
    return clause[0] if kind is Literal else clause[0].atom


def _ref_symbol_count(obj):
    if isinstance(obj, Var):
        return 1
    if isinstance(obj, (Fn, Atom)):
        return 1 + sum(_ref_symbol_count(a) for a in obj.args)
    if isinstance(obj, Literal):
        return _ref_symbol_count(obj.atom)
    return sum(_ref_symbol_count(lit) for lit in obj.literals)


def _ref_apply(sigma, obj):
    # rebuilds every node
    if isinstance(obj, Var):
        return sigma.mapping.get(obj, obj)
    if isinstance(obj, Fn):
        return Fn(obj.name, tuple(_ref_apply(sigma, a) for a in obj.args))
    if isinstance(obj, Atom):
        return Atom(obj.pred, tuple(_ref_apply(sigma, a) for a in obj.args))
    if isinstance(obj, Literal):
        return Literal(_ref_apply(sigma, obj.atom), obj.positive)
    return Clause(tuple(_ref_apply(sigma, lit) for lit in obj.literals))


def _subterms(obj, found=None):
    """Every term occurring in ``obj``, by a walk."""
    found = set() if found is None else found
    if isinstance(obj, (Var, Fn)):
        found.add(obj)
    if isinstance(obj, (Fn, Atom)):
        for a in obj.args:
            _subterms(a, found)
    elif isinstance(obj, Literal):
        _subterms(obj.atom, found)
    elif isinstance(obj, Clause):
        for lit in obj.literals:
            _subterms(lit, found)
    return found


def _substitutions(pattern, target):
    """Every substitution taking the variables of ``pattern`` to terms
    occurring in ``target``."""
    variables = _ref_variables(pattern)
    images = sorted(_subterms(target), key=_ref_text)
    for chosen in itertools.product(images, repeat=len(variables)):
        yield Subst(dict(zip(variables, chosen)))


def _fields_of(obj):
    if isinstance(obj, Var):
        return (obj.name,)
    if isinstance(obj, Fn):
        return obj.name, obj.args
    if isinstance(obj, Atom):
        return obj.pred, obj.args
    if isinstance(obj, Literal):
        return obj.atom, obj.positive
    return (obj.literals,)


def _ref_match(pattern, target, partial=None):
    sub = dict(partial.mapping) if partial is not None else {}

    def go(p, t):
        if isinstance(p, Literal):
            return (isinstance(t, Literal) and p.positive == t.positive
                    and go(p.atom, t.atom))
        if isinstance(p, Atom):
            return (isinstance(t, Atom) and p.pred == t.pred
                    and len(p.args) == len(t.args)
                    and all(go(pa, ta) for pa, ta in zip(p.args, t.args)))
        if isinstance(p, Var):
            if p in sub:
                return sub[p] == t
            sub[p] = t
            return True
        return (isinstance(t, Fn) and p.name == t.name
                and len(p.args) == len(t.args)
                and all(go(pa, ta) for pa, ta in zip(p.args, t.args)))

    return Subst(sub) if go(pattern, target) else None


class TestKernelsAgainstReferences:
    VARS = [Var("X"), Var("Y"), Var("Z")]
    PREDICATES = [("P", 2), ("Q", 1), ("R", 0)]

    def term(self, rng, depth, variables):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice([Fn("a"), Fn("b")] + variables)
        name, arity = rng.choice([("f", 1), ("g", 2)])
        return Fn(name, tuple(self.term(rng, depth - 1, variables)
                              for _ in range(arity)))

    def literal(self, rng, variables):
        # few variables, so that they repeat
        pred, arity = rng.choice(self.PREDICATES)
        args = tuple(self.term(rng, 3, variables) for _ in range(arity))
        return Literal(Atom(pred, args), rng.random() < 0.5)

    def objects(self, rng):
        """A term, an atom, a literal and a clause, fresh objects each, with
        variables or without."""
        variables = self.VARS[:rng.randint(0, 3)]
        lits = [self.literal(rng, variables) for _ in range(rng.randint(1, 3))]
        return [self.term(rng, 3, variables), lits[0].atom, lits[0],
                Clause(tuple(lits))]

    def grounding(self, rng):
        return {v: self.term(rng, 2, []) for v in self.VARS}

    def test_cached_facts(self):
        rng = random.Random(11)
        for _ in range(300):
            for obj in self.objects(rng):
                for _ in range(2):  # computed, then read back
                    assert is_ground(obj) == _ref_is_ground(obj)
                    assert symbol_count(obj) == _ref_symbol_count(obj)
                # rebuilt from its fields, or from its leaves up, a term is
                # the object it was built from, so equal terms hash equal
                rebuilt = _ref_apply(Subst(), obj)
                assert type(obj)(*_fields_of(obj)) is obj and rebuilt is obj
                assert hash(rebuilt) == hash(obj)
        # the caches are no part of equality, printing, copies or pickles
        for text in ("~P(f(X),g(a,b))", "~P(f(X),g(a,b)) | Q(a)"):
            fresh, used = cl(text), cl(text)
            hash(used), hash(used[0]), is_ground(used[0].atom), \
                symbol_count(used)
            for fresh, used in ((fresh, used), (fresh[0], used[0])):
                assert fresh == used and repr(fresh) == repr(used)
                for copy in (pickle.loads(pickle.dumps(used)),
                             deepcopy(used)):
                    assert copy == used and hash(copy) == hash(used)

    def test_stored_facts(self):
        # what a term keeps (its text and its variables, and so whether it
        # is ground) against walks of its fields, asked in a random order,
        # first on a new object and then on the same term built again from
        # its text once the first object died
        rng = random.Random(19)
        rebuilt = 0
        for _ in range(300):
            objects = self.objects(rng)
            kinds_texts = [(type(obj), _ref_text(obj)) for obj in objects]
            for obj in objects:
                self.check_stored(rng, obj)
            dead = [weakref.ref(obj) for obj in objects]
            del obj, objects
            for (kind, text), ref in zip(kinds_texts, dead):
                again = _parsed(text, kind)
                rebuilt += ref() is None
                self.check_stored(rng, again)
        assert rebuilt > 600
        # a tuple of them is walked
        lits = cl("P(Y,f(X)) | Q(X) | ~P(Z,Y)").literals
        assert terms.variables_in_order(lits) == \
            (Var("Y"), Var("X"), Var("Z"))
        assert variables_of(lits[1:]) == {Var("X"), Var("Y"), Var("Z")}
        assert not is_ground(lits) and is_ground(cl("P(a) | Q(b)").literals)

    def check_stored(self, rng, obj):
        checks = [
            lambda: str(obj) == _ref_text(obj),
            lambda: terms.variables_in_order(obj) == _ref_variables(obj),
            lambda: variables_of(obj) == set(_ref_variables(obj)),
            lambda: is_ground(obj) == (not _ref_variables(obj)),
            lambda: is_ground(obj) == _ref_is_ground(obj),
            lambda: _parsed(str(obj), type(obj)) is obj,
        ]
        for check in rng.sample(checks, len(checks)) * 2:
            assert check(), repr(obj)

    def test_apply(self):
        rng = random.Random(12)
        for _ in range(300):
            image = self.grounding(rng)
            # partial, and with a variable mapped to a non-ground term
            kept = {v: t for v, t in image.items() if rng.random() < 0.6}
            if rng.random() < 0.3:
                kept[Var("Y")] = Fn("f", (Var("Z"),))
            sigma = Subst(kept)
            for obj in self.objects(rng):
                result = apply(sigma, obj)
                assert result is _ref_apply(sigma, obj)
                if isinstance(obj, Var):
                    continue
                assert type(result) is type(obj)
                # ground parts come back as they are
                if is_ground(obj):
                    assert result is obj
                args = obj.args if isinstance(obj, (Fn, Atom)) else ()
                for a, b in zip(args, getattr(result, "args", ())):
                    if is_ground(a):
                        assert b is a

    def test_match(self):
        rng = random.Random(13)
        clashes = matched = 0
        for _ in range(600):
            image = self.grounding(rng)
            objects = self.objects(rng)[:3]
            obj = rng.choice(objects)
            target = _ref_apply(Subst(image), obj)
            if rng.random() < 0.2:  # some other ground target
                target = _ref_apply(Subst(self.grounding(rng)),
                                    rng.choice(objects))
            partial = None
            if rng.random() < 0.7:
                # bindings that agree with the target's, and sometimes one
                # that clashes, in a random order
                pairs = [(v, image[v] if rng.random() < 0.8
                          else self.term(rng, 2, []))
                         for v in rng.sample(self.VARS, rng.randint(0, 3))]
                partial = Subst(dict(pairs))
            got = match(obj, target, partial)
            want = _ref_match(obj, target, partial)
            assert got == want
            if want is None:
                clashes += 1
                continue
            matched += 1
            assert list(got.mapping.items()) == list(want.mapping.items())
            assert _ref_apply(got, obj) == target
        assert clashes > 100 and matched > 200

    # ``match`` is the one matcher: the search, the match tables, subsumption
    # and alpha-equivalence run on it, so it is checked against brute force

    def small_clause(self, rng, size):
        return Clause(tuple(
            Literal(Atom(pred, tuple(self.term(rng, 2, self.VARS)
                                     for _ in range(arity))),
                    rng.random() < 0.5)
            for pred, arity in (rng.choice(self.PREDICATES)
                                for _ in range(size))))

    def renamed(self, rng, clause):
        """``clause`` with its variables renamed, not always apart, onto X,
        Y, Z, U and V, its literals shuffled."""
        image = {v: Var(rng.choice("XYZUV"))
                 for v in _ref_variables(clause)}
        lits = list(_ref_apply(Subst(image), clause).literals)
        rng.shuffle(lits)
        return Clause(tuple(lits))

    def test_match_by_enumeration(self):
        # match(p, t) answers exactly when some assignment of p's variables
        # to subterms of the ground t takes p to t, and its answer does
        rng = random.Random(29)
        matched = missed = 0
        for _ in range(400):
            lit, other = self.small_clause(rng, 2)
            # a term, an atom or a literal; the target grounds it or another
            pattern, source = rng.choice([
                (self.term(rng, 2, self.VARS), self.term(rng, 2, self.VARS)),
                (lit.atom, other.atom), (lit, other)])
            if rng.random() < 0.6:
                source = pattern
            target = _ref_apply(
                Subst({v: self.term(rng, 1, []) for v in self.VARS}), source)
            want = any(_ref_apply(sigma, pattern) == target
                       for sigma in _substitutions(pattern, target))
            got = match(pattern, target)
            assert (got is not None) == want, (pattern, target)
            if got is None:
                missed += 1
            else:
                matched += 1
                assert _ref_apply(got, pattern) == target
        assert matched > 150 and missed > 100

    def test_alpha_equal_by_permutation(self):
        # alpha_equal(c1, c2) holds exactly when some order of c2's literals
        # has the canonical variant of c1
        rng = random.Random(31)
        counts = Counter()
        for _ in range(500):
            c1 = self.small_clause(rng, rng.randint(1, 4))
            c2 = self.renamed(rng, c1)
            if rng.random() < 0.3:  # an instance
                c2 = _ref_apply(Subst({v: self.term(rng, 1, [v])
                                       for v in self.VARS}), c2)
            elif rng.random() < 0.2:  # another clause
                c2 = self.small_clause(rng, len(c1))
            want = any(canonical_variant(Clause(order)) ==
                       canonical_variant(c1)
                       for order in itertools.permutations(c2.literals))
            assert alpha_equal(c1, c2) == want, (c1, c2)
            counts[want] += 1
        assert counts[True] > 150 and counts[False] > 150

    def test_subsumes_by_enumeration(self):
        # subsumes(g, s) holds exactly when a substitution taking g's
        # variables to subterms of s, whose own variables stay as they are,
        # takes g's literals to those at distinct positions of s
        rng = random.Random(37)
        counts = Counter()
        for _ in range(300):
            g = self.small_clause(rng, rng.randint(1, 3))
            s = Clause(self.renamed(rng, g).literals
                       + self.small_clause(rng, rng.randint(0, 2)).literals)
            if rng.random() < 0.5:  # an instance, sharing variable names
                s = _ref_apply(Subst({v: self.term(rng, 1, [Var("X")])
                                      for v in self.VARS}), s)
            if rng.random() < 0.2:
                s = self.small_clause(rng, rng.randint(1, 4))
            lits = list(s.literals)
            rng.shuffle(lits)
            s = Clause(tuple(lits))
            for general, specific in ((g, s), (s, g)):
                injective = list(itertools.permutations(range(len(specific)),
                                                        len(general)))
                want = bool(injective) and any(
                    any(all(image is specific[j]
                            for image, j in zip(images, positions))
                        for positions in injective)
                    for images in (
                        [_ref_apply(sigma, lit) for lit in general]
                        for sigma in _substitutions(general, specific)))
                assert terms.subsumes(general, specific) == want, \
                    (general, specific)
                counts[want] += 1
        assert counts[True] > 200 and counts[False] > 200


# ---------------------------------------------------------------------------
# Sharing: equal terms are one object
# ---------------------------------------------------------------------------

def _table_sizes():
    """The number of variables, terms, atoms, literals and clauses alive in
    the intern tables."""
    return (len(terms._vars), sum(map(len, terms._fns.values())),
            sum(map(len, terms._atoms.values())),
            sum(map(len, terms._literals)), len(terms._clauses))


class TestSharing:
    TEXT = "~P(f(X),g(a,b)) | Q(X,Y) | R"

    def test_equal_terms_are_one_object(self):
        clause = cl(self.TEXT)
        x = Var("X")
        built = Clause((
            Literal(Atom("P", (Fn("f", (x,)), Fn("g", (Fn("a"), Fn("b"))))),
                    False),
            Literal(Atom("Q", (x, Var("Y")))),
            Literal(Atom("R"))))
        assert built is clause
        assert parse_native(self.TEXT).clauses[0] is clause
        assert apply(sub("{X -> a}"), clause) is \
            cl("~P(f(a),g(a,b)) | Q(a,Y) | R")
        renamed = apply(sub("{X -> Z, Y -> W}"), clause)
        assert renamed is not clause and canonical_variant(renamed) is clause
        parts = [x, clause[0].atom.args[0], clause[0].atom, clause[0], clause]
        for obj in parts:
            assert pickle.loads(pickle.dumps(obj)) is obj
            assert deepcopy(obj) is obj

    def test_kinds_and_signs_never_collide(self):
        var, fn, atom = Var("a"), Fn("a"), Atom("a")
        assert len({id(var), id(fn), id(atom)}) == 3
        assert (type(var), type(fn), type(atom)) == (Var, Fn, Atom)
        assert Fn("f") is not Fn("f", (fn,))
        positive, negative = Literal(atom, True), Literal(atom, False)
        assert positive is not negative
        assert (positive.positive, negative.positive) == (True, False)
        assert positive.complement() is negative
        assert Clause((positive,)) is not Clause((negative,))

    def test_a_dropped_term_leaves_its_table(self):
        gc.collect()
        before = _table_sizes()
        clause = Clause((Literal(Atom("Psharing", (Fn("fsharing", (
            Fn("csharing"),)), Var("Xsharing"))), False),))
        assert _table_sizes() == tuple(
            n + k for n, k in zip(before, (1, 2, 1, 1, 1)))
        dead = weakref.ref(clause)
        del clause
        assert dead() is None and _table_sizes() == before
        # built again, it is filed again
        again = Fn("fsharing", (Fn("csharing"),))
        assert again is Fn("fsharing", (Fn("csharing"),))
        assert _table_sizes()[1] == before[1] + 2

    def test_a_dropped_run_leaves_the_tables_as_they_were(self):
        # two Grows and a proof: none of what the run built outlives its
        # result
        problem = parse_native(
            "P(a)\n~P(X) | P(f(X))\n~P(f(f(f(f(a)))))\nQ(b) | Q(X)\n")
        gc.collect()  # what earlier tests left in cycles
        before = _table_sizes()
        result = run(problem.clauses, RunConfig(beta_weight=3, max_growths=3),
                     problem.names)
        assert result.verdict == "unsat" and result.stats.growths == 2
        assert _table_sizes() != before
        del result
        assert _table_sizes() == before

    def test_threads_building_the_same_terms_share_them(self):
        # a thread switch every few bytecodes falls between the lookup and
        # the filing of many constructor calls
        names = [f"cthreads{i}" for i in range(1000)]
        start, built = threading.Barrier(4), []

        def build():
            start.wait()
            built.append([Literal(Atom("Pthreads", (
                Fn(f"f{name}", (Fn(name),)), Var(name.upper()))))
                for name in names])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert len(built) == 4
        for name, *shared in zip(names, *built):
            rebuilt = Literal(Atom("Pthreads", (
                Fn(f"f{name}", (Fn(name),)), Var(name.upper()))))
            assert all(obj is rebuilt for obj in shared)

    def test_a_symbol_table_goes_with_its_last_term(self):
        # by reference count: it leaves no cyclic garbage
        gc.collect()
        gc.disable()
        try:
            before = len(terms._fns), len(terms._atoms)
            built = [Atom(f"Ptables{i}", (Fn(f"ctables{i}"),))
                     for i in range(20_000)]
            assert (len(terms._fns), len(terms._atoms)) == \
                (before[0] + 20_000, before[1] + 20_000)
            del built
            assert (len(terms._fns), len(terms._atoms)) == before
            assert gc.collect() == 0
        finally:
            gc.enable()
        # built again, a term gets a table again
        again = Fn("ctables7")
        assert again is Fn("ctables7") and len(terms._fns) == before[0] + 1

    def test_threads_share_terms_while_their_tables_come_and_go(self):
        # threads drop and build terms of a few symbols, so that tables
        # empty, go and come back while other threads file and find the
        # same terms: two live objects for one term would break ``is``
        names = [f"cchurn{i}" for i in range(6)]
        held = [{} for _ in range(4)]
        start, clashes = threading.Barrier(4), []

        def churn(k):
            rng, mine = random.Random(k), held[k]
            start.wait()
            for _ in range(20_000):
                name = rng.choice(names)
                if rng.random() < 0.5:
                    mine.pop(name, None)  # perhaps the last user
                    continue
                term = mine[name] = Fn(name)
                for other in held:
                    theirs = other.get(name)
                    if theirs is not None and theirs is not term:
                        clashes.append(name)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn, args=(k,))
                       for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not clashes
        for name in names:
            live = {id(mine[name]) for mine in held if name in mine}
            assert live <= {id(Fn(name))}
        held.clear()
        gc.collect()
        assert not any(name in terms._fns for name in names)
