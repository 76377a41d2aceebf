"""Ground atom orderings, the trail bound, and bounded grounding enumeration.

Two concrete orderings are provided:

* ``CountKBO`` — Knuth-Bendix style with every symbol weighing one, so the
  weight of an atom is its symbol count; ties break by head precedence and
  then lexicographically on arguments.  Only finitely many ground atoms sit
  below any given atom, which is what the trail bound needs.
* ``GroundLPO`` — lexicographic path ordering on ground atoms.  Safe as a
  bound only over signatures without proper function symbols (otherwise
  infinitely many atoms can sit below a bound literal); this is checked when
  a ``Bound`` is built.

``Bound`` packages a limiting literal beta with its ordering and signature
and enumerates the finite set of atoms strictly below beta.
"""

from __future__ import annotations

import functools
from typing import Iterable, Optional, Sequence

from .terms import (
    Atom, Clause, Fn, Literal, Signature, Subst, apply, is_ground, match,
    symbol_count,
)

LESS, EQUAL, GREATER = -1, 0, 1


class OrderingConfigError(ValueError):
    """The requested ordering/bound combination cannot be used."""


class EnumerationCapExceeded(RuntimeError):
    def __init__(self, cap: int, context: str):
        super().__init__(f"enumeration exceeded cap of {cap} ({context})")
        self.cap = cap


class Precedence:
    """A strict total precedence over all signature symbols."""

    def __init__(self, symbols: Sequence[str]):
        if len(set(symbols)) != len(symbols):
            raise OrderingConfigError("precedence lists a symbol twice")
        self.rank = {s: i for i, s in enumerate(symbols)}

    def compare(self, a: str, b: str) -> int:
        try:
            ra, rb = self.rank[a], self.rank[b]
        except KeyError as exc:
            raise OrderingConfigError(f"symbol {exc.args[0]} not in precedence")
        return (ra > rb) - (ra < rb)

    @staticmethod
    def default_for(signature: Signature) -> "Precedence":
        # functions below predicates, each group by (arity, name)
        funcs = sorted(signature.functions, key=lambda na: (na[1], na[0]))
        preds = sorted(signature.predicates, key=lambda na: (na[1], na[0]))
        return Precedence([n for n, _ in funcs] + [n for n, _ in preds])


def _head(x) -> str:
    return x.pred if isinstance(x, Atom) else x.name


class CountKBO:
    """Symbol-count KBO: weight first, then precedence, then args."""

    kind = "kbo"

    def __init__(self, precedence: Precedence):
        self.precedence = precedence

    def compare_terms(self, s, t) -> int:
        ws, wt = symbol_count(s), symbol_count(t)
        if ws != wt:
            return LESS if ws < wt else GREATER
        c = self.precedence.compare(_head(s), _head(t))
        if c != 0:
            return c
        for sa, ta in zip(s.args, t.args):
            c = self.compare_terms(sa, ta)
            if c != 0:
                return c
        return EQUAL

    def compare_atoms(self, a: Atom, b: Atom) -> int:
        return self.compare_terms(a, b)


class GroundLPO:
    """Lexicographic path ordering on ground atoms and terms."""

    kind = "lpo"

    def __init__(self, precedence: Precedence):
        self.precedence = precedence

    def _greater(self, s, t) -> bool:
        # s > t in LPO; atoms and terms treated uniformly by head symbol
        if s == t:
            return False
        if any(sa == t or self._greater(sa, t) for sa in s.args):
            return True
        c = self.precedence.compare(_head(s), _head(t))
        if c > 0:
            return all(self._greater(s, tb) for tb in t.args)
        if c == 0:
            for i, (sa, ta) in enumerate(zip(s.args, t.args)):
                if sa == ta:
                    continue
                # s > t_j for j < i holds via the subterm property, and
                # s > t_i follows from s > s_i > t_i
                return (self._greater(sa, ta)
                        and all(self._greater(s, tb) for tb in t.args[i + 1:]))
        return False

    def compare_terms(self, s, t) -> int:
        if s == t:
            return EQUAL
        return GREATER if self._greater(s, t) else LESS

    def compare_atoms(self, a: Atom, b: Atom) -> int:
        return self.compare_terms(a, b)


def make_ordering(kind: str, precedence: Precedence):
    if kind == "kbo":
        return CountKBO(precedence)
    if kind == "lpo":
        return GroundLPO(precedence)
    raise OrderingConfigError(f"unknown ordering kind {kind!r}")


# ---------------------------------------------------------------------------
# Ground term/atom enumeration by symbol count
# ---------------------------------------------------------------------------
#
# Terms and atoms of one weight come out in ascending count-KBO order under
# the precedence of the ordering passed in: head symbols by precedence, then
# argument tuples lexicographically, each argument by weight first.  A
# ``_memo`` holds the term and argument lists of one signature and ordering.

def ground_terms_of_weight(signature: Signature, weight: int,
                           _memo=None, ordering=None) -> list[Fn]:
    """All ground terms with exactly ``weight`` symbols, ascending under
    count-KBO (by default with ``Precedence.default_for(signature)``)."""
    if _memo is None:
        _memo = {}
    if ordering is None:
        ordering = CountKBO(Precedence.default_for(signature))
    if weight not in _memo:
        _memo[weight] = [
            Fn(name, args)
            for name, arity in _by_precedence(signature.functions, ordering)
            for args in _arg_tuples(signature, weight - 1, arity, _memo,
                                    ordering)]
    return _memo[weight]


def ground_atoms_of_weight(signature: Signature, weight: int, _memo=None,
                           below: Optional[Atom] = None,
                           ordering=None) -> list[Atom]:
    """All ground atoms with exactly ``weight`` symbols, ascending under
    count-KBO (by default with ``Precedence.default_for(signature)``).

    With ``below``, only the atoms that ``ordering`` puts strictly below it.
    Under count-KBO none is built only to be rejected: a lighter atom is
    always below and a heavier one never; at ``below``'s own weight the
    predicates after its head are skipped, and its argument tuples are cut
    off at the first argument above the matching one of ``below``.  Ground
    LPO does not order by weight, so there every atom of the weight is
    built and compared; its bounds have no proper function symbols.
    """
    if _memo is None:
        _memo = {}
    if ordering is None:
        ordering = CountKBO(Precedence.default_for(signature))
    kbo_limit = symbol_count(below) \
        if below is not None and isinstance(ordering, CountKBO) else None
    if kbo_limit is not None and weight > kbo_limit:
        return []
    out: list[Atom] = []
    for name, arity in _by_precedence(signature.predicates, ordering):
        args_below = None
        if weight == kbo_limit:
            c = ordering.precedence.compare(name, below.pred)
            if c > 0:
                break
            if c == 0:
                args_below = below.args
        out += [Atom(name, args)
                for args in _arg_tuples(signature, weight - 1, arity, _memo,
                                        ordering, args_below)]
    if below is not None and kbo_limit is None:
        out = [a for a in out if ordering.compare_atoms(a, below) < 0]
    return out


def _by_precedence(symbols, ordering) -> list[tuple[str, int]]:
    return sorted(symbols, key=functools.cmp_to_key(
        lambda f, g: ordering.precedence.compare(f[0], g[0])))


def _arg_tuples(signature: Signature, total: int, arity: int, memo,
                ordering, below: Optional[tuple] = None) -> list[tuple]:
    """Tuples of ``arity`` ground terms with ``total`` symbols between them,
    lexicographically ascending; with ``below``, a tuple of the same total,
    only those lexicographically below it under count-KBO.

    Memoized without ``below``, so a weight split that no terms can fill is
    found empty once, not once per choice of the arguments before it.
    """
    if arity == 0:
        return [()] if total == 0 and below is None else []
    key = (total, arity)
    if below is None and key in memo:
        return memo[key]
    out: list[tuple] = []
    for w in range(1, total - arity + 2):
        for first in ground_terms_of_weight(signature, w, memo, ordering):
            rest = None
            if below is not None:
                c = ordering.compare_terms(first, below[0])
                if c > 0:
                    return out
                if c == 0:
                    rest = below[1:]
            out += [(first,) + tail
                    for tail in _arg_tuples(signature, total - w, arity - 1,
                                            memo, ordering, rest)]
    if below is None:
        memo[key] = out
    return out


# ---------------------------------------------------------------------------
# The bound
# ---------------------------------------------------------------------------

DEFAULT_ENUMERATION_CAP = 10 ** 6


class Bound:
    """A ground limiting literal beta interpreted under an atom ordering.

    ``atoms_below()`` is the complete finite set of ground atoms strictly
    below beta, in ascending order.  Construction validates that the atoms
    built for it stay within ``cap``.
    """

    def __init__(self, beta: Literal, ordering, signature: Signature,
                 cap: int = DEFAULT_ENUMERATION_CAP, validate: bool = True):
        if not is_ground(beta):
            raise OrderingConfigError(f"bound literal {beta} is not ground")
        self.beta = beta
        self.ordering = ordering
        self.signature = signature
        self.cap = cap
        self._atoms_below: Optional[tuple[Atom, ...]] = None
        self._groundings: dict[Clause, tuple[Subst, ...]] = {}
        if validate:
            self.atoms_below()

    def atoms_below(self) -> tuple[Atom, ...]:
        if self._atoms_below is None:
            self._atoms_below = tuple(self._enumerate_below())
        return self._atoms_below

    def _enumerate_below(self) -> list[Atom]:
        beta_atom = self.beta.atom
        if isinstance(self.ordering, CountKBO):
            weights = range(1, symbol_count(beta_atom) + 1)
        elif isinstance(self.ordering, GroundLPO):
            if self.signature.has_proper_functions:
                raise OrderingConfigError(
                    "LPO bound over a signature with non-constant function "
                    "symbols can have infinitely many atoms below the bound; "
                    "use the count-KBO ordering instead")
            weights = range(1, 2 + max(
                (k for _, k in self.signature.predicates), default=0))
        else:
            raise OrderingConfigError(
                f"unsupported ordering {type(self.ordering).__name__}")
        memo: dict = {}
        found: list[Atom] = []
        for w in weights:
            found += ground_atoms_of_weight(self.signature, w, memo,
                                            below=beta_atom,
                                            ordering=self.ordering)
            if len(found) > self.cap:
                raise EnumerationCapExceeded(self.cap,
                                             f"atoms below {self.beta}")
        if isinstance(self.ordering, GroundLPO):
            found.sort(key=functools.cmp_to_key(self.ordering.compare_atoms))
        return found

    def literal_below(self, lit: Literal) -> bool:
        """Literals compare by their atoms."""
        return self.ordering.compare_atoms(lit.atom, self.beta.atom) < 0

    def clause_below(self, clause: Clause) -> bool:
        """Multiset comparison of a ground clause against {beta}.

        Against a singleton this reduces to: every literal strictly below
        beta.  The empty clause is below every bound.
        """
        return all(self.literal_below(lit) for lit in clause)

    def grow_to(self, beta2: Literal) -> "Bound":
        return Bound(beta2, self.ordering, self.signature, self.cap)


# ---------------------------------------------------------------------------
# Bounded grounding enumeration
# ---------------------------------------------------------------------------

def literal_groundings(lit: Literal, bound: Bound,
                       partial: Optional[Subst] = None) -> list[Subst]:
    """Substitutions extending ``partial`` that take ``lit`` below the bound."""
    out = []
    for atom in bound.atoms_below():
        if atom.pred != lit.atom.pred:
            continue
        m = match(lit.atom, atom, partial)
        if m is not None:
            out.append(m)
    return out


def bounded_groundings(clause: Clause, bound: Bound) -> tuple[Subst, ...]:
    """All grounding substitutions producing only literals below the bound.

    Deterministic order: atoms below beta ascending, literals left to right.
    Cached on the bound, which never changes once built.
    """
    cached = bound._groundings.get(clause)
    if cached is not None:
        return cached
    results: list[Subst] = []

    def extend(i: int, sigma: Optional[Subst]):
        if len(results) > bound.cap:
            raise EnumerationCapExceeded(bound.cap,
                                         f"groundings of {clause}")
        if i == len(clause.literals):
            results.append(sigma if sigma is not None else Subst())
            return
        for ext in literal_groundings(clause[i], bound, sigma):
            extend(i + 1, ext)

    extend(0, None)
    bound._groundings[clause] = tuple(results)
    return bound._groundings[clause]


def bounded_instances(clause: Clause, bound: Bound) -> list[Clause]:
    """The set Gnd restricted below the bound, as ground clauses."""
    return [apply(sigma, clause) for sigma in bounded_groundings(clause, bound)]


def bounded_instances_of_set(clauses: Iterable[Clause],
                             bound: Bound) -> list[Clause]:
    seen = set()
    out: list[Clause] = []
    for c in clauses:
        for inst in bounded_instances(c, bound):
            key = tuple(sorted((str(lit) for lit in inst)))
            if key not in seen:
                seen.add(key)
                out.append(inst)
    return out


# ---------------------------------------------------------------------------
# Trail-induced ordering
# ---------------------------------------------------------------------------

class TrailOrder:
    """Snapshot ordering induced by a trail L1, ..., Ln.

    L1 < comp(L1) < L2 < ... < Ln < comp(Ln) < all undefined literals.
    Undefined literals are ordered among themselves by the atom ordering and
    then by polarity (negative first) so the order is total.
    """

    def __init__(self, literals: Sequence[Literal], ordering):
        self.literals = tuple(literals)
        self.ordering = ordering
        self._rank: dict[Literal, int] = {}
        for i, lit in enumerate(self.literals):
            self._rank[lit] = 2 * i
            self._rank[lit.complement()] = 2 * i + 1

    def defined(self, lit: Literal) -> bool:
        return lit in self._rank

    def compare(self, x: Literal, y: Literal) -> int:
        rx, ry = self._rank.get(x), self._rank.get(y)
        if rx is not None and ry is not None:
            return (rx > ry) - (rx < ry)
        if rx is not None:
            return LESS
        if ry is not None:
            return GREATER
        if x == y:
            return EQUAL
        c = self.ordering.compare_atoms(x.atom, y.atom)
        if c != 0:
            return c
        return (x.positive > y.positive) - (x.positive < y.positive)

    def compare_clauses(self, c: Clause, d: Clause) -> int:
        """Dershowitz-Manna multiset extension of the literal order.

        For a total element order this equals comparing the descending-sorted
        literal sequences lexicographically, shorter prefix first.
        """
        key = functools.cmp_to_key(self.compare)
        xs = sorted(c.literals, key=key, reverse=True)
        ys = sorted(d.literals, key=key, reverse=True)
        for x, y in zip(xs, ys):
            cc = self.compare(x, y)
            if cc != 0:
                return cc
        return (len(xs) > len(ys)) - (len(xs) < len(ys))
