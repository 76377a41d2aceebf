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

import bisect
import functools
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .terms import (
    Atom, Clause, Fn, Literal, Signature, Subst, Term, Var, is_ground, match,
    symbol_count, variables_in_order,
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
# memo holds what is found out about one signature and ordering: by weight,
# the term lists; by ``(total, arity)``, the uncut argument tuples; under
# ``"symbols"``, the sorted symbols and the arity-sum table (``_symbols``).
# A ``Bound`` keeps one as ``memo`` and hands it to the bounds grown from
# it, and ``strategy.next_beta`` reads it too.

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
            for name, arity in _symbols(signature, _memo, ordering)[0]
            for args in _arg_tuples(signature, weight - 1, arity, _memo,
                                    ordering)]
    return _memo[weight]


def ground_atoms_of_weight(signature: Signature, weight: int, _memo=None,
                           below: Optional[Atom] = None,
                           ordering=None,
                           above: Optional[Atom] = None) -> list[Atom]:
    """All ground atoms with exactly ``weight`` symbols, ascending under
    count-KBO (by default with ``Precedence.default_for(signature)``).
    A predicate whose arguments cannot fill the weight is skipped without
    building any of them.

    The cuts are count-KBO cuts, whatever ``ordering``'s kind: it gives
    only the precedence.  With ``below``, only the atoms strictly below
    it, and none is built only to be rejected: a lighter atom is always
    below and a heavier one never; at ``below``'s own weight the
    predicates after its head are skipped, and its argument tuples are cut
    at ``below``'s by the positions of its arguments in the ascending term
    lists, so no term is compared.  With ``above``, only the atoms not
    below it: the inclusive lower cut that mirrors ``below``, which skips
    the predicates before its head and the argument tuples before its
    arguments.
    """
    if _memo is None:
        _memo = {}
    if ordering is None:
        ordering = CountKBO(Precedence.default_for(signature))
    limit = None if below is None else symbol_count(below)
    floor = None if above is None else symbol_count(above)
    if limit is not None and weight > limit \
            or floor is not None and weight < floor:
        return []
    symbols = _symbols(signature, _memo, ordering)
    out: list[Atom] = []
    for name, arity in symbols[1]:
        if not _fills(weight - 1, arity, symbols):
            continue
        args_below = args_above = None
        if weight == limit:
            c = ordering.precedence.compare(name, below.pred)
            if c > 0:
                break
            if c == 0:
                args_below = below.args
        if weight == floor:
            c = ordering.precedence.compare(name, above.pred)
            if c < 0:
                continue
            if c == 0:
                args_above = above.args
        out += [Atom(name, args)
                for args in _arg_tuples(signature, weight - 1, arity, _memo,
                                        ordering, args_below, args_above)]
    return out


def _by_precedence(symbols, ordering) -> list[tuple[str, int]]:
    rank = ordering.precedence.rank
    try:
        return sorted(symbols, key=lambda symbol: rank[symbol[0]])
    except KeyError as exc:
        raise OrderingConfigError(f"symbol {exc.args[0]} not in precedence")


def _symbols(signature: Signature, memo: dict, ordering) -> tuple:
    """The function symbols and the predicates of ``signature``, each in
    ascending precedence, and the table of which sums of the proper
    functions' arities occur (see ``_fills``); kept in ``memo``."""
    symbols = memo.get("symbols")
    if symbols is None:
        functions = _by_precedence(signature.functions, ordering)
        symbols = memo["symbols"] = (
            functions, _by_precedence(signature.predicates, ordering),
            [any(k == 0 for _, k in functions)])
    return symbols


def _arg_tuples(signature: Signature, total: int, arity: int, memo,
                ordering, below: Optional[tuple] = None,
                above: Optional[tuple] = None) -> list[tuple]:
    """Tuples of ``arity`` ground terms with ``total`` symbols between them,
    lexicographically ascending; with ``below``, a tuple of the same total,
    only those lexicographically below it under count-KBO, and with
    ``above``, another such tuple, only those not below it.

    Memoized without the cuts, and built arity by arity: the list of
    ``arity`` terms reads those of ``arity - 1`` terms with each total it
    can leave, so every list is built once, and nothing recurses once per
    argument position.  A list built under a cut never enters the memo.
    """
    if below is not None or above is not None:
        return _cut_tuples(signature, total, arity, memo, ordering, below,
                           above)
    if arity == 0:
        return [()] if total == 0 else []
    if total < arity:  # every term has a symbol
        return []
    tuples = memo.get((total, arity))
    if tuples is None:
        extra = total - arity
        for k in range(1, arity + 1):
            for t in range(k, k + extra + 1):
                if (t, k) in memo:
                    continue
                if k == 1:
                    memo[t, 1] = [(x,) for x in ground_terms_of_weight(
                        signature, t, memo, ordering)]
                else:
                    memo[t, k] = [
                        (first,) + tail for w in range(1, t - k + 2)
                        for first in ground_terms_of_weight(
                            signature, w, memo, ordering)
                        for tail in memo[t - w, k - 1]]
        tuples = memo[total, arity]
    return tuples


def _cut_tuples(signature: Signature, total: int, arity: int, memo,
                ordering, below: Optional[tuple],
                above: Optional[tuple]) -> list[tuple]:
    """``_arg_tuples`` with a cut, under count-KBO.

    The tuples below ``below`` are, in ascending order, for each position
    ``i``, those that agree with it before ``i`` and hold a smaller term
    at ``i``.  The tuples from ``above`` on are ``above`` itself and then,
    for each position ``i`` from the last, those that agree with it before
    ``i`` and hold a larger term at ``i``.  ``_tuples_between`` finds
    those terms by position, so no terms are compared.
    """
    if below is None:
        out, rests = [above], [total]
        for x in above[:-1]:
            rests.append(rests[-1] - symbol_count(x))
        for i in range(arity - 1, -1, -1):
            out += _tuples_between(signature, memo, ordering, above[:i],
                                   above[i], None, rests[i], arity - i - 1)
        return out
    constants = ground_terms_of_weight(signature, 1, memo, ordering)
    if not constants or below.count(constants[0]) == arity:
        return []  # the least tuple, so nothing is below it
    out, rest = [], total
    for i, hi in enumerate(below):
        out += _tuples_between(signature, memo, ordering, below[:i], None,
                               hi, rest, arity - i - 1)
        rest -= symbol_count(hi)
    if above is not None:
        # both cuts at one weight, so a Grow within one weight and
        # predicate: the tuples from ``above`` on, if it is below ``below``
        try:
            out = out[out.index(above):]
        except ValueError:
            return []
    return out


def _tuples_between(signature: Signature, memo, ordering, prefix: tuple,
                    lo, hi, rest: int, left: int) -> list[tuple]:
    """The tuples ``prefix + (x,) + tail``, ascending, with ``x`` a ground
    term strictly between ``lo`` and ``hi`` under count-KBO (either may be
    None, for no limit) and ``tail`` any ``left`` terms with what is left
    of ``rest`` symbols.  ``ground_terms_of_weight`` lists each weight's
    terms ascending and terms are shared, so the weights between those of
    ``lo`` and ``hi`` are taken whole and theirs are cut at their
    positions."""
    low = 1 if lo is None else symbol_count(lo)
    high = rest - left if hi is None else symbol_count(hi)
    out: list[tuple] = []
    for w in range(low, high + 1):
        xs = ground_terms_of_weight(signature, w, memo, ordering)
        start = xs.index(lo) + 1 if w == low and lo is not None else 0
        stop = xs.index(hi) if w == high and hi is not None else len(xs)
        if start < stop:
            tails = _arg_tuples(signature, rest - w, left, memo, ordering)
            for x in xs[start:stop]:
                head = prefix + (x,)
                out += [head + tail for tail in tails]
    return out


def largest_atom_of_weight(signature: Signature, weight: int,
                           ordering: CountKBO, memo: dict) -> Optional[Atom]:
    """The count-KBO-largest ground atom with exactly ``weight`` symbols, or
    None when there is none; built without the other atoms of the weight.

    Its head is the highest-precedence predicate whose arguments can fill
    the weight.  Arguments compare lexicographically, so each one in turn is
    the heaviest term that leaves a weight the remaining arguments can
    fill, and the largest of that weight: the last of its ascending list.
    ``memo`` is a bound's, shared with the bounds grown from it, so those
    lists are built once for a run.
    """
    symbols = _symbols(signature, memo, ordering)
    for name, arity in reversed(symbols[1]):
        if _fills(weight - 1, arity, symbols):
            args, rest = [], weight - 1
            for left in range(arity - 1, -1, -1):
                w = next(w for w in range(rest - left, 0, -1)
                         if _fills(w, 1, symbols)
                         and _fills(rest - w, left, symbols))
                args.append(ground_terms_of_weight(signature, w, memo,
                                                   ordering)[-1])
                rest -= w
            return Atom(name, tuple(args))
    return None


def _fills(total: int, arity: int, symbols: tuple) -> bool:
    """Do some ``arity`` ground terms over the function symbols of
    ``symbols`` (as ``_symbols`` gives them) have ``total`` symbols between
    them?

    A ground term whose function symbols of arity at least one have
    arities ``k1, ..., km`` has ``1 + k1 + ... + km`` symbols, and every
    such sum occurs (nest the functions, filling the other arguments with
    a constant).  So ``arity`` terms fill ``total`` when there is a
    constant and ``total - arity`` is a sum of proper arities; the table
    of ``symbols`` answers both, by ``n``, from 0 on (0 is the empty sum,
    so its entry says whether there is a constant), and grows on demand.
    """
    if arity == 0:
        return total == 0
    extra = total - arity
    if extra < 0:
        return False
    functions, _, sums = symbols
    while len(sums) <= extra:
        n = len(sums)
        sums.append(any(sums[n - k] for _, k in functions if 0 < k <= n))
    return sums[extra]


# ---------------------------------------------------------------------------
# The bound
# ---------------------------------------------------------------------------

DEFAULT_ENUMERATION_CAP = 10 ** 6


class Bound:
    """A ground limiting literal beta interpreted under an atom ordering.

    ``atoms_below()`` is the complete finite set of ground atoms strictly
    below beta, in ascending order; ``atoms_by_predicate`` splits it by
    predicate, keeping the order.  The id of an atom is its position in
    ``atoms_below()``, and ``atom_id`` maps each atom below beta to it, so
    it also serves membership tests.  Construction validates that the
    atoms built for it stay within ``cap``.

    A bound's beta and atoms never change once built, so it also holds what
    is derived from them: each literal pattern's match table
    (``atom_matches``), each clause's bounded ground instances as literal
    codes (``bounded_codes``, the one cache of groundings, which the
    searches, the soundness checks and the oracle's entailment and
    redundancy checks all read), and the ``calculus.GroundIndex`` of the
    searches (see the ``calculus`` module docstring).  What depends on the
    signature and ordering alone it keeps in ``memo`` (see "Ground
    term/atom enumeration"), which ``next_beta`` reads too.

    A Grow builds a new bound with ``grow_to``, which hands it the memo and
    the clauses' walk plans, which depend on the clauses alone; so a run
    builds each term once.  The grown bound's first atoms are those of the
    one it grew from, since every atom below the old beta is below any
    atom from that beta on, so every atom keeps its id across the Grow: it
    copies its parent's ``atom_id`` and takes over the match tables, which
    match only the new atoms when next read.  So a run matches each
    pattern against each atom once.  Under count-KBO it also enumerates
    only the atoms from its parent's beta on; under ground LPO it compares
    every atom of the finite signature with beta afresh, but builds no
    term.  A grown bound keeps no reference to its
    parent, and a parent of another signature or ordering hands it nothing.
    """

    def __init__(self, beta: Literal, ordering, signature: Signature,
                 cap: int = DEFAULT_ENUMERATION_CAP,
                 parent: Optional["Bound"] = None):
        if not is_ground(beta):
            raise OrderingConfigError(f"bound literal {beta} is not ground")
        if parent is not None and (
                parent.ordering is not ordering
                or parent.signature is not signature
                and parent.signature != signature):
            parent = None
        self.beta = beta
        self.ordering = ordering
        self.signature = signature
        self.cap = cap
        self._groundings: dict[Clause, tuple[tuple[int, ...], ...]] = {}
        self.ground_index = None  # kept by ``calculus``
        # the walk plans (see ``_plan``) and the signature's memo
        self._plans, self.memo = ({}, {}) if parent is None \
            else (parent._plans, parent.memo)
        atoms = self._atoms_below = tuple(self._enumerate_below(parent))
        # the parent's atoms come first, with their ids and match tables:
        # pattern -> (the number of atoms matched against it, its table)
        ids = self.atom_id = {} if parent is None else dict(parent.atom_id)
        ids.update(zip(atoms[len(ids):], range(len(ids), len(atoms))))
        self._matches: dict[Atom, tuple[int, tuple]] = \
            {} if parent is None else dict(parent._matches)

    def atoms_below(self) -> tuple[Atom, ...]:
        return self._atoms_below

    @cached_property
    def atoms_by_predicate(self) -> dict[str, tuple[Atom, ...]]:
        """The atoms below beta of each predicate, in ascending order."""
        by_pred: dict[str, list[Atom]] = {}
        for atom in self._atoms_below:
            by_pred.setdefault(atom.pred, []).append(atom)
        return {pred: tuple(atoms) for pred, atoms in by_pred.items()}

    def _enumerate_below(self, parent: Optional["Bound"]) -> list[Atom]:
        """The atoms below beta, ascending.  Under count-KBO, a ``parent``
        bound below this one gives the first of them, all the atoms below
        its beta; the enumeration starts at that beta's weight, cut below
        at the beta itself, which is the least atom the parent does not
        hold.  The cap test fails where it would without a parent: the
        counts at the lighter weights are the parent's, which passed it.
        Under ground LPO, the signature is finite: every atom of each
        weight is compared with beta, and those below are sorted.  The
        weights come one by one, so an enumeration that passes the cap
        builds no heavier one."""
        beta_atom = self.beta.atom
        if isinstance(self.ordering, GroundLPO):
            if self.signature.has_proper_functions:
                raise OrderingConfigError(
                    "LPO bound over a signature with non-constant function "
                    "symbols can have infinitely many atoms below the bound; "
                    "use the count-KBO ordering instead")
            cmp, found = self.ordering.compare_atoms, []
            for w in range(1, 2 + max(
                    (k for _, k in self.signature.predicates), default=0)):
                found += [a for a in ground_atoms_of_weight(
                              self.signature, w, self.memo,
                              ordering=self.ordering)
                          if cmp(a, beta_atom) < 0]
                if len(found) > self.cap:
                    raise EnumerationCapExceeded(self.cap,
                                                 f"atoms below {self.beta}")
            found.sort(key=functools.cmp_to_key(cmp))
        elif isinstance(self.ordering, CountKBO):
            found, lowest = [], None  # the least atom not in ``found``
            if parent is not None:
                found, lowest = list(parent._atoms_below), parent.beta.atom
            for w in range(1 if lowest is None else symbol_count(lowest),
                           symbol_count(beta_atom) + 1):
                found += ground_atoms_of_weight(self.signature, w, self.memo,
                                                below=beta_atom,
                                                ordering=self.ordering,
                                                above=lowest)
                if len(found) > self.cap:
                    raise EnumerationCapExceeded(self.cap,
                                                 f"atoms below {self.beta}")
        else:
            raise OrderingConfigError(
                f"unsupported ordering {type(self.ordering).__name__}")
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
        """The bound of ``beta2``, which must be strictly above beta."""
        return Bound(beta2, self.ordering, self.signature, self.cap,
                     parent=self)


# ---------------------------------------------------------------------------
# Bounded grounding enumeration
# ---------------------------------------------------------------------------

# A literal below the bound is coded as ``2 * id`` plus a sign bit, 1 when
# negative, the id of its atom being its position below the bound, so a
# complement is ``code ^ 1``.  The functions after ``bounded_codes`` decode
# its codes.

atom_id_of = itemgetter(0)  # of a match table row


def atom_matches(pattern: Atom,
                 bound: Bound) -> tuple[tuple[int, tuple], ...]:
    """The atoms below the bound that ``pattern`` matches, ascending, each
    as its id and the images of the pattern's variables in the order of
    ``variables_in_order``.

    Kept on the bound, by pattern, with the number of atoms it was matched
    against: a table carried from the bound's parent matches only the
    atoms after those, which are the new ones.  A ground pattern is looked
    up instead.
    """
    matched, table = bound._matches.get(pattern, (0, ()))
    atoms = bound._atoms_below
    if matched < len(atoms):
        if is_ground(pattern):
            i = bound.atom_id.get(pattern)
            table = () if i is None else ((i, ()),)
        else:
            pred, new = pattern.pred, []
            for i in range(matched, len(atoms)):
                if atoms[i].pred == pred:
                    m = match(pattern, atoms[i])
                    if m is not None:
                        new.append((i, tuple(m.mapping.values())))
            table += tuple(new)
        bound._matches[pattern] = (len(atoms), table)
    return table


def bounded_codes(clause: Clause, bound: Bound) -> tuple[tuple[int, ...], ...]:
    """The bounded ground instances of ``clause``, each as the codes of its
    literals in clause order.

    Deterministic order: atoms below beta ascending, literals left to right,
    so the instances ascend lexicographically in their codes.  Cached on
    the bound, which never changes once built.  Nothing is matched here and
    no instance or substitution is built: each literal's rows come from its
    pattern's ``atom_matches``, keyed by the images of the variables that
    occur in earlier literals.  The complete groundings found count against
    ``bound.cap``, tested at every step of the walk.
    """
    cached = bound._groundings.get(clause)
    if cached is not None:
        return cached
    steps = [(sign, slots, _rows(pattern, shared, bound))
             for pattern, sign, shared, slots in _plan(clause, bound)]
    out: list[tuple[int, ...]] = []
    _walk_codes(0, (), (), steps, clause, bound, out)
    bound._groundings[clause] = tuple(out)
    return bound._groundings[clause]


def _plan(clause: Clause, bound: Bound) -> tuple:
    """Each literal's pattern, sign bit, the positions in its variables
    (``variables_in_order``) of those that occur in earlier literals, and
    their positions among the clause's variables in first-occurrence
    order.  Kept on the bound and shared with the bounds grown from it."""
    plan = bound._plans.get(clause)
    if plan is None:
        slots: dict[Var, int] = {}
        plan = []
        for lit in clause.literals:
            variables = variables_in_order(lit.atom)
            shared = tuple([j for j, v in enumerate(variables) if v in slots])
            plan.append((lit.atom, 0 if lit.positive else 1, shared,
                         tuple([slots[variables[j]] for j in shared])))
            for v in variables:
                slots.setdefault(v, len(slots))
        plan = bound._plans[clause] = tuple(plan)
    return plan


def _rows(pattern: Atom, shared: tuple[int, ...], bound: Bound) -> dict:
    """The rows of ``atom_matches(pattern, bound)`` by their images at the
    positions ``shared``, each row as its id and its other images."""
    table = atom_matches(pattern, bound)
    if not shared:
        return {(): table}
    rows: dict[tuple, list] = {}
    for i, images in table:
        rows.setdefault(tuple([images[j] for j in shared]), []).append(
            (i, tuple([x for j, x in enumerate(images) if j not in shared])))
    return rows


def _walk_codes(q: int, images: tuple, codes: tuple[int, ...], steps: list,
                clause: Clause, bound: Bound, out: list):
    """Appends to ``out`` the codes of the groundings of ``clause`` that
    extend the one taking its first ``q`` literals to ``codes`` and the
    variables they hold, in first-occurrence order, to ``images``.
    ``steps`` holds each literal's sign bit, the positions in ``images`` of
    its earlier variables, and its rows by their images there.  The cap
    is tested on entry and, at the last literal, before each grounding."""
    cap = bound.cap
    if len(out) > cap:
        raise EnumerationCapExceeded(cap, f"groundings of {clause}")
    if q == len(steps):  # the empty clause
        out.append(codes)
        return
    sign, slots, rows = steps[q]
    matched = rows.get(tuple([images[s] for s in slots]), ())
    if q + 1 < len(steps):
        for i, new in matched:
            _walk_codes(q + 1, images + new, codes + (2 * i + sign,), steps,
                        clause, bound, out)
        return
    for i, _ in matched:  # the last literal: each row is a grounding
        if len(out) > cap:
            raise EnumerationCapExceeded(cap, f"groundings of {clause}")
        out.append(codes + (2 * i + sign,))


def grounding_of(clause: Clause, codes: tuple[int, ...],
                 bound: Bound) -> Subst:
    """The grounding of ``clause`` whose bounded instance has ``codes``:
    the images that the ``atom_matches`` rows of its literals' atoms hold,
    bound in the order that matching the literals left to right binds
    them in."""
    sub: dict[Var, Term] = {}
    for lit, code in zip(clause.literals, codes):
        if not is_ground(lit.atom):
            table = atom_matches(lit.atom, bound)
            _, images = table[bisect.bisect_left(table, code >> 1,
                                                 key=atom_id_of)]
            for v, image in zip(variables_in_order(lit.atom), images):
                sub.setdefault(v, image)
    return Subst._of(sub)


def _instance(codes: tuple[int, ...], atoms: tuple[Atom, ...]) -> Clause:
    return Clause(tuple(Literal(atoms[c >> 1], not c & 1) for c in codes))


def bounded_groundings(clause: Clause, bound: Bound) -> tuple[Subst, ...]:
    """All grounding substitutions producing only literals below the bound,
    in the order of ``bounded_codes``."""
    return tuple(grounding_of(clause, codes, bound)
                 for codes in bounded_codes(clause, bound))


def bounded_instances(clause: Clause, bound: Bound) -> list[Clause]:
    """The set Gnd restricted below the bound, as ground clauses, in the
    order of ``bounded_codes``."""
    atoms = bound.atoms_below()
    return [_instance(codes, atoms) for codes in bounded_codes(clause, bound)]


def bounded_instances_of_set(clauses: Iterable[Clause],
                             bound: Bound) -> list[Clause]:
    """The bounded instances of ``clauses``, each multiset of literals
    once, in the order of its first occurrence."""
    atoms = bound.atoms_below()
    seen = set()
    out: list[Clause] = []
    for c in clauses:
        for codes in bounded_codes(c, bound):
            key = tuple(sorted(codes))
            if key not in seen:
                seen.add(key)
                out.append(_instance(codes, atoms))
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
