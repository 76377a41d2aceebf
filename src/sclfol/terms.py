"""First-order term language: terms, atoms, literals, clauses, substitutions.

Terms are immutable values with structural equality.  Clauses are literal
*sequences* treated as multisets: duplicate literals are kept until an
explicit factoring step removes them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Optional, Union


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Fn:
    """Function application; a constant is a function with no arguments."""

    name: str
    args: tuple["Term", ...] = ()

    def __str__(self):
        if not self.args:
            return self.name
        return f"{self.name}({','.join(str(a) for a in self.args)})"


Term = Union[Var, Fn]


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple[Term, ...] = ()

    def __str__(self):
        if not self.args:
            return self.pred
        return f"{self.pred}({','.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class Literal:
    atom: Atom
    positive: bool = True

    def complement(self) -> "Literal":
        return Literal(self.atom, not self.positive)

    def __str__(self):
        return str(self.atom) if self.positive else f"~{self.atom}"


@dataclass(frozen=True)
class Clause:
    """A multiset of literals, stored as a sequence."""

    literals: tuple[Literal, ...] = ()

    @staticmethod
    def of(*literals: Literal) -> "Clause":
        return Clause(tuple(literals))

    def __len__(self):
        return len(self.literals)

    def __iter__(self) -> Iterator[Literal]:
        return iter(self.literals)

    def __getitem__(self, i: int) -> Literal:
        return self.literals[i]

    @property
    def is_empty(self) -> bool:
        return not self.literals

    def without(self, index: int) -> "Clause":
        return Clause(self.literals[:index] + self.literals[index + 1:])

    def __str__(self):
        if not self.literals:
            return "$false"
        return " | ".join(str(lit) for lit in self.literals)


# ---------------------------------------------------------------------------
# Variable and groundness queries
# ---------------------------------------------------------------------------

def variables_of(obj) -> set[Var]:
    """All variables occurring in a term, atom, literal, clause or tuple."""
    out: set[Var] = set()
    _collect_vars(obj, out)
    return out


def _collect_vars(obj, out: set[Var]):
    if isinstance(obj, Var):
        out.add(obj)
    elif isinstance(obj, Fn):
        for a in obj.args:
            _collect_vars(a, out)
    elif isinstance(obj, Atom):
        for a in obj.args:
            _collect_vars(a, out)
    elif isinstance(obj, Literal):
        _collect_vars(obj.atom, out)
    elif isinstance(obj, Clause):
        for lit in obj.literals:
            _collect_vars(lit, out)
    else:
        for item in obj:
            _collect_vars(item, out)


def is_ground(obj) -> bool:
    if isinstance(obj, Var):
        return False
    if isinstance(obj, Fn):
        return all(is_ground(a) for a in obj.args)
    if isinstance(obj, Atom):
        return all(is_ground(a) for a in obj.args)
    if isinstance(obj, Literal):
        return is_ground(obj.atom)
    if isinstance(obj, Clause):
        return all(is_ground(lit) for lit in obj.literals)
    return all(is_ground(x) for x in obj)


def symbol_count(obj) -> int:
    """Total number of predicate/function/constant/variable symbols."""
    if isinstance(obj, Var):
        return 1
    if isinstance(obj, (Fn, Atom)):
        return 1 + sum(symbol_count(a) for a in obj.args)
    if isinstance(obj, Literal):
        return symbol_count(obj.atom)
    if isinstance(obj, Clause):
        return sum(symbol_count(lit) for lit in obj.literals)
    raise TypeError(f"no symbol count for {obj!r}")


# ---------------------------------------------------------------------------
# Substitutions
# ---------------------------------------------------------------------------

class Subst:
    """A finite mapping from variables to terms.

    Bindings with ``x -> x`` are dropped, so ``domain`` contains only the
    variables actually moved.  ``mapping`` is never changed once built, so
    equality and hash are over the bindings and closures can be dict keys.
    """

    __slots__ = ("mapping",)

    def __init__(self, mapping: Optional[dict[Var, Term]] = None):
        self.mapping: dict[Var, Term] = \
            {v: t for v, t in mapping.items() if v != t} if mapping else {}

    def __eq__(self, other):
        return isinstance(other, Subst) and self.mapping == other.mapping

    def __hash__(self):
        return hash(frozenset(self.mapping.items()))

    def __repr__(self):
        return f"Subst({self})"

    @property
    def domain(self) -> set[Var]:
        return set(self.mapping)

    def restrict(self, keep: set[Var]) -> "Subst":
        return Subst({v: t for v, t in self.mapping.items() if v in keep})

    def merge(self, other: "Subst") -> "Subst":
        """Union of two substitutions with disjoint domains."""
        m = dict(self.mapping)
        for v, t in other.mapping.items():
            if m.setdefault(v, t) != t:
                raise ValueError(f"conflicting bindings for {v}")
        return Subst(m)

    def compose(self, then: "Subst") -> "Subst":
        """Returns sigma with sigma(x) = then(self(x))."""
        m = {v: apply(then, t) for v, t in self.mapping.items()}
        for v, t in then.mapping.items():
            m.setdefault(v, t)
        return Subst(m)

    def __str__(self):
        if not self.mapping:
            return "{}"
        return "{" + ", ".join(
            f"{v} -> {t}" for v, t in
            sorted(self.mapping.items(), key=lambda vt: vt[0].name)) + "}"


def apply(sigma: Subst, obj):
    """Simultaneous replacement of variables by their images."""
    if isinstance(obj, Var):
        return sigma.mapping.get(obj, obj)
    if isinstance(obj, Fn):
        if not obj.args:
            return obj
        return Fn(obj.name, tuple(apply(sigma, a) for a in obj.args))
    if isinstance(obj, Atom):
        if not obj.args:
            return obj
        return Atom(obj.pred, tuple(apply(sigma, a) for a in obj.args))
    if isinstance(obj, Literal):
        return Literal(apply(sigma, obj.atom), obj.positive)
    if isinstance(obj, Clause):
        return Clause(tuple(apply(sigma, lit) for lit in obj.literals))
    raise TypeError(f"cannot apply substitution to {obj!r}")


# ---------------------------------------------------------------------------
# Unification and matching
# ---------------------------------------------------------------------------

def occurs_in(v: Var, term: Term) -> bool:
    if v == term:
        return True
    if isinstance(term, Fn):
        return any(occurs_in(v, a) for a in term.args)
    return False


def mgu(a, b) -> Optional[Subst]:
    """Most general unifier of two terms, atoms or literals.

    Robinson's algorithm with occurs check.  The result is idempotent and
    introduces no fresh variables.  Returns None if no unifier exists;
    literals only unify when their polarities match.
    """
    if isinstance(a, Literal) and isinstance(b, Literal):
        if a.positive != b.positive:
            return None
        a, b = a.atom, b.atom
    if isinstance(a, Atom) and isinstance(b, Atom):
        if a.pred != b.pred or len(a.args) != len(b.args):
            return None
        pairs = list(zip(a.args, b.args))
    else:
        pairs = [(a, b)]

    sub: dict[Var, Term] = {}

    def resolve(t: Term) -> Term:
        while isinstance(t, Var) and t in sub:
            t = sub[t]
        return t

    stack = list(reversed(pairs))
    while stack:
        s, t = stack.pop()
        s, t = resolve(s), resolve(t)
        if s == t:
            continue
        if isinstance(s, Fn) and isinstance(t, Fn):
            if s.name != t.name or len(s.args) != len(t.args):
                return None
            stack.extend(zip(s.args, t.args))
            continue
        if isinstance(t, Var):
            s, t = t, s
        # s is a variable now; t fully resolved before the occurs check
        t = _walk(t, sub)
        if occurs_in(s, t):
            return None
        sub[s] = t

    # flatten so the substitution is idempotent
    flat = {v: _walk(t, sub) for v, t in sub.items()}
    return Subst(flat)


def _walk(term: Term, sub: dict[Var, Term]) -> Term:
    if isinstance(term, Var):
        if term in sub:
            return _walk(sub[term], sub)
        return term
    if term.args:
        return Fn(term.name, tuple(_walk(a, sub) for a in term.args))
    return term


def unify_all(items) -> Optional[Subst]:
    """Iterated mgu collapsing all items (atoms/literals) into one."""
    items = list(items)
    sigma = Subst()
    if not items:
        return sigma
    first = items[0]
    for other in items[1:]:
        step = mgu(apply(sigma, first), apply(sigma, other))
        if step is None:
            return None
        sigma = sigma.compose(step)
    return sigma


def match(pattern, target, partial: Optional[Subst] = None) -> Optional[Subst]:
    """One-sided matching: extend ``partial`` to tau with pattern*tau = target.

    ``target`` must be ground.  Returns the most general such extension, or
    None on a structural clash or a clash with ``partial``.
    """
    sub = dict(partial.mapping) if partial is not None else {}

    def go(p, t) -> bool:
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

    if not go(pattern, target):
        return None
    return Subst(sub)


# ---------------------------------------------------------------------------
# Renaming
# ---------------------------------------------------------------------------

def fresh_variant(v: Var, taken: set[Var]) -> Var:
    """Smallest-index primed variant not in ``taken``.

    Purely a function of its inputs, so renaming is reproducible across
    runs and threads.
    """
    base = v.name.split("_")[0]
    i = 1
    while True:
        cand = Var(f"{base}_{i}")
        if cand not in taken:
            return cand
        i += 1


def rename_clause(clause: Clause, avoid: set[Var]) -> tuple[Clause, Subst]:
    """Rename every variable of ``clause`` to a fresh one not in ``avoid``."""
    taken = set(avoid) | variables_of(clause)
    ren: dict[Var, Term] = {}
    for v in sorted(variables_of(clause), key=lambda w: w.name):
        nv = fresh_variant(v, taken)
        taken.add(nv)
        ren[v] = nv
    sigma = Subst(ren)
    return apply(sigma, clause), sigma


# ---------------------------------------------------------------------------
# Closures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Closure:
    """A clause paired with a grounding substitution."""

    clause: Clause
    subst: Subst

    def __post_init__(self):
        if not is_ground(apply(self.subst, self.clause)):
            raise ValueError(
                f"substitution {self.subst} does not ground {self.clause}")

    def ground_clause(self) -> Clause:
        return apply(self.subst, self.clause)

    def __str__(self):
        return f"{self.clause} . {self.subst}"


def rename_apart(first: Closure, second: Closure) -> tuple[Closure, Closure]:
    """Rename ``second`` so the two closures share no variables.

    The adjusted grounding substitution maps the renamed clause to the same
    ground clause as before.
    """
    avoid = variables_of(first.clause) | first.subst.domain
    renamed, ren = rename_clause(second.clause, avoid)
    adjusted = Subst({
        apply(ren, v): apply(second.subst, v)
        for v in variables_of(second.clause)
    })
    return first, Closure(renamed, adjusted)


# ---------------------------------------------------------------------------
# Multiset and alpha-equivalence helpers
# ---------------------------------------------------------------------------

def same_multiset(c1: Clause, c2: Clause) -> bool:
    return Counter(c1.literals) == Counter(c2.literals)


def canonical_variant(clause: Clause) -> Clause:
    """Rename variables to a fixed scheme in first-occurrence order."""
    names = ["X", "Y", "Z", "W", "V"]
    order: list[Var] = []
    seen: set[Var] = set()

    def walk(t):
        if isinstance(t, Var):
            if t not in seen:
                seen.add(t)
                order.append(t)
        elif isinstance(t, (Fn, Atom)):
            for a in t.args:
                walk(a)

    for lit in clause:
        walk(lit.atom)
    ren = {}
    for i, v in enumerate(order):
        ren[v] = Var(names[i]) if i < len(names) else Var(f"X{i - len(names) + 1}")
    return apply(Subst(ren), clause)


def alpha_equal(c1: Clause, c2: Clause) -> bool:
    """Equality of clauses as multisets, modulo a variable bijection."""
    if len(c1) != len(c2):
        return False
    if canonical_variant(c1) == canonical_variant(c2):
        return True
    return _alpha_permuted(list(c1.literals), list(c2.literals), {}, {})


def _alpha_permuted(lits1, lits2, fwd, bwd) -> bool:
    if not lits1:
        return True
    first, rest = lits1[0], lits1[1:]
    for j, cand in enumerate(lits2):
        m = _alpha_literal(first, cand, dict(fwd), dict(bwd))
        if m is None:
            continue
        if _alpha_permuted(rest, lits2[:j] + lits2[j + 1:], m[0], m[1]):
            return True
    return False


def _alpha_literal(l1: Literal, l2: Literal, fwd, bwd):
    if l1.positive != l2.positive:
        return None

    def go(t1, t2) -> bool:
        if isinstance(t1, Var) and isinstance(t2, Var):
            if fwd.get(t1, t2) != t2 or bwd.get(t2, t1) != t1:
                return False
            fwd[t1] = t2
            bwd[t2] = t1
            return True
        if isinstance(t1, Fn) and isinstance(t2, Fn):
            return (t1.name == t2.name and len(t1.args) == len(t2.args)
                    and all(go(a, b) for a, b in zip(t1.args, t2.args)))
        return False

    a1, a2 = l1.atom, l2.atom
    if a1.pred != a2.pred or len(a1.args) != len(a2.args):
        return None
    if all(go(x, y) for x, y in zip(a1.args, a2.args)):
        return fwd, bwd
    return None


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------

class SignatureError(ValueError):
    pass


@dataclass(frozen=True)
class Signature:
    """Predicate and function symbols with fixed arities.

    The two namespaces are disjoint; every occurrence of a symbol must
    respect its declared arity.
    """

    predicates: tuple[tuple[str, int], ...] = ()
    functions: tuple[tuple[str, int], ...] = ()

    @staticmethod
    def from_clauses(clauses, extra_literals=()) -> "Signature":
        preds: dict[str, int] = {}
        funcs: dict[str, int] = {}

        def see_term(t):
            if isinstance(t, Var):
                return
            _declare(funcs, preds, t.name, len(t.args), is_pred=False)
            for a in t.args:
                see_term(a)

        def see_atom(a: Atom):
            _declare(preds, funcs, a.pred, len(a.args), is_pred=True)
            for t in a.args:
                see_term(t)

        for c in clauses:
            for lit in c:
                see_atom(lit.atom)
        for lit in extra_literals:
            see_atom(lit.atom)
        return Signature(
            tuple(sorted(preds.items())), tuple(sorted(funcs.items())))

    @property
    def predicate_arities(self) -> dict[str, int]:
        return dict(self.predicates)

    @property
    def function_arities(self) -> dict[str, int]:
        return dict(self.functions)

    @property
    def constants(self) -> tuple[str, ...]:
        return tuple(n for n, k in self.functions if k == 0)

    @property
    def has_proper_functions(self) -> bool:
        return any(k > 0 for _, k in self.functions)

    def with_predicate(self, name: str, arity: int) -> "Signature":
        if name in self.predicate_arities or name in self.function_arities:
            raise SignatureError(f"symbol {name} already declared")
        return Signature(
            tuple(sorted(self.predicates + ((name, arity),))), self.functions)

    def symbols(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.functions) + tuple(n for n, _ in self.predicates)


def _declare(own: dict, other: dict, name: str, arity: int, is_pred: bool):
    kind = "predicate" if is_pred else "function"
    if name in other:
        raise SignatureError(
            f"symbol {name} used as both predicate and function")
    prev = own.get(name)
    if prev is not None and prev != arity:
        raise SignatureError(
            f"{kind} {name} used with arities {prev} and {arity}")
    own[name] = arity
