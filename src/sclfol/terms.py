"""First-order term language: terms, atoms, literals, clauses, substitutions.

Terms are immutable values.  Clauses are literal *sequences* treated as
multisets: duplicate literals are kept until an explicit factoring step
removes them.

Equal terms are one object.  ``Var``, ``Fn``, ``Atom``, ``Literal`` and
``Clause`` are built through intern tables (maximal sharing, or
hash-consing): the constructor returns the live object built from the same
fields if there is one, and builds and files a new one otherwise.  So
structural equality is identity, and ``==`` and ``hash`` are ``object``'s,
which run in C: a dict or set lookup of a deep term or a clause costs what
one of a small object does.  The tables hold weak references, so a term
leaves its table when its last user drops it, and the table of a function
or predicate symbol goes when its last term does; pickles and copies go
through the constructor and return the shared object.  A new term is
filed by one dict operation, so threads may build terms at the same time
and still share them.  A term's hash follows its address, so no result
may depend on the iteration order of a set of terms.

Since terms never change, each keeps what is derived from it once asked
for it, in fixed slots outside the repr, the way hash-consing libraries
keep a node's hash (Filliatre and Conchon, "Type-Safe Modular
Hash-Consing", 2006): ``Fn`` and ``Atom`` their variables in
first-occurrence order (``variables_in_order``) and their symbol count
(``symbol_count``); ``Fn``, ``Atom`` and ``Literal`` their text; and
``Clause`` its variables.  A term is ground exactly when its stored
variables are none, so ``is_ground``, ``variables_of``, ``apply`` and the
occurs check of ``mgu`` read them off instead of walking the term, and
printing a term builds the text of each subterm once.  ``apply`` returns
a ground term, atom or literal as it is, so applying a grounding shares
the ground subterms of the pattern instead of rebuilding them; and a term
none of whose variables it moves comes back as it is, by sharing.
"""

from __future__ import annotations

import itertools
import threading
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Iterator, Optional, Union
from weakref import ref

from _weakref import _remove_dead_weakref


class _Ref(ref):
    """A weak reference that knows its key in an intern table; unlike
    ``weakref.KeyedRef``, built without a Python-level constructor."""

    __slots__ = ("key",)


class _Table(dict):
    """An intern table: each key maps to a ``_Ref`` to the one live object
    built from it.  ``drop``, the callback of every ref in the table,
    removes the entry of an object that died unless a live one has been
    filed under its key since.  Filing (``setdefault``) and dropping
    (``_remove_dead_weakref``, as ``weakref.WeakValueDictionary`` does) are
    each one dict operation in C, so threads that build terms at the same
    time still share one object per term.  A table of one head symbol
    (``owner`` and ``name`` set) leaves its owner when it empties."""

    __slots__ = ("drop", "owner", "name", "closing")

    def __init__(self, owner: Optional["_Tables"] = None, name: str = ""):
        super().__init__()
        self.drop = self._drop
        self.owner, self.name = owner, name
        self.closing = False  # set while or once its owner drops it

    def _drop(self, entry: _Ref):
        _remove_dead_weakref(self, entry.key)
        if not self and self.owner is not None:
            self.owner.close(self)


class _Tables(dict):
    """Intern tables by head symbol, each keyed by the arguments, made on
    first use and dropped once empty.

    A constructor that filed or found a term in a table reads the table's
    ``closing`` flag after it; ``close`` sets the flag before it checks
    that the table is still empty.  So either the constructor sees the
    flag and files the term again in the symbol's current table, or the
    table holds the term when ``close`` looks and stays.  Closes are
    serialized by a lock; filing takes none."""

    _lock = threading.Lock()

    def __missing__(self, name: str) -> _Table:
        return self.setdefault(name, _Table(self, name))

    def close(self, table: _Table):
        """Drops ``table`` if it is still this owner's table and empty."""
        with self._lock:
            if table or self.get(table.name) is not table:
                return
            table.closing = True
            if table:  # a term was filed before the flag was set
                table.closing = False
            else:
                del self[table.name]
                table.drop = None  # so the table is no cyclic garbage


_vars = _Table()                  # name -> variable
_fns = _Tables()                  # name -> args -> term
_atoms = _Tables()                # predicate -> args -> atom
_literals = (_Table(), _Table())  # [positive] -> atom -> literal
_clauses = _Table()               # literals -> clause
_new = object.__new__


def _shared(cls, table: _Table, key, *values):
    """The live ``cls`` object filed in ``table`` under ``key``; if there is
    none, a new one with ``values`` in its fields, filed there."""
    entry = table.get(key)
    obj = entry and entry()
    if obj is None:
        obj = _new(cls)
        for put, value in zip(_setters[cls], values):
            put(obj, value)
        entry = _Ref(obj, table.drop)
        entry.key = key
        while (filed := table.setdefault(key, entry)) is not entry:
            other = filed()
            if other is not None:  # another thread filed it first
                return other
            _remove_dead_weakref(table, key)
    return obj


def _cache():
    """A slot for a fact computed on first request: unset until then, and
    never part of the constructor or the repr."""
    return field(init=False, repr=False)


def _keep(obj, slot: str, value):
    """Stores ``value`` in the cache ``slot`` of ``obj``; returns it."""
    object.__setattr__(obj, slot, value)
    return value


def _reduce(self):
    """Copies and pickles by the constructor arguments, so a copy or an
    unpickled term is the shared object."""
    return type(self), tuple(getattr(self, f.name) for f in fields(self)
                             if f.init)


class _Interned:
    """Base of the term classes, for the weak-reference slot the intern
    tables need (``dataclass``'s ``weakref_slot`` needs Python 3.11)."""

    __slots__ = ("__weakref__",)


# Frozen, with identity equality and hash.  Each class is built by its
# ``__new__`` alone, through ``_shared``, which sets the fields of a new
# object through their slot descriptors.
_term = dataclass(frozen=True, slots=True, eq=False, init=False)


@_term
class Var(_Interned):
    name: str
    __reduce__ = _reduce

    def __new__(cls, name: str):
        return _shared(cls, _vars, name, name)

    def __str__(self):
        return self.name


def _written(head: str, args: tuple) -> str:
    return f"{head}({','.join(map(str, args))})" if args else head


@_term
class Fn(_Interned):
    """Function application; a constant is a function with no arguments."""

    name: str
    args: tuple["Term", ...] = ()
    _order: tuple["Var", ...] = _cache()
    _weight: int = _cache()
    _text: str = _cache()
    __reduce__ = _reduce

    def __new__(cls, name: str, args: tuple = ()):
        table = _fns[name]
        obj = _shared(cls, table, args, name, args)
        # a table being dropped may not keep it: file it again (``_Tables``)
        return cls(name, args) if table.closing else obj

    def __str__(self):
        try:
            return self._text
        except AttributeError:
            return _keep(self, "_text", _written(self.name, self.args))


Term = Union[Var, Fn]


@_term
class Atom(_Interned):
    pred: str
    args: tuple[Term, ...] = ()
    _order: tuple[Var, ...] = _cache()
    _weight: int = _cache()
    _text: str = _cache()
    __reduce__ = _reduce

    def __new__(cls, pred: str, args: tuple = ()):
        table = _atoms[pred]
        obj = _shared(cls, table, args, pred, args)
        return cls(pred, args) if table.closing else obj

    def __str__(self):
        try:
            return self._text
        except AttributeError:
            return _keep(self, "_text", _written(self.pred, self.args))


@_term
class Literal(_Interned):
    atom: Atom
    positive: bool = True
    _text: str = _cache()
    __reduce__ = _reduce

    def __new__(cls, atom: Atom, positive: bool = True):
        return _shared(cls, _literals[positive], atom, atom, positive)

    def complement(self) -> "Literal":
        return Literal(self.atom, not self.positive)

    def __str__(self):
        try:
            return self._text
        except AttributeError:
            text = str(self.atom)
            return _keep(self, "_text", text if self.positive else "~" + text)


@_term
class Clause(_Interned):
    """A multiset of literals, stored as a sequence."""

    literals: tuple[Literal, ...] = ()
    _order: tuple[Var, ...] = _cache()
    __reduce__ = _reduce

    def __new__(cls, literals: tuple = ()):
        return _shared(cls, _clauses, literals, literals)

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


# The slot setters of each class's constructor fields, in order.
_setters = {cls: tuple(getattr(cls, f.name).__set__
                       for f in fields(cls) if f.init)
            for cls in (Var, Fn, Atom, Literal, Clause)}


# ---------------------------------------------------------------------------
# Variable and groundness queries
# ---------------------------------------------------------------------------

def variables_in_order(obj) -> tuple[Var, ...]:
    """The variables of a term, atom, literal, clause or tuple of these,
    each once, in the order a left-to-right walk meets them: the order
    ``match`` binds them in."""
    cls = type(obj)
    if cls is Fn or cls is Atom:
        order = getattr(obj, "_order", None)
        if order is None:
            return _keep(obj, "_order", _joined(obj.args))
        return order
    if cls is Var:
        return (obj,)
    if cls is Literal:
        return variables_in_order(obj.atom)
    if cls is Clause:
        order = getattr(obj, "_order", None)
        if order is None:
            return _keep(obj, "_order", _joined(obj.literals))
        return order
    return _joined(obj)


def _joined(parts) -> tuple[Var, ...]:
    """The variables of ``parts`` in first-occurrence order."""
    order = ()
    for part in parts:
        more = variables_in_order(part)
        if not order:
            order = more
        elif more:
            order += tuple(v for v in more if v not in order)
    return order


def variables_of(obj) -> set[Var]:
    """All variables occurring in a term, atom, literal, clause or tuple."""
    return set(variables_in_order(obj))


def is_ground(obj) -> bool:
    return not variables_in_order(obj)


def symbol_count(obj) -> int:
    """Total number of predicate/function/constant/variable symbols."""
    cls = type(obj)
    if cls is Fn or cls is Atom:
        weight = getattr(obj, "_weight", None)
        if weight is None:
            return _keep(obj, "_weight", 1 + sum(map(symbol_count, obj.args)))
        return weight
    if cls is Var:
        return 1
    if cls is Literal:
        return symbol_count(obj.atom)
    if cls is Clause:
        return sum(symbol_count(lit) for lit in obj.literals)
    raise TypeError(f"no symbol count for {obj!r}")


def term_depth(term: Term) -> int:
    """Nesting depth: a variable or a constant has depth 1, ``f(a)`` 2."""
    if type(term) is Var or not term.args:
        return 1
    return 1 + max(map(term_depth, term.args))


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

    @staticmethod
    def _of(mapping: dict[Var, Term]) -> "Subst":
        """A substitution over ``mapping`` itself.  It keeps a binding of
        a variable to itself, which ``match`` makes only for a target with
        variables; ``apply`` reads such a binding as none."""
        sigma = object.__new__(Subst)
        sigma.mapping = mapping
        return sigma

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
    """Simultaneous replacement of variables by their images.  A ground
    term, atom or literal is returned as it is, and so is a literal whose
    atom is."""
    cls = type(obj)
    if cls is Var:
        return sigma.mapping.get(obj, obj)
    if cls is Fn or cls is Atom:
        return _substitute(sigma.mapping, obj)
    if cls is Literal:
        atom = _substitute(sigma.mapping, obj.atom)
        return obj if atom is obj.atom else Literal(atom, obj.positive)
    if cls is Clause:
        return Clause(tuple([apply(sigma, lit) for lit in obj.literals]))
    raise TypeError(f"cannot apply substitution to {obj!r}")


def _substitute(mapping: dict[Var, Term], term):
    """A term or atom under ``mapping``; a ground one as it is."""
    if type(term) is Var:
        return mapping.get(term, term)
    order = getattr(term, "_order", None)
    if not (variables_in_order(term) if order is None else order):
        return term
    args = tuple([_substitute(mapping, a) for a in term.args])
    return Fn(term.name, args) if type(term) is Fn else Atom(term.pred, args)


# ---------------------------------------------------------------------------
# Unification and matching
# ---------------------------------------------------------------------------

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
        if s in variables_in_order(t):
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

    A variable of ``target`` matches as a constant would: only a pattern
    variable, or itself, matches it, so a pattern variable that also occurs
    in the target may be bound to itself (``subsumes`` matches such
    targets).  Returns the most general such extension, or None on a
    structural clash or a clash with ``partial``.  The new bindings follow
    those of ``partial``, in the order a left-to-right walk of ``pattern``
    meets their variables.
    """
    sub = dict(partial.mapping) if partial is not None else {}
    if type(pattern) is Literal:
        if type(target) is not Literal or pattern.positive != target.positive:
            return None
        pattern, target = pattern.atom, target.atom
    if type(pattern) is Atom:
        if (type(target) is not Atom or pattern.pred != target.pred
                or len(pattern.args) != len(target.args)):
            return None
        # pairs still to match; the first argument pair is popped first
        stack = list(zip(reversed(pattern.args), reversed(target.args)))
    else:
        stack = [(pattern, target)]
    while stack:
        p, t = stack.pop()
        if type(p) is Var:
            bound = sub.get(p)
            if bound is None:
                sub[p] = t
            elif bound is not t:
                return None
        elif (type(t) is not Fn or p.name != t.name
              or len(p.args) != len(t.args)):
            return None
        elif p.args:
            stack.extend(zip(reversed(p.args), reversed(t.args)))
    return Subst._of(sub)


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
        # grounds the clause exactly when it maps each variable to a
        # ground term; nothing is built to find out
        image = self.subst.mapping
        if not all(is_ground(image.get(v, v))
                   for v in variables_in_order(self.clause)):
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
# Multiset, alpha-equivalence and subsumption
# ---------------------------------------------------------------------------

def same_multiset(c1: Clause, c2: Clause) -> bool:
    return Counter(c1.literals) == Counter(c2.literals)


def canonical_variant(clause: Clause) -> Clause:
    """Rename variables to a fixed scheme in first-occurrence order."""
    names = ["X", "Y", "Z", "W", "V"]
    ren = {}
    for i, v in enumerate(variables_in_order(clause)):
        ren[v] = Var(names[i]) if i < len(names) else Var(f"X{i - len(names) + 1}")
    return apply(Subst(ren), clause)


def alpha_equal(c1: Clause, c2: Clause) -> bool:
    """Equality of clauses as multisets, modulo a variable bijection.  Two
    clauses of one length that subsume each other are variants (Gottlob
    and Leitsch, "On the efficiency of subsumption algorithms", 1985)."""
    if len(c1) != len(c2):
        return False
    if canonical_variant(c1) == canonical_variant(c2):
        return True
    return subsumes(c1, c2) and subsumes(c2, c1)


def subsumes(general: Clause, specific: Clause) -> bool:
    """Multiset subsumption: a substitution maps ``general`` injectively
    onto distinct literals of ``specific``, whose variables ``match``
    takes as constants."""
    if len(general) > len(specific):
        return False
    return _subsumes_from(general, specific, 0, frozenset(), None)


def _subsumes_from(general: Clause, specific: Clause, i: int,
                   used: frozenset[int], sigma: Optional[Subst]) -> bool:
    """Extends ``sigma`` to map the literals of ``general`` from position
    ``i`` on onto literals of ``specific`` outside ``used``."""
    if i == len(general):
        return True
    for j, target in enumerate(specific.literals):
        if j not in used:
            m = match(general[i], target, sigma)
            if m is not None and _subsumes_from(general, specific, i + 1,
                                                used | {j}, m):
                return True
    return False


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
        for lit in itertools.chain(
                (lit for c in clauses for lit in c), extra_literals):
            atom = lit.atom
            _declare(preds, funcs, atom.pred, len(atom.args), is_pred=True)
            for t in atom.args:
                _see_term(t, funcs, preds)
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


def _see_term(t, funcs: dict, preds: dict):
    """Declares the function symbols of ``t``, outermost first."""
    if isinstance(t, Var):
        return
    _declare(funcs, preds, t.name, len(t.args), is_pred=False)
    for a in t.args:
        _see_term(a, funcs, preds)


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
