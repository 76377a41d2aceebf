"""Problem input: a TPTP CNF subset and a native line-oriented format.

Variable convention follows TPTP in both formats: an identifier starting
with an uppercase letter is a variable.  The native format additionally
accepts a ``vars:`` header declaring extra (e.g. lowercase) variable names.
Equality is not supported and is rejected up front.

Both formats and the standalone literal, clause and substitution parsers
share one token layer: ``_Tokens`` splits a line with one ``findall`` into
a list that ends in ``None``, and the parse functions walk that list by
index, each returning the index after what it read.  Columns are worked
out from the line only when an error is raised.

The parse is the one walk over the input: each symbol occurrence is noted
on its line's tokens as it is read, in the order ``Signature.from_clauses``
declares them, and the file parsers declare those notes once, after the
last line.  A symbol used with two arities, or as both a predicate and a
function, is a ``ParseError`` at the first occurrence that clashes, so a
syntax error on any line is reported before a clash on an earlier one.
The literal, clause and substitution parsers check no clash.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .terms import (
    Atom, Clause, Fn, Literal, SignatureError, Subst, Term, Var,
    declare_symbol,
)


class ParseError(ValueError):
    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


class UnsupportedFeature(ParseError):
    def __init__(self, line: int, column: int, feature: str):
        super().__init__(line, column, f"unsupported feature: {feature}")
        self.feature = feature


@dataclass
class ProblemFile:
    clauses: list[Clause]
    names: list[str]
    format: str = "native"

    def by_name(self) -> dict[str, Clause]:
        return dict(zip(self.names, self.clauses))


# ---------------------------------------------------------------------------
# Tokenizer shared by both formats
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\$?[A-Za-z_][A-Za-z0-9_]*|\d+|[(),.|~]|!=|=|\S")
# a token that starts with one of these is a name (see ``_TOKEN_RE``)
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                        "abcdefghijklmnopqrstuvwxyz_")
_EQUALITY = ("=", "!=")


class _Tokens:
    """The tokens of one line, as a list that ends in ``None``.

    The parse functions walk ``toks`` by index and return the index after
    what they read.  A column is worked out from the line only for an
    error.  ``symbols`` notes each predicate and function occurrence read,
    as (name, arity, is predicate, token index).  A symbol's slot is taken
    before its arguments are read, and its arity filled in after them, so
    the notes come in the order ``Signature.from_clauses`` declares them."""

    __slots__ = ("text", "line", "variables", "toks", "symbols")

    def __init__(self, text: str, line: int,
                 variables: frozenset[str] = frozenset()):
        self.text = text
        self.line = line
        self.variables = variables
        self.toks: list = _TOKEN_RE.findall(text)
        self.toks.append(None)
        self.symbols: list = []

    def column(self, i: int) -> int:
        """The column of token ``i``; for the end, the column after the
        last token."""
        spans = [m.span() for m in _TOKEN_RE.finditer(self.text)]
        if i < len(spans):
            return spans[i][0] + 1
        return spans[-1][1] + 1 if spans else 1

    def error(self, i: int, message: str) -> ParseError:
        return ParseError(self.line, self.column(i), message)

    def unexpected(self, i: int, what: str) -> ParseError:
        """The error for token ``i``, where ``what`` was expected."""
        if self.toks[i] is None:
            return self.error(i, "unexpected end of input")
        return self.error(i, f"expected {what}, got {self.toks[i]!r}")

    def equality(self, i: int) -> UnsupportedFeature:
        return UnsupportedFeature(self.line, self.column(i), "equality")

    def expect(self, i: int, want: str) -> int:
        """The index after token ``i``, which must be ``want``."""
        if self.toks[i] != want:
            raise self.unexpected(i, repr(want))
        return i + 1

    def end(self, i: int):
        """Raises unless token ``i`` ends the line."""
        if self.toks[i] is not None:
            raise self.error(i, f"trailing input {self.toks[i]!r}")


def _is_variable_name(name: str, extra: frozenset[str]) -> bool:
    return name[0].isupper() or name[0] == "_" or name in extra


# the parser and the search kernels recurse once per nesting level of a
# term, and from about 250 levels exceed Python's default recursion limit
MAX_TERM_DEPTH = 100


def _parse_term(tk: _Tokens, i: int, depth: int = 1) -> tuple[Term, int]:
    if depth > MAX_TERM_DEPTH:
        raise tk.error(i, f"term nested more than {MAX_TERM_DEPTH} deep")
    toks = tk.toks
    name = toks[i]
    if name is None or name[0] not in _NAME_START:
        raise tk.equality(i) if name in _EQUALITY \
            else tk.unexpected(i, "a term")
    if _is_variable_name(name, tk.variables):
        return Var(name), i + 1
    slot = len(tk.symbols)
    tk.symbols.append((name, 0, False, i))
    if toks[i + 1] != "(":
        return Fn(name), i + 1
    args, j = _parse_args(tk, i + 2, depth + 1)
    tk.symbols[slot] = (name, len(args), False, i)
    return Fn(name, args), j


def _parse_args(tk: _Tokens, i: int, depth: int) -> tuple[tuple, int]:
    """The terms from token ``i``, just after an opening parenthesis, to
    the closing one, at nesting ``depth``."""
    toks = tk.toks
    arg, i = _parse_term(tk, i, depth)
    args = [arg]
    while toks[i] == ",":
        arg, i = _parse_term(tk, i + 1, depth)
        args.append(arg)
    return tuple(args), tk.expect(i, ")")


def _parse_literal(tk: _Tokens, i: int) -> tuple[Literal, int]:
    toks = tk.toks
    positive = True
    while toks[i] == "~":
        i += 1
        positive = not positive
    name = toks[i]
    if name == "$false":
        raise tk.error(i, "$false is only allowed on its own")
    if name is None or name[0] not in _NAME_START:
        raise tk.equality(i) if name in _EQUALITY \
            else tk.unexpected(i, "a predicate")
    slot = len(tk.symbols)
    tk.symbols.append((name, 0, True, i))
    if toks[i + 1] == "(":
        args, j = _parse_args(tk, i + 2, 1)
        tk.symbols[slot] = (name, len(args), True, i)
        atom, i = Atom(name, args), j
    else:
        atom, i = Atom(name), i + 1
    if toks[i] in _EQUALITY:
        raise tk.equality(i)
    return Literal(atom, positive), i


def _parse_disjunction(tk: _Tokens, i: int) -> tuple[Clause, int]:
    toks = tk.toks
    if toks[i] == "$false":
        return Clause(), i + 1
    lit, i = _parse_literal(tk, i)
    lits = [lit]
    while toks[i] == "|":
        lit, i = _parse_literal(tk, i + 1)
        lits.append(lit)
    return Clause(tuple(lits)), i


# ---------------------------------------------------------------------------
# Native format
# ---------------------------------------------------------------------------

def parse_native(text: str) -> ProblemFile:
    """One clause per line, ``|`` between literals, ``~`` negation,
    ``#`` comments.  An optional leading ``vars: x y`` header declares
    additional variable names."""
    clauses: list[Clause] = []
    names: list[str] = []
    lines: list[_Tokens] = []
    extra_vars: frozenset[str] = frozenset()
    header_allowed = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if header_allowed and line.strip().startswith("vars:"):
            extra_vars = frozenset(line.strip()[5:].split())
            header_allowed = False
            continue
        header_allowed = False
        tk = _Tokens(line, lineno, extra_vars)
        clause, i = _parse_disjunction(tk, 0)
        tk.end(i)
        clauses.append(clause)
        names.append(f"c{len(clauses)}")
        lines.append(tk)
    _check_symbols(lines)
    return ProblemFile(clauses, names, "native")


# ---------------------------------------------------------------------------
# TPTP CNF subset
# ---------------------------------------------------------------------------

def parse_tptp_cnf(text: str) -> ProblemFile:
    """Accepts ``cnf(name, role, (L1 | ... | Ln)).`` clause annotations.

    ``%`` starts a comment.  ``include`` directives, ``fof``/``tff``
    formulas and equality literals are rejected with a clear error.
    """
    clauses: list[Clause] = []
    names: list[str] = []
    lines: list[_Tokens] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("include"):
            raise UnsupportedFeature(lineno, line.index("include") + 1, "include")
        for kw in ("fof", "tff", "thf", "tcf"):
            if stripped.startswith(kw + "("):
                raise UnsupportedFeature(lineno, 1, kw)
        tk = _Tokens(line, lineno)
        toks = tk.toks
        i = 0
        while toks[i] is not None:
            if toks[i] != "cnf":
                raise tk.error(i, f"expected 'cnf', got {toks[i]!r}")
            i = tk.expect(i + 1, "(")
            name = toks[i]
            if name is None:
                raise tk.unexpected(i, "a name")
            i = tk.expect(i + 1, ",")
            # the role; anything other than axiom is treated as axiom
            if toks[i] is None:
                raise tk.unexpected(i, "a role")
            i = tk.expect(i + 1, ",")
            paren = toks[i] == "("
            if paren:
                i += 1
            clause, i = _parse_disjunction(tk, i)
            if paren:
                i = tk.expect(i, ")")
            i = tk.expect(tk.expect(i, ")"), ".")
            clauses.append(clause)
            names.append(name)
        lines.append(tk)
    _check_symbols(lines)
    return ProblemFile(clauses, names, "tptp")


def _check_symbols(lines: list[_Tokens]):
    """Declares the symbols noted on ``lines`` in order; a symbol used with
    two arities, or as both a predicate and a function, is a parse error at
    the first occurrence that clashes with the earlier ones."""
    preds: dict[str, int] = {}
    funcs: dict[str, int] = {}
    for tk in lines:
        for name, arity, is_pred, i in tk.symbols:
            own, other = (preds, funcs) if is_pred else (funcs, preds)
            if own.get(name) != arity:  # a new symbol, or a clash
                try:
                    declare_symbol(own, other, name, arity, is_pred)
                except SignatureError as exc:
                    raise tk.error(i, str(exc)) from None


def parse_problem(text: str, fmt: str) -> ProblemFile:
    if fmt == "tptp":
        return parse_tptp_cnf(text)
    if fmt == "native":
        return parse_native(text)
    raise ValueError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# Standalone literal / substitution parsing (CLI flags, proof files)
# ---------------------------------------------------------------------------

def parse_literal_text(text: str, line: int = 1) -> Literal:
    tk = _Tokens(text.strip(), line)
    lit, i = _parse_literal(tk, 0)
    tk.end(i)
    return lit


def parse_clause_text(text: str, line: int = 1) -> Clause:
    tk = _Tokens(text.strip(), line)
    clause, i = _parse_disjunction(tk, 0)
    tk.end(i)
    return clause


def parse_subst_text(text: str, line: int = 1) -> Subst:
    """Parses ``{X -> a, Y -> g(b)}``.  Left of each ``->`` stands one
    name, of any case, since a native ``vars:`` variable may be lowercase;
    a name bound twice is an error."""
    body = text.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise ParseError(line, 1, f"malformed substitution {text!r}")
    body = body[1:-1].strip()
    mapping: dict[Var, Term] = {}
    if not body:
        return Subst()
    for part in _split_top_level(body):
        left, arrow, right = part.partition("->")
        names = _TOKEN_RE.findall(left)
        if not arrow or len(names) != 1 or names[0][0] not in _NAME_START:
            raise ParseError(line, 1, f"malformed binding {part!r}")
        var = Var(names[0])
        if var in mapping:
            raise ParseError(line, 1, f"variable {var} bound twice")
        tk = _Tokens(right.strip(), line)
        term, i = _parse_term(tk, 0)
        tk.end(i)
        mapping[var] = term
    return Subst(mapping)


def _split_top_level(body: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts]


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def problem_to_native(problem: ProblemFile) -> str:
    return "\n".join(str(c) for c in problem.clauses) + "\n"


def problem_to_tptp(problem: ProblemFile) -> str:
    lines = [
        f"cnf({name}, axiom, ({clause}))."
        for name, clause in zip(problem.names, problem.clauses)
    ]
    return "\n".join(lines) + "\n"
