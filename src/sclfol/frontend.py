"""Problem input: a TPTP CNF subset and a native line-oriented format.

Variable convention follows TPTP in both formats: an identifier starting
with an uppercase letter is a variable.  The native format additionally
accepts a ``vars:`` header declaring extra (e.g. lowercase) variable names.
Equality is not supported and is rejected up front.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from .terms import Atom, Clause, Fn, Literal, Signature, Subst, Term, Var


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
    signature: Signature = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.signature is None:
            self.signature = Signature.from_clauses(self.clauses)

    def by_name(self) -> dict[str, Clause]:
        return dict(zip(self.names, self.clauses))


# ---------------------------------------------------------------------------
# Tokenizer shared by both formats
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\$?[A-Za-z_][A-Za-z0-9_]*|\d+|[(),.|~]|!=|=|\S")


class _Tokens:
    def __init__(self, text: str, line: int, col_offset: int = 0,
                 variables: frozenset[str] = frozenset()):
        self.line = line
        self.variables = variables
        self.toks: list[tuple[str, int]] = [
            (m.group(0), m.start() + col_offset + 1)
            for m in _TOKEN_RE.finditer(text)
        ]
        self.pos = 0

    def peek(self) -> Optional[str]:
        return self.toks[self.pos][0] if self.pos < len(self.toks) else None

    def col(self) -> int:
        if self.pos < len(self.toks):
            return self.toks[self.pos][1]
        return self.toks[-1][1] + len(self.toks[-1][0]) if self.toks else 1

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError(self.line, self.col(), "unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, want: str) -> str:
        col = self.col()
        tok = self.next()
        if tok != want:
            raise ParseError(self.line, col, f"expected {want!r}, got {tok!r}")
        return tok

    def error(self, msg: str):
        raise ParseError(self.line, self.col(), msg)


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


def _is_variable_name(name: str, extra: frozenset[str]) -> bool:
    return name[0].isupper() or name[0] == "_" or name in extra


def _parse_term(tk: _Tokens) -> Term:
    col = tk.col()
    name = tk.next()
    if name in ("=", "!="):
        raise UnsupportedFeature(tk.line, col, "equality")
    if not _NAME_RE.match(name):
        raise ParseError(tk.line, col, f"expected a term, got {name!r}")
    if _is_variable_name(name, tk.variables):
        return Var(name)
    if tk.peek() == "(":
        tk.next()
        args = [_parse_term(tk)]
        while tk.peek() == ",":
            tk.next()
            args.append(_parse_term(tk))
        tk.expect(")")
        return Fn(name, tuple(args))
    return Fn(name)


def _parse_literal(tk: _Tokens) -> Literal:
    positive = True
    while tk.peek() == "~":
        tk.next()
        positive = not positive
    col = tk.col()
    name = tk.next()
    if name == "$false":
        raise ParseError(tk.line, col, "$false is only allowed on its own")
    if name in ("=", "!="):
        raise UnsupportedFeature(tk.line, col, "equality")
    if not _NAME_RE.match(name):
        raise ParseError(tk.line, col, f"expected a predicate, got {name!r}")
    args: tuple[Term, ...] = ()
    if tk.peek() == "(":
        tk.next()
        lst = [_parse_term(tk)]
        while tk.peek() == ",":
            tk.next()
            lst.append(_parse_term(tk))
        tk.expect(")")
        args = tuple(lst)
    if tk.peek() in ("=", "!="):
        raise UnsupportedFeature(tk.line, tk.col(), "equality")
    return Literal(Atom(name, args), positive)


def _parse_disjunction(tk: _Tokens) -> Clause:
    if tk.peek() == "$false":
        tk.next()
        return Clause()
    lits = [_parse_literal(tk)]
    while tk.peek() == "|":
        tk.next()
        lits.append(_parse_literal(tk))
    return Clause(tuple(lits))


# ---------------------------------------------------------------------------
# Native format
# ---------------------------------------------------------------------------

def parse_native(text: str) -> ProblemFile:
    """One clause per line, ``|`` between literals, ``~`` negation,
    ``#`` comments.  An optional leading ``vars: x y`` header declares
    additional variable names."""
    clauses: list[Clause] = []
    names: list[str] = []
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
        tk = _Tokens(line, lineno, variables=extra_vars)
        clause = _parse_disjunction(tk)
        if tk.peek() is not None:
            tk.error(f"trailing input {tk.peek()!r}")
        clauses.append(clause)
        names.append(f"c{len(clauses)}")
    return ProblemFile(clauses, names, format="native")


# ---------------------------------------------------------------------------
# TPTP CNF subset
# ---------------------------------------------------------------------------

_CNF_RE = re.compile(r"cnf\s*\(", re.MULTILINE)


def parse_tptp_cnf(text: str) -> ProblemFile:
    """Accepts ``cnf(name, role, (L1 | ... | Ln)).`` clause annotations.

    ``%`` starts a comment.  ``include`` directives, ``fof``/``tff``
    formulas and equality literals are rejected with a clear error.
    """
    clauses: list[Clause] = []
    names: list[str] = []
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
        while tk.peek() is not None:
            col = tk.col()
            head = tk.next()
            if head != "cnf":
                raise ParseError(lineno, col, f"expected 'cnf', got {head!r}")
            tk.expect("(")
            name = tk.next()
            tk.expect(",")
            tk.next()  # role; anything other than axiom is treated as axiom
            tk.expect(",")
            paren = tk.peek() == "("
            if paren:
                tk.next()
            clause = _parse_disjunction(tk)
            if paren:
                tk.expect(")")
            tk.expect(")")
            tk.expect(".")
            clauses.append(clause)
            names.append(name)
    return ProblemFile(clauses, names, format="tptp")


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
    lit = _parse_literal(tk)
    if tk.peek() is not None:
        tk.error(f"trailing input {tk.peek()!r}")
    return lit


def parse_clause_text(text: str, line: int = 1) -> Clause:
    tk = _Tokens(text.strip(), line)
    clause = _parse_disjunction(tk)
    if tk.peek() is not None:
        tk.error(f"trailing input {tk.peek()!r}")
    return clause


def parse_subst_text(text: str, line: int = 1) -> Subst:
    """Parses ``{X -> a, Y -> g(b)}``."""
    body = text.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise ParseError(line, 1, f"malformed substitution {text!r}")
    body = body[1:-1].strip()
    mapping: dict[Var, Term] = {}
    if not body:
        return Subst()
    for part in _split_top_level(body):
        if "->" not in part:
            raise ParseError(line, 1, f"malformed binding {part!r}")
        left, right = part.split("->", 1)
        var_name = left.strip()
        tk = _Tokens(right.strip(), line)
        term = _parse_term(tk)
        if tk.peek() is not None:
            tk.error(f"trailing input {tk.peek()!r}")
        mapping[Var(var_name)] = term
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
