"""Proof objects: the per-learned-clause derivation record and its file format.

A proof lists one derivation section per learned clause, in learning order.
Each section names the conflict closure it starts from and the ordered
Resolve/Factorize applications that transform it, ending with the clause
that was learned.  The final section derives the empty clause and is named
by the closing ``refutation`` line.  Replaying the sections with the term
kernel must reproduce each clause up to variable renaming; that replay lives
in the oracle module.

File format (one item per line)::

    learned u1:
    conflict c4 {X -> a}
    resolve c3 1 {X -> b} on 1
    factorize 0 1
    clause ~P(X)
    ...
    refutation: clause u2 = $false

``resolve C i {sigma} on k`` means: the propagation that annotated the
resolved trail literal came from pool clause ``C`` with propagated-literal
index ``i`` under grounding ``sigma``; ``k`` is the index of the resolved
literal in the conflict clause at that point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .frontend import ParseError, parse_clause_text, parse_subst_text
from .terms import Clause, Subst


@dataclass(frozen=True)
class ConflictStart:
    clause_ref: str
    subst: Subst


@dataclass(frozen=True)
class ResolveStep:
    clause_ref: str
    lit_index: int
    subst: Subst
    conflict_index: int


@dataclass(frozen=True)
class FactorizeStep:
    i: int
    j: int


Step = Union[ResolveStep, FactorizeStep]


@dataclass(frozen=True)
class Derivation:
    name: str
    start: ConflictStart
    steps: tuple[Step, ...]
    clause: Clause


@dataclass(frozen=True)
class Proof:
    derivations: tuple[Derivation, ...]
    refutation: str


def proof_to_text(proof: Proof) -> str:
    lines: list[str] = []
    for d in proof.derivations:
        lines.append(f"learned {d.name}:")
        lines.append(f"conflict {d.start.clause_ref} {d.start.subst}")
        for step in d.steps:
            if isinstance(step, ResolveStep):
                lines.append(
                    f"resolve {step.clause_ref} {step.lit_index} "
                    f"{step.subst} on {step.conflict_index}")
            else:
                lines.append(f"factorize {step.i} {step.j}")
        lines.append(f"clause {d.clause}")
    lines.append(f"refutation: clause {proof.refutation} = $false")
    return "\n".join(lines) + "\n"


def proof_from_text(text: str) -> Proof:
    derivations: list[Derivation] = []
    refutation = None
    name = None
    start = None
    steps: list[Step] = []

    def close_section(lineno: int):
        if name is not None:
            raise ParseError(lineno, 1, f"section {name} has no clause line")

    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("learned ") and line.endswith(":"):
            close_section(lineno)
            name = line[len("learned "):-1].strip()
            start = None
            steps = []
        elif line.startswith("conflict "):
            ref, subst = _ref_and_subst(line[len("conflict "):], lineno)
            start = ConflictStart(ref, subst)
        elif line.startswith("resolve "):
            body = line[len("resolve "):]
            if " on " not in body:
                raise ParseError(lineno, 1, "resolve line missing 'on'")
            left, on = body.rsplit(" on ", 1)
            fields = left.split(None, 2)
            if len(fields) != 3:
                raise ParseError(lineno, 1, "resolve line needs a clause, an "
                                            "index and a substitution")
            ref, idx_str, subst_str = fields
            steps.append(ResolveStep(
                ref, _index(idx_str, lineno),
                parse_subst_text(subst_str, lineno), _index(on, lineno)))
        elif line.startswith("factorize "):
            fields = line[len("factorize "):].split()
            if len(fields) != 2:
                raise ParseError(lineno, 1, "factorize line needs two indices")
            steps.append(FactorizeStep(*(_index(f, lineno) for f in fields)))
        elif line.startswith("clause "):
            if name is None or start is None:
                raise ParseError(lineno, 1, "clause line outside a section")
            clause = parse_clause_text(line[len("clause "):], lineno)
            derivations.append(Derivation(name, start, tuple(steps), clause))
            name, start, steps = None, None, []
        elif line.startswith("refutation:"):
            close_section(lineno)
            body = line[len("refutation:"):].strip()
            if not (body.startswith("clause ") and body.endswith("= $false")):
                raise ParseError(lineno, 1, f"malformed refutation line {line!r}")
            refutation = body[len("clause "):-len("= $false")].strip()
        else:
            raise ParseError(lineno, 1, f"unrecognized proof line {line!r}")
    close_section(len(lines))
    if refutation is None:
        raise ParseError(0, 1, "proof has no refutation line")
    return Proof(tuple(derivations), refutation)


def _index(text: str, lineno: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(lineno, 1, f"index {text.strip()!r} is not an "
                                    f"integer") from None


def _ref_and_subst(body: str, lineno: int) -> tuple[str, Subst]:
    body = body.strip()
    if " " not in body:
        raise ParseError(lineno, 1, f"malformed closure reference {body!r}")
    ref, subst_str = body.split(None, 1)
    return ref, parse_subst_text(subst_str, lineno)
