"""Command-line prover plus the check-proof / check-model subcommands.

Exit codes: 0 unsatisfiable, 1 satisfiable within the bound, 2 resource
limit, 64 usage error, unopenable file or configuration error (an ordering,
precedence or bound that cannot be set up), 65 parse error or non-UTF-8
file, 70 internal error (an invariant violation or a crash).

Terms may be nested at most 100 deep (``a`` has depth 1, ``f(a)`` depth 2);
a deeper term is a parse error.  An initial bound (``--beta`` or
``--beta-weight``) that holds or admits a deeper term is a configuration
error (exit 64).  A ``--grow`` stops at the same limit: a Grow to such a
bound counts as a spent grow budget, and the run ends satisfiable within
the last bound (exit 1).
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from typing import Optional

from .frontend import ParseError, parse_literal_text, parse_problem
from .oracle import check_model, check_proof
from .orderings import (
    Bound, EnumerationCapExceeded, OrderingConfigError, Precedence,
    make_ordering,
)
from .proofs import proof_from_text, proof_to_text
from .strategy import InvariantViolation, RunConfig, run
from .terms import Signature, SignatureError, is_ground

EXIT_UNSAT = 0
EXIT_SAT_BOUNDED = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64
EXIT_PARSE = 65
EXIT_INTERNAL = 70


class _UsageError(Exception):
    pass


class _CannotOpen(Exception):
    """A file named on the command line cannot be opened."""


class _Undecodable(Exception):
    """A file named on the command line is not UTF-8 text."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _count(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a non-negative integer")
    return int(text)


def _positive(text: str) -> int:
    if not text.isdecimal() or int(text) == 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return int(text)


def _grow_limit(text: str) -> int:
    return 0 if text == "off" else _count(text)


def build_parser() -> argparse.ArgumentParser:
    # no abbreviations: a retired flag must not read as a prefix of another
    parser = _Parser(prog="sclfol", description=__doc__, allow_abbrev=False)
    parser.add_argument("--input", help="problem file")
    parser.add_argument("--format", choices=["tptp", "native"],
                        default="tptp")
    parser.add_argument("--ordering", choices=["kbo", "lpo"], default="kbo")
    parser.add_argument("--precedence",
                        help="total symbol precedence, e.g. a<b<P<Q")
    parser.add_argument("--beta", help="bound literal, e.g. 'R(b)'")
    parser.add_argument("--beta-weight", type=_positive,
                        help="synthesize a bound above this symbol count")
    parser.add_argument("--grow", type=_grow_limit, default="off",
                        help="'off' or the maximum number of bound increases")
    parser.add_argument("--heuristic", default="first",
                        help="first | random | avoid:PRED,...")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--factoring", choices=["eager", "lazy"],
                        default="eager")
    parser.add_argument("--max-steps", type=_count, default=200_000)
    parser.add_argument("--check", choices=["off", "invariants", "full"],
                        default="off")
    parser.add_argument("--proof", help="write the refutation here")
    parser.add_argument("--model", help="write the partial model here")
    parser.add_argument("--trace", help="write the transition trace here")
    parser.add_argument("--stats", action="store_true",
                        help="print a key=value statistics block")

    sub = parser.add_subparsers(dest="command")
    cp = sub.add_parser("check-proof", help="replay a proof file")
    cp.add_argument("--input", required=True)
    cp.add_argument("--format", choices=["tptp", "native"], default="tptp")
    cp.add_argument("--proof", required=True)
    cm = sub.add_parser("check-model", help="verify a model file")
    cm.add_argument("--input", required=True)
    cm.add_argument("--format", choices=["tptp", "native"], default="tptp")
    cm.add_argument("--model", required=True)
    return parser


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise _CannotOpen(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise _Undecodable(f"{path}: {exc}") from None


def _atomic_write(path: str, content: str):
    """Writes through a temporary file beside ``path``; a failure names
    ``path``, not the temporary file."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".sclfol-")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(content)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise _CannotOpen(f"{path}: {exc.strerror or exc}") from None


def _load_problem(args):
    if not args.input:
        raise _UsageError("--input is required")
    return parse_problem(_read(args.input), args.format)


def _parse_heuristic(spec: str) -> tuple[str, tuple[str, ...]]:
    if spec in ("first", "random"):
        return spec, ()
    if spec.startswith("avoid:"):
        preds = tuple(p for p in spec[len("avoid:"):].split(",") if p)
        if not preds:
            raise _UsageError("avoid: needs at least one predicate")
        return "first", preds
    raise _UsageError(f"unknown heuristic {spec!r}")


def _cmd_solve(args) -> int:
    problem = _load_problem(args)
    heuristic, avoid = _parse_heuristic(args.heuristic)
    beta = None
    if args.beta:
        beta = parse_literal_text(args.beta)
        if not is_ground(beta):
            raise _UsageError(f"--beta literal {beta} is not ground")
        if args.beta_weight is not None:
            raise _UsageError("--beta and --beta-weight are exclusive")
    precedence = args.precedence.split("<") if args.precedence else None
    cfg = RunConfig(
        ordering=args.ordering, precedence=precedence, beta=beta,
        beta_weight=args.beta_weight, heuristic=heuristic, avoid=avoid,
        seed=args.seed, factoring=args.factoring,
        max_growths=args.grow, max_steps=args.max_steps, check=args.check,
    )
    result = run(problem.clauses, cfg, problem.names)

    if args.trace:
        _atomic_write(args.trace, "\n".join(result.trace) + "\n")
    if args.proof and result.proof is not None:
        _atomic_write(args.proof, proof_to_text(result.proof))
    if args.model and result.model is not None:
        _atomic_write(args.model, _model_text(result))
    print(result.status_line)
    if args.stats:
        print(result.stats.as_block())
    return {"unsat": EXIT_UNSAT, "sat-bounded": EXIT_SAT_BOUNDED,
            "resource-out": EXIT_UNKNOWN}[result.verdict]


def _model_text(result) -> str:
    bound = result.final_bound
    ordering = bound.ordering
    precedence_order = sorted(ordering.precedence.rank,
                              key=ordering.precedence.rank.get)
    lines = [
        f"# beta: {bound.beta}",
        f"# ordering: {ordering.kind}",
        f"# precedence: {'<'.join(precedence_order)}",
    ]
    lines += [str(lit) for lit in result.model]
    return "\n".join(lines) + "\n"


def _cmd_check_proof(args) -> int:
    problem = _load_problem(args)
    proof = proof_from_text(_read(args.proof))
    mismatch = check_proof(problem.by_name(), proof)
    if mismatch is None:
        print("PROOF OK")
        return 0
    print(f"PROOF MISMATCH: {mismatch}")
    return 1


def _cmd_check_model(args) -> int:
    problem = _load_problem(args)
    header = {}
    literals = []
    for lineno, line in enumerate(_read(args.model).splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            header[key.strip()] = value.strip()
            continue
        literals.append(parse_literal_text(line, lineno))
    for key in ("beta", "ordering", "precedence"):
        if key not in header:
            raise _UsageError(f"model file is missing the '{key}' header")
    model = set(literals)
    for lit in literals:
        if lit.complement() in model:
            print(f"MODEL INCONSISTENT: {lit} and {lit.complement()}")
            return 1
    beta = parse_literal_text(header["beta"])
    signature = Signature.from_clauses(problem.clauses,
                                       extra_literals=[beta] + literals)
    precedence = Precedence(header["precedence"].split("<"))
    ordering = make_ordering(header["ordering"], precedence)
    bound = Bound(beta, ordering, signature)
    falsified = check_model(literals, problem.clauses, bound)
    if falsified is None:
        print("MODEL OK")
        return 0
    print(f"MODEL FALSIFIES: {falsified}")
    return 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "check-proof":
            return _cmd_check_proof(args)
        if args.command == "check-model":
            return _cmd_check_model(args)
        return _cmd_solve(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _CannotOpen as exc:
        print(f"cannot open {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, _Undecodable) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (OrderingConfigError, EnumerationCapExceeded, SignatureError) \
            as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # a crash must not exit with a verdict code
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
