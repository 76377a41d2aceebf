import os
import random
import re
import subprocess
import sys

import pytest

from conftest import LOOPING_TEXT, cap_bounds, cl, random_bs_problem
from sclfol import cli, strategy, terms
from sclfol.cli import build_parser, main
from sclfol.frontend import (
    MAX_TERM_DEPTH, ParseError, ProblemFile, UnsupportedFeature,
    parse_clause_text, parse_literal_text, parse_native, parse_problem,
    parse_subst_text, parse_tptp_cnf, problem_to_native, problem_to_tptp,
)
from sclfol.orderings import Bound
from sclfol.terms import Var, variables_of

DATA = os.path.join(os.path.dirname(__file__), "data")


class TestTptp:
    def test_simple_clause(self):
        p = parse_tptp_cnf("cnf(c1, axiom, (P(X) | Q(b))).")
        assert p.clauses == [cl("P(X) | Q(b)")]
        assert p.names == ["c1"]

    def test_equality_rejected(self):
        with pytest.raises(UnsupportedFeature, match="equality"):
            parse_tptp_cnf("cnf(c, axiom, (X = a)).")

    def test_disequality_rejected(self):
        with pytest.raises(UnsupportedFeature, match="equality"):
            parse_tptp_cnf("cnf(c, axiom, (X != a)).")

    def test_include_rejected(self):
        with pytest.raises(UnsupportedFeature, match="include"):
            parse_tptp_cnf("include('Axioms/EQ001-0.ax').")

    def test_fof_rejected(self):
        with pytest.raises(UnsupportedFeature, match="fof"):
            parse_tptp_cnf("fof(f, axiom, ![X]: p(X)).")

    def test_problem_file(self):
        with open(os.path.join(DATA, "bounded_unsat.p")) as handle:
            p = parse_tptp_cnf(handle.read())
        assert p.names == ["c1", "c2", "c3", "c4"]
        assert p.clauses[3] == cl("~P(X) | ~Q(b)")

    def test_roles_other_than_axiom_accepted(self):
        p = parse_tptp_cnf("cnf(goal, negated_conjecture, (~P(a))).")
        assert p.clauses == [cl("~P(a)")]

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_tptp_cnf("cnf(c1, axiom, (P(X) | )).")
        assert err.value.line == 1
        assert err.value.column > 0

    def test_false_clause(self):
        p = parse_tptp_cnf("cnf(c, axiom, ($false)).")
        assert p.clauses[0].is_empty


class TestNative:
    def test_grow_clause_with_vars_header(self):
        p = parse_native("vars: x\n~P(x) | P(g(x))\n")
        clause = p.clauses[0]
        assert variables_of(clause) == {Var("x")}

    def test_default_convention_lowercase_is_constant(self):
        p = parse_native("~P(x) | P(g(x))\n")
        assert variables_of(p.clauses[0]) == set()

    def test_comments_and_blank_lines(self):
        p = parse_native("# header\n\nP(a) # trailing\n")
        assert p.clauses == [cl("P(a)")]

    def test_empty_file(self):
        assert parse_native("").clauses == []

    def test_looping_scenario_round_trip(self):
        p = parse_native(LOOPING_TEXT)
        printed = problem_to_native(p)
        assert parse_native(printed).clauses == p.clauses

    def test_parse_error(self):
        with pytest.raises(ParseError):
            parse_native("P(a) |\n")


class TestTermDepth:
    @staticmethod
    def problem_text(fmt, depth):
        term = "f(" * (depth - 1) + "a" + ")" * (depth - 1)
        if fmt == "native":
            return f"~P(X) | Q(X)\nP({term})\n"
        return (f"cnf(c1, axiom, (~P(X) | Q(X))).\n"
                f"cnf(c2, axiom, (P({term}))).\n")

    @pytest.mark.parametrize("fmt", ["native", "tptp"])
    def test_depth_100_parses(self, fmt):
        problem = parse_problem(self.problem_text(fmt, 100), fmt)
        assert str(problem.clauses[1]).count("f(") == 99

    @pytest.mark.parametrize("fmt", ["native", "tptp"])
    def test_depth_101_is_a_parse_error(self, fmt):
        text = self.problem_text(fmt, 101)
        with pytest.raises(ParseError, match="nested more than 100 deep") \
                as info:
            parse_problem(text, fmt)
        line = text.splitlines()[1]
        assert (info.value.line, info.value.column) == \
            (2, line.index("(a)") + 2)


class TestRoundTrip:
    def test_random_problems_both_formats(self):
        rng = random.Random(61)
        for _ in range(30):
            clauses = random_bs_problem(rng)
            problem = ProblemFile(clauses,
                                  [f"c{i + 1}" for i in range(len(clauses))])
            assert parse_native(problem_to_native(problem)).clauses == clauses
            assert parse_tptp_cnf(problem_to_tptp(problem)).clauses == clauses

    def test_literal_and_subst_round_trip(self):
        for text in ("P(g(a),X)", "~Q", "~R(f(X,b))"):
            assert str(parse_literal_text(text)) == text
        for text in ("{}", "{X -> a}", "{X -> g(a,b), Y -> b}"):
            assert str(parse_subst_text(text)) == text


# The parser's error contract: every malformed input of this table gives
# exactly this error class, line, column and message, and every accepted one
# these clauses, however the parser is written.
DEEP = "f(" * 100 + "a" + ")" * 100
ERROR_CONTRACT = [
    ('native', 'P(a) |',
     ('ParseError', 1, 7, 'unexpected end of input')),
    ('native', '~',
     ('ParseError', 1, 2, 'unexpected end of input')),
    ('native', 'P(a) | ~',
     ('ParseError', 1, 9, 'unexpected end of input')),
    ('native', 'P(a,)',
     ('ParseError', 1, 5, "expected a term, got ')'")),
    ('native', 'P(a',
     ('ParseError', 1, 4, 'unexpected end of input')),
    ('native', 'P(a))',
     ('ParseError', 1, 5, "trailing input ')'")),
    ('native', 'P(1)',
     ('ParseError', 1, 3, "expected a term, got '1'")),
    ('native', '1(a)',
     ('ParseError', 1, 1, "expected a predicate, got '1'")),
    ('native', 'X = a',
     ('UnsupportedFeature', 1, 3, 'unsupported feature: equality')),
    ('native', 'P(a) != b',
     ('UnsupportedFeature', 1, 6, 'unsupported feature: equality')),
    ('native', 'P(a) | $false',
     ('ParseError', 1, 8, '$false is only allowed on its own')),
    ('native', 'P(a) Q(b)',
     ('ParseError', 1, 6, "trailing input 'Q'")),
    ('native', f"P({DEEP})",
     ('ParseError', 1, 203, 'term nested more than 100 deep')),
    ('native', 'P(a)\n  # comment\n  Q(b) | ~R(c d)',
     ('ParseError', 3, 15, "expected ')', got 'd'")),
    ('native', 'vars: x\nP(x) | ~',
     ('ParseError', 2, 9, 'unexpected end of input')),
    ('native', 'P(a) | ~~Q(a,',
     ('ParseError', 1, 14, 'unexpected end of input')),
    ('native', 'P(f(a)',
     ('ParseError', 1, 7, 'unexpected end of input')),
    ('native', 'P(f(a) | Q',
     ('ParseError', 1, 8, "expected ')', got '|'")),
    ('native', 'P(a, ~b)',
     ('ParseError', 1, 6, "expected a term, got '~'")),
    ('native', 'P(X,=)',
     ('UnsupportedFeature', 1, 5, 'unsupported feature: equality')),
    ('native', 'P($false)',
     ('ParseError', 1, 3, "expected a term, got '$false'")),
    ('native', '$false | P(a)',
     ('ParseError', 1, 8, "trailing input '|'")),
    ('native', 'P(a)\n$false',
     ['c1: P(a)', 'c2: $false']),
    ('native', 'P(a) @',
     ('ParseError', 1, 6, "trailing input '@'")),
    ('native', 'p(a)\nP(é)',
     ('ParseError', 2, 3, "expected a term, got 'é'")),
    ('tptp', 'cnf(c, axiom, P(a) | ~Q(b)).',
     ['c: P(a) | ~Q(b)']),
    ('tptp', 'cnf(c, axiom, (P(a)))',
     ('ParseError', 1, 22, 'unexpected end of input')),
    ('tptp', 'cnf(c, axiom, (P(a))',
     ('ParseError', 1, 21, 'unexpected end of input')),
    ('tptp', 'cnf(a, axiom, (P(a))). cnf(b, axiom, (Q(a))).',
     ['a: P(a)', 'b: Q(a)']),
    ('tptp', 'cnf(a, axiom, (P(a))). cnf(b, axiom, (Q(a) |)).',
     ('ParseError', 1, 45, "expected a predicate, got ')'")),
    ('tptp', 'cnf(a, axiom, (P(a))) cnf(b, axiom, (Q(a))).',
     ('ParseError', 1, 23, "expected '.', got 'cnf'")),
    ('tptp', "include('Axioms/EQ001-0.ax').",
     ('UnsupportedFeature', 1, 1, 'unsupported feature: include')),
    ('tptp', "  include('x').",
     ('UnsupportedFeature', 1, 3, 'unsupported feature: include')),
    ('tptp', 'fof(f, axiom, p).',
     ('UnsupportedFeature', 1, 1, 'unsupported feature: fof')),
    ('tptp', 'tff(f, axiom, p).',
     ('UnsupportedFeature', 1, 1, 'unsupported feature: tff')),
    ('tptp', 'cnf(c, axiom, (X = a)).',
     ('UnsupportedFeature', 1, 18, 'unsupported feature: equality')),
    ('tptp', 'cnf(c, axiom, (P(a) | $false)).',
     ('ParseError', 1, 23, '$false is only allowed on its own')),
    ('tptp', 'fnc(c, axiom, (P(a))).',
     ('ParseError', 1, 1, "expected 'cnf', got 'fnc'")),
    ('tptp', 'cnf c, axiom, (P(a))).',
     ('ParseError', 1, 5, "expected '(', got 'c'")),
    ('tptp', 'cnf(c axiom, (P(a))).',
     ('ParseError', 1, 7, "expected ',', got 'axiom'")),
    ('tptp', 'cnf(c, axiom (P(a))).',
     ('ParseError', 1, 14, "expected ',', got '('")),
    ('tptp', 'cnf(c, axiom, (P(a))].',
     ('ParseError', 1, 21, "expected ')', got ']'")),
    ('tptp', 'cnf(c, axiom, (P(a)))',
     ('ParseError', 1, 22, 'unexpected end of input')),
    ('tptp', 'cnf(',
     ('ParseError', 1, 5, 'unexpected end of input')),
    ('tptp', '% c\ncnf(c, axiom, (P(a))). % x\n\ncnf(d, axiom, ~Q(a, )).',
     ('ParseError', 4, 21, "expected a term, got ')'")),
    ('tptp', f"cnf(c, axiom, (P({DEEP}))).",
     ('ParseError', 1, 218, 'term nested more than 100 deep')),
    ('tptp', 'cnf(c, axiom, ($false)).',
     ['c: $false']),
    ('literal', '~~P(a)',
     'P(a)'),
    ('literal', '  P(a) | Q',
     ('ParseError', 1, 6, "trailing input '|'")),
    ('literal', '',
     ('ParseError', 1, 1, 'unexpected end of input')),
    ('literal', 'P(a',
     ('ParseError', 1, 4, 'unexpected end of input')),
    ('literal', 'P(a) = b',
     ('UnsupportedFeature', 1, 6, 'unsupported feature: equality')),
    ('clause', '$false',
     '$false'),
    ('clause', 'P(a) | ~Q(X) extra',
     ('ParseError', 1, 14, "trailing input 'extra'")),
    ('clause', 'P(a) |',
     ('ParseError', 1, 7, 'unexpected end of input')),
    ('clause', '$false | P',
     ('ParseError', 1, 8, "trailing input '|'")),
    ('subst', '{}',
     '{}'),
    ('subst', '{X -> g(a,b), Y -> b}',
     '{X -> g(a,b), Y -> b}'),
    ('subst', '{X -> a',
     ('ParseError', 1, 1, "malformed substitution '{X -> a'")),
    ('subst', 'X -> a}',
     ('ParseError', 1, 1, "malformed substitution 'X -> a}'")),
    ('subst', '{X a}',
     ('ParseError', 1, 1, "malformed binding 'X a'")),
    ('subst', '{X -> f(a,}',
     ('ParseError', 1, 5, 'unexpected end of input')),
    ('subst', '{X -> a b}',
     ('ParseError', 1, 3, "trailing input 'b'")),
    ('subst', '{X -> }',
     ('ParseError', 1, 1, 'unexpected end of input')),
    ('subst', '{X -> =}',
     ('UnsupportedFeature', 1, 1, 'unsupported feature: equality')),
    ('subst', '{X -> f(a, g(b)), Y -> h(}',
     ('ParseError', 1, 3, 'unexpected end of input')),
    # a syntax error on a later line wins over a symbol clash on an earlier one
    ('native', 'p(a)\np(a,b)\nq(',
     ('ParseError', 3, 3, 'unexpected end of input')),
    ('tptp', 'cnf(a, axiom, (p(a))).\ncnf(b, axiom, (p(a,b))).\n'
             'cnf(c, axiom, (q(a)).',
     ('ParseError', 3, 21, "expected ')', got '.'")),
    # a binding binds one name, a native ``vars:`` variable's included
    ('subst', '{x -> a}',
     '{x -> a}'),
    ('subst', '{f(Q) -> b}',
     ('ParseError', 1, 1, "malformed binding 'f(Q) -> b'")),
    ('subst', '{ -> a}',
     ('ParseError', 1, 1, "malformed binding '-> a'")),
    ('subst', '{X Y -> a}',
     ('ParseError', 1, 1, "malformed binding 'X Y -> a'")),
    ('subst', '{X -> a, X -> b}',
     ('ParseError', 1, 1, 'variable X bound twice')),
]
ENTRY_POINTS = {"native": parse_native, "tptp": parse_tptp_cnf,
                "literal": parse_literal_text, "clause": parse_clause_text,
                "subst": parse_subst_text}


@pytest.mark.parametrize("kind,text,expected", ERROR_CONTRACT)
def test_error_contract(kind, text, expected):
    try:
        result = ENTRY_POINTS[kind](text)
    except ParseError as exc:
        got = (type(exc).__name__, exc.line, exc.column, exc.message)
    else:
        if kind in ("native", "tptp"):
            got = [f"{n}: {c}" for n, c in zip(result.names, result.clauses)]
        else:
            got = str(result)
    assert got == expected


@pytest.mark.parametrize("kind,text,line,column,message", [
    # a literal's symbols clash in the order Signature.from_clauses
    # declares them: the predicate, then the arguments outermost first
    ("native", "p(f(a),g(b))\nq(f(a,b),g(a,b))", 2, 3,
     "function f used with arities 1 and 2"),
    ("native", "q(g(g))", 1, 5, "function g used with arities 1 and 0"),
    ("native", "p(p)", 1, 3, "symbol p used as both predicate and function"),
    ("native", "p(X, f(a))\nq(f)", 2, 3,
     "function f used with arities 1 and 0"),
    ("tptp", "cnf(a, axiom, (p(a))). cnf(b, axiom, (~q | p)).", 1, 44,
     "predicate p used with arities 1 and 0"),
], ids=["arguments-in-order", "nested", "predicate-as-argument",
        "after-a-variable", "tptp-second-cnf"])
def test_symbol_clash_position(kind, text, line, column, message):
    with pytest.raises(ParseError) as info:
        ENTRY_POINTS[kind](text)
    assert (type(info.value), info.value.line, info.value.column,
            info.value.message) == (ParseError, line, column, message)


@pytest.mark.parametrize("parse,clash", [
    (parse_native, "p(f(a))\nq(f(a,b))"),
    (parse_tptp_cnf, "cnf(a, axiom, p(f(a))).\ncnf(b, axiom, q(f(a,b)))."),
], ids=["native", "tptp"])
def test_parsers_declare_symbols_themselves(monkeypatch, parse, clash):
    # the parse notes each symbol as it reads it and walks no clause again
    def walk(*args, **kwargs):
        raise AssertionError("Signature.from_clauses called")

    monkeypatch.setattr(terms.Signature, "from_clauses", walk)
    first = clash.splitlines()[0]
    assert parse(first).clauses == [cl("p(f(a))")]
    with pytest.raises(ParseError) as info:
        parse(clash)
    assert (info.value.line, info.value.message) == \
        (2, "function f used with arities 1 and 2")


def _fuzzed_line(rng: random.Random, most: int = 3) -> str:
    """A clause of up to ``most`` literals, mostly well formed, sometimes
    with a slip."""
    def term(depth):
        if depth > 2 or rng.random() < 0.5:
            return rng.choice(["X", "Y", "x", "a", "b"])
        # mostly one arity per symbol; the rest clash
        name, arity = rng.choice([("f", 1), ("g", 2)])
        if rng.random() < 0.05:
            name, arity = rng.choice(["a", "P", "f"]), rng.choice([1, 2])
        return f"{name}({','.join(term(depth + 1) for _ in range(arity))})"

    lits = []
    for _ in range(rng.randint(1, most)):
        pred, arity = rng.choice([("P", 1), ("Q", 2), ("R", 0)])
        if rng.random() < 0.05:
            pred, arity = rng.choice(["P", "a", "f"]), rng.choice([0, 1])
        args = [term(1) for _ in range(arity)]
        atom = f"{pred}({','.join(args)})" if args else pred
        lits.append("~" * rng.choice([0, 0, 1, 2]) + atom)
    line = rng.choice(["", " "]) + " | ".join(lits)
    if rng.random() < 0.05:
        line = "$false"
    for _ in range(rng.choice([0, 0, 0, 0, 0, 1, 2])):
        pos = rng.randint(0, len(line))
        slip = rng.choice(["(", ")", ",", "|", "~", "$false", "=", "!=", "1",
                           " ", "@", "", "f(" * 101 + "a" + ")" * 101])
        line = line[:pos] + slip + line[pos + rng.choice([0, 1]):]
    return line


def _fuzzed_text(rng: random.Random, kind: str) -> str:
    if kind == "subst":
        return "{" + ", ".join(f"{rng.choice(['X', 'Y'])} -> "
                               f"{_fuzzed_line(rng, 1).lstrip('~')}"
                               for _ in range(rng.randint(0, 2))) + "}"
    if kind in ("literal", "clause"):
        return _fuzzed_line(rng, 1 if kind == "literal" else 3)
    lines = [_fuzzed_line(rng) for _ in range(rng.randint(1, 4))]
    if kind == "tptp":
        lines = [f"cnf(c{n}, axiom, ({line}))." if rng.random() < 0.8
                 else f"cnf(c{n}, axiom, {line})."
                 for n, line in enumerate(lines)]
    elif rng.random() < 0.2:
        lines.insert(0, "vars: x")
    return "\n".join(lines)


@pytest.mark.parametrize("kind", list(ENTRY_POINTS))
def test_fuzzed_inputs(kind):
    """An accepted text prints back to one that parses to the same objects;
    a rejected one raises a ParseError within its offending line, the
    first line whose prefix of the text raises that same error."""
    parse = ENTRY_POINTS[kind]
    rng = random.Random(2021)
    for _ in range(600):
        text = _fuzzed_text(rng, kind)
        lines = text.splitlines()
        try:
            result = parse(text)
        except ParseError as exc:
            error = (type(exc), exc.line, exc.column, exc.message)
            assert 1 <= exc.line <= max(len(lines), 1)
            line = lines[exc.line - 1] if lines else ""
            assert 1 <= exc.column <= len(line) + 1, (text, error)
            if kind in ("native", "tptp"):
                for n, expected in ((exc.line, error), (exc.line - 1, None)):
                    try:
                        parse("\n".join(lines[:n]))
                    except ParseError as prefix:
                        got = (type(prefix), prefix.line, prefix.column,
                               prefix.message)
                    else:
                        got = None
                    assert (got == error) == (expected is not None), text
            continue
        if kind == "native":
            header = "vars: x\n" if text.startswith("vars:") else ""
            again = parse(header + problem_to_native(result))
            assert again.clauses == result.clauses, text
        elif kind == "tptp":
            again = parse(problem_to_tptp(result))
            assert (again.clauses, again.names) == \
                (result.clauses, result.names), text
        else:
            assert parse(str(result)) == result, text


class TestCli:
    E1 = os.path.join(DATA, "bounded_unsat.p")
    GROW = os.path.join(DATA, "growing.p")
    S1 = os.path.join(DATA, "unit_blowup.native")

    def test_unsat_exit_code(self, capsys):
        code = main(["--input", self.E1, "--beta", "R(b)", "--ordering",
                     "lpo", "--precedence", "a<b<P<Q<R"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "UNSATISFIABLE"

    def test_python_dash_m_runs_the_cli(self):
        root = os.path.join(os.path.dirname(__file__), "..")
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        done = subprocess.run([sys.executable, "-m", "sclfol", "--input",
                               self.E1], env=env, capture_output=True,
                              text=True, cwd=root)
        assert (done.returncode, done.stdout) == (0, "UNSATISFIABLE\n")

    def test_sat_bounded_exit_code(self, capsys):
        code = main(["--input", self.GROW, "--beta", "P(g(g(a)))",
                     "--precedence", "a<g<P", "--grow", "off"])
        assert code == 1
        assert capsys.readouterr().out.strip() == "SATISFIABLE-BOUNDED"

    def test_grow_refutes_with_stats(self, capsys):
        code = main(["--input", self.GROW, "--beta", "P(g(g(a)))",
                     "--precedence", "a<g<P", "--grow", "1", "--stats"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "UNSATISFIABLE"
        assert "growths=1" in out

    def test_resource_out(self, capsys):
        code = main(["--input", self.E1, "--beta", "R(b)", "--ordering",
                     "lpo", "--precedence", "a<b<P<Q<R", "--max-steps", "2"])
        assert code == 2
        assert capsys.readouterr().out.strip() == "UNKNOWN(resource)"

    @pytest.mark.parametrize("cap,code", [(2, 2), (1, 64)])
    def test_enumeration_cap_exit_code(self, monkeypatch, capsys, cap, code):
        # the initial bound holds 2 atoms and the grown one 3: a cap reached
        # by the Grow is a resource limit, one reached by the initial bound
        # a configuration error
        cap_bounds(monkeypatch, cap)
        assert main(["--input", self.GROW, "--beta", "P(g(g(a)))",
                     "--precedence", "a<g<P", "--grow", "1"]) == code
        out, err = capsys.readouterr()
        if code == 2:
            assert out.strip() == "UNKNOWN(resource)"
        else:
            assert "enumeration exceeded cap of 1" in err

    def test_usage_error(self, capsys):
        assert main(["--beta", "R(b)"]) == 64

    def test_parse_error_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.p"
        bad.write_text("cnf(c, axiom, (X = a)).")
        assert main(["--input", str(bad)]) == 65

    CLASHES = [  # second line, column of the clash on it, message
        ("p(a)", "p(a,b)", 1, "predicate p used with arities 1 and 2"),
        ("p(f(a))", "q(f(a,b))", 3, "function f used with arities 1 and 2"),
        ("p(a)", "q(p)", 3, "symbol p used as both predicate and function"),
    ]

    @pytest.mark.parametrize("fmt", ["native", "tptp"])
    @pytest.mark.parametrize("first,second,column,message", CLASHES,
                             ids=["predicate", "function", "both"])
    def test_symbol_clash_is_a_parse_error(self, tmp_path, capsys, fmt,
                                           first, second, column, message):
        lines = [first, second]
        if fmt == "tptp":
            lines = [f"cnf(c{n}, axiom, ({line}))." for n, line in
                     enumerate(lines)]
            column += len("cnf(c1, axiom, (")
        problem = tmp_path / "clash.p"
        problem.write_text("\n".join(lines) + "\n")
        assert main(["--input", str(problem), "--format", fmt]) == 65
        assert capsys.readouterr().err == \
            f"parse error: line 2, column {column}: {message}\n"

    def test_symbol_clash_with_the_bound_is_a_configuration_error(
            self, tmp_path, capsys):
        problem = tmp_path / "p.native"
        problem.write_text("p(a) | ~p(b)\n")
        assert main(["--input", str(problem), "--format", "native",
                     "--beta", "p(a,b)"]) == 64
        assert "configuration error: predicate p used with arities 1 and 2" \
            in capsys.readouterr().err

    def test_native_format_flag(self, capsys):
        code = main(["--input", self.S1, "--format", "native",
                     "--heuristic", "avoid:R"])
        assert code == 0

    def test_proof_model_trace_files(self, tmp_path, capsys):
        proof = tmp_path / "out.proof"
        trace = tmp_path / "out.trace"
        code = main(["--input", self.E1, "--beta", "R(b)", "--ordering",
                     "lpo", "--precedence", "a<b<P<Q<R",
                     "--proof", str(proof), "--trace", str(trace)])
        assert code == 0
        assert proof.read_text().startswith("learned u1:")
        assert "refutation: clause" in proof.read_text()
        assert trace.read_text().count("\t") > 0

        check = main(["check-proof", "--input", self.E1,
                      "--proof", str(proof)])
        assert check == 0
        assert capsys.readouterr().out.splitlines()[-1] == "PROOF OK"

    def test_model_file_and_check(self, tmp_path, capsys):
        model = tmp_path / "out.model"
        code = main(["--input", self.GROW, "--beta", "P(g(g(a)))",
                     "--precedence", "a<g<P", "--model", str(model)])
        assert code == 1
        text = model.read_text()
        assert text.startswith("# beta: P(g(g(a)))")
        check = main(["check-model", "--input", self.GROW,
                      "--model", str(model)])
        assert check == 0
        assert capsys.readouterr().out.splitlines()[-1] == "MODEL OK"

    def test_check_model_detects_falsification(self, tmp_path, capsys):
        model = tmp_path / "bad.model"
        model.write_text("# beta: P(g(g(a)))\n# ordering: kbo\n"
                         "# precedence: a<g<P\n~P(a)\n")
        check = main(["check-model", "--input", self.GROW,
                      "--model", str(model)])
        assert check == 1
        assert "MODEL FALSIFIES" in capsys.readouterr().out

    def test_check_model_rejects_an_inconsistent_model(self, tmp_path,
                                                       capsys):
        # P(a) and ~P(a) together make every clause over P(a) true, so the
        # instance check alone would accept them for an unsatisfiable input
        problem = tmp_path / "pa.native"
        problem.write_text("P(a)\n~P(a)\n")
        model = tmp_path / "pa.model"
        model.write_text("# beta: betaTop(a,a,a)\n# ordering: kbo\n"
                         "# precedence: a<P<betaTop\nP(a)\n~P(a)\n")
        check = main(["check-model", "--input", str(problem), "--format",
                      "native", "--model", str(model)])
        assert check == 1
        assert capsys.readouterr().out.splitlines()[-1] == \
            "MODEL INCONSISTENT: P(a) and ~P(a)"

    def test_check_model_answers_past_the_instance_cap(self, tmp_path,
                                                      capsys, monkeypatch):
        # P(X) | Q(Y) has 9 bounded instances below R(a) and a cap of 6
        # refuses enumerating them (exit 64), but the cap counts the
        # groundings the check searches: the model makes each P atom true,
        # so every grounding is dropped at its first literal
        monkeypatch.setattr(cli, "Bound", lambda *args: Bound(*args, cap=6))
        problem = tmp_path / "pq.native"
        problem.write_text("P(X) | Q(Y)\n")
        model = tmp_path / "pq.model"
        model.write_text("# beta: R(a)\n# ordering: kbo\n"
                         "# precedence: a<b<c<P<Q<R\nP(a)\nP(b)\nP(c)\n")
        check = main(["check-model", "--input", str(problem), "--format",
                      "native", "--model", str(model)])
        assert check == 0
        assert capsys.readouterr().out.splitlines()[-1] == "MODEL OK"

    def test_check_proof_detects_tampering(self, tmp_path, capsys):
        proof = tmp_path / "out.proof"
        main(["--input", self.E1, "--beta", "R(b)", "--ordering", "lpo",
              "--precedence", "a<b<P<Q<R", "--proof", str(proof)])
        tampered = proof.read_text().replace("{X -> a}", "{X -> b}")
        proof.write_text(tampered)
        capsys.readouterr()
        check = main(["check-proof", "--input", self.E1,
                      "--proof", str(proof)])
        assert check == 1
        assert "PROOF MISMATCH" in capsys.readouterr().out

    @pytest.mark.parametrize("line,replacement,at,message", [
        (3, ["resolve c2 x {X -> a} on 0"], 3, "index 'x' is not an integer"),
        (3, ["resolve c2 0 {X -> a} on y"], 3, "index 'y' is not an integer"),
        (3, ["resolve c2 0 on 1"], 3, "resolve line needs a clause"),
        (4, ["factorize 0"], 4, "factorize line needs two indices"),
        (4, ["factorize 0 j"], 4, "index 'j' is not an integer"),
        (13, ["learned u3:", "conflict c9 {}"], 14,
         "section u3 has no clause line"),
        (2, ["conflict c4 {X -> a, f(Q) -> b, X -> a}"], 2,
         "malformed binding 'f(Q) -> b'"),
        (2, ["conflict c4 {X -> a, X -> a}"], 2, "variable X bound twice"),
    ])
    def test_check_proof_rejects_malformed_lines(self, tmp_path, capsys, line,
                                                 replacement, at, message):
        # line 13 is past the end: a section left open at the end of the
        # file, after a proof that checks
        proof = tmp_path / "out.proof"
        main(["--input", self.E1, "--beta", "R(b)", "--ordering", "lpo",
              "--precedence", "a<b<P<Q<R", "--proof", str(proof)])
        lines = proof.read_text().splitlines()
        assert len(lines) == 12 and lines[2].startswith("resolve ") \
            and lines[3].startswith("factorize ")
        lines[line - 1:line] = replacement
        proof.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["check-proof", "--input", self.E1,
                     "--proof", str(proof)]) == 65
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: line {at}, ")
        assert message in err

    @pytest.mark.parametrize("flag,value", [
        ("--grow", "-1"), ("--grow", "abc"), ("--grow", "1.5"),
        ("--max-steps", "-5"), ("--max-steps", "x"),
    ])
    def test_out_of_range_limits_are_usage_errors(self, capsys, flag, value):
        assert main(["--input", self.E1, "--beta", "R(b)", "--ordering",
                     "lpo", "--precedence", "a<b<P<Q<R", flag, value]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"usage error: argument {flag}: {value!r} "
                                f"is not a non-negative integer\n")

    @pytest.mark.parametrize("value", ["-3", "0", "x", "2.5"])
    def test_beta_weight_below_one_is_a_usage_error(self, tmp_path, capsys,
                                                    value):
        # a bound weighs at least one symbol: a lighter one is refused
        # before the run, like a negative --grow
        problem = tmp_path / "p.native"
        problem.write_text("p\n~p\n")
        assert main(["--input", str(problem), "--format", "native",
                     "--beta-weight", value]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"usage error: argument --beta-weight: "
                                f"{value!r} is not a positive integer\n")
        assert main(["--input", str(problem), "--format", "native",
                     "--beta-weight", "1"]) == 0

    def test_byte_identical_outputs(self, tmp_path, capsys):
        outs = []
        for i in (1, 2):
            proof = tmp_path / f"p{i}.proof"
            trace = tmp_path / f"t{i}.trace"
            main(["--input", self.E1, "--beta", "R(b)", "--ordering", "lpo",
                  "--precedence", "a<b<P<Q<R", "--proof", str(proof),
                  "--trace", str(trace)])
            outs.append((proof.read_bytes(), trace.read_bytes()))
        assert outs[0] == outs[1]

    def test_invariant_violation_exit_code(self, capsys, monkeypatch):
        import sclfol.cli as cli_mod

        def boom(*args, **kwargs):
            from sclfol.strategy import InvariantViolation
            raise InvariantViolation("forced")

        monkeypatch.setattr(cli_mod, "run", boom)
        assert main(["--input", self.E1, "--beta", "R(b)", "--ordering",
                     "lpo", "--precedence", "a<b<P<Q<R"]) == 70

    def test_a_value_error_in_a_run_is_an_internal_error(self, capsys,
                                                         monkeypatch):
        # only a bound that cannot be set up is a configuration error; any
        # other ValueError raised during a run is a crash
        def clash(state):
            raise ValueError("conflicting bindings for X")

        monkeypatch.setattr(strategy, "apply_resolve", clash)
        assert main(["--input", self.E1, "--beta", "R(b)", "--ordering",
                     "lpo", "--precedence", "a<b<P<Q<R"]) == 70
        assert capsys.readouterr().err == \
            "internal error: ValueError: conflicting bindings for X\n"

    def test_a_synthesized_bound_needs_kbo(self, capsys):
        assert main(["--input", self.E1, "--ordering", "lpo",
                     "--beta-weight", "3"]) == 64
        assert capsys.readouterr().err == (
            "configuration error: a weight-synthesized bound needs the kbo "
            "ordering; pass an explicit beta literal\n")

    def test_grow_stops_at_the_term_depth_limit(self, tmp_path, capsys):
        # each Grow nests the argument of P one level deeper; a Grow past
        # the parse limit counts as a spent budget, and the model of the
        # last bound, beta included, parses and checks again
        problem = tmp_path / "deep.native"
        problem.write_text("P(a)\n~P(X) | P(f(X))\n")
        model = tmp_path / "deep.model"
        code = main(["--input", str(problem), "--format", "native",
                     "--beta", "P(a)", "--grow", "400", "--stats",
                     "--model", str(model)])
        out = capsys.readouterr().out.splitlines()
        assert code == 1
        assert out[0] == "SATISFIABLE-BOUNDED"
        assert f"growths={MAX_TERM_DEPTH - 1}" in out
        assert main(["check-model", "--input", str(problem), "--format",
                     "native", "--model", str(model)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "MODEL OK"

    def test_initial_bound_past_the_term_depth_limit(self, tmp_path, capsys):
        # weight 100 admits P(f(..f(a)..)) just within the parse limit, so
        # its model checks again; a heavier synthesized bound is refused
        # before the run, as the parser refuses a deeper term
        problem = tmp_path / "deep.native"
        problem.write_text("P(a)\n~P(X) | P(f(X))\n")
        model = tmp_path / "deep.model"
        assert main(["--input", str(problem), "--format", "native",
                     "--beta-weight", "100", "--model", str(model)]) == 1
        assert main(["check-model", "--input", str(problem), "--format",
                     "native", "--model", str(model)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "MODEL OK"
        for weight in ("101", "300"):
            assert main(["--input", str(problem), "--format", "native",
                         "--beta-weight", weight]) == 64
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("configuration error: ")
            assert "Traceback" not in captured.err
            assert f"nested more than {MAX_TERM_DEPTH} deep" in captured.err

    @pytest.mark.parametrize("text, flags", [
        ("P(a) | Q(b)\n~P(a)\n", ["--beta-weight", "500"]),
        ("P(a,b) | Q(b)\n~P(a,b)\n", ["--beta", f"R({'a,' * 1200}b)"])],
        ids=["synthesized", "explicit"])
    def test_wide_bounds_set_up(self, tmp_path, capsys, text, flags):
        # a bound of hundreds of arguments: nothing in bound setup recurses
        # once per argument position, and the model checks again
        problem = tmp_path / "wide.native"
        problem.write_text(text)
        model = tmp_path / "wide.model"
        assert main(["--input", str(problem), "--format", "native", *flags,
                     "--model", str(model)]) == 1
        assert main(["check-model", "--input", str(problem), "--format",
                     "native", "--model", str(model)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "MODEL OK"

    def test_grow_past_a_wide_bound_finds_no_heavier_atom(self, tmp_path,
                                                          capsys):
        # over constants alone R's atoms all weigh what beta weighs, so a
        # Grow finds the signature exhausted and the run ends satisfiable
        # within the bound it has
        problem = tmp_path / "wide.native"
        problem.write_text("P(a,b) | Q(b)\n~P(a,b)\n")
        assert main(["--input", str(problem), "--format", "native",
                     "--beta", f"R({'a,' * 1200}b)", "--grow", "2",
                     "--stats"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "SATISFIABLE-BOUNDED"
        assert "growths=0" in out

    @pytest.mark.parametrize("command,flag", [
        ([], "--input"), (["check-proof"], "--proof"),
        (["check-model"], "--model")])
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_file_is_a_usage_error(self, tmp_path, capsys,
                                              command, flag, kind):
        path = tmp_path / "absent" if kind == "missing" else tmp_path
        argv = command + [flag, str(path)]
        if command:
            argv += ["--input", self.GROW]
        assert main(argv) == 64
        captured = capsys.readouterr()
        reason = "No such file or directory" if kind == "missing" \
            else "Is a directory"
        assert captured.err == f"cannot open {path}: {reason}\n"

    @pytest.mark.parametrize("command,flag", [
        ([], "--input"), (["check-proof"], "--proof"),
        (["check-model"], "--model")])
    def test_undecodable_file_is_a_parse_error(self, tmp_path, capsys,
                                               command, flag):
        binary = tmp_path / "binary"
        binary.write_bytes(b"P(a)\n\xff\xfe\x00\x80\n")
        argv = command + [flag, str(binary)]
        if command:
            argv += ["--input", self.GROW]
        assert main(argv) == 65
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: {binary}: ")
        assert "can't decode" in err

    @pytest.mark.parametrize("flag", ["--proof", "--model", "--trace"])
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unwritable_output_names_its_path(self, tmp_path, capsys, flag,
                                              kind):
        # a directory that does not exist, or an output path that is one
        target = tmp_path / "absent" / "out" if kind == "missing" \
            else tmp_path / "taken"
        if kind == "directory":
            target.mkdir()
        beta = "R(b)" if flag == "--proof" else "P(g(g(a)))"
        problem = self.E1 if flag == "--proof" else self.GROW
        argv = ["--input", problem, "--beta", beta, flag, str(target)]
        if flag == "--proof":
            argv += ["--ordering", "lpo", "--precedence", "a<b<P<Q<R"]
        assert main(argv) == 64
        err = capsys.readouterr().err
        assert err.startswith(f"cannot open {target}: ")
        assert ".sclfol-" not in err
        # no temporary file is left behind
        assert [p.name for p in tmp_path.rglob("*")] == (
            [] if kind == "missing" else ["taken"])

    def test_crash_never_exits_with_verdict_code(self, tmp_path, capsys):
        deep = tmp_path / "deep.native"
        deep.write_text("P(" + "f(" * 1200 + "a" + ")" * 1200 + ")\n")
        assert main(["--input", str(deep), "--format", "native"]) == 65


def test_readme_lists_every_flag():
    with open(os.path.join(os.path.dirname(__file__), "..",
                           "README.md")) as handle:
        readme = handle.read()
    paragraph = readme.split("\nFlags:", 1)[1].split("\n\n", 1)[0]
    documented = set(re.findall(r"--[a-z][a-z-]*", paragraph))
    options = {opt for action in build_parser()._actions
               for opt in action.option_strings
               if opt.startswith("--") and opt != "--help"}
    assert documented == options


class TestCliModes:
    S1 = os.path.join(DATA, "unit_blowup.native")
    E1 = os.path.join(DATA, "bounded_unsat.p")

    def test_exhaustive_mode_flag(self, capsys):
        code = main(["--input", self.S1, "--format", "native", "--stats"])
        out = capsys.readouterr().out
        assert code == 0
        assert "propagations_R=8" in out
        # the default scheduling propagates first; there is no --mode flag
        assert main(["--input", self.S1, "--format", "native",
                     "--mode", "exhaustive"]) == 64

    def test_random_heuristic_with_seed(self, capsys):
        code = main(["--input", self.E1, "--beta", "R(b)", "--ordering",
                     "lpo", "--precedence", "a<b<P<Q<R",
                     "--heuristic", "random", "--seed", "7"])
        assert code == 0

    def test_full_check_flag(self, capsys):
        code = main(["--input", self.E1, "--beta", "R(b)", "--ordering",
                     "lpo", "--precedence", "a<b<P<Q<R", "--check", "full"])
        assert code == 0

    WIDE = "P(X,Y) | ~C(X)\n" + "".join(f"C({c})\n" for c in "abcdefghijkl")

    def test_full_check_certifies_past_the_atom_cap(self, tmp_path, capsys):
        # 156 ground atoms: too many to decide by DPLL, yet each propagation
        # comes from a pool clause, which the pool entails without a check
        problem = tmp_path / "wide.native"
        problem.write_text(self.WIDE)
        model = tmp_path / "wide.model"
        code = main(["--input", str(problem), "--format", "native",
                     "--check", "full", "--model", str(model)])
        assert code == 1
        assert main(["check-model", "--input", str(problem), "--format",
                     "native", "--model", str(model)]) == 0
        capsys.readouterr()
        # the conflict is an instance of an input clause: certified by its
        # step, it needs no bounded check (tests/test_state.py pins the
        # cap overflow of a state that no run recorded)
        problem.write_text(self.WIDE + "~P(a,b)\n")
        proof = tmp_path / "wide.proof"
        code = main(["--input", str(problem), "--format", "native",
                     "--check", "full", "--proof", str(proof)])
        assert code == 0
        assert main(["check-proof", "--input", str(problem), "--format",
                     "native", "--proof", str(proof)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "PROOF OK"

    # ROADMAP item 1's reproduction (the grow-fn stream at seed 7, problem
    # 15): the learned clause ~P2(f(X)) | ~P2(a) | P1(X) is sound, but its
    # instance at X -> f(f(f(a))) is derived through an atom above beta,
    # so the bounded groundings do not entail it
    VIOL = ("~P1(f(a)) | P0(a,f(f(Y))) | ~P2(f(f(Y)))\n"
            "P0(f(f(a)),a) | ~P0(f(f(Y)),f(a))\n"
            "~P2(f(Y)) | P0(X,f(f(Y))) | P1(Y)\n"
            "~P1(f(X)) | ~P2(X) | ~P2(a)\n"
            "P2(f(a)) | P1(f(f(Y))) | P1(Y)\n"
            "~P0(f(a),f(f(X))) | P1(f(f(X)))\n")

    def test_full_check_accepts_a_learned_clause_beyond_the_bound(
            self, tmp_path, capsys):
        problem = tmp_path / "viol.native"
        problem.write_text(self.VIOL)
        model = tmp_path / "viol.model"
        code = main(["--input", str(problem), "--format", "native",
                     "--beta", "P0(a,a)", "--grow", "4", "--check", "full",
                     "--model", str(model)])
        assert "condition" not in capsys.readouterr().err
        assert code == 1
        assert main(["check-model", "--input", str(problem), "--format",
                     "native", "--model", str(model)]) == 0

    def test_bad_heuristic_usage_error(self, capsys):
        assert main(["--input", self.E1, "--heuristic", "maximal"]) == 64

    def test_beta_weight_flag(self, capsys):
        code = main(["--input", self.E1, "--beta-weight", "6"])
        assert code == 0
