"""Source checks that need no run of the prover: the package parses at the
oldest Python it declares, no module imports what it never reads, and no
module imports another's private names."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "sclfol"
MODULES = sorted(PACKAGE.glob("*.py"))
OLDEST_PYTHON = (3, 10)  # ``requires-python`` in pyproject.toml


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_parses_at_the_oldest_python(path):
    ast.parse(path.read_text(), filename=str(path),
              feature_version=OLDEST_PYTHON)


def _read_names(tree: ast.AST) -> set[str]:
    """The names ``tree`` reads, those in string annotations included."""
    names = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.FunctionDef):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _read_names(ast.parse(node.value, mode="eval"))
    return names


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"],
    ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0]
                         for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    assert imported - _read_names(tree) == set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_imported(path):
    # a module of the package reads another's private names only through
    # a public one
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [f"{node.module}.{a.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level > 0
               for a in node.names if a.name.startswith("_")]
    assert private == []
