"""Checks on the library source itself."""

import ast
from pathlib import Path

import vcgame

SOURCES = sorted(Path(vcgame.__file__).parent.glob("*.py"))


def float_uses(tree: ast.AST):
    """(line, what) for every float literal, true division and float name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"float literal {node.value!r}"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno, "true division"
        elif isinstance(node, ast.Name) and node.id == "float":
            yield node.lineno, "the name float"


def test_library_source_has_no_floats():
    # all arithmetic is exact: integers and Fractions, never floats
    assert len(SOURCES) >= 8
    found = [f"{path.name}:{line}: {what}" for path in SOURCES
             for line, what in float_uses(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


def test_float_scan_sees_each_form():
    text = "a = 0.5\nb = c / d\ne /= 2\nf = float(g)\nh = 1j\nk = m // n\n"
    assert sorted(line for line, _ in float_uses(ast.parse(text))) == [1, 2, 3, 4, 5]


def test_library_source_parses_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10
    for path in SOURCES:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
