"""The library computes exactly: no float literal and no use of `float` in src/vertexalg."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "vertexalg"


def _float_uses(tree):
    """(line, text) for every float or complex literal and every name `float`."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            out.append((node.lineno, repr(node.value)))
        elif isinstance(node, ast.Name) and node.id == "float":
            out.append((node.lineno, "float"))
    return sorted(out)


def test_checker_sees_floats():
    tree = ast.parse("x = 1.5\ny = float(x)\nz: float = 2\nw = 1e3 + 2j\nv = 3 / 4\n")
    assert _float_uses(tree) == [(1, "1.5"), (2, "float"), (3, "float"), (4, "1000.0"), (4, "2j")]


def test_library_has_no_floats():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = {p.name: _float_uses(ast.parse(p.read_text(), str(p))) for p in files}
    assert not {name: uses for name, uses in found.items() if uses}
