"""Release invariants are checked by raising, never by ``assert``.

``python -O`` strips assert statements, so an invariant written as one would
silently stop holding in optimized runs.
"""

import ast
from pathlib import Path

import panelsynth

SRC = Path(panelsynth.__file__).resolve().parent


def test_no_assert_statement_in_src():
    paths = sorted(SRC.glob("*.py"))
    assert "window.py" in [path.name for path in paths]
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
