"""Static checks on the package source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "oneplusa"


def test_no_assert_statements():
    # python -O strips assert statements, so every check in the package
    # raises an error instead (VerificationFailed with a witness for a
    # mathematical claim)
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
    assert len(list(SRC.glob("*.py"))) >= 10
