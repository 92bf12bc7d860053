import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hexgauge"


def test_no_assert_statements():
    # correctness checks must raise; `python -O` strips assert statements
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in src/hexgauge: {found}"
