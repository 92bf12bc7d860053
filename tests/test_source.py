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


def test_solvers_only_in_observables():
    # one solver layer: eigen-solves and exp(-iHt) are taken in observables
    solvers = {"eigh", "eigvalsh", "eigsh", "expm_multiply"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "observables.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if name in solvers:
                found.append(f"{path.name}:{node.lineno} {name}")
    assert not found, f"solver calls outside observables.py: {found}"
