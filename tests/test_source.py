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


def test_one_flip_kernel():
    # every flip operator (H, the Wilson loops, the sector blocks) takes its
    # (-1/2)^c from hamiltonian.flip_action
    calls, inside = [], 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and path.name == "hamiltonian.py" and node.name == "flip_action":
                inside += sum(_calls(n, "flip_exponent") for n in ast.walk(node))
            if _calls(node, "flip_exponent"):
                calls.append(f"{path.name}:{node.lineno}")
    assert inside >= 1 and len(calls) == inside, f"flip_exponent called outside flip_action: {calls}"


def _calls(node, name: str) -> bool:
    func = getattr(node, "func", None) if isinstance(node, ast.Call) else None
    return (getattr(func, "id", None) or getattr(func, "attr", None)) == name
