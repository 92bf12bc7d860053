import ast
import json
import os
import subprocess
import sys
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
    solvers = {"eigh", "eigvalsh", "eigsh", "eigh_tridiagonal", "expm_multiply", "jv"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "observables.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if name in solvers:
                found.append(f"{path.name}:{node.lineno} {name}")
    assert not found, f"solver calls outside observables.py: {found}"


def test_dense_solves_only_in_solve_blocks():
    # one dense-solve path: every eigh and eigvalsh is taken block by block
    # in observables._solve_blocks, blocked operator or not
    solvers, found, inside = {"eigh", "eigvalsh"}, [], 0
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef) and path.name == "observables.py" and node.name == "_solve_blocks":
                inside += sum(getattr(n, "attr", None) in solvers for n in ast.walk(node))
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if name in solvers:
                found.append(f"{path.name}:{node.lineno} {name}")
    assert inside == 2 and len(found) == inside, f"dense solves outside observables._solve_blocks: {found}"


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


def test_one_budget_check():
    # DENSE_MAX_BYTES is read only by observables.require_budget, the one
    # comparison against it and the one message; apart from that, it is only assigned
    reads, inside = [], 0
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef) and path.name == "observables.py" and node.name == "require_budget":
                inside += sum(_reads_budget(n) for n in ast.walk(node))
            if _reads_budget(node):
                reads.append(f"{path.name}:{node.lineno}")
    assert inside >= 1 and len(reads) == inside, f"DENSE_MAX_BYTES read outside observables.require_budget: {reads}"


def test_one_sparse_constructor():
    # every sparse matrix built from raw arrays (H, the Wilson operators, the
    # KS Hamiltonian, the sector blocks and the inversion basis) is wrapped
    # by SparseOperator.rows_csr
    constructors = [f"{fmt}_{kind}" for fmt in ("coo", "csr", "csc") for kind in ("matrix", "array")]
    calls, inside = [], 0
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef) and path.name == "hamiltonian.py" and node.name == "rows_csr":
                inside += sum(_calls(n, name) for n in ast.walk(node) for name in constructors)
            calls += [f"{path.name}:{node.lineno} {name}" for name in constructors if _calls(node, name)]
    assert inside >= 1 and len(calls) == inside, f"sparse constructors outside SparseOperator.rows_csr: {calls}"


def test_one_phase_table():
    # every momentum phase is read from spinbasis.root_table: cmath.exp is
    # called nowhere else
    calls, inside = [], 0
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef) and path.name == "spinbasis.py" and node.name == "root_table":
                inside += sum(_calls_exp(n) for n in ast.walk(node))
            if _calls_exp(node):
                calls.append(f"{path.name}:{node.lineno}")
    assert inside >= 1 and len(calls) == inside, f"cmath.exp called outside spinbasis.root_table: {calls}"


def test_oracle_is_independent():
    # the gauge oracle certifies the spin model, so it is not built from it:
    # at module level it takes only lattice from hexgauge, and inside its
    # functions only the operator type and the spin Hamiltonian under test
    tree = ast.parse((SRC / "oracle.py").read_text())
    module_level = {id(node) for node in tree.body}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [f"{node.lineno} {a.name}" for a in node.names if a.name.split(".")[0] == "hexgauge"]
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0:
            if module.split(".")[0] != "hexgauge":
                continue
            module = module.removeprefix("hexgauge").lstrip(".")
        names = {a.name for a in node.names}
        if module == "lattice":
            continue
        if (module == "hamiltonian" and id(node) not in module_level
                and names <= {"SparseOperator", "build_hamiltonian"}):
            continue
        found.append(f"{node.lineno} from {module or '.'} import {sorted(names)}")
    assert not found, f"oracle.py imports beyond lattice and the spin Hamiltonian: {found}"


def test_one_output_path():
    # commands return the paths they wrote; main alone loads the config and
    # writes the manifest over those paths
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(fn, ast.FunctionDef):
                callers |= {(path.name, fn.name, name) for node in ast.walk(fn)
                            for name in ("_load_config", "_write_manifest") if _calls(node, name)}
    assert callers == {("cli.py", "main", "_load_config"), ("cli.py", "main", "_write_manifest")}, callers


def test_gate_kernel_in_place():
    # the statevector simulator writes each gate into a view of the block:
    # no index array, no mask and no whole-vector gather
    tree = ast.parse((SRC / "circuit.py").read_text())
    kernel = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "apply_circuit")
    found = [f"{node.lineno} {name}" for node in ast.walk(kernel)
             for name in ("arange", "where", "take") if _calls(node, name)]
    found += [f"{node.lineno} fancy index" for node in ast.walk(kernel)
              if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Name)]
    assert not found, f"apply_circuit builds index arrays: {found}"


def _calls(node, name: str) -> bool:
    func = getattr(node, "func", None) if isinstance(node, ast.Call) else None
    return (getattr(func, "id", None) or getattr(func, "attr", None)) == name


def _reads_budget(node) -> bool:
    # a load of the name, or of the attribute through a module
    name = getattr(node, "id", None) or getattr(node, "attr", None)
    return name == "DENSE_MAX_BYTES" and isinstance(getattr(node, "ctx", None), ast.Load)


def _calls_exp(node) -> bool:
    func = getattr(node, "func", None) if isinstance(node, ast.Call) else None
    return isinstance(func, ast.Attribute) and func.attr == "exp" and getattr(func.value, "id", None) == "cmath"


def test_one_nondegenerate_lattice_check():
    # the periodic nx, ny >= 2 condition has one definition and one message
    found = [path.name for path in sorted(SRC.glob("*.py"))
             for line in path.read_text().splitlines() if "nx >= 2 and ny >= 2" in line]
    assert found == ["lattice.py"], found


def test_nondegenerate_check_where_it_guards():
    # lattice.resolve refuses a degenerate torus for every reader of a wrapped
    # neighbor; the builder refuses it before allocating, and build_sector and
    # cmd_basis, which read no neighbor, refuse it up front
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(fn, ast.FunctionDef):
                callers |= {(path.name, fn.name) for node in ast.walk(fn) if _calls(node, "require_nondegenerate")}
    assert callers == {("lattice.py", "resolve"), ("hamiltonian.py", "_require_periodic"),
                       ("spinbasis.py", "build_sector"), ("cli.py", "cmd_basis")}, callers


def test_import_loads_no_unused_scipy_module():
    # eigh_tridiagonal, the MatrixMarket writer and jv are imported where they are used
    code = ("import sys, hexgauge; "
            "print(sorted({'scipy.linalg', 'scipy.sparse.linalg', 'scipy.io', 'scipy.special'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC.parent)},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]", out


def test_light_commands_load_no_scipy(tmp_path):
    # scipy.sparse is imported at the first sparse matrix, not with hexgauge:
    # importing the package and its CLI, then running commands that build no
    # sparse matrix (basis, sectors, a refusal before the build), loads no scipy module
    code = f"""if True:
        import json, sys
        import hexgauge, hexgauge.cli
        def scipy_modules():
            return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        imported = scipy_modules()
        codes = [hexgauge.cli.main(argv + ["--out", {str(tmp_path / "run")!r}]) for argv in (
            ["basis", "--nx", "3", "--ny", "3"], ["sectors", "--nx", "3", "--ny", "4"],
            ["spectrum", "--nx", "4", "--ny", "4", "--bc", "closed"])]
        print(json.dumps([imported, codes, scipy_modules()]))
    """
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC.parent)},
                         capture_output=True, text=True, check=True).stdout
    imported, codes, after = json.loads(out.splitlines()[-1])
    assert (imported, codes, after) == ([], [0, 0, 2], []), out


def test_no_module_level_scipy_import():
    # scipy is imported inside the functions that use it; at module level
    # only under `if TYPE_CHECKING:`, which names its types for annotations
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in _run_at_import(ast.parse(path.read_text(), str(path)).body):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name.split(".")[0] == "scipy"]
    assert not found, f"scipy imported at module level: {found}"


def _run_at_import(nodes):
    """The nodes a module runs when it is imported: all but function bodies
    and the body of an `if TYPE_CHECKING:`."""
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        test = getattr(node, "test", None) if isinstance(node, ast.If) else None
        if (getattr(test, "id", None) or getattr(test, "attr", None)) == "TYPE_CHECKING":
            yield from _run_at_import(node.orelse)
            continue
        yield node
        yield from _run_at_import(ast.iter_child_nodes(node))
