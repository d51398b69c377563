"""Static checks over the package sources."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import maform

SOURCES = sorted(Path(maform.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]
# every file that may use the package: its sources, the tests and the benchmark
USERS = sorted(
    set(SOURCES) | {p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py")}
)


def _unused_imports(tree):
    """Names bound by import statements that the module never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: line for name, line in imported.items() if name not in used}


def test_no_unused_imports():
    found = []
    for path in SOURCES + sorted((ROOT / "tests").glob("*.py")):
        unused = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
        found += [f"{path.name}:{line}: {name}" for name, line in sorted(unused.items())]
    assert SOURCES and not found, found


def _names_read(node):
    """Identifiers that a syntax tree reads, as names, attributes or
    imported names."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def test_no_unreferenced_definitions():
    # a top-level def or class that no other top-level statement of the
    # sources, tests or benchmark names is dead code
    defs = {}
    readers = {}
    for path in USERS:
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            key = (path, stmt.lineno)
            readers[key] = _names_read(stmt)
            if path in SOURCES and isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                defs[stmt.name] = key
    dead = sorted(
        f"{key[0].name}:{key[1]}: {name}"
        for name, key in defs.items()
        if not any(name in names for other, names in readers.items() if other != key)
    )
    assert defs and not dead, dead


def test_runtime_dependencies_match_imports():
    # the third-party packages the sources import are exactly the
    # [project] dependencies: no undeclared import, no unused requirement
    imported = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"maform"}
    block = re.search(r"^dependencies = \[(.*?)\]", (ROOT / "pyproject.toml").read_text(), re.M | re.S)
    declared = set(re.findall(r'"([\w.-]+)', block.group(1)))
    assert third_party == declared, (third_party, declared)


def test_no_symbolic_derivative_or_lambdify():
    # every derivative and every sympy -> numpy evaluation of the package
    # goes through symforms.Jet.compile: no source calls or imports diff or
    # lambdify, or imports sympy's printers
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = []
            if isinstance(node, ast.Call):
                func = node.func
                names = [func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            found += [
                f"{path.name}:{node.lineno}: {name}" for name in names
                if name in ("diff", "lambdify") or name.startswith("sympy.printing")
            ]
    assert SOURCES and not found, found


def test_no_finite_difference_step():
    # every derivative of the package is exact (symforms.Jet): no function
    # or lambda of the sources takes a finite-difference step named h
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                if "h" in {arg.arg for arg in args}:
                    found.append(f"{path.name}:{node.lineno}: {getattr(node, 'name', 'lambda')}")
    assert SOURCES and not found, found


def test_no_module_imports_sympy():
    # expressions are the package's own nodes (symforms.Expr): sympy is a
    # test dependency only, the independent reference of the tests
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names if name.split(".")[0] == "sympy"]
    assert SOURCES and not found, found


def test_commands_do_not_import_sympy(tmp_path):
    # all five commands, on the ball, the perturbed ball, a tau.expr spec
    # and an n = 3 tensor, in one fresh process that never loads sympy
    specs = {
        "ball.dom": "mu.kind = ball\nN_v = 9\nN_r = 4\nN_theta = 8\n",
        "perturbed.dom": "mu.kind = perturbed_ball\neps = 0.05\nN_v = 9\nN_r = 4\nN_theta = 8\n",
        "tau.dom": "tau.expr = x1**2 + y1**2 + x2**2 + y2**2 + exp(-x1**2)/10\n",
        "n3.tns": "n = 3\nN_v = 5\nk_max = 1\nmode 0 1 1 = 0.1*conj(v1)\nmode 1 2 2 = 0.05*v2\n",
    }
    for name, text in specs.items():
        (tmp_path / name).write_text(text)
    commands = [
        ["verify", "--domain", "ball.dom", "--samples", "2"],
        ["verify", "--domain", "tau.dom", "--samples", "2"],
        ["normalize", "--domain", "perturbed.dom", "--steps", "5", "--moser-tol", "1"],
        ["invariants", "--domain", "ball.dom", "--steps", "5", "--kmax", "1"],
        ["classify", "--domain", "perturbed.dom", "--steps", "5", "--kmax", "1"],
        ["classify", "--tensor", "n3.tns"],
        ["scale-test", "--tensor", "n3.tns"],
    ]
    script = (
        "import sys\n"
        "from maform.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    print('exit', main(argv + ['--out', 'out']))\n"
        "print('sympy loaded:', 'sympy' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True,
        text=True, check=True, timeout=300,
    )
    codes = [line.split()[1] for line in out.stdout.splitlines() if line.startswith("exit ")]
    assert len(codes) == len(commands) and set(codes) <= {"0", "1"}, out.stdout
    assert out.stdout.splitlines()[-1] == "sympy loaded: False", out.stdout
