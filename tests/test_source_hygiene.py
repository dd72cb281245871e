"""Static checks on the package source with the standard library's ast module,
and on the names README.md gives it.

A module-level private function that nothing in the package references is
dead code, and so is a public function or class that only its own tests call,
unless it is a named oracle kept for tests and acceptance criteria.  An
`__all__` entry that the module does not define breaks
`from positonkit.<module> import *`.  No module imports scipy, at module
level or deferred into a function: scipy is a test-only dependency.  The
import check runs in a child process: importing the package loads numpy and
no module of scipy.  Every backticked dotted name of README.md that starts at
the package, one of its modules or an `__all__` name resolves, and one that
starts with a capital letter starts at an `__all__` class.
"""

import ast
import dataclasses
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "positonkit"
README = SRC.parent.parent / "README.md"
FILE_SUFFIXES = {"py", "md", "json", "csv", "toml"}     # `cli.py` names a file, not an attribute

# public names no command calls, kept as independent references that tests and
# acceptance criteria compare the pipeline against
NAMED_ORACLES = (
    "darboux.chain_insert", "darboux.greens_diagonal_transformed",
    "kdv.dyson_q", "kdv.classify_embedded_pole_evolved",
    "kdv.split_step_reference",
    "wvn_example.y_closed", "wvn_example.y_x_closed", "wvn_example.psi_plus1_closed",
    "wvn_example.q_sym",
)


def _modules():
    return {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}


def _referenced_names(tree, skip=None):
    """Names that tree's Name, Attribute and alias nodes use, outside the subtree skip."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        stack.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def _defined_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def _all_entries(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return ast.literal_eval(node.value)
    return []


def test_private_functions_are_referenced():
    modules = _modules()
    referenced = set().union(*(_referenced_names(t) for t in modules.values()))
    unused = [f"{mod}.{node.name}" for mod, tree in modules.items() for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
              and not node.name.startswith("__") and node.name not in referenced]
    assert not unused, f"private functions referenced nowhere in src/: {unused}"


def test_public_names_have_a_caller():
    # a caller anywhere in src/ but the name's own definition; __all__ entries
    # are strings, and the re-exports of __init__ are not callers
    modules = {mod: tree for mod, tree in _modules().items() if mod != "__init__"}
    refs = {mod: _referenced_names(tree) for mod, tree in modules.items()}
    uncalled = []
    for mod, tree in modules.items():
        elsewhere = set().union(*(r for other, r in refs.items() if other != mod))
        uncalled += [f"{mod}.{node.name}" for node in tree.body
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                     and not node.name.startswith("_") and node.name not in elsewhere
                     and node.name not in _referenced_names(tree, skip=node)]
    assert sorted(set(uncalled) - set(NAMED_ORACLES)) == [], "public names without a caller"
    assert sorted(set(NAMED_ORACLES) - set(uncalled)) == [], "named oracles now with a caller"


def test_all_entries_are_defined():
    missing = [f"{mod}.{name}" for mod, tree in _modules().items()
               for name in _all_entries(tree) if name not in _defined_names(tree)]
    assert not missing, f"__all__ names a missing definition: {missing}"


def _imported_packages(tree):
    """(top-level package, line) of every import statement anywhere in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0], node.lineno


def test_no_module_imports_scipy():
    # function bodies included: test_import_loads_no_scipy sees only what an import loads
    found = [f"{mod}.py:{line}" for mod, tree in _modules().items()
             for package, line in _imported_packages(tree) if package == "scipy"]
    assert not found, f"scipy imported in src/: {found}"


def test_import_loads_no_scipy():
    # scipy.linalg alone was about 0.2 s of every CLI run's import; the package
    # factors, solves and splines with numpy, and has its own DOP853 stepper
    # and bisection
    code = ("import sys\n"
            "import positonkit.cli\n"
            "from positonkit import schrodinger\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
            "print(schrodinger.solve_ivp.__module__)\n")
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n")[:2] == ["[]", "positonkit.schrodinger"]


def _resolves(obj, attrs) -> bool:
    """Whether the attribute path attrs exists on obj; a dataclass field ends it resolved."""
    for attr in attrs:
        if dataclasses.is_dataclass(obj) and attr in {f.name for f in dataclasses.fields(obj)}:
            return True
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_readme_names_resolve():
    # lower-case heads outside the package (numpy.linalg, config keys such as
    # grid.x_min) are skipped; a capitalized head is a class, so a deleted one is stale
    modules = {p.stem: importlib.import_module(f"positonkit.{p.stem}")
               for p in sorted(SRC.glob("*.py")) if p.stem not in ("__init__", "__main__")}
    roots = {"positonkit": importlib.import_module("positonkit"), **modules}
    for mod in modules.values():
        roots.update({name: getattr(mod, name) for name in getattr(mod, "__all__", ())})
    names = re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", README.read_text())
    checked = [n.split(".") for n in names if n.split(".")[-1] not in FILE_SUFFIXES]
    checked = [n for n in checked if n[0] in roots or n[0][0].isupper()]
    stale = sorted({".".join(n) for n in checked
                    if n[0] not in roots or not _resolves(roots[n[0]], n[1:])})
    assert checked and not stale, f"README.md names what the package lacks: {stale}"
