"""Package hygiene: the public name list, the imports of every module, its
module-private names, and the modules that ``import rieszlab`` loads."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import rieszlab

SRC = Path(rieszlab.__file__).parent


def test_all_is_sorted_unique_and_resolves():
    names = rieszlab.__all__
    assert names == sorted(names)
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(rieszlab, name)]
    assert missing == []


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # A package re-exports what it lists in __all__.
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_does_not_use():
    unused = [u for path in sorted(SRC.glob("*.py")) for u in _unused_imports(path)]
    assert unused == []


def _private_definitions(stmt) -> list[str]:
    """Module-private names (``_name``, not dunder) a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _references(stmt) -> set[str]:
    """Names a statement reads, as a name, an attribute or an import."""
    refs = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def test_every_private_name_is_referenced():
    """A module-private function, class or assignment that no statement of
    the package reads, other than its own definition, is dead code."""
    stmts = [
        (path.name, stmt)
        for path in sorted(SRC.glob("*.py"))
        for stmt in ast.parse(path.read_text(), filename=str(path)).body
    ]
    refs = [_references(stmt) for _, stmt in stmts]
    unused = [
        f"{module}:{stmt.lineno} {name}"
        for i, (module, stmt) in enumerate(stmts)
        for name in _private_definitions(stmt)
        if not any(name in r for j, r in enumerate(refs) if j != i)
    ]
    assert unused == []


# The package's layers, lowest first, in the order the paper builds them:
# Green potential theory and the Green equilibrium rest on balayage.  A
# module imports only modules of a lower rank; kelvin and solver share one.
LAYERS = [
    ["errors"],
    ["core"],
    ["regions"],
    ["kelvin", "solver"],
    ["balayage"],
    ["green"],
    ["equilibrium"],
    ["thinness"],
    ["cli"],
    ["__init__"],
]


def test_modules_import_only_lower_layers():
    """Every relative import names a module of a lower layer and sits at
    module level.  Importing one module in a fresh interpreter cannot show a
    cycle, because the package's ``__init__`` loads every module first."""
    rank = {name: i for i, layer in enumerate(LAYERS) for name in layer}
    assert sorted(rank) == sorted(path.stem for path in SRC.glob("*.py"))
    upward, deferred = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        top_level = set(tree.body)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level):
                continue
            targets = [node.module] if node.module else [a.name for a in node.names]
            upward += [
                f"{path.stem} -> {t}" for t in targets if rank[t] >= rank[path.stem]
            ]
            if node not in top_level:
                deferred.append(f"{path.name}:{node.lineno}")
    assert (upward, deferred) == ([], [])


def test_only_core_and_regions_build_kd_trees():
    """Node-set geometry stays behind core and regions: no other module
    imports cKDTree."""
    importers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                alias.name.split(".")[-1] == "cKDTree" for alias in node.names
            ):
                importers.append(path.name)
    assert sorted(set(importers)) == ["core.py", "regions.py"]


def test_only_core_imports_scipy_linalg():
    """GramMatrix.cholesky is the one positive-definiteness test: no module
    other than core imports scipy.linalg, so every Cholesky factor and solve
    goes through a GramMatrix."""
    importers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(m == "scipy.linalg" or m.startswith("scipy.linalg.") for m in modules):
                importers.append(path.name)
    assert sorted(set(importers)) == ["core.py"]


def test_only_core_imports_cdist():
    """core._kernel_rows builds every kernel block between two point sets:
    no module other than core imports scipy.spatial.distance."""
    importers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(m.startswith("scipy.spatial.distance") for m in modules):
                importers.append(path.name)
    assert sorted(set(importers)) == ["core.py"]


def test_core_imports_no_json():
    """core holds the mathematics; the scenario format, and its reader of
    measure documents, belong to cli."""
    tree = ast.parse((SRC / "core.py").read_text(), filename="core.py")
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.add(node.module)
    assert not any(m == "json" or m.startswith("json.") for m in modules)


def test_only_regions_reads_kd_trees():
    """Nearest-node queries go through Region.nearest_node: no module other
    than regions reads a ``_tree`` attribute."""
    readers = sorted(
        path.name
        for path in SRC.glob("*.py")
        if any(
            isinstance(node, ast.Attribute) and node.attr == "_tree"
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        )
    )
    assert readers == ["regions.py"]


def test_import_loads_no_heavy_scipy_subpackage():
    """``import rieszlab`` and its CLI load numpy, scipy.linalg and
    scipy.spatial only: scipy.stats alone used to double the start-up time."""
    probe = (
        "import sys, rieszlab, rieszlab.cli\n"
        "heavy = ('scipy.stats', 'scipy.optimize', 'scipy.interpolate', 'scipy.ndimage')\n"
        "print(sorted(m for m in sys.modules if m.startswith(heavy)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"
