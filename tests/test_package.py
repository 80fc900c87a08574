"""Package hygiene: the public name list, the imports of every module, its
module-private names, and the modules that ``import rieszlab`` loads."""
import ast
import contextlib
import io
import os
import re
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


def _definitions(stmt) -> list[str]:
    """Names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _all_literal(tree: ast.Module) -> list[str] | None:
    """A module's ``__all__``, when it is assigned once, as a list literal."""
    values = [
        stmt.value
        for stmt in tree.body
        if isinstance(stmt, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)
    ]
    if len(values) == 1 and isinstance(values[0], ast.List):
        return ast.literal_eval(values[0])
    return None


def test_each_module_states_its_public_names_once():
    """Every module but the package's __init__ and the CLI states its public
    names once, in a sorted list literal ``__all__`` of names it defines at
    top level; no name sits in two lists, only ``__init__`` star-imports, and
    ``rieszlab.__all__`` is the union of the lists."""
    every, bad, stars = [], [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        stars += [
            path.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and any(a.name == "*" for a in node.names)
        ]
        if path.stem in ("__init__", "cli"):
            continue
        names = _all_literal(tree)
        if names is None:
            bad.append(f"{path.stem}: no list literal __all__")
            continue
        if names != sorted(set(names)):
            bad.append(f"{path.stem}: __all__ is not sorted and unique")
        defined = {n for stmt in tree.body for n in _definitions(stmt)}
        bad += [f"{path.stem}: {n} is not defined here" for n in names if n not in defined]
        every += names
    assert bad == []
    assert sorted(every) == sorted(set(every))
    assert set(stars) <= {"__init__.py"}
    assert rieszlab.__all__ == sorted(every)


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # A module exports what it lists in __all__.
    used |= set(_all_literal(tree) or [])
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_does_not_use():
    unused = [u for path in sorted(SRC.glob("*.py")) for u in _unused_imports(path)]
    assert unused == []


def _private_definitions(stmt) -> list[str]:
    """Module-private names (``_name``, not dunder) a top-level statement defines."""
    return [n for n in _definitions(stmt) if n.startswith("_") and not n.startswith("__")]


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


def _modules_where(found) -> list[str]:
    """Names of the modules with an AST node for which ``found`` holds."""
    return sorted(
        path.name
        for path in SRC.glob("*.py")
        if any(found(node) for node in ast.walk(ast.parse(path.read_text(), filename=str(path))))
    )


def _named(node, name: str) -> bool:
    return (isinstance(node, ast.Name) and node.id == name) or (
        isinstance(node, ast.Attribute) and node.attr == name
    )


def test_only_core_reads_the_distinctness_factor_and_tiny():
    """core owns the distinctness tolerance and the relative-error floor:
    no other module reads H_MIN_FACTOR, imports it, calls np.finfo(...).tiny
    or writes a float literal below 1e-200, a floor of its own."""
    def found(node):
        if isinstance(node, ast.ImportFrom):
            return any(alias.name == "H_MIN_FACTOR" for alias in node.names)
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return 0.0 < node.value < 1e-200
        return _named(node, "H_MIN_FACTOR") or (
            isinstance(node, ast.Attribute)
            and node.attr == "tiny"
            and isinstance(node.value, ast.Call)
            and _named(node.value.func, "finfo")
        )

    assert _modules_where(found) == ["core.py"]


def test_only_core_and_solver_read_tiny():
    """core._relative owns the relative-error rule, num / max(|den|, TINY):
    besides core, only the solver reads TINY, to floor its scaled tolerance,
    which forms no quotient."""
    def found(node):
        if isinstance(node, ast.ImportFrom):
            return any(alias.name == "TINY" for alias in node.names)
        return _named(node, "TINY")

    assert _modules_where(found) == ["core.py", "solver.py"]


def _raises(*names):
    """A predicate: whether a node raises an exception class named in ``names``."""
    def found(node):
        if not (isinstance(node, ast.Raise) and node.exc is not None):
            return False
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return any(_named(exc, name) for name in names)

    return found


def test_only_core_raises_degenerate_nodes():
    """core._distinct_spacing is the one owner of node-set distinctness:
    no other module raises DegenerateNodes."""
    assert _modules_where(_raises("DegenerateNodes")) == ["core.py"]


def test_no_module_raises_a_bare_value_or_type_error():
    """Every input check raises a RieszLabError, InvalidInput where no
    narrower class fits: the CLI prints a RieszLabError as one ``error:``
    line, and lets any other ValueError, a fault of the program, raise."""
    found = _raises("ValueError", "TypeError")
    assert [s for path in sorted(SRC.glob("*.py")) for s in _sites(path, found)] == []


def test_only_core_and_regions_compare_a_distance_with_h_min():
    """Region.on_node is the one on-node query, and core's distinctness rule
    and kernel rows take h_min as a value: no other module compares
    anything with an ``h_min``, by an operator or a numpy comparison."""
    comparisons = {"less", "less_equal", "greater", "greater_equal", "isclose", "allclose"}

    def found(node):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
        elif isinstance(node, ast.Call) and any(_named(node.func, f) for f in comparisons):
            operands = node.args
        else:
            return False
        return any(_named(n, "h_min") for operand in operands for n in ast.walk(operand))

    assert _modules_where(found) == ["core.py", "regions.py"]


def test_only_regions_reads_h_min_or_a_gram_diagonal():
    """Region owns the smeared-node rule, the Gram diagonal and the cap of
    every kernel entry against a node at it (``Region.kernel_rows``): no
    other module reads an ``.h_min`` attribute or calls ``diagonal`` on a
    Gram's ``entries``.  core's distinctness rule keeps a local ``h_min``."""
    def found(node):
        if isinstance(node, ast.Attribute) and node.attr == "h_min":
            return True
        return (
            isinstance(node, ast.Call)
            and _named(node.func, "diagonal")
            and any(_named(n, "entries") for n in ast.walk(node))
        )

    assert _modules_where(found) == ["regions.py"]


def test_only_solver_decides_convergence():
    """solver owns non-convergence: no other module raises SolverFailure
    or reads a solution's ``converged`` flag."""
    def reads_converged(node):
        return isinstance(node, ast.Attribute) and node.attr == "converged"

    assert _modules_where(_raises("SolverFailure")) == ["solver.py"]
    assert set(_modules_where(reads_converged)) <= {"solver.py"}


def test_only_core_writes_the_tolerance_rule():
    """core._check_tolerance owns the tolerance rule: no other module writes
    a message that tol, tol_dom, slack, loss_margin or a formatted name
    "must be finite and" anything."""
    message = re.compile(r"(^|\b(tol|tol_dom|slack|loss_margin)) must be finite and")

    def found(node):
        return isinstance(node, ast.Constant) and isinstance(node.value, str) and bool(
            message.search(node.value)
        )

    assert _modules_where(found) == ["core.py"]


def _sites(path: Path, found) -> list[str]:
    """``module:function`` of each AST node of a module for which ``found`` holds."""
    sites = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if found(node):
            sites.append(f"{path.stem}:{function}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return sites


def test_only_core_and_the_cli_test_for_whole_numbers():
    """core._require_whole owns the whole-number rule of every library count,
    seed, shell budget and dimension: no other library site reads
    ``.is_integer``.  cli._count reads scenario input, so it has its own."""
    def found(node):
        return isinstance(node, ast.Attribute) and node.attr == "is_integer"

    sites = sorted(s for path in SRC.glob("*.py") for s in _sites(path, found))
    assert sites == ["cli:_count", "core:_require_whole"]


def test_only_regions_tests_a_shape_class():
    """A catalog shape answers for itself, through ``inverted`` and
    ``takes_count``: outside regions, no ``isinstance`` call and no ``is`` or
    ``is not`` comparison names a concrete shape class, and kelvin imports
    from regions only the base class, the shape check and the point map."""
    shapes = {cls.__name__ for cls in rieszlab.regions.SHAPES.values()} | {"_Round"}

    def names_a_shape(nodes) -> bool:
        return any(_named(n, name) for node in nodes for n in ast.walk(node) for name in shapes)

    def found(node):
        if isinstance(node, ast.Call) and _named(node.func, "isinstance"):
            return names_a_shape(node.args[1:])
        if isinstance(node, ast.Compare) and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
            return names_a_shape([node.left, *node.comparators])
        return False

    sites = {s for path in SRC.glob("*.py") if path.stem != "regions" for s in _sites(path, found)}
    assert sorted(sites) == []
    kelvin = ast.parse((SRC / "kelvin.py").read_text())
    imported = [a.name for node in kelvin.body if isinstance(node, ast.ImportFrom)
                and node.module == "regions" for a in node.names]
    assert sorted(imported) == ["Shape", "_require_shapes", "invert_points"]


def test_only_require_shapes_tests_for_a_shape():
    """regions._require_shapes is the one shape-type check: no other site
    in the package calls ``isinstance`` with ``Shape``."""
    def found(node):
        return (
            isinstance(node, ast.Call)
            and _named(node.func, "isinstance")
            and any(_named(n, "Shape") for arg in node.args[1:] for n in ast.walk(arg))
        )

    sites = sorted(s for path in SRC.glob("*.py") for s in _sites(path, found))
    assert sites == ["regions:_require_shapes"]


def test_only_shape_defines_shell_nodes():
    """Shape.shell_nodes is the one public shell-scan entry and checks its
    budget and annulus once: a shape lays its shell out in ``_shell_layout``,
    and no other class of the package defines ``shell_nodes``."""
    definers = sorted(
        node.name
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(f, ast.FunctionDef) and f.name == "shell_nodes" for f in node.body)
    )
    assert definers == ["Shape"]


def test_only_core_writes_the_default_tolerance():
    """core.DEFAULT_TOL is the default tolerance of every solve: no other
    module writes the literal 1e-10."""
    def found(node):
        return isinstance(node, ast.Constant) and isinstance(node.value, float) and node.value == 1e-10

    assert _modules_where(found) == ["core.py"]


def test_only_the_envelope_writes_the_envelope_keys():
    """cli._envelope writes what every result.json opens with: the schema,
    command and kernel, and the scenario's regions, compacts and points.  No
    command runner writes one of those keys, as a dict key, a subscript or a
    ``dict`` keyword."""
    keys = {"schema", "command", "kernel", "region", "compact", "x", "y", "point", "center"}

    def found(node):
        if isinstance(node, ast.Dict):
            written = [k.value for k in node.keys if isinstance(k, ast.Constant)]
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            written = [node.slice.value] if isinstance(node.slice, ast.Constant) else []
        elif isinstance(node, ast.Call) and _named(node.func, "dict"):
            written = [k.arg for k in node.keywords]
        else:
            return False
        return not keys.isdisjoint(written)

    sites = _sites(SRC / "cli.py", found)
    assert "cli:_envelope" in sites
    assert sorted(s for s in sites if s.startswith("cli:_run_")) == []


def _power_of_the_exponent(node) -> bool:
    """Whether a node is a power, ``**`` or ``np.power``, whose exponent
    reads ``spec.exponent``."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        power = node.right
    elif isinstance(node, ast.Call) and _named(node.func, "power") and len(node.args) > 1:
        power = node.args[1]
    else:
        return False
    return any(_named(n, "exponent") for n in ast.walk(power))


def test_only_core_raises_pairs_to_the_kernel_exponent():
    """core._kernel_rows and core._assemble_rows, each part of
    core._assemble_distinct, give every pair kernel value: riesz_kernel and
    every potential read them.  The four other
    powers of the exponent are no pair kernel: the self-interactions of
    Region.gram's radii, kelvin_transform's weight factor,
    verify_potential_covariance's scale and wiener_report's rescaling."""
    sites = sorted(s for path in SRC.glob("*.py") for s in _sites(path, _power_of_the_exponent))
    assert sites == [
        "core:_assemble_rows",
        "core:_kernel_rows",
        "kelvin:kelvin_transform",
        "kelvin:verify_potential_covariance",
        "regions:_self_interactions",
        "thinness:wiener_report",
    ]


def test_one_solve_calls_the_solver():
    """balayage._sweep_batch is the one solve over any Gram, Riesz or Green,
    of a sweep and of Gauss's problem alike: outside solver, nothing else
    calls solve_nonneg_many or solve_nonneg."""
    def calls(name):
        return lambda node: isinstance(node, ast.Call) and _named(node.func, name)

    paths = [path for path in sorted(SRC.glob("*.py")) if path.stem != "solver"]
    assert [s for path in paths for s in _sites(path, calls("solve_nonneg_many"))] == [
        "balayage:_sweep_batch"
    ]
    assert [s for path in paths for s in _sites(path, calls("solve_nonneg"))] == []


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


def test_readme_quick_tour_runs():
    """README's quick tour runs and prints what its comments state: mass and
    capacity within 1 % of 1, the Green value within 2 % of 1/0.5 - 1 = 1,
    both sweep checks true and a regular boundary point."""
    readme = (SRC.parents[1] / "README.md").read_text()
    tour = readme.split("## Quick tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(tour, "README.md", "exec"), {})
    mass, checks, capacity, green, verdict = out.getvalue().splitlines()
    assert abs(float(mass) - 1.0) <= 0.01
    assert checks == "True True"
    assert abs(float(capacity) - 1.0) <= 0.01
    assert abs(float(green) - 1.0) <= 0.02
    assert verdict == "regular"
