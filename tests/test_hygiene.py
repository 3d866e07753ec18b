"""Static checks on the package source: no unused import, no unreferenced private name,
map stepping kept behind ``iet.py``, one step kernel that steps one way (backward walks
step the inverse map) and one block test inside it, and one sign rule in ``exactnum.py``,
the only module that reads or builds a ``QuadReal``'s coefficients.

All read the modules with ``ast`` only, so they need no linter.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "ietlab"
MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(SOURCE.glob("*.py"))}


def used_names(tree):
    """Names loaded or accessed as attributes, including those inside string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        for annotation in filter(None, annotations):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    names |= used_names(ast.parse(part.value, mode="eval"))
    return names


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def private_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [name.id for target in node.targets for name in ast.walk(target)
                       if isinstance(name, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        yield from (name for name in targets if name.startswith("_") and not name.startswith("__"))


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"__init__.py"}))
def test_every_import_is_used(module):
    tree = MODULES[module]
    assert sorted(set(imported_names(tree)) - used_names(tree)) == []


def test_every_private_name_is_referenced():
    used = set().union(*(used_names(tree) for tree in MODULES.values()))
    private = {name for tree in MODULES.values() for name in private_definitions(tree)}
    assert sorted(private - used) == []


# a map's moves, lattice and inverse: whoever reads them can step the map
MAP_STEPPING = {"_forward_lattice", "_inverse", "tau"}


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"iet.py"}))
def test_only_iet_reads_the_map_moves(module):
    read = {node.attr for node in ast.walk(MODULES[module]) if isinstance(node, ast.Attribute)}
    assert sorted(read & MAP_STEPPING) == []


def test_no_class_defines_a_walk():
    walks = [f"{module}:{node.name}" for module, tree in MODULES.items() for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef)
             and any(isinstance(item, ast.FunctionDef) and item.name == "walk" for item in node.body)]
    assert walks == []


def reads(node, name):
    """True iff the node loads ``name`` or reads an attribute of that name."""
    return any(isinstance(part, ast.Attribute) and part.attr == name
               or isinstance(part, ast.Name) and part.id == name and isinstance(part.ctx, ast.Load)
               for part in ast.walk(node))


def functions(tree):
    return [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def test_only_the_lattices_and_iet_new_read_tau():
    # every other step in iet.py goes through the kernel on the map's lattices
    readers = {f.name for f in functions(MODULES["iet.py"]) if reads(f, "tau")}
    assert readers == {"iet_new", "_forward_lattice", "_inverse"}


def test_the_walk_kernel_steps_one_way():
    # a backward walk is a forward walk of Iet._inverse: one lattice per map, no direction flag
    assert definitions("_backward_lattice") == []
    assert all("_Encoded" not in private_definitions(tree) for tree in MODULES.values())
    kernel = {f.name: f for f in functions(MODULES["iet.py"]) if f.name in ("_encode", "_points", "_steps")}
    assert sorted(kernel) == ["_encode", "_points", "_steps"]
    for name, f in kernel.items():
        assert "backward" not in [a.arg for a in ast.walk(f.args) if isinstance(a, ast.arg)], name


def test_iet_imports_no_bisect():
    tree = MODULES["iet.py"]
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "bisect" not in modules and not reads(tree, "bisect_right")


def test_the_block_crossing_error_is_raised_once_in_the_kernel():
    # _flow_strip reads its floors off the orbit table and steps nothing, so it keeps its own test
    raisers = sorted((module, f.name) for module, tree in MODULES.items() for f in functions(tree)
                     for node in ast.walk(f) if isinstance(node, ast.Raise)
                     and "crosses" in ast.unparse(node))
    assert raisers == [("iet.py", "_steps"), ("suspension.py", "_flow_strip")]


def definitions(name):
    return sorted(module for module, tree in MODULES.items() for f in functions(tree) if f.name == name)


def test_one_sign_rule_in_exactnum():
    assert definitions("_positive") == ["exactnum.py"]
    assert definitions("_fsign") == definitions("_sign") == []


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"exactnum.py"}))
def test_only_exactnum_reads_or_builds_coefficients(module):
    # a coefficient's parts, and a QuadReal built from parts, trusted or checked
    tree = MODULES[module]
    parts = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert sorted(parts & {"numerator", "denominator"}) == []
    assert not reads(tree, "_trusted")
    builds = [node for node in ast.walk(tree) if isinstance(node, ast.Call) and reads(node.func, "QuadReal")]
    assert builds == []


def test_iet_imports_nothing_from_fractions():
    tree = MODULES["iet.py"]
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "fractions" not in modules and not reads(tree, "Fraction")


# the private names one module reads from another: a new one is a visible edit here
CROSS_MODULE_PRIVATE = {
    "cli.py": {"exactnum._clipped", "exactnum._integer_token", "exactnum._quoted", "iet._points"},
    "iet.py": {"exactnum._Lattice", "exactnum._as_quad", "exactnum._clipped", "exactnum._lattice",
               "exactnum._point", "exactnum._positive"},
    "induction.py": {"exactnum._lattice", "exactnum._point", "iet._lattice_walk"},
    "ktheory.py": {"iet._lattice_walk", "iet._points", "measures._check_epsilon"},
    "measures.py": {"iet._encode", "iet._steps"},
    "suspension.py": {"exactnum._clipped", "exactnum._point", "exactnum._positive", "iet._encode",
                      "iet._steps"},
}


def private(name):
    return name.startswith("_") and not name.startswith("__")


def cross_module_private_names(tree):
    """Every ``from .m import _x`` and every ``m._x`` read of a package module m, as "m._x"."""
    modules = {path[:-3] for path in MODULES}
    imported = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
                for alias in node.names if alias.name in modules}
    names = {f"{node.module}.{alias.name}" for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is not None
             for alias in node.names if private(alias.name)}
    names |= {f"{imported[node.value.id]}.{node.attr}" for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in imported and private(node.attr)}
    return names


def test_cross_module_private_names():
    found = {module: cross_module_private_names(tree) for module, tree in MODULES.items()}
    assert {module: names for module, names in found.items() if names} == CROSS_MODULE_PRIVATE


def function(module, name):
    return next(f for f in functions(MODULES[module]) if f.name == name)


def test_each_fact_has_one_source():
    # the depth rule reads the marker fold, not the spans built from it
    next_depth = function("suspension.py", "_next_depth")
    assert "plain" not in [a.arg for a in ast.walk(next_depth.args) if isinstance(a, ast.arg)]
    assert not reads(next_depth, "spans") and reads(next_depth, "extremes")
    # L_sigma is the matrix of translation classes
    lsigma = function("ktheory.py", "l_sigma")
    assert not any(isinstance(node, (ast.For, ast.While)) for node in ast.walk(lsigma))
    assert reads(lsigma, "coinvariant_shift")
    # the strips take sigma's surface data from its profile and evaluate no sigma themselves
    strips = function("suspension.py", "strip_decomposition")
    assert not reads(strips, "irreducible") and reads(strips, "singularity_profile")
    assert not any(isinstance(node, ast.Call) and reads(node.func, "sigma") for node in ast.walk(strips))
    # quad_sign is _compare against 0
    sign = function("exactnum.py", "quad_sign")
    assert not reads(sign, "numerator") and not reads(sign, "_positive") and reads(sign, "_compare")
