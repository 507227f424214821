"""Reach guard: every public name of the package is used by the program.

The scan reads `src/gafields` and `perfbench` with `ast` and counts name
and attribute references, so a mention in a string or a docstring does
not count as a use.  Names are matched bare, not by module.

Public methods of the package's classes are checked by attribute name
alone: a method counts as reached when any code outside its own body
looks up an attribute of that name, on any object.  So `u.norm()`
reaches every method called `norm`, and the guard finds the methods
whose name no code looks up, not every method no call reaches.
"""

import ast
from collections import Counter
from pathlib import Path

import gafields

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gafields"
PROGRAM = sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

# public names that no command, check or benchmark reaches yet, and why
# each stays
KEEP = {
    "dirac_residual": "acceptance criterion 9 checks the main equation "
                      "against the Dirac equation through it",
    "current": "acceptance criterion 8 differentiates the plane-wave "
               "current through it",
    "curvature_link_check": "acceptance criterion 8 checks the curvature "
                            "link at one point through it",
    "covariance_check": "becomes a verify case with the Spin-isometric "
                        "coordinate-change checks",
    "lagrangian_total": "becomes part of the variational-consistency "
                        "checks of the main Lagrangian",
    "CoordinateChange.old_point": "maps sample points back to the old "
                                  "chart in the Spin-isometric "
                                  "coordinate-change checks",
}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _used_names(node) -> set:
    """Every name the code under `node` reads or writes, and every
    attribute it looks up."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _unreached() -> dict:
    """Bare name -> module.name for the public module-level functions and
    classes of the package that `__all__` does not export and no code in
    `src/` or `perfbench/` references outside their own definition."""
    trees = {path: _tree(path) for path in PROGRAM}
    # name -> the (file, top-level statement) pairs that use it
    refs = {}
    for path, tree in trees.items():
        for stmt in tree.body:
            for name in _used_names(stmt):
                refs.setdefault(name, []).append((path, stmt))
    out = {}
    for path in sorted(SRC.glob("*.py")):
        for node in trees[path].body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")
                    or node.name in gafields.__all__):
                continue
            if all(where == path and stmt is node
                   for where, stmt in refs.get(node.name, ())):
                out[node.name] = f"{path.stem}.{node.name}"
    return out


def _attributes(node) -> Counter:
    """How often the code under `node` looks up each attribute name."""
    return Counter(sub.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute))


def _unreached_methods() -> list:
    """Class.method for the public methods of the package's public
    classes whose name no code in `src/` or `perfbench/` looks up as an
    attribute outside the method's own body.  Dunders and `_`-names are
    exempt."""
    trees = {path: _tree(path) for path in PROGRAM}
    looked_up = sum(map(_attributes, trees.values()), Counter())
    out = []
    for path in sorted(SRC.glob("*.py")):
        for cls in trees[path].body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for node in cls.body:
                if (isinstance(node, ast.FunctionDef)
                        and not node.name.startswith("_")
                        and looked_up[node.name]
                        == _attributes(node)[node.name]):
                    out.append(f"{cls.name}.{node.name}")
    return out


def test_every_public_name_is_reached():
    unreached = sorted(v for k, v in _unreached().items() if k not in KEEP)
    unreached += [m for m in _unreached_methods() if m not in KEEP]
    assert not unreached, (f"reached only from tests (delete them, or "
                           f"give them a caller): {unreached}")


def test_keep_names_are_still_unreached():
    # an entry that got a caller, or lost its definition, is stale
    unreached = set(_unreached()) | set(_unreached_methods())
    assert sorted(set(KEEP) - unreached) == []


def _bound_names(tree: ast.Module) -> list:
    """(name, line) for every name an import statement binds."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [((a.asname or a.name).split(".")[0], node.lineno)
                     for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(a.asname or a.name, node.lineno) for a in node.names]
    return out


def test_no_unused_imports():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = _tree(path)
        used = _used_names(tree)
        if path.name == "__init__.py":
            used |= set(gafields.__all__)  # re-exports
        unused += [f"{path.name}:{line} {name}"
                   for name, line in _bound_names(tree) if name not in used]
    assert not unused, f"imported but never used: {unused}"


def test_all_entries_resolve():
    missing = [name for name in gafields.__all__
               if not hasattr(gafields, name)]
    assert not missing
    assert len(set(gafields.__all__)) == len(gafields.__all__)


def test_no_module_imports_another_modules_private_names():
    # a `_`-name is private to its module: a module that needs one from
    # another module needs a public entry there instead
    private = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if (isinstance(node, ast.ImportFrom)
                    and (node.level > 0
                         or (node.module or "").startswith("gafields"))):
                private += [f"{path.name}:{node.lineno} {a.name}"
                            for a in node.names if a.name.startswith("_")]
    assert not private, f"private names imported across modules: {private}"
