"""No function in `src/spectranorm` exists for the tests alone.

Every function must be referenced, by name or as an attribute, somewhere in
`src/` or `perfbench/` outside its own definition; a method (a function
defined in a class body) counts as referenced only where its name is read as
an attribute, so a local variable or a parameter of the same name does not
keep it. A function may also be imported by `spectranorm/__init__.py`, be a
dunder, or be on the allow-list below with the reason it is kept. Matching
is by name, so a function whose name is read for something else passes: the
guard finds code that nothing names, not every dead path.
"""

import ast
from pathlib import Path

import spectranorm

_PACKAGE = Path(spectranorm.__file__).resolve().parent
_ROOT = _PACKAGE.parents[1]

# name -> why it stays with no caller in the package or the benchmark
_ALLOWED = {
    "clear_class_tables": "cold builds: drops the cached class tables so the next one is generated again",
    "complement": "public API: the complement of a Graph",
    "has_edge": "public API: the one-pair adjacency query on a Graph",
}


def _sources():
    paths = sorted(_PACKAGE.rglob("*.py"))
    paths += sorted((_ROOT / "perfbench").rglob("*.py"))
    return {path: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in paths}


def _definitions(tree):
    """(function, is method) of every function defined in the tree."""
    methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for node in cls.body}
    return [(node, id(node) in methods) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _references(tree):
    """(name, line, attribute read) of every name or attribute in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, isinstance(node.ctx, ast.Load)


def _unreferenced():
    """(name, location) of every package function that nothing references, allow-listed or not."""
    sources = _sources()
    exported = {alias.asname or alias.name
                for node in ast.walk(sources[_PACKAGE / "__init__.py"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    references = {path: list(_references(tree)) for path, tree in sources.items()}
    dead = []
    for path, tree in sources.items():
        if not path.is_relative_to(_PACKAGE):
            continue
        for fn, method in _definitions(tree):
            name = fn.name
            if (name.startswith("__") and name.endswith("__")) or name in exported:
                continue
            own = range(fn.lineno, fn.end_lineno + 1)
            if any(ref == name and (read or not method) and not (where == path and line in own)
                   for where, refs in references.items() for ref, line, read in refs):
                continue
            dead.append((name, f"{path.relative_to(_ROOT)}:{fn.lineno} {name}"))
    return dead


def test_every_function_in_the_package_has_a_caller():
    assert [where for name, where in _unreferenced() if name not in _ALLOWED] == []


def test_the_allow_list_names_only_functions_with_no_caller():
    # an entry whose function gained a caller, or was deleted, goes
    assert set(_ALLOWED) <= {name for name, _ in _unreferenced()}
