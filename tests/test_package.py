"""Guards on the package surface: stdlib-only imports, resolvable exports,
and no dead names (unused imports, unreferenced private definitions, or
compiled entry points that no module calls)."""

import ast
import pathlib
import re
import sys

import qgramsearch

PACKAGE_DIR = pathlib.Path(qgramsearch.__file__).parent


def test_runtime_imports_only_the_standard_library():
    outside = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            outside += [(path.name, name) for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_every_exported_name_resolves():
    missing = [name for name in qgramsearch.__all__
               if not hasattr(qgramsearch, name)]
    assert missing == []


def _module_trees():
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE_DIR.glob("*.py"))}


def _loaded_names(tree):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_every_import_is_used():
    # __init__ imports in order to re-export, so it is exempt
    unused = []
    for module, tree in _module_trees().items():
        if module == "__init__":
            continue
        loaded = _loaded_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom)
                    and node.module != "__future__"):
                unused += [(module, bound) for bound in
                           (a.asname or a.name.split(".")[0]
                            for a in node.names) if bound not in loaded]
    assert unused == []


def test_every_unexported_definition_is_referenced():
    trees = _module_trees()
    # (defining module, name) for every relative import in the package
    imported = {(node.module, alias.name)
                for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    dead = []
    for module, tree in trees.items():
        loaded = _loaded_names(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            dead += [(module, name) for name in names
                     if name not in qgramsearch.__all__
                     and not name.startswith("__")
                     and name not in loaded
                     and (module, name) not in imported]
    assert dead == []


def test_every_compiled_entry_point_is_called():
    source = (PACKAGE_DIR / "_engine.c").read_text()
    table = source[source.index("static PyMethodDef methods[]"):]
    defined = set(re.findall(r'^\s*\{"(\w+)",', table[:table.index("};")],
                             re.MULTILINE))
    called = {node.attr for tree in _module_trees().values()
              for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id == "engine"}
    assert defined and called == defined
