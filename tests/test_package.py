"""Guards on the package surface: stdlib-only imports and resolvable exports."""

import ast
import pathlib
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
