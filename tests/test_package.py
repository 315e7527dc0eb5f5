"""Guards on the package surface: stdlib-only imports, resolvable exports,
and no dead names (unused imports, unreferenced private definitions, or
compiled entry points that no module calls)."""

import ast
import importlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

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


def test_every_exported_name_is_in_the_readme():
    # a public name nobody documents is likely one only tests use
    readme = (PACKAGE_DIR.parents[1] / "README.md").read_text()
    missing = [name for name in qgramsearch.__all__
               if not re.search(rf"\b{name}\b", readme)]
    assert missing == []


def _module_trees():
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE_DIR.glob("*.py"))}


def _loaded_names(tree):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _definitions(tree):
    """Names bound at module level by a def, a class or an assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            yield from (name.id for target in targets
                        for name in ast.walk(target)
                        if isinstance(name, ast.Name)
                        and isinstance(name.ctx, ast.Store))


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
        dead += [(module, name) for name in _definitions(tree)
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


def test_the_readme_layout_lists_every_package_file():
    readme = (PACKAGE_DIR.parents[1] / "README.md").read_text()
    block = readme.split("## Layout", 1)[1].split("```")[1]
    listed = block.split("src/qgramsearch/\n", 1)[1].split("\ntests/", 1)[0]
    names = re.findall(r"^  (\S+)", listed, re.MULTILINE)
    assert sorted(names) == sorted(path.name for path in PACKAGE_DIR.iterdir()
                                   if path.is_file())


# --- start-up imports ------------------------------------------------------

def _modules_after(code, tmp_path=None):
    """``sys.modules`` after ``code`` runs in a fresh ``python -S``.

    ``-S`` skips ``site``: a ``.pth`` file there may already import some of
    the modules checked below, and would hide a regression."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         code + "\nimport sys; print(*sorted(sys.modules))"],
        capture_output=True, text=True, env=env, cwd=tmp_path, check=True)
    return set(proc.stdout.splitlines()[-1].split())


def _package_modules(loaded):
    return {name for name in loaded if name.split(".")[0] == "qgramsearch"}


# the package modules a search loads, from literals or from files: the
# compiled engine where it could be built, else the Python engine
SEARCH_PATH = {"qgramsearch", "qgramsearch.cli", "qgramsearch.errors",
               "qgramsearch.matchers", "qgramsearch.native"} | (
    {"qgramsearch._engine"} if qgramsearch.ENGINE == "c"
    else {"qgramsearch.pyengine"})
# the package modules of a library call that runs the Python engine
PYENGINE_PATH = SEARCH_PATH - {"qgramsearch.cli"} | {"qgramsearch.pyengine"}


def test_importing_the_cli_loads_only_the_search_path(tmp_path):
    loaded = _modules_after("import qgramsearch.cli")
    assert loaded & {"qgramsearch.bench", "qgramsearch.corpus",
                     "qgramsearch.pyengine", "csv", "random", "dataclasses",
                     "inspect", "array"} == set()
    search = "from qgramsearch import cli\nassert cli.main(['search', {}]) == 0"
    loaded = _modules_after(search.format(
        "'--text', 'abcabc', '--pattern', 'bc'"))
    assert _package_modules(loaded) == SEARCH_PATH
    assert "__future__" not in loaded
    (tmp_path / "t").write_bytes(b"abcabc")
    loaded = _modules_after(search.format(
        "'--text-file', 't', '--pattern', 'bc'"), tmp_path)
    assert _package_modules(loaded) == SEARCH_PATH


def test_a_file_search_loads_no_harness(tmp_path):
    (tmp_path / "t").write_bytes(b"abcabc")
    (tmp_path / "p").write_bytes(b"bc")
    loaded = _modules_after(
        "from qgramsearch import cli\n"
        "assert cli.main(['search', '--text-file', 't', '--pattern-file',"
        " 'p']) == 0", tmp_path)
    assert _package_modules(loaded) == SEARCH_PATH
    assert loaded & {"__future__", "csv", "dataclasses", "inspect",
                     "pathlib"} == set()


def test_bench_and_corpus_names_resolve_on_first_use():
    loaded = _modules_after("import qgramsearch")
    assert loaded & {"qgramsearch.bench", "qgramsearch.corpus",
                     "qgramsearch.pyengine"} == set()
    loaded = _modules_after("import qgramsearch; qgramsearch.BenchSpec")
    assert "qgramsearch.bench" in loaded
    assert loaded & {"dataclasses", "inspect", "qgramsearch.pyengine"} == set()
    loaded = _modules_after("import qgramsearch; qgramsearch.kmp_shift_table")
    assert _package_modules(loaded) == PYENGINE_PATH
    owners = {name: module for module, tree in _module_trees().items()
              if module != "__init__" for name in _definitions(tree)}
    for name in qgramsearch.__all__:
        defining = importlib.import_module(f"qgramsearch.{owners[name]}")
        assert getattr(qgramsearch, name) is getattr(defining, name)
        assert name in vars(qgramsearch)  # later lookups skip __getattr__
    namespace = {}
    exec("from qgramsearch import *", namespace)
    assert set(qgramsearch.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="has no attribute 'nothing'"):
        qgramsearch.nothing


@pytest.mark.parametrize("search", [
    "kmp_search(b'abc', b'b', trace=True)",
    "hashq_search(b'abc', b'b', 1, trace=True)",
    "distq_search(b'abc', q.build_profile(b'b', 1), trace=True)",
    "ldistq_search(b'abc', q.build_profile(b'b', 1), trace=True)",
], ids=lambda search: search.split("_")[0])
def test_a_traced_search_loads_the_python_engine(search):
    # the Python search loop runs every traced search, on either engine
    loaded = _modules_after(f"import qgramsearch as q\nq.{search}")
    assert _package_modules(loaded) == PYENGINE_PATH


# --- records -----------------------------------------------------------------

_STATS = "char_comparisons first_char_checks hashed_char_reads hq_shifts " \
    "dist_shifts kmp_shifts windows"
# (record, its fields in order, values, repr of the record with them)
RECORDS = [
    (qgramsearch.SearchStats, _STATS, (1, 2, 3, 4, 5, 6, 7),
     "SearchStats(char_comparisons=1, first_char_checks=2, "
     "hashed_char_reads=3, hq_shifts=4, dist_shifts=5, kmp_shifts=6, "
     "windows=7)"),
    (qgramsearch.SearchTrace, "shifts positions hash_ends",
     ([("hq", 1)], [2], [3]),
     "SearchTrace(shifts=[('hq', 1)], positions=[2], hash_ends=[3])"),
    (qgramsearch.SearchOutcome, "occurrences stats trace",
     ([1], qgramsearch.SearchStats(windows=1), None),
     "SearchOutcome(occurrences=[1], stats=SearchStats(char_comparisons=0, "
     "first_char_checks=0, hashed_char_reads=0, hq_shifts=0, dist_shifts=0, "
     "kmp_shifts=0, windows=1), trace=None)"),
    (qgramsearch.PatternProfile, "pattern q", (b"ab", 1),
     "PatternProfile(pattern=b'ab', q=1)"),
    (qgramsearch.CorpusSpec, "n sigma m occ seed", (10, 4, 2, 1, 7),
     "CorpusSpec(n=10, sigma=4, m=2, occ=1, seed=7)"),
    (qgramsearch.GeneratedCorpus, "text pattern occ", (b"ab", b"a", 1),
     "GeneratedCorpus(text=b'ab', pattern=b'a', occ=1)"),
    (qgramsearch.FileSource, "path strip_newlines", ("t.txt", True),
     "FileSource(path='t.txt', strip_newlines=True)"),
    (qgramsearch.FibonacciSource, "k", (15,), "FibonacciSource(k=15)"),
    (qgramsearch.EmbedSource, "n sigma occs", (100, 4, (0, 3)),
     "EmbedSource(n=100, sigma=4, occs=(0, 3))"),
    (qgramsearch.BenchSpec, "source algorithms qs pattern_lengths "
     "patterns_per_length repetitions trials seed",
     (qgramsearch.FibonacciSource(15), ("kmp",), (3,), (8,), 2, 3, 4, 5),
     "BenchSpec(source=FibonacciSource(k=15), algorithms=('kmp',), qs=(3,), "
     "pattern_lengths=(8,), patterns_per_length=2, repetitions=3, trials=4, "
     "seed=5)"),
    (qgramsearch.ReportRow, "algo q m n occ reps total_ms stats seed",
     ("distq", 3, 8, 100, 2, 1, 0.5, qgramsearch.SearchStats(windows=1), 7),
     "ReportRow(algo='distq', q=3, m=8, n=100, occ=2, reps=1, total_ms=0.5, "
     "stats=SearchStats(char_comparisons=0, first_char_checks=0, "
     "hashed_char_reads=0, hq_shifts=0, dist_shifts=0, kmp_shifts=0, "
     "windows=1), seed=7)"),
]
# records that hold lists, and so hash as a list does: not at all
UNHASHABLE = (qgramsearch.SearchTrace, qgramsearch.SearchOutcome)
# another value of the last field, valid where the record validates it
OTHER_LAST = {qgramsearch.PatternProfile: 2, qgramsearch.CorpusSpec: 8,
              qgramsearch.FileSource: False, qgramsearch.FibonacciSource: 16,
              qgramsearch.EmbedSource: (1,), qgramsearch.BenchSpec: 6}


@pytest.mark.parametrize("record, fields, values, text", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_construction_equality_and_repr(record, fields, values, text):
    fields = fields.split()
    made = record(*values)
    assert made == record(**dict(zip(fields, values)))
    assert list(vars(made)) == fields
    assert repr(made) == text
    assert made != tuple(values)  # equal only to the same record type
    other = dict(zip(fields, values),
                 **{fields[-1]: OTHER_LAST.get(record, "other")})
    assert made != record(**other)
    if record in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(made)
    else:
        assert hash(made) == hash(record(*values))


@pytest.mark.parametrize("record, fields, values, text", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_read_only_records_reject_assignment(record, fields, values, text):
    # the compiled engine makes its records without __init__: they are
    # read-only all the same
    compiled = qgramsearch.kmp_search(b"ab", b"b")
    first = fields.split()[0]
    for made in [record(*values)] + [r for r in (compiled, compiled.stats)
                                     if type(r) is record]:
        before = dict(vars(made))
        for change in (lambda: setattr(made, first, values[-1]),
                       lambda: setattr(made, "extra", 1),
                       lambda: delattr(made, first)):
            with pytest.raises(AttributeError):
                change()
        assert vars(made) == before


def test_record_defaults():
    assert qgramsearch.SearchStats() == qgramsearch.SearchStats(*[0] * 7)
    a, b = qgramsearch.SearchTrace(), qgramsearch.SearchTrace()
    a.shifts.append(("kmp", 1))
    a.positions.append(1)
    a.hash_ends.append(1)
    assert vars(b) == {"shifts": [], "positions": [], "hash_ends": []}
    assert len({id(x) for t in (a, b) for x in vars(t).values()}) == 6
    assert qgramsearch.FileSource("t") == qgramsearch.FileSource("t", False)
    source = qgramsearch.FibonacciSource(15)
    assert vars(qgramsearch.BenchSpec(source)) == dict(
        source=source, algorithms=qgramsearch.ALGORITHMS, qs=(3,),
        pattern_lengths=(8,), patterns_per_length=1, repetitions=1, trials=1,
        seed=0)


@pytest.mark.parametrize("values, message", [
    ((0, 4, 1, 0, 0), "n must be >= 1, got 0"),
    ((10, 1, 2, 0, 0), "sigma must be in [2, 95], got 1"),
    ((10, 96, 2, 0, 0), "sigma must be in [2, 95], got 96"),
    ((10, 4, 0, 0, 0), "m must be >= 1, got 0"),
    ((10, 4, 2, -1, 0), "occ must be >= 0, got -1"),
    ((10, 4, 4, 3, 0), "occ*m = 12 exceeds n = 10"),
    (("10", 4, 2, 0, 0), "n must be an int, got '10'"),
    ((10, 4.0, 2, 0, 0), "sigma must be an int, got 4.0"),
    ((10, 4, 2, None, 0), "occ must be an int, got None"),
    ((10, 4, 2, 0, [1]), "seed must be an int, got [1]"),
])
def test_corpus_spec_validation_messages(values, message):
    with pytest.raises(qgramsearch.ConfigurationError) as info:
        qgramsearch.CorpusSpec(*values)
    assert str(info.value) == message


def test_generation_error_names_the_spec():
    spec = qgramsearch.CorpusSpec(n=12, sigma=2, m=3, occ=3, seed=4)
    with pytest.raises(qgramsearch.GenerationError) as info:
        qgramsearch.random_text_with_occurrences(spec)
    assert str(info.value) == (
        "embedding kept creating stray occurrences after 100 placements "
        "(spec: CorpusSpec(n=12, sigma=2, m=3, occ=3, seed=4))")
