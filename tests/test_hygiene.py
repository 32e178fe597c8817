"""Source hygiene of the package, checked with `ast` alone.

No module may import a name it never uses, and no module may rely on
`assert`, which `python -O` strips.  Rows are sorted and deduplicated in one
place: `np.lexsort` is called once, in `linalg.distinct_rows`, and no call
passes `axis=` to `np.unique`.  Matrix files and their sidecars are opened
only by `linalg.load_rows`, `linalg.load_sidecar` and `linalg.write_rows`,
so every read takes the byte-level grid path when it applies, and
`np.loadtxt` is called once, in `linalg.parse_rows`.  The CLI's two graph-file helpers are the only other
`open` calls.  A graph's stored form (`_edge_array`, and the CSR arrays
`_heads` and `_ends`) is read only in `expander`.  Points inside subspaces
are ranked in one place: `_ragged_ranks` is called only by
`verify._meet_ranks`, and the removed helpers that are test references now
(`normalize_column`, `_quotient_parts`), and the removed alias
`subspace_count`, are defined nowhere in the package.  The bench scripts
share one harness: every `scripts/bench_*.py` imports `benchkit` and
defines no quartile, timing, RSS, fresh-process or supply helper of its
own, nor names a `*_NUM_THREADS` variable.
"""

import ast
from pathlib import Path

import pytest

import blockforge

MODULES = sorted(Path(blockforge.__file__).parent.glob("*.py"))


def _annotation_names(tree):
    """Names inside string annotations, such as a `-> "MatrixGF"` return."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            notes = [a.annotation for a in node.args.posonlyargs + node.args.args
                     + node.args.kwonlyargs] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            notes = [node.annotation]
        else:
            continue
        for note in notes:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                for sub in ast.walk(ast.parse(note.value, mode="eval")):
                    if isinstance(sub, ast.Name):
                        yield sub.id


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(_annotation_names(tree))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _calls(tree, name, modules=("np", "numpy")):
    """(enclosing function or None, line, keyword names) of every
    `<module>.<name>(...)` call, or of every bare `<name>(...)` call when
    `modules` is None."""
    found = []

    def matches(func):
        if modules is None:
            return isinstance(func, ast.Name) and func.id == name
        return (isinstance(func, ast.Attribute) and func.attr == name
                and isinstance(func.value, ast.Name) and func.value.id in modules)

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, child.name)
                continue
            if isinstance(child, ast.Call) and matches(child.func):
                found.append((owner, child.lineno, {kw.arg for kw in child.keywords}))
            walk(child, owner)

    walk(tree, None)
    return found


def _owners(name, modules=("np", "numpy")):
    """The sorted (module, function) pair of every call of `name` in the
    package, once per call."""
    return sorted((path.stem, owner) for path in MODULES
                  for owner, _, _ in _calls(ast.parse(path.read_text()), name, modules))


def test_package_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    # __init__.py is exempt: its imports are the package's public re-exports.
    assert _unused_imports(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text())
    assert [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)] == []


def test_unused_import_scan_flags_a_dead_import():
    tree = ast.parse("import os\nfrom .x import a, b\ndef f(v: 'a') -> int:\n    return 1\n")
    assert _unused_imports(tree) == [(1, "os"), (2, "b")]


def test_lexsort_only_in_distinct_rows():
    assert _owners("lexsort") == [("linalg", "distinct_rows")]


def test_no_unique_by_axis():
    found = [(path.name, line) for path in MODULES
             for _, line, keywords in _calls(ast.parse(path.read_text()), "unique")
             if "axis" in keywords]
    assert found == []


def test_row_sort_scan_flags_a_planted_lexsort():
    tree = ast.parse("import numpy as np\ndef f(r):\n    return r[np.lexsort(r.T)]\n"
                     "def distinct_rows(r):\n    return np.unique(r, axis=0)\n")
    assert _calls(tree, "lexsort") == [("f", 3, set())]
    assert _calls(tree, "unique") == [("distinct_rows", 5, {"axis"})]


def test_loadtxt_only_in_parse_rows():
    assert _owners("loadtxt") == [("linalg", "parse_rows")]


def test_files_opened_only_by_the_matrix_codec_and_the_graph_helpers():
    # load_sidecar opens only the sidecar; write_rows opens the matrix and its sidecar
    assert _owners("open", None) == [("cli", "_read_graph"), ("cli", "_write_graph"),
                                     ("linalg", "load_rows"), ("linalg", "load_sidecar"),
                                     ("linalg", "write_rows"), ("linalg", "write_rows")]


def test_owner_scan_counts_every_call():
    tree = ast.parse("import numpy as np\ndef distinct_rows(r):\n"
                     "    return np.lexsort(r.T), np.lexsort(r)\n")
    assert [owner for owner, _, _ in _calls(tree, "lexsort")] == ["distinct_rows"] * 2


def test_codec_scan_flags_a_planted_loadtxt_and_open():
    tree = ast.parse("import numpy as np\ndef read_supply(path):\n"
                     "    with open(path) as f:\n        return np.loadtxt(f)\n"
                     "def parse_rows(body):\n    return np.loadtxt(body, comments=None)\n")
    assert _calls(tree, "loadtxt") == [("read_supply", 4, set()), ("parse_rows", 6, {"comments"})]
    assert _calls(tree, "open", None) == [("read_supply", 3, set())]
    assert _calls(tree, "open") == []


GRAPH_FORM = ("_heads", "_ends", "_edge_array")


def _attribute_reads(tree, names):
    """(line, name) of every `<expr>.<name>` in the tree, for `name` in `names`."""
    return sorted((node.lineno, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in names)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "expander.py"],
                         ids=lambda p: p.name)
def test_graph_form_read_only_in_expander(path):
    assert _attribute_reads(ast.parse(path.read_text()), GRAPH_FORM) == []


def test_graph_form_scan_flags_a_planted_read():
    tree = ast.parse("def degrees(g):\n    return np.diff(g._ends, prepend=0)\n"
                     "def first(g):\n    return g._heads[0], g.m, g._edge_array\n")
    assert _attribute_reads(tree, GRAPH_FORM) == [(2, "_ends"), (4, "_edge_array"),
                                                  (4, "_heads")]


REMOVED = ("normalize_column", "_quotient_parts", "subspace_count")


def _definitions(tree, names):
    """(line, name) of every function defined in the tree, at any depth, whose
    name is in `names`."""
    return sorted((node.lineno, node.name) for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and node.name in names)


def test_meet_ranks_only_in_the_kernel():
    assert _owners("_ragged_ranks", None) == [("verify", "_meet_ranks")] * 2


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_removed_helpers_stay_out_of_the_package(path):
    assert _definitions(ast.parse(path.read_text()), REMOVED) == []


def test_kernel_scan_flags_a_planted_rank_and_helper():
    tree = ast.parse("def _meet_ranks(f, g, r, c):\n    return _ragged_ranks(f, g, r, c)\n"
                     "def _meet_scan(b):\n    def _quotient_parts(x):\n        return x\n"
                     "    return _ragged_ranks(b, 0, 1, 2)\n"
                     "def normalize_column(field, col):\n    return col\n")
    assert _calls(tree, "_ragged_ranks", None) == [("_meet_ranks", 2, set()),
                                                    ("_meet_scan", 6, set())]
    assert _definitions(tree, REMOVED) == [(4, "_quotient_parts"), (7, "normalize_column")]


BENCH_SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("bench_*.py"))
HARNESS = ("_quartiles", "_time", "_rss_mb", "_fresh", "spawn", "_supply")


def _thread_variables(tree):
    """(line, name) of every string constant or keyword naming a
    `*_NUM_THREADS` variable."""
    names = [(node.lineno, node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    names += [(node.lineno, node.arg) for node in ast.walk(tree)
              if isinstance(node, ast.keyword) and node.arg]
    return sorted((line, name) for line, name in names if name.endswith("_NUM_THREADS"))


def _imports(tree, module):
    return any(alias.name == module for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names)


def test_bench_scripts_found():
    assert len(BENCH_SCRIPTS) == 9


@pytest.mark.parametrize("path", BENCH_SCRIPTS, ids=lambda p: p.name)
def test_bench_scripts_leave_the_harness_to_benchkit(path):
    tree = ast.parse(path.read_text())
    assert _imports(tree, "benchkit")
    assert _definitions(tree, HARNESS) == []
    assert _thread_variables(tree) == []


def test_harness_scan_flags_a_planted_copy():
    tree = ast.parse("import os\nimport benchmark\n"
                     "for v in ('OMP_NUM_THREADS', 'MKL_NUM_THREADS'):\n    os.environ[v] = '1'\n"
                     "def _quartiles(xs):\n    return xs\n"
                     "def main():\n    def _fresh(src):\n        return src\n"
                     "    return dict(PYTHONPATH='src', OPENBLAS_NUM_THREADS='1')\n")
    assert not _imports(tree, "benchkit")
    assert _definitions(tree, HARNESS) == [(5, "_quartiles"), (8, "_fresh")]
    assert _thread_variables(tree) == [(3, "MKL_NUM_THREADS"), (3, "OMP_NUM_THREADS"),
                                       (10, "OPENBLAS_NUM_THREADS")]
