"""Source hygiene of the package, checked with `ast` alone.

No module may import a name it never uses, and no module or script may
rely on `assert`, which `python -O` strips.  Rows are sorted and
deduplicated in one place: `np.lexsort` is called once, in
`linalg.distinct_rows`, and no call passes `axis=` to `np.unique`.  Field
inverses are taken only in `linalg`: `inv_arr` scales projective points in
`normalize_rows` and `nonzero_points` and pivot rows in `_eliminate`, the
elimination loop of `rref_stack` and `rank_stack`.  Only exact products compute in float32:
`gf.FieldSpec.matmul_arr`'s BLAS route and `mincode`'s support scan.  One
byte codec carries every file: matrix, supply, blocking-set and graph files
and their sidecars are opened only in `linalg` (by `_read_bytes`,
`read_sidecar` and `write_rows`), so every read takes the byte-level grid
path when it applies, and `np.loadtxt` is called
once, in `linalg.read_rows`.  No module reads `sys.stdin` as text or writes
data to `sys.stdout`: the CLI hands `sys.stdin.buffer` (in `_source`) only
to a reader and `sys.stdout.buffer` (in `_target`) only to a writer, no
module calls `print`, and `sys.stdout` itself is only the default stream of
`_emit_report`, which writes the reports.  A graph's stored form (`_edge_array`, and the CSR arrays
`_heads` and `_ends`) is read only in `expander`.  Points inside subspaces
are ranked in one place: `_ragged_ranks` is called only by
`verify._meet_ranks`, and the removed helpers that are test references now
(`normalize_column`, `_quotient_parts`), the removed alias
`subspace_count`, the string twins and file helpers that the byte codec
replaced, the unread hypergraph format, the LPS closure's own projective
scaling (`_pgl_normalize`) and the pairwise ball reading's clique lister
(`clique_hypergraph`), are defined nowhere in the package.  Every `Budgets`
field is read off some `budgets` value, not only as a `DEFAULT_BUDGETS`
default.  The bench scripts
share one harness: every `scripts/bench_*.py` imports `benchkit` and
defines no quartile, timing, RSS, fresh-process or supply helper of its
own, nor names a `*_NUM_THREADS` variable.
"""

import ast
import dataclasses
import os
from pathlib import Path

import pytest

import blockforge
from blockforge.budgets import Budgets

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


def _owned_nodes(tree):
    """(enclosing function or None, node) for every node of the tree."""
    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, child.name)
                continue
            yield owner, child
            yield from walk(child, owner)

    return walk(tree, None)


def _calls(tree, name, modules=("np", "numpy")):
    """(enclosing function or None, line, keyword names) of every
    `<module>.<name>(...)` call, of every bare `<name>(...)` call when
    `modules` is None, or of every `<expr>.<name>(...)` call when it is "*"."""
    def matches(func):
        if modules is None:
            return isinstance(func, ast.Name) and func.id == name
        return (isinstance(func, ast.Attribute) and func.attr == name
                and (modules == "*" or isinstance(func.value, ast.Name)
                     and func.value.id in modules))

    return [(owner, node.lineno, {kw.arg for kw in node.keywords})
            for owner, node in _owned_nodes(tree)
            if isinstance(node, ast.Call) and matches(node.func)]


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


SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


@pytest.mark.parametrize("path", MODULES + SCRIPTS,
                         ids=lambda p: p.name if p in MODULES else f"scripts/{p.name}")
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


def test_inverses_only_in_linalg():
    # a projective point is scaled in normalize_rows, or in nonzero_points
    # for the span dump, a pivot row in the elimination loop that rref_stack
    # and rank_stack share
    assert _owners("inv_arr", "*") == [("linalg", "_eliminate"), ("linalg", "nonzero_points"),
                                       ("linalg", "normalize_rows")]


def test_inverse_scan_flags_a_planted_scaling():
    tree = ast.parse("def plc_edge(fld, c):\n    return fld.mul_arr(fld.inv_arr(c[:, :1]), c)\n"
                     "def _pgl(self, m):\n    return self.field.inv_arr(m[0]) * m\n"
                     "inv = np.inv_arr(3)\n")
    assert _calls(tree, "inv_arr", "*") == [("plc_edge", 2, set()), ("_pgl", 4, set()),
                                            (None, 5, set())]
    assert _calls(tree, "inv_arr") == [(None, 5, set())]


def _float32_uses(tree):
    """(enclosing function or None, line) of every `np.float32` or
    `numpy.float32`, and of every "float32" or "f4" dtype string."""
    return [(owner, node.lineno) for owner, node in _owned_nodes(tree)
            if isinstance(node, ast.Attribute) and node.attr == "float32"
            and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
            or isinstance(node, ast.Constant) and node.value in ("float32", "f4")]


def test_float32_only_in_exact_products():
    # matmul_arr's BLAS route (sums below 2^24) and mincode's 0/1 support
    # products are exact in float32; nothing else computes in it
    owners = sorted({(path.stem, owner) for path in MODULES
                     for owner, _ in _float32_uses(ast.parse(path.read_text()))})
    assert owners == [("gf", "matmul_arr"), ("mincode", "_first_contained_pair"),
                      ("mincode", "_least_pair")]


def test_float32_scan_flags_planted_uses():
    tree = ast.parse("import numpy as np\ndef span(a, b):\n"
                     "    return a.astype(np.float32) @ b.astype('float32')\n"
                     "def keys(r):\n    return r.astype('f4'), np.float64(1), r.float32\n"
                     "ONE = numpy.float32(1)\n")
    assert _float32_uses(tree) == [("span", 3), ("span", 3), ("keys", 5), (None, 6)]


def test_loadtxt_only_in_read_rows():
    assert _owners("loadtxt") == [("linalg", "read_rows")]


def test_files_opened_only_by_the_codec():
    # read_sidecar opens only the sidecar; write_rows opens the file and its sidecar
    assert _owners("open", None) == [("linalg", "_read_bytes"), ("linalg", "read_sidecar"),
                                     ("linalg", "write_rows"), ("linalg", "write_rows")]


READERS = ("read_matrix", "read_supply", "read_blocking_set", "read_graph")
WRITERS = ("write_matrix", "write_supply", "write_blocking_set", "write_graph")


def _owner_map(tree):
    """{node: the name of the innermost function around it} for every node
    inside a function."""
    owner = {}
    for node in ast.walk(tree):  # outer functions come first, so inner ones win
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((sub, node.name) for sub in ast.walk(node) if sub is not node)
    return owner


def _parents(tree):
    return {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}


def _stream_uses(tree):
    """(function or None, line, stream, use) of every `sys.stdin` and
    `sys.stdout` in the tree; `use` is the attribute read from the stream
    ("buffer.write" for `sys.stdout.buffer.write`), or "" for the stream
    itself."""
    owner, parents = _owner_map(tree), _parents(tree)
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and node.attr in ("stdin", "stdout")
                and isinstance(node.value, ast.Name) and node.value.id == "sys"):
            continue
        use, up = [], parents.get(node)
        while isinstance(up, ast.Attribute):
            use.append(up.attr)
            up = parents.get(up)
        found.append((owner.get(node), node.lineno, node.attr, ".".join(use)))
    return sorted(found, key=lambda u: u[1])


def _handed_to(tree, helper):
    """(called function, argument position) of every call of `helper` in
    the tree, in source order, by the call it is an argument of; (None,
    None) when it is not the direct argument of a call."""
    parents = _parents(tree)
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == helper):
            up = parents.get(node)
            handed = (None, None)
            if isinstance(up, ast.Call) and isinstance(up.func, ast.Name) and node in up.args:
                handed = (up.func.id, up.args.index(node))
            found.append(((node.lineno, node.col_offset), handed))
    return [handed for _, handed in sorted(found)]


def test_standard_streams_only_as_bytes_through_the_codec():
    uses = [(path.stem, owner, stream, use) for path in MODULES
            for owner, _, stream, use in _stream_uses(ast.parse(path.read_text()))]
    assert uses == [("cli", "_source", "stdin", "buffer"),
                    ("cli", "_target", "stdout", "buffer"),
                    ("cli", "_emit_report", "stdout", "")]
    cli = ast.parse((Path(blockforge.__file__).parent / "cli.py").read_text())
    sources, targets = _handed_to(cli, "_source"), _handed_to(cli, "_target")
    assert sources and {call for call, _ in sources} <= set(READERS)
    assert targets and {call for call, _ in targets} <= set(WRITERS)
    assert {at for _, at in sources + targets} == {0}
    assert _owners("print", None) == []


def test_stream_scan_flags_planted_text_reads_and_writes():
    tree = ast.parse("import sys\n"
                     "def _source(p):\n    return sys.stdin.buffer if p == '-' else p\n"
                     "def load():\n    return sys.stdin.read()\n"
                     "def dump(text):\n    sys.stdout.write(text)\n"
                     "    sys.stdout.buffer.write(text.encode())\n"
                     "def cmd(a, g):\n    write_graph(_target(a.out), g)\n"
                     "    emit(g, _target(a.out))\n    out = _target(a.out)\n    print(a)\n")
    assert _stream_uses(tree) == [("_source", 3, "stdin", "buffer"), ("load", 5, "stdin", "read"),
                                  ("dump", 7, "stdout", "write"),
                                  ("dump", 8, "stdout", "buffer.write")]
    assert _handed_to(tree, "_target") == [("write_graph", 0), ("emit", 1), (None, None)]
    assert _calls(tree, "print", None) == [("cmd", 13, set())]


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


REMOVED = ("normalize_column", "_quotient_parts", "subspace_count",
           # string twins and file helpers replaced by the byte codec
           "format_matrix", "parse_matrix", "parse_field_rows", "format_blocking_set",
           "parse_blocking_set", "load_matrix", "_grid_file", "format_graph", "parse_graph",
           "_read_graph", "_write_graph", "_load_supply", "_load_blocking",
           "format_rows", "parse_rows", "load_rows", "load_sidecar",
           # the unread hypergraph format, and the LPS closure's own projective scaling
           "format_hypergraph", "parse_hypergraph", "_pgl_normalize",
           # the exact general-position check's column-subset rank sweep
           "dual_distance_by_ranks",
           # the clique lister of the pairwise reading of the ball recipe
           "clique_hypergraph")


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


def _budget_reads(tree):
    """The attributes read off a name `budgets`, the package's name for a
    Budgets value other than DEFAULT_BUDGETS."""
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "budgets"}


def test_every_budget_is_read():
    # a field read only as a DEFAULT_BUDGETS default is one its environment
    # variable can never reach
    reads = set().union(*(_budget_reads(ast.parse(path.read_text())) for path in MODULES))
    assert {f.name for f in dataclasses.fields(Budgets)} <= reads


def test_budget_scan_flags_only_reads_off_budgets():
    tree = ast.parse("DEFAULT_BUDGETS.points\nbudgets.cliques\nb.subsets\n")
    assert _budget_reads(tree) == {"cliques"}


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


def test_blas_is_pinned_before_numpy_loads():
    import conftest
    assert not conftest.NUMPY_LOADED_FIRST
    assert all(os.environ[var] == "1" for var in conftest.BLAS_THREAD_VARIABLES)
