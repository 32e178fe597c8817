"""The bench scripts and the harness they share, `scripts/benchkit.py`.

Every `scripts/bench_*.py` prints its help from a bare checkout, with no
PYTHONPATH: blockforge is imported only in the fresh process that measures,
from the tree it names.  The harness's summaries, tree order, agreement
check and import check are tested directly, and one fresh-process run goes
through a planted script.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import blockforge

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
BENCH_SCRIPTS = sorted(SCRIPTS.glob("bench_*.py"))
TREE = Path(blockforge.__file__).resolve().parent.parent  # the src holding this blockforge

_spec = importlib.util.spec_from_file_location("benchkit", SCRIPTS / "benchkit.py")
benchkit = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(benchkit)


def _bare_env():
    return {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}


def test_bench_scripts_found():
    assert len(BENCH_SCRIPTS) == 9


@pytest.mark.parametrize("path", BENCH_SCRIPTS, ids=lambda p: p.name)
def test_bench_script_help_needs_no_pythonpath(path):
    proc = subprocess.run([sys.executable, str(path), "--help"], env=_bare_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "LABEL=SRC" in proc.stdout and "--repeat" in proc.stdout


@pytest.mark.parametrize("script, option", [("bench_mincode.py", ["--cases", "fail_gf7_p5"]),
                                            ("bench_span.py", ["--cases", "cherry_k20"]),
                                            ("bench_rss.py", ["--dims", "20"])])
def test_list_options_leave_the_trees_after_them(script, option):
    # the token after the option's value is a tree (here a malformed one), not a second value
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *option, "nolabel"],
                          env=_bare_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.endswith("error: each tree is LABEL=SRC\n")


def test_quartiles_keys_and_rounding():
    assert benchkit.quartiles([1, 2, 3, 4, 5], 1) == {"median": 3, "q1": 2, "q3": 4}
    assert benchkit.quartiles([1.23456, 2.34567, 3.45678], 2) == {
        "median": 2.35, "q1": 1.79, "q3": 2.9}
    assert benchkit.quartiles([0.001, 0.002, 0.0041234], 3, "_ms", 1e3) == {
        "median_ms": 2.0, "q1_ms": 1.5, "q3_ms": 3.062}


def test_timed_warms_up_then_times_repeat_calls():
    calls = []
    out = benchkit.timed(lambda: calls.append(None), 3, 6, "_s")
    assert len(calls) == 4
    assert list(out) == ["median_s", "q1_s", "q3_s"]
    assert 0 <= out["q1_s"] <= out["median_s"] <= out["q3_s"]


def test_trees_alternate_which_runs_first():
    trees = benchkit.Trees([("a", "A"), ("b", "B")])
    order = []
    runs = trees.runs(4, lambda src: order.append(src) or src.lower())
    assert order == ["A", "B", "B", "A", "A", "B", "B", "A"]
    assert runs == {"a": ["a"] * 4, "b": ["b"] * 4}
    order.clear()
    assert trees.once(order.append) == {"a": None, "b": None}
    assert trees.once(order.append) == {"a": None, "b": None}
    assert order == ["A", "B", "B", "A"]  # the turn carries over from one call to the next


def test_agree_returns_the_shared_values_and_names_a_disagreeing_key():
    runs = [{"size": 4, "points_sha": "ab", "s": 0.1}, {"size": 4, "points_sha": "ab", "s": 0.2}]
    assert benchkit.agree(runs, ("size", "points_sha")) == {"size": 4, "points_sha": "ab"}
    runs[1]["points_sha"] = "cd"
    with pytest.raises(SystemExit, match="trees on k=20 disagree on points_sha"):
        benchkit.agree(runs, ("size", "points_sha"), "trees on k=20")


def test_import_check_rejects_blockforge_from_another_tree(tmp_path):
    benchkit.check_tree(blockforge, TREE)
    (tmp_path / "blockforge").mkdir()
    with pytest.raises(SystemExit, match="not from"):
        benchkit.check_tree(blockforge, tmp_path)
    with pytest.raises(SystemExit, match="not from"):
        benchkit.check_tree(None, TREE)


def test_run_measures_in_a_fresh_process_from_the_named_tree(tmp_path, monkeypatch, capfd):
    script = tmp_path / "bench_planted.py"
    script.write_text(
        '"""A planted bench script."""\n'
        "import os\nimport sys\n"
        f"sys.path.insert(0, {str(SCRIPTS)!r})\n"
        "import benchkit\n\n"
        "def measure(x, name):\n"
        "    import blockforge\n"
        "    return {'x': x, 'name': name, 'blas': os.environ['OPENBLAS_NUM_THREADS'],\n"
        "            'from': blockforge.__file__}\n\n"
        "if __name__ == '__main__':\n"
        "    print('noise before the result')\n"
        "    benchkit.parse(benchkit.parser(__doc__, 2, 'runs'), measure)\n")
    out = benchkit.run(str(script), str(TREE), 3, "K6")
    assert out["x"] == 3 and out["name"] == "K6" and out["blas"] == "1"
    assert Path(out["from"]).resolve() == Path(blockforge.__file__).resolve()
    # blockforge is importable, but from TREE, not from the tree the run names
    monkeypatch.setenv("PYTHONPATH", str(TREE))
    capfd.readouterr()
    with pytest.raises(subprocess.CalledProcessError):
        benchkit.run(str(script), str(tmp_path), 3, "K6")
    assert f"not from {tmp_path}" in capfd.readouterr().err


def test_distinct_columns_are_nonzero_and_projectively_distinct():
    fld = blockforge.field_create(3)
    cols = benchkit.distinct_columns(blockforge, fld, 3, 13, seed=7).data.T
    assert cols.shape == (13, 3) and cols.any(axis=1).all()
    canon = blockforge.supply.normalize_rows(fld, cols)
    assert len({tuple(row) for row in canon.tolist()}) == 13  # all 13 points of PG(2, 3)
    again = benchkit.distinct_columns(blockforge, fld, 3, 13, seed=7).data.T
    assert (again == cols).all()
