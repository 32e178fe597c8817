import io
import json
import subprocess
import sys

import pytest

from blockforge.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_supply_and_verify_round_trip(tmp_path, capsys):
    sup = tmp_path / "mds.pts"
    code, _, err = run_cli(["supply", "--field", "5", "--k", "3", "--n", "4",
                            "--mode", "mds", "--out", str(sup)], capsys)
    assert code == 0
    report = json.loads(err)
    assert report["result"]["report"]["s_independence"] == 2
    assert (tmp_path / "mds.pts.json").exists()

    g = tmp_path / "k4.g"
    code, _, _ = run_cli(["graph", "complete", "--n", "4", "--out", str(g)], capsys)
    assert code == 0

    b = tmp_path / "b.pts"
    code, _, err = run_cli(["construct", "--recipe", "cherry", "--graph", str(g),
                            "--supply", str(sup), "--s", "2", "--out", str(b)], capsys)
    assert code == 0
    assert json.loads(err)["result"]["points"] == 31

    code, out, _ = run_cli(["verify", "--set", str(b), "--s", "2"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["result"] == "pass"
    assert rep["result"]["subspaces_checked"] == 31

    gen = tmp_path / "code.mat"
    code, _, _ = run_cli(["convert", "--set", str(b), "--out", str(gen)], capsys)
    assert code == 0
    code, out, _ = run_cli(["mincheck", "--code", str(gen), "--s", "2"], capsys)
    assert code == 0
    assert json.loads(out)["result"]["result"] == "pass"


def test_convert_and_mincheck_files_match_stdout(tmp_path, capsys):
    b = tmp_path / "b.pts"
    b.write_text("field 3 1 0 1\ndims 4 3\n0 0 1\n0 1 0\n1 0 0\n1 1 1\n")
    gen = tmp_path / "code.mat"
    code, _, _ = run_cli(["convert", "--set", str(b), "--out", str(gen)], capsys)
    assert code == 0 and not (tmp_path / "code.mat.json").exists()
    code, out, _ = run_cli(["convert", "--set", str(b), "--out", "-"], capsys)
    assert code == 0
    assert out == gen.read_text() == "field 3 1 0 1\ndims 3 4\n0 0 1 1\n0 1 0 1\n1 0 0 1\n"
    reports = []
    for crlf in (False, True):
        if crlf:
            gen.write_bytes(gen.read_bytes().replace(b"\n", b"\r\n"))
        code, out, _ = run_cli(["mincheck", "--code", str(gen), "--s", "1"], capsys)
        reports.append((code, out))
    assert reports[0] == reports[1]


def test_mincheck_ignores_a_file_beside_the_code(tmp_path, capsys):
    gen = tmp_path / "code.mat"
    gen.write_text("field 3 1 0 1\ndims 3 4\n0 0 1 1\n0 1 0 1\n1 0 0 1\n")
    code, out, _ = run_cli(["mincheck", "--code", str(gen), "--s", "1"], capsys)
    side = tmp_path / "code.mat.json"
    side.write_text("{not json")
    assert run_cli(["mincheck", "--code", str(gen), "--s", "1"], capsys)[:2] == (code, out)
    side.unlink()
    side.mkdir()
    assert run_cli(["mincheck", "--code", str(gen), "--s", "1"], capsys)[:2] == (code, out)


def test_verify_failure_exit_code(tmp_path, capsys):
    # points of a single hyperplane of PG(2,2)
    b = tmp_path / "hyper.pts"
    b.write_text("field 2 1 0 1\ndims 3 3\n1 0 0\n0 1 0\n1 1 0\n")
    code, out, _ = run_cli(["verify", "--set", str(b), "--s", "1"], capsys)
    assert code == 1
    rep = json.loads(out)
    assert rep["result"]["result"] == "fail"
    assert rep["result"]["counterexample"] is not None


def test_verify_jobs_byte_identical(tmp_path, capsys):
    sup = tmp_path / "mds.pts"
    run_cli(["supply", "--field", "5", "--k", "3", "--n", "4", "--out", str(sup)], capsys)
    g = tmp_path / "k4.g"
    run_cli(["graph", "complete", "--n", "4", "--out", str(g)], capsys)
    b = tmp_path / "b.pts"
    run_cli(["construct", "--recipe", "cherry", "--graph", str(g),
             "--supply", str(sup), "--s", "2", "--out", str(b)], capsys)
    outputs = set()
    for jobs in ("1", "4", "16"):
        code, out, _ = run_cli(["--jobs", jobs, "verify", "--set", str(b), "--s", "2"],
                               capsys)
        assert code == 0
        # the config echo records the worker count; strip it before comparing
        payload = json.loads(out)
        payload["config"].pop("jobs")
        outputs.add(json.dumps(payload, sort_keys=True))
    assert len(outputs) == 1


def test_sampled_verify_deterministic(tmp_path, capsys):
    b = tmp_path / "hyper.pts"
    b.write_text("field 2 1 0 1\ndims 3 3\n1 0 0\n0 1 0\n1 1 0\n")
    runs = set()
    for _ in range(2):
        code, out, _ = run_cli(["--seed", "7", "verify", "--set", str(b),
                                "--s", "1", "--sampled", "50"], capsys)
        assert code == 1
        runs.add(out)
    assert len(runs) == 1


def test_budget_env_exit_code(tmp_path, capsys, monkeypatch):
    b = tmp_path / "hyper.pts"
    b.write_text("field 2 1 0 1\ndims 3 3\n1 0 0\n0 1 0\n1 1 0\n")
    monkeypatch.setenv("BLOCKFORGE_BUDGET_SUBSPACES", "2")
    code, _, err = run_cli(["verify", "--set", str(b), "--s", "1"], capsys)
    assert code == 2
    assert "budget 'subspaces' exceeded" in err


def test_oracle_subcommand(capsys):
    code, out, _ = run_cli(["oracle", "--field", "2", "--k", "3", "--s", "1"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["size"] == 6 and rep["result"]["exact"]


def test_spectra_text_format(tmp_path, capsys):
    g = tmp_path / "k5.g"
    run_cli(["graph", "complete", "--n", "5", "--out", str(g)], capsys)
    code, out, _ = run_cli(["--format", "text", "spectra", "--graph", str(g)], capsys)
    assert code == 0
    assert "lambda_bound: 1.0" in out


@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
def test_spectra_rejects_a_bad_tolerance(tmp_path, capsys, tol):
    g = tmp_path / "k5.g"
    run_cli(["graph", "complete", "--n", "5", "--out", str(g)], capsys)
    code, out, err = run_cli(["spectra", "--graph", str(g), "--tol", tol], capsys)
    assert code == 2 and out == ""
    assert err == f"error: tol={float(tol)} must be a positive finite number\n"


def test_pipe_graph_to_spectra():
    cmd = (f"{sys.executable} -m blockforge graph lps --p 5 --q 13 2>/dev/null | "
           f"{sys.executable} -m blockforge spectra --tol 1e-6")
    proc = subprocess.run(cmd, shell=True, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["result"]["n"] == 2184 and rep["result"]["bipartite"]
    assert rep["result"]["lambda_bound"] <= 2 * 5 ** 0.5 + 1e-6


def test_pipe_construct_to_verify(tmp_path):
    sup = tmp_path / "mds.pts"
    g = tmp_path / "k4.g"
    for argv in (["supply", "--field", "5", "--k", "3", "--n", "4", "--out", str(sup)],
                 ["graph", "complete", "--n", "4", "--out", str(g)]):
        assert main(argv) == 0
    cmd = (f"{sys.executable} -m blockforge construct --recipe cherry "
           f"--graph {g} --supply {sup} --s 2 2>/dev/null | "
           f"{sys.executable} -m blockforge verify --set - --s 2")
    proc = subprocess.run(cmd, shell=True, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["result"] == "pass"


def test_graph_transform_subcommands(tmp_path, capsys):
    g = tmp_path / "c6.g"
    g.write_text("graph 6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n")
    code, out, _ = run_cli(["graph", "power", "--in", str(g), "--u", "2"], capsys)
    assert code == 0
    assert out.startswith("graph 6 12\n")  # C6^2 is 4-regular
    code, out, _ = run_cli(["graph", "blowup", "--in", str(g), "--D", "2"], capsys)
    assert code == 0
    assert out.startswith("graph 12 30\n")  # 6 clique edges + 6*4 cross edges
    code, out, _ = run_cli(["graph", "from-file", "--in", str(g)], capsys)
    assert code == 0
    from blockforge.expander import read_graph
    assert read_graph(io.BytesIO(out.encode())).adjacency == read_graph(g).adjacency


@pytest.mark.parametrize("argv, flag", [
    (["lps", "--q", "13"], "--p"),
    (["lps", "--p", "5"], "--q"),
    (["complete"], "--n"),
    (["power"], "--u"),
    (["blowup"], "--D"),
])
def test_graph_names_a_missing_flag(argv, flag, tmp_path, capsys):
    g = tmp_path / "c4.g"
    g.write_text("graph 4 4\n0 1\n1 2\n2 3\n0 3\n")
    code, out, err = run_cli(["graph", *argv, "--in", str(g)], capsys)
    assert code == 2 and out == ""
    assert err == f"error: graph {argv[0]} needs {flag}\n"


def test_verify_sampled_zero_is_an_argument_error(tmp_path, capsys):
    b = tmp_path / "hyper.pts"
    b.write_text("field 2 1 0 1\ndims 3 3\n1 0 0\n0 1 0\n1 1 0\n")
    code, out, err = run_cli(["verify", "--set", str(b), "--s", "1", "--sampled", "0"], capsys)
    assert code == 2 and out == ""
    assert err == "error: need at least one trial\n"


def test_supply_random_mode(tmp_path, capsys):
    out_path = tmp_path / "r.pts"
    code, _, err = run_cli(["supply", "--field", "3", "--k", "4", "--n", "12",
                            "--mode", "random", "--s", "1", "--t", "12",
                            "--seed", "1", "--out", str(out_path)], capsys)
    assert code == 0
    rep = json.loads(err)
    assert rep["result"]["provenance"] == "random-verified"
    assert rep["result"]["report"]["s_independence"] >= 1


def test_bad_arguments_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--s", "2"])  # missing --set
    assert exc.value.code == 2
    code = main(["verify", "--set", "/nonexistent/file.pts", "--s", "2"])
    capsys.readouterr()
    assert code == 2


def _run_bytes(argv, monkeypatch, stdin=b""):
    """main(argv) in this process with `stdin` on standard input: (exit code,
    stdout as bytes, stderr as text).  Both streams are text wrappers over
    bytes, so a command may use `.read()`/`.write()` or their `.buffer`."""
    out = io.TextIOWrapper(io.BytesIO(), write_through=True)
    err = io.StringIO()
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin)))
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", err)
    code = main(argv)
    out.flush()
    return code, out.buffer.getvalue(), err.getvalue()


def _pipeline_files(tmp_path, monkeypatch):
    """The files of a small supply -> graph -> construct -> convert run, as
    the CLI writes them with --out PATH; "bare" is the supply without its
    sidecar, which standard input cannot carry."""
    files = {name: tmp_path / name for name in ("supply", "graph", "set", "code", "bare")}
    for argv in (["supply", "--field", "5", "--k", "3", "--n", "4", "--out", files["supply"]],
                 ["graph", "complete", "--n", "4", "--out", files["graph"]],
                 ["construct", "--recipe", "cherry", "--graph", files["graph"],
                  "--supply", files["supply"], "--s", "2", "--out", files["set"]],
                 ["convert", "--set", files["set"], "--out", files["code"]]):
        assert _run_bytes([str(a) for a in argv], monkeypatch)[0] == 0
    files["bare"].write_bytes(files["supply"].read_bytes())
    return files


def _fill(argv, files):
    """argv with each {name} replaced by the path of that file."""
    return [str(files[a[1:-1]]) if a.startswith("{") else a for a in argv]


@pytest.mark.parametrize("argv", [
    ["supply", "--field", "5", "--k", "3", "--n", "4"],
    ["supply", "--field", "3", "--k", "4", "--n", "12", "--mode", "random",
     "--s", "1", "--t", "12", "--seed", "1"],
    ["graph", "lps", "--p", "5", "--q", "13"],
    ["graph", "complete", "--n", "4"],
    ["graph", "from-file", "--in", "{graph}"],
    ["graph", "power", "--in", "{graph}", "--u", "2"],
    ["graph", "blowup", "--in", "{graph}", "--D", "2"],
    ["construct", "--recipe", "cherry", "--graph", "{graph}", "--supply", "{supply}",
     "--s", "2"],
    ["convert", "--set", "{set}"],
], ids=["supply-mds", "supply-random", "graph-lps", "graph-complete", "graph-from-file",
        "graph-power", "graph-blowup", "construct", "convert"])
def test_stdout_is_the_file_that_out_writes(argv, tmp_path, monkeypatch):
    files = _pipeline_files(tmp_path, monkeypatch)
    argv = _fill(argv, files)
    out_path = tmp_path / "out"
    code, out, _ = _run_bytes(argv + ["--out", str(out_path)], monkeypatch)
    assert code == 0 and out == b""
    want = out_path.read_bytes()
    assert want.endswith(b"\n")
    for to_stdout in (["--out", "-"], []):
        code, out, _ = _run_bytes(argv + to_stdout, monkeypatch)
        assert code == 0 and out == want


@pytest.mark.parametrize("argv, piped", [
    (["verify", "--set", "{set}", "--s", "2"], "set"),
    (["verify", "--set", "{set}", "--s", "2", "--sampled", "20"], "set"),
    (["construct", "--recipe", "cherry", "--graph", "{graph}", "--supply", "{bare}",
      "--s", "2"], "bare"),
    (["construct", "--recipe", "cherry", "--graph", "{graph}", "--supply", "{supply}",
      "--s", "2"], "graph"),
    (["mincheck", "--code", "{code}", "--s", "2"], "code"),
    (["spectra", "--graph", "{graph}"], "graph"),
    (["graph", "power", "--in", "{graph}", "--u", "2"], "graph"),
    (["graph", "blowup", "--in", "{graph}", "--D", "2"], "graph"),
    (["graph", "from-file", "--in", "{graph}"], "graph"),
], ids=["verify", "verify-sampled", "construct-supply", "construct-graph", "mincheck",
        "spectra", "graph-power", "graph-blowup", "graph-from-file"])
def test_dash_reads_stdin_as_the_file(argv, piped, tmp_path, monkeypatch):
    files = _pipeline_files(tmp_path, monkeypatch)
    at = argv.index("{" + piped + "}")
    path = files[piped]
    from_file = _run_bytes(_fill(argv, files), monkeypatch)
    from_stdin = _run_bytes(_fill(argv[:at] + ["-"] + argv[at + 1:], files), monkeypatch,
                            stdin=path.read_bytes())
    # the report's config echoes the argument: the path, or "-"
    key = argv[at - 1].lstrip("-")
    echo, dash = f'"{key}": {json.dumps(str(path))}', f'"{key}": "-"'
    assert from_file[0] == from_stdin[0] in (0, 1)
    assert from_file[1].replace(echo.encode(), dash.encode()) == from_stdin[1]
    assert from_file[2].replace(echo, dash) == from_stdin[2]
    assert dash in (from_stdin[1].decode() + from_stdin[2])


def test_construct_refuses_two_inputs_on_stdin(tmp_path, monkeypatch):
    files = _pipeline_files(tmp_path, monkeypatch)
    code, out, err = _run_bytes(["construct", "--recipe", "cherry", "--graph", "-",
                                 "--supply", "-", "--s", "2"], monkeypatch,
                                stdin=files["graph"].read_bytes())
    assert code == 2 and out == b""
    assert err.startswith("error: ") and "--graph" in err and "--supply" in err
    assert sys.stdin.buffer.tell() == 0  # refused before either reader ran
