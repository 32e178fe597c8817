"""Benchmark for blockforge: one workload per process.

    python3 bench/run.py --workload exhaustive --seed 1 --seconds 45 --trace 0

Run from a checkout that has `src/blockforge`.  The program is imported from
that source tree.  Set-up is sampled in fresh processes (bench/probe.py);
then the workload's pipeline runs repeatedly until the next pass would end
after --seconds, and every pass's outputs are checked against the pinned
expectations in bench/workloads.json and against the independent oracle in
bench/oracle.py.

--trace 0 reports the end-to-end metrics.  --trace 1 first runs one pass
with the span wrappers of bench/spans.py installed, then the same untraced
passes, and reports the per-layer metrics; its outputs must be
byte-identical to the untraced ones.  Human-readable lines go first; the
last line of stdout is the JSON result.  Exit code 0 means every output
matched, 1 means a mismatch (listed on stderr), 2 means the program or its
arguments are missing.
"""

from __future__ import annotations

import os

# Single-threaded numerical libraries, also for the set-up probes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5


def probe(src: Path, name: str, seed: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "probe.py"), str(src), name, str(seed)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def measure_passes(bf, wl, inputs, tmpdir, seconds):
    """Untraced passes until the next one would end after `seconds`.
    Returns (times, outputs of each pass, artifacts of the first pass,
    peak RSS in MB after set-up and the first pass).  The peak is read
    before later passes run, because those run while the first pass's
    artifacts are still held."""
    times, outs, first = [], [], None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out, art = wl.run(bf, inputs, tmpdir)
        times.append(time.perf_counter() - t0)
        if first is None:
            first = art
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wl.finish(out, art)
        outs.append(out)
        del art
        if time.perf_counter() - start + statistics.median(times) > seconds:
            return times, outs, first, peak_rss_mb


def tail(times) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(times)
    if n < 11:
        return (f"min {min(times):.4f} s, max {max(times):.4f} s "
                f"(too few passes for a percentile with ten samples beyond it)")
    return f"p{100 * (n - 10) // n} {sorted(times)[n - 11]:.4f} s"


def layer_metrics(tr, probes, traced_s, untraced_s, jobs, out) -> dict:
    span, counter = tr.span, tr.counters.get
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    def ratio(a, b):
        return a / b if b else 0.0

    for fn in ("add_arr", "sub_arr", "mul_arr"):
        put(f"gf.{fn}.self_s", span(f"gf.{fn}").self_s, "s")
    put("gf.matmul_arr.calls", span("gf.matmul_arr").calls, "count")
    put("gf.matmul_arr.self_s", span("gf.matmul_arr").self_s, "s")
    put("gf.matmul_arr.mac", counter("gf.matmul_arr.mac", 0), "mac")
    put("gf.matmul_arr.bytes", counter("gf.matmul_arr.bytes", 0), "bytes_computed")
    put("gf.field_create.s", span("gf.field_create").incl, "s")

    put("linalg.rref.calls", span("linalg.rref").calls, "count")
    put("linalg.rref.self_s", span("linalg.rref").self_s, "s")
    put("linalg.kernel_basis.calls", span("linalg.kernel_basis").calls, "count")
    put("linalg.kernel_basis.self_s", span("linalg.kernel_basis").self_s, "s")
    put("linalg.enumerate_subspaces.yielded", span("linalg.enumerate_subspaces").yielded, "count")
    put("linalg.enumerate_subspaces.self_s", span("linalg.enumerate_subspaces").self_s, "s")
    put("linalg.MatrixGF.constructed", span("linalg.MatrixGF").calls, "count")
    put("linalg.MatrixGF.self_s", span("linalg.MatrixGF").self_s, "s")
    put("linalg.projective_reps.self_s", span("linalg.projective_reps").self_s, "s")

    exhaustive = span("verify.is_strong_blocking")
    checked = counter("verify.subspaces_checked", 0)
    put("verify.is_strong_blocking.self_s", exhaustive.self_s, "s")
    put("verify.subspaces_checked", checked, "count")
    put("verify.subspaces_per_s", ratio(checked, exhaustive.incl), "1/s")
    put("verify.rref_per_subspace", ratio(counter("verify.rref_calls", 0), checked), "ratio")
    sampled = span("verify.is_strong_blocking_sampled")
    trials = counter("verify.trials", 0)
    put("verify.is_strong_blocking_sampled.self_s", sampled.self_s, "s")
    put("verify.trials", trials, "count")
    put("verify.trials_per_s", ratio(trials, sampled.incl), "1/s")
    put("verify.jobs2_speedup",
        ratio(sum(j[3] for j in jobs), sum(j[4] for j in jobs)), "ratio")

    put("supply.verify_general_position.self_s",
        span("supply.verify_general_position").self_s, "s")
    put("supply.rank_calls", counter("supply.rank_calls", 0), "count")
    put("supply.normalize_column.calls", span("supply.normalize_column").calls, "count")
    put("supply.normalize_column.self_s", span("supply.normalize_column").self_s, "s")

    emitted = counter("construct.points_emitted", 0)
    unique = counter("construct.points_unique", 0)
    put("construct.cherry_hypergraph.s", span("construct.cherry_hypergraph").incl, "s")
    put("construct.edge_span_union.self_s", span("construct.edge_span_union").self_s, "s")
    put("construct.points_emitted", emitted, "count")
    put("construct.points_unique", unique, "count")
    put("construct.dedup_ratio", ratio(unique, emitted), "ratio")
    put("construct.from_points.self_s", span("construct.from_points").self_s, "s")
    put("construct.write_blocking_set.s", span("construct.write_blocking_set").incl, "s")
    put("construct.read_blocking_set.s", span("construct.read_blocking_set").incl, "s")
    put("construct.file_bytes", out.get("file_bytes", 0), "bytes")

    put("expander.lps_graph.s", span("expander.lps_graph").incl, "s")
    put("expander.second_eigenvalue.s", span("expander.second_eigenvalue").incl, "s")

    put("mincode.is_s_minimal.self_s", span("mincode.is_s_minimal").self_s, "s")
    put("mincode.subspaces_examined", counter("mincode.subspaces_examined", 0), "count")

    for layer in spans.LAYERS:
        put(f"{layer}.self_s", tr.layer_self(layer), "s")
    put("import.blockforge_s", statistics.median(p["import_s"] for p in probes), "s")
    put("import.modules_loaded", statistics.median(p["modules_loaded"] for p in probes), "count")
    put("trace.overhead_s", traced_s - untraced_s, "s")
    return m


def run(args, src: Path, wl, tmpdir: str):
    probes = [probe(src, args.workload, args.seed) for _ in range(SETUP_SAMPLES)]
    sys.path.insert(0, str(src))
    import blockforge as bf
    if Path(bf.__file__).resolve().parent != (src / "blockforge").resolve():
        raise SystemExit(f"imported blockforge from {bf.__file__}, not from {src}")

    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install(bf)
    inputs = wl.setup(bf, args.seed)
    if tracer:
        t0 = time.perf_counter()
        traced_out, traced_art = wl.run(bf, inputs, tmpdir)
        traced_s = time.perf_counter() - t0
        tracer.uninstall()
        wl.finish(traced_out, traced_art)
        del traced_art

    times, outs, first, peak_rss_mb = measure_passes(bf, wl, inputs, tmpdir, args.seconds)
    jobs = wl.jobs2(bf, first) if tracer else []
    orc = wl.oracle(bf, inputs, first)

    ops = []
    reference = workloads.dump(outs[0])
    for i, out in enumerate(outs):
        ops += [(f"pass {i}: {op}", problems) for op, problems in wl.check(out, orc, args.seed)]
        if i:
            ops.append((f"pass {i}: same outputs as pass 0",
                        [] if workloads.dump(out) == reference else ["outputs differ"]))
    if tracer:
        ops.append(("traced pass: same outputs as untraced",
                    [] if workloads.dump(traced_out) == reference else ["outputs differ"]))
    for label, one, two, *_ in jobs:
        ops.append((f"{label}: jobs=2 report equals jobs=1",
                    [] if one == two else [f"jobs=1 {one} != jobs=2 {two}"]))

    median = statistics.median(times)
    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
             f"inputs {'deterministic' if wl.deterministic else 'seeded'}",
             f"pipeline_s  median {median:.4f} s over {len(times)} passes, {tail(times)}"]
    if tracer:
        metrics = layer_metrics(tracer, probes, traced_s, median, jobs, outs[0])
    else:
        metrics = {"pipeline_s": {"value": median, "unit": "s"},
                   "setup_s": {"value": statistics.median(p["setup_s"] for p in probes),
                               "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
    failed = sum(1 for _, problems in ops if problems)
    for op, problems in ops:
        for problem in problems:
            print(f"MISMATCH {args.workload} {op}: {problem}", file=sys.stderr)
    lines += [f"{name}  {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(f"failed_ratio  {failed}/{len(ops)} operations")
    return lines, {"correct": failed == 0, "attempted": len(ops), "failed": failed,
                   "metrics": metrics}


def main() -> int:
    wls = workloads.load(str(HERE / "workloads.json"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wls))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    src = ROOT / "src"
    if not (src / "blockforge" / "__init__.py").is_file():
        print(f"error: no blockforge source at {src / 'blockforge'}", file=sys.stderr)
        return 2
    tmpdir = tempfile.mkdtemp(prefix=".bench-", dir=ROOT)
    try:
        lines, result = run(args, src, wls[args.workload], tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
