#!/usr/bin/env python3
"""Time the spectral paths of `second_eigenvalue` on LPS graphs.

    PYTHONPATH=src python3 scripts/bench_spectra.py --repeat 5 > BENCH_spectra.json

For each of X^{5,13} (n = 2184, bipartite), X^{17,13} (n = 1092) and
X^{5,29} (n = 12180) it times power iteration (an estimate) against the
trace path (a proved interval from exact closed-walk counts), and the dense
eigensolve as the reference where the graph is small enough.  Every timing
is the first `second_eigenvalue` call in a fresh process, as in a pipeline,
after the graph is built; --repeat processes per graph and method, with
BLAS single-threaded.  Per method it records the median and quartiles of
the times and the report: `lambda_bound`, and for the trace path also
`lambda_lower` and the walk length r.  The JSON result goes to stdout.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GRAPHS = [(5, 13), (17, 13), (5, 29)]
EXACT_MAX_N = 2500  # the dense reference needs an n x n matrix


def measure(p: int, q: int, method: str) -> dict:
    import blockforge as bf
    g = bf.lps_graph(p, q)
    t0 = time.perf_counter()
    rep = bf.second_eigenvalue(g, method=method)
    elapsed = time.perf_counter() - t0
    return {"seconds": elapsed, "report": rep.to_dict()}


def _fresh(p, q, method):
    out = subprocess.run([sys.executable, __file__, "--one", str(p), str(q), method],
                         check=True, capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")}).stdout
    return json.loads(out)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeat", type=int, default=5, help="fresh processes per graph and method")
    ap.add_argument("--one", nargs=3, metavar=("P", "Q", "METHOD"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.one:
        p, q, method = args.one
        print(json.dumps(measure(int(p), int(q), method)))
        return

    rows = []
    for p, q in GRAPHS:
        row = {"graph": f"X^{{{p},{q}}}"}
        for method in ("power", "trace", "exact"):
            if method == "exact" and row["n"] > EXACT_MAX_N:
                continue
            runs = [_fresh(p, q, method) for _ in range(args.repeat)]
            reports = {json.dumps(run["report"], sort_keys=True) for run in runs}
            if len(reports) != 1:
                raise RuntimeError(f"{row['graph']} {method}: reports differ between runs")
            rep = runs[0]["report"]
            row.update(n=rep["n"], d=rep["d"], bipartite=rep["bipartite"])
            q1, med, q3 = statistics.quantiles([run["seconds"] for run in runs], n=4,
                                               method="inclusive")
            entry = {"median_s": round(med, 4), "q1_s": round(q1, 4), "q3_s": round(q3, 4),
                     "method": rep["method"], "lambda_bound": rep["lambda_bound"]}
            if rep["method"] == "trace":
                entry.update(lambda_lower=rep["lambda_lower"], r=rep["r"])
            row[method] = entry
        rows.append(row)
    result = {"machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                          "blas_threads": 1},
              "repeat": args.repeat, "graphs": rows}
    json.dump(result, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
