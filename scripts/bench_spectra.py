#!/usr/bin/env python3
"""Time the spectral paths of `second_eigenvalue` on LPS graphs.

    python3 scripts/bench_spectra.py --repeat 5 change=src > BENCH_spectra.json

For each of X^{5,13} (n = 2184, bipartite), X^{17,13} (n = 1092) and
X^{5,29} (n = 12180) it times power iteration (an estimate) against the
trace path (a proved interval from exact closed-walk counts), and the dense
eigensolve as the reference where the graph is small enough.  Every timing
is the first `second_eigenvalue` call in a fresh process, as in a pipeline,
after the graph is built; --repeat processes per tree, graph and method
(each positional argument is LABEL=SRC; the trees alternate), with BLAS
single-threaded.  Per tree and method it records the median and quartiles of
the times and the report: `lambda_bound`, and for the trace path also
`lambda_lower` and the walk length r.  The JSON result goes to stdout.
"""

from __future__ import annotations

import json
import sys
import time

import benchkit

GRAPHS = [(5, 13), (17, 13), (5, 29)]
EXACT_MAX_N = 2500  # the dense reference needs an n x n matrix


def measure(p: int, q: int, method: str) -> dict:
    import blockforge as bf
    g = bf.lps_graph(p, q)
    t0 = time.perf_counter()
    rep = bf.second_eigenvalue(g, method=method)
    elapsed = time.perf_counter() - t0
    return {"seconds": elapsed, "report": rep.to_dict()}


def main():
    args = benchkit.parse(benchkit.parser(
        __doc__, 5, "fresh processes per tree, graph and method"), measure)
    labels = [label for label, _ in args.trees.pairs]
    rows = []
    for p, q in GRAPHS:
        row = {"graph": f"X^{{{p},{q}}}", **{label: {} for label in labels}}
        for method in ("power", "trace", "exact"):
            if method == "exact" and row[labels[0]]["n"] > EXACT_MAX_N:
                continue
            runs = args.trees.runs(args.repeat,
                                   lambda src: benchkit.run(__file__, src, p, q, method))
            for label, r in runs.items():
                rep = benchkit.agree(r, ("report",), f"{row['graph']} {method} runs")["report"]
                row[label].update(n=rep["n"], d=rep["d"], bipartite=rep["bipartite"])
                entry = {**benchkit.quartiles([run["seconds"] for run in r], 4, "_s"),
                         "method": rep["method"], "lambda_bound": rep["lambda_bound"]}
                if rep["method"] == "trace":
                    entry.update(lambda_lower=rep["lambda_lower"], r=rep["r"])
                row[label][method] = entry
        rows.append(row)
    result = {**benchkit.header(args.repeat), "graphs": rows}
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
