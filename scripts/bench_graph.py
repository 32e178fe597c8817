#!/usr/bin/env python3
"""Time the graph side of the lps-sampled pass, and small eliminations, in
one or more source trees.

    python3 scripts/bench_graph.py --repeat 5 parent=/path/to/old/src change=src > BENCH_graph.json

Each positional argument is LABEL=SRC, a `src` directory holding the
`blockforge` package.  Every measurement runs in a fresh process per tree,
with BLAS single-threaded; the order of the trees alternates from one
measurement (or one RSS process) to the next.

- `lps_graph_5_13`, `lps_graph_5_29`: `lps_graph(5, 13)` and `lps_graph(5, 29)`;
- `graph_5_13`, `graph_5_29`: `Graph(n, edges)` from the edge array of
  X^{5,13} and of X^{5,29};
- `bfs_5_13`, `bfs_5_29`: `is_connected()` then `bipartition()` on each;
- `power_graph_5_13`: `power_graph(X^{5,13}, 2)`;
- `neighborhood_5_13`: `construct.neighborhood_hypergraph(X^{5,13}, 3)`;
- `cliques_power_5_13`: `clique_hypergraph(power_graph(X^{5,13}, 2), 2)`, the
  edge builder of `ballpower --variant pairwise` at s = 1;
- `ball_budget_5_29`: `construct.ball_power_hypergraph(X^{5,29}, 2)` until it
  raises `BudgetExceededError` (C(187, 3) rows for vertex 0 alone, past the
  default 10^6);
- `cherry_hypergraph`: `construct.cherry_hypergraph` on X^{5,13};
- `general_position`: the sampled general-position gate of the benchmark's
  lps-sampled inputs (seed 1: a random 20 x 2184 supply over GF(3), 1000
  samples, t = 40), as `bench/workloads.py` runs it;
- `rref_2x4_gf3`, `rref_2x4_gf9`, `rref_18x20_gf3`: one-matrix `rref` on 200
  random matrices of that shape and field, reported per call in
  microseconds;
- `rss_after_construct`: `ru_maxrss` right after `construct_cherry` on the
  lps-sampled inputs, in a process that does nothing else (--repeat
  processes per tree).

Timings are the median and quartiles of --repeat calls after one warm-up
call.  The JSON result goes to stdout.
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
SEED = 1
RREF_MATRICES = 200
RREF_SHAPES = {"rref_2x4_gf3": (3, 1, 2, 4), "rref_2x4_gf9": (3, 2, 2, 4),
               "rref_18x20_gf3": (3, 1, 18, 20)}  # p, m, rows, cols
MEASURES = ("lps_graph_5_13", "lps_graph_5_29", "graph_5_13", "graph_5_29", "bfs_5_13",
            "bfs_5_29", "power_graph_5_13", "neighborhood_5_13", "cliques_power_5_13",
            "ball_budget_5_29", "cherry_hypergraph",
            "general_position", *RREF_SHAPES, "rss_after_construct")


def _quartiles(values, digits):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(med, digits), "q1": round(q1, digits), "q3": round(q3, digits)}


def _time(fn, repeat, scale=1.0, digits=4):
    fn()
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * scale)
    return _quartiles(times, digits)


def _lps_inputs(bf):
    """The lps-sampled workload of bench/workloads.py and its seed-1 inputs."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    wl = workloads.load(str(ROOT / "bench" / "workloads.json"))["lps-sampled"]
    return workloads, wl, wl.setup(bf, SEED)


def measure(name: str, src: str, repeat: int) -> dict:
    sys.path.insert(0, src)
    import blockforge as bf
    if name.startswith("lps_graph"):
        p, q = (int(x) for x in name.split("_")[2:])
        return {"n": bf.lps_graph(p, q).n, **_time(lambda: bf.lps_graph(p, q), repeat)}
    if name.startswith(("graph_", "bfs_")):
        import numpy as np
        g = bf.lps_graph(5, int(name.split("_")[2]))
        if name.startswith("graph_"):
            edges = np.array(list(g.edges()), dtype=np.int64)
            return {"m": g.m, **_time(lambda: bf.Graph(g.n, edges), repeat)}
        return {"connected": g.is_connected(), "bipartite": g.bipartition() is not None,
                **_time(lambda: (g.is_connected(), g.bipartition()), repeat)}
    if name == "power_graph_5_13":
        g = bf.lps_graph(5, 13)
        return {"m": bf.power_graph(g, 2).m, **_time(lambda: bf.power_graph(g, 2), repeat)}
    if name == "neighborhood_5_13":
        g = bf.lps_graph(5, 13)
        return {"edges": bf.construct.neighborhood_hypergraph(g, 3).m,
                **_time(lambda: bf.construct.neighborhood_hypergraph(g, 3), repeat)}
    if name == "cliques_power_5_13":
        g = bf.power_graph(bf.lps_graph(5, 13), 2)
        return {"edges": bf.clique_hypergraph(g, 2).m,
                **_time(lambda: bf.clique_hypergraph(g, 2), repeat)}
    if name == "ball_budget_5_29":
        g = bf.lps_graph(5, 29)

        def doomed():
            try:
                bf.construct.ball_power_hypergraph(g, 2)
            except bf.BudgetExceededError as err:
                return err.required
        return {"required": doomed(), **_time(doomed, repeat)}
    if name == "cherry_hypergraph":
        g = bf.lps_graph(5, 13)
        return {"edges": bf.construct.cherry_hypergraph(g).m,
                **_time(lambda: bf.construct.cherry_hypergraph(g), repeat)}
    if name in RREF_SHAPES:
        import numpy as np
        p, m, rows, cols = RREF_SHAPES[name]
        fld = bf.field_create(p, m)
        rng = np.random.default_rng(SEED)
        mats = [bf.MatrixGF(fld, rng.integers(0, fld.q, size=(rows, cols)))
                for _ in range(RREF_MATRICES)]

        def run():
            for mat in mats:
                bf.rref(mat)
        return {"matrices": RREF_MATRICES, "unit": "us per call",
                **_time(run, repeat, 1e6 / RREF_MATRICES, 1)}
    workloads, wl, inp = _lps_inputs(bf)

    def gate():
        return bf.verify_general_position(inp["supply"], workloads.S, wl.SPAN_T,
                                          samples=wl.GP_SAMPLES, seed=inp["seeds"]["gp"])
    if name == "general_position":
        return {"report": gate().to_dict(), **_time(gate, repeat)}
    import resource
    b = bf.construct_cherry(bf.lps_graph(wl.LPS_P, wl.LPS_Q), inp["supply"], report=gate())
    return {"points": b.size,
            "ru_maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}


def _fresh(name, src, repeat):
    out = subprocess.run([sys.executable, __file__, "--one", name, src, "--repeat", str(repeat)],
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("trees", nargs="*", metavar="LABEL=SRC")
    ap.add_argument("--repeat", type=int, default=5,
                    help="timed calls per measurement, or processes for the RSS reading")
    ap.add_argument("--one", nargs=2, metavar=("MEASURE", "SRC"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.repeat < 2:
        ap.error("--repeat must be >= 2, for quartiles")
    if args.one:
        print(json.dumps(measure(*args.one, args.repeat)))
        return
    trees = list(dict(tree.split("=", 1) for tree in args.trees or ["change=src"]).items())
    result = {"machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                          "blas_threads": 1},
              "repeat": args.repeat, "seed": SEED, "measures": {}}
    turn = 0
    for name in MEASURES:
        if name == "rss_after_construct":
            runs = {label: [] for label, _ in trees}
            for _ in range(args.repeat):
                for label, src in trees[::-1 if turn % 2 else 1]:
                    runs[label].append(_fresh(name, src, args.repeat))
                turn += 1
            out = {label: {"points": r[0]["points"],
                           "ru_maxrss_mb": _quartiles([x["ru_maxrss_mb"] for x in r], 1)}
                   for label, r in runs.items()}
        else:
            ran = {label: _fresh(name, src, args.repeat)
                   for label, src in trees[::-1 if turn % 2 else 1]}
            out = {label: ran[label] for label, _ in trees}
            turn += 1
        print(json.dumps({name: out}), file=sys.stderr)
        result["measures"][name] = out
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
