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
- `ball_budget_5_29`: `construct.ball_power_hypergraph(X^{5,29}, 2)` until it
  raises `BudgetExceededError` (C(187, 3) rows for vertex 0 alone, past the
  default 10^6);
- `cherry_hypergraph`: `construct.cherry_hypergraph` on X^{5,13};
- `general_position`: the sampled general-position gate of the benchmark's
  lps-sampled inputs (seed 1: a random 20 x 2184 supply over GF(3), 1000
  samples, t = 40), as `bench/workloads.py` runs it;
- `general_position_exhaustive_*`: the exact general-position check of an
  MDS supply, in milliseconds: the four supplies of the benchmark's
  exhaustive workload (`prime` GF(13) n = 10, `dual` GF(7) n = 6, `ext`
  GF(9) n = 7 and `fail` GF(13) n = 5, all in F_q^4), and `gf11_k6_n10`,
  the GF(11) k = 6, n = 10 supply of acceptance criterion 6;
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

import json
import sys

import benchkit

SEED = 1
RREF_MATRICES = 200
RREF_SHAPES = {"rref_2x4_gf3": (3, 1, 2, 4), "rref_2x4_gf9": (3, 2, 2, 4),
               "rref_18x20_gf3": (3, 1, 18, 20)}  # p, m, rows, cols
GP_EXHAUSTIVE = {"general_position_exhaustive_" + name: spec for name, spec in {
    "prime": (13, 1, 4, 10), "dual": (7, 1, 4, 6), "ext": (3, 2, 4, 7), "fail": (13, 1, 4, 5),
    "gf11_k6_n10": (11, 1, 6, 10)}.items()}  # p, m, k, n of an MDS supply
MEASURES = ("lps_graph_5_13", "lps_graph_5_29", "graph_5_13", "graph_5_29", "bfs_5_13",
            "bfs_5_29", "power_graph_5_13", "neighborhood_5_13", "ball_budget_5_29",
            "cherry_hypergraph",
            "general_position", *GP_EXHAUSTIVE, *RREF_SHAPES, "rss_after_construct")


def measure(name: str, repeat: int) -> dict:
    import blockforge as bf
    timed = benchkit.timed
    if name.startswith("lps_graph"):
        p, q = (int(x) for x in name.split("_")[2:])
        return {"n": bf.lps_graph(p, q).n, **timed(lambda: bf.lps_graph(p, q), repeat)}
    if name.startswith(("graph_", "bfs_")):
        import numpy as np
        g = bf.lps_graph(5, int(name.split("_")[2]))
        if name.startswith("graph_"):
            edges = np.array(list(g.edges()), dtype=np.int64)
            return {"m": g.m, **timed(lambda: bf.Graph(g.n, edges), repeat)}
        return {"connected": g.is_connected(), "bipartite": g.bipartition() is not None,
                **timed(lambda: (g.is_connected(), g.bipartition()), repeat)}
    if name == "power_graph_5_13":
        g = bf.lps_graph(5, 13)
        return {"m": bf.power_graph(g, 2).m, **timed(lambda: bf.power_graph(g, 2), repeat)}
    if name == "neighborhood_5_13":
        g = bf.lps_graph(5, 13)
        return {"edges": bf.construct.neighborhood_hypergraph(g, 3).m,
                **timed(lambda: bf.construct.neighborhood_hypergraph(g, 3), repeat)}
    if name == "ball_budget_5_29":
        g = bf.lps_graph(5, 29)

        def doomed():
            try:
                bf.construct.ball_power_hypergraph(g, 2)
            except bf.BudgetExceededError as err:
                return err.required
        return {"required": doomed(), **timed(doomed, repeat)}
    if name == "cherry_hypergraph":
        g = bf.lps_graph(5, 13)
        return {"edges": bf.construct.cherry_hypergraph(g).m,
                **timed(lambda: bf.construct.cherry_hypergraph(g), repeat)}
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
                **timed(run, repeat, 1, scale=1e6 / RREF_MATRICES)}
    if name in GP_EXHAUSTIVE:
        p, m, k, n = GP_EXHAUSTIVE[name]
        supply = bf.supply_mds(bf.field_create(p, m), k, n)
        return {"report": bf.verify_general_position(supply).to_dict(),
                **timed(lambda: bf.verify_general_position(supply), repeat, 2, "_ms", 1e3)}
    lps = benchkit.lps_sampled(bf, SEED)
    if name == "general_position":
        return {"report": benchkit.lps_gate(bf, *lps).to_dict(),
                **timed(lambda: benchkit.lps_gate(bf, *lps), repeat)}
    return {"points": benchkit.lps_cherry(bf, *lps).size,
            "ru_maxrss_mb": round(benchkit.rss_mb(), 1)}


def main():
    args = benchkit.parse(benchkit.parser(
        __doc__, 5, "timed calls per measurement, or processes for the RSS reading"), measure)
    result = {**benchkit.header(args.repeat), "seed": SEED, "measures": {}}
    for name in MEASURES:
        def fresh(src):
            return benchkit.run(__file__, src, name, args.repeat)
        if name == "rss_after_construct":
            out = {label: {**benchkit.agree(r, ("points",)),
                           "ru_maxrss_mb": benchkit.quartiles([x["ru_maxrss_mb"] for x in r], 1)}
                   for label, r in args.trees.runs(args.repeat, fresh).items()}
        else:
            out = args.trees.once(fresh)
        print(json.dumps({name: out}), file=sys.stderr)
        result["measures"][name] = out
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
