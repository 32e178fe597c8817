#!/usr/bin/env python3
"""Wall time, peak memory and rows imaged of the span dump
(`construct.edge_span_union`), in one or more source trees.

    python3 scripts/bench_span.py --repeat 7 parent=/path/to/old/src change=src > BENCH_span.json

Each positional argument is LABEL=SRC, a `src` directory holding the
`blockforge` package.  The graph is the LPS graph X^{5,13} (n = 2184) and the
supply a seeded random k x 2184 supply over GF(3) with projectively distinct
columns.  The cases are:

- `cherry_k20`: the cherries of the graph (s = 2), k = 20;
- `neighborhood_s3_k20` and `neighborhood_s3_k40`: the 4-subsets of the
  closed neighbourhoods (`neighborhood_hypergraph`, s = 3), k = 20 and 40.

Every run is a fresh process that does nothing else (the trees alternate),
with BLAS single-threaded.  It builds the graph, the supply and the
hypergraph, then times one `edge_span_union` call with the field matmul
wrapped to count the rows it images (rows of the product / k).  Reported:
the median and quartiles over --repeat processes of the dump's wall time,
of `ru_maxrss` after the set-up and after the dump, and of the dump's rise
in `ru_maxrss`; and from the first process the rows imaged, |B| and a digest
of the points as int64.  |B| and the digest must agree across trees and
runs.  The JSON result goes to stdout.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import benchkit

CASES = {"cherry_k20": (2, 20), "neighborhood_s3_k20": (3, 20), "neighborhood_s3_k40": (3, 40)}
LPS_P, LPS_Q, FIELD, SEED = 5, 13, 3, 7


def measure(case: str) -> dict:
    """One dump of `case` in this process."""
    s, k = CASES[case]
    import numpy as np
    import blockforge as bf
    fld = bf.field_create(FIELD)
    g = bf.lps_graph(LPS_P, LPS_Q)
    supply = bf.PointSupply(benchkit.distinct_columns(bf, fld, k, g.n, SEED + k),
                            provenance="random")
    h = (bf.construct.cherry_hypergraph(g) if s == 2
         else bf.construct.neighborhood_hypergraph(g, s))
    rows = [0]
    matmul = type(fld).matmul_arr

    def counted(self, a, b):
        rows[0] += np.shape(a)[0] * np.shape(b)[1] // k
        return matmul(self, a, b)

    type(fld).matmul_arr = counted
    setup_mb = benchkit.rss_mb()
    t = time.perf_counter()
    b = bf.edge_span_union(h, supply)
    dump_s = time.perf_counter() - t
    peak_mb = benchkit.rss_mb()
    digest = hashlib.sha256(np.ascontiguousarray(b.points, dtype=np.int64).tobytes())
    return {"dump_s": dump_s, "setup_rss_mb": setup_mb, "peak_rss_mb": peak_mb,
            "dump_rss_rise_mb": peak_mb - setup_mb, "rows_imaged": rows[0],
            "size": b.size, "points_sha": digest.hexdigest()[:16]}


def _summary(runs):
    out = benchkit.agree(runs, ("rows_imaged", "size", "points_sha"))
    out["dump_s"] = benchkit.quartiles([r["dump_s"] for r in runs], 4)
    for key in ("setup_rss_mb", "peak_rss_mb", "dump_rss_rise_mb"):
        out[key] = benchkit.quartiles([r[key] for r in runs], 1)
    return out


def main():
    ap = benchkit.parser(__doc__, 7, "fresh processes per tree and case")
    ap.add_argument("--cases", action="append", choices=list(CASES),
                    help="a case to run; repeat for more (default: every case)")
    args = benchkit.parse(ap, measure)
    result = {**benchkit.header(args.repeat), "seed": SEED, "graph": f"X^{{{LPS_P},{LPS_Q}}}",
              "field": FIELD, "cases": {}}
    for case in args.cases or CASES:
        runs = args.trees.runs(args.repeat, lambda src: benchkit.run(__file__, src, case))
        out = {label: _summary(r) for label, r in runs.items()}
        benchkit.agree(out.values(), ("size", "points_sha"), f"trees on {case}")
        print(json.dumps({case: {label: (o["dump_s"]["median"], o["peak_rss_mb"]["median"])
                                 for label, o in out.items()}}), file=sys.stderr)
        s, k = CASES[case]
        result["cases"][case] = {"s": s, "k": k, **out}
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
