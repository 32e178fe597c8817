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

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time

CASES = {"cherry_k20": (2, 20), "neighborhood_s3_k20": (3, 20), "neighborhood_s3_k40": (3, 40)}
LPS_P, LPS_Q, FIELD, SEED = 5, 13, 3, 7


def _quartiles(values, digits):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(med, digits), "q1": round(q1, digits), "q3": round(q3, digits)}


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _supply(bf, fld, k, n, rng):
    """A k x n supply with nonzero, projectively distinct random columns
    (offending columns are redrawn)."""
    cols = rng.integers(0, fld.q, size=(n, k))
    while True:
        bad = ~cols.any(axis=1)
        if not bad.any():
            _, repeats = bf.linalg.distinct_rows(bf.supply.normalize_rows(fld, cols))
            bad[repeats] = True
        if not bad.any():
            return bf.PointSupply(bf.MatrixGF(fld, cols.T), provenance="random")
        cols[bad] = rng.integers(0, fld.q, size=(int(bad.sum()), k))


def measure(src: str, case: str) -> dict:
    """One dump of `case` in this process."""
    s, k = CASES[case]
    sys.path.insert(0, src)
    import numpy as np
    import blockforge as bf
    fld = bf.field_create(FIELD)
    g = bf.lps_graph(LPS_P, LPS_Q)
    supply = _supply(bf, fld, k, g.n, np.random.default_rng(SEED + k))
    h = (bf.construct.cherry_hypergraph(g) if s == 2
         else bf.construct.neighborhood_hypergraph(g, s))
    rows = [0]
    matmul = type(fld).matmul_arr

    def counted(self, a, b):
        rows[0] += np.shape(a)[0] * np.shape(b)[1] // k
        return matmul(self, a, b)

    type(fld).matmul_arr = counted
    setup_mb = _rss_mb()
    t = time.perf_counter()
    b = bf.edge_span_union(h, supply)
    dump_s = time.perf_counter() - t
    peak_mb = _rss_mb()
    digest = hashlib.sha256(np.ascontiguousarray(b.points, dtype=np.int64).tobytes())
    return {"dump_s": dump_s, "setup_rss_mb": setup_mb, "peak_rss_mb": peak_mb,
            "dump_rss_rise_mb": peak_mb - setup_mb, "rows_imaged": rows[0],
            "size": b.size, "points_sha": digest.hexdigest()[:16]}


def _fresh(src, case):
    out = subprocess.run([sys.executable, __file__, "--one", src, case],
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def _summary(runs):
    first = runs[0]
    out = {key: first[key] for key in ("rows_imaged", "size", "points_sha")}
    for key in out:
        if any(run[key] != out[key] for run in runs):
            raise SystemExit(f"runs disagree on {key}")
    out["dump_s"] = _quartiles([r["dump_s"] for r in runs], 4)
    for key in ("setup_rss_mb", "peak_rss_mb", "dump_rss_rise_mb"):
        out[key] = _quartiles([r[key] for r in runs], 1)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("trees", nargs="*", metavar="LABEL=SRC")
    ap.add_argument("--repeat", type=int, default=7, help="fresh processes per tree and case")
    ap.add_argument("--cases", nargs="+", default=list(CASES), choices=list(CASES))
    ap.add_argument("--one", nargs=2, metavar=("SRC", "CASE"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.repeat < 2:
        ap.error("--repeat must be >= 2, for quartiles")
    if args.one:
        print(json.dumps(measure(*args.one)))
        return
    trees = dict(tree.split("=", 1) for tree in args.trees or ["change=src"])
    result = {"machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                          "blas_threads": 1},
              "repeat": args.repeat, "seed": SEED, "graph": f"X^{{{LPS_P},{LPS_Q}}}",
              "field": FIELD, "cases": {}}
    labels = list(trees)
    for case in args.cases:
        runs = {label: [] for label in labels}
        for i in range(args.repeat):
            for label in labels[i % 2:] + labels[:i % 2]:  # alternate which tree runs first
                runs[label].append(_fresh(trees[label], case))
        out = {label: _summary(runs[label]) for label in labels}
        for key in ("size", "points_sha"):
            if len({out[label][key] for label in labels}) > 1:
                raise SystemExit(f"trees disagree on {key} for {case}")
        print(json.dumps({case: {label: (out[label]["dump_s"]["median"],
                                         out[label]["peak_rss_mb"]["median"])
                                 for label in labels}}), file=sys.stderr)
        s, k = CASES[case]
        result["cases"][case] = {"s": s, "k": k, **out}
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
