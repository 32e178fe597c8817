#!/usr/bin/env python3
"""Peak memory and wall time of the cherry pipeline against the dimension k,
in one or more source trees.

    python3 scripts/bench_rss.py --repeat 3 parent=/path/to/old/src change=src > BENCH_rss.json

Each positional argument is LABEL=SRC, a `src` directory holding the
`blockforge` package.  For each k in --dims (default 20, 40, 80 and 200) the
input is the LPS graph X^{5,13} (n = 2184) and a seeded random k x 2184
supply over GF(3) with projectively distinct columns, and the stages are:

- `setup`: importing blockforge, building the graph and the supply;
- `dump`: `edge_span_union` over the cherries of the graph;
- `round_trip`: `write_blocking_set`, then `read_blocking_set` of that file;
- `sampled`: 12 trials of `is_strong_blocking_sampled` (s = 2) on the read-back set.

Every run is a fresh process that does nothing else (the trees alternate),
with BLAS single-threaded.  After each stage it records the stage's wall
time and the process's `ru_maxrss` so far, so the stage that sets the peak
shows as the one after which `ru_maxrss` stops rising.  Reported: the median
and quartiles over --repeat processes, and from the first process |B|, the
file's size and a digest of the points as int64, which must agree across
trees.  The JSON result goes to stdout.
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
import tempfile
import time

STAGES = ("setup", "dump", "round_trip", "sampled")
DIMS = (20, 40, 80, 200)
LPS_P, LPS_Q, FIELD, S, TRIALS, SEED = 5, 13, 3, 2, 12, 7


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


def measure(src: str, k: int, path: str) -> dict:
    """One pass of every stage in this process: wall time and ru_maxrss after each."""
    stages = {}

    def done(name, t0):
        stages[name] = {"s": time.perf_counter() - t0, "ru_maxrss_mb": _rss_mb()}
        return time.perf_counter()

    t = time.perf_counter()
    sys.path.insert(0, src)
    import numpy as np
    import blockforge as bf
    fld = bf.field_create(FIELD)
    g = bf.lps_graph(LPS_P, LPS_Q)
    supply = _supply(bf, fld, k, g.n, np.random.default_rng(SEED + k))
    t = done("setup", t)
    b = bf.edge_span_union(bf.construct.cherry_hypergraph(g), supply)
    t = done("dump", t)
    bf.construct.write_blocking_set(path, b)
    b2 = bf.construct.read_blocking_set(path)
    if b2 != b:
        raise SystemExit(f"{src}: read_blocking_set does not give back the set for k={k}")
    t = done("round_trip", t)
    rep = bf.is_strong_blocking_sampled(b2, S, TRIALS, seed=SEED)
    done("sampled", t)
    digest = hashlib.sha256(np.ascontiguousarray(b.points, dtype=np.int64).tobytes())
    return {"stages": stages, "size": b.size, "file_bytes": os.path.getsize(path),
            "points_sha": digest.hexdigest()[:16], "sampled": rep.result}


def _fresh(src, k, path):
    out = subprocess.run([sys.executable, __file__, "--one", src, str(k), path],
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def _summary(runs):
    first = runs[0]
    out = {key: first[key] for key in ("size", "file_bytes", "points_sha", "sampled")}
    for key in out:
        if any(run[key] != out[key] for run in runs):
            raise SystemExit(f"runs disagree on {key}")
    out["stages"] = {name: {"s": _quartiles([r["stages"][name]["s"] for r in runs], 4),
                            "ru_maxrss_mb": _quartiles([r["stages"][name]["ru_maxrss_mb"]
                                                        for r in runs], 1)}
                     for name in STAGES}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("trees", nargs="*", metavar="LABEL=SRC")
    ap.add_argument("--repeat", type=int, default=3, help="fresh processes per tree and k")
    ap.add_argument("--dims", type=int, nargs="+", default=list(DIMS))
    ap.add_argument("--one", nargs=3, metavar=("SRC", "K", "PATH"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.repeat < 2:
        ap.error("--repeat must be >= 2, for quartiles")
    if args.one:
        src, k, path = args.one
        print(json.dumps(measure(src, int(k), path)))
        return
    trees = dict(tree.split("=", 1) for tree in args.trees or ["change=src"])
    result = {"machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                          "blas_threads": 1},
              "repeat": args.repeat, "seed": SEED, "graph": f"X^{{{LPS_P},{LPS_Q}}}",
              "field": FIELD, "trials": TRIALS, "dims": {}}
    labels = list(trees)
    for k in args.dims:
        runs = {label: [] for label in labels}
        with tempfile.TemporaryDirectory() as tmp:
            for i in range(args.repeat):
                for label in labels[i % 2:] + labels[:i % 2]:  # alternate which tree runs first
                    runs[label].append(_fresh(trees[label], k, os.path.join(tmp, "b.pts")))
        out = {label: _summary(runs[label]) for label in labels}
        if len({out[label]["points_sha"] for label in labels}) > 1:
            raise SystemExit(f"trees disagree on the points for k={k}")
        print(json.dumps({k: {label: out[label]["stages"] for label in labels}}), file=sys.stderr)
        result["dims"][str(k)] = out
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
