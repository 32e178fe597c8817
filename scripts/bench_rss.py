#!/usr/bin/env python3
"""Peak memory and wall time of the cherry pipeline against the dimension k,
in one or more source trees.

    python3 scripts/bench_rss.py --repeat 3 parent=/path/to/old/src change=src > BENCH_rss.json

Each positional argument is LABEL=SRC, a `src` directory holding the
`blockforge` package.  For each k given by --dims (once per k; default 20,
40, 80 and 200) the input is the LPS graph X^{5,13} (n = 2184) and a seeded
random k x 2184 supply over GF(3) with projectively distinct columns, and
the stages are:

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

import hashlib
import json
import os
import sys
import tempfile
import time

import benchkit

STAGES = ("setup", "dump", "round_trip", "sampled")
DIMS = (20, 40, 80, 200)
LPS_P, LPS_Q, FIELD, S, TRIALS, SEED = 5, 13, 3, 2, 12, 7


def measure(k: int, path: str) -> dict:
    """One pass of every stage in this process: wall time and ru_maxrss after each."""
    stages = {}

    def done(name, t0):
        stages[name] = {"s": time.perf_counter() - t0, "ru_maxrss_mb": benchkit.rss_mb()}
        return time.perf_counter()

    t = time.perf_counter()
    import numpy as np
    import blockforge as bf
    fld = bf.field_create(FIELD)
    g = bf.lps_graph(LPS_P, LPS_Q)
    supply = bf.PointSupply(benchkit.distinct_columns(bf, fld, k, g.n, SEED + k),
                            provenance="random")
    t = done("setup", t)
    b = bf.edge_span_union(bf.construct.cherry_hypergraph(g), supply)
    t = done("dump", t)
    bf.construct.write_blocking_set(path, b)
    b2 = bf.construct.read_blocking_set(path)
    if b2 != b:
        raise SystemExit(f"read_blocking_set does not give back the set for k={k}")
    t = done("round_trip", t)
    rep = bf.is_strong_blocking_sampled(b2, S, TRIALS, seed=SEED)
    done("sampled", t)
    digest = hashlib.sha256(np.ascontiguousarray(b.points, dtype=np.int64).tobytes())
    return {"stages": stages, "size": b.size, "file_bytes": os.path.getsize(path),
            "points_sha": digest.hexdigest()[:16], "sampled": rep.result}


def _summary(runs):
    out = benchkit.agree(runs, ("size", "file_bytes", "points_sha", "sampled"))
    out["stages"] = {name: {key: benchkit.quartiles([r["stages"][name][key] for r in runs], digits)
                            for key, digits in (("s", 4), ("ru_maxrss_mb", 1))}
                     for name in STAGES}
    return out


def main():
    ap = benchkit.parser(__doc__, 3, "fresh processes per tree and k")
    ap.add_argument("--dims", type=int, action="append",
                    help="a dimension k to run; repeat for more (default: every k in DIMS)")
    args = benchkit.parse(ap, measure)
    result = {**benchkit.header(args.repeat), "seed": SEED, "graph": f"X^{{{LPS_P},{LPS_Q}}}",
              "field": FIELD, "trials": TRIALS, "dims": {}}
    for k in args.dims or DIMS:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "b.pts")
            runs = args.trees.runs(args.repeat, lambda src: benchkit.run(__file__, src, k, path))
        out = {label: _summary(r) for label, r in runs.items()}
        benchkit.agree(out.values(), ("points_sha",), f"trees on k={k}")
        print(json.dumps({k: {label: o["stages"] for label, o in out.items()}}), file=sys.stderr)
        result["dims"][str(k)] = out
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
