#!/usr/bin/env python3
"""Wall time and peak memory of the s-minimality check
(`mincode.is_s_minimal`), in one or more source trees.

    python3 scripts/bench_mincode.py --repeat 7 parent=/path/to/old/src change=src > BENCH_mincode.json

Each positional argument is LABEL=SRC, a `src` directory holding the
`blockforge` package.  The cases are:

- `dual_gf7_k6`: the code of the cherry set of K6 over an MDS supply in
  GF(7)^4 (398 positions, 2,850 subspaces), s = 2: the dual instance of the
  benchmark's exhaustive workload, which is 2-minimal;
- `gf2_k13_s1`: a seeded random [73, 13] code over GF(2) with distinct
  nonzero columns, s = 1 (8,191 subspaces, near the default budget of
  10,000): each position vanishes on about half of the subspaces, the
  densest candidate sets a code can have;
- `fail_gf7_p5`: the code of the cherry set of the path P5 over an MDS
  supply in GF(7)^4 (148 positions, 2,850 subspaces), s = 2, which is not
  2-minimal.

Every run is a fresh process that does nothing else (the trees alternate),
with BLAS single-threaded.  It builds the code, makes one untimed call of
`is_s_minimal` (which sets the process's peak), then times a second call.
Reported: the median and quartiles over --repeat processes of the timed
call, of `ru_maxrss` after the set-up and after the first call, and of the
first call's rise in `ru_maxrss`; and from the first process the number of
subspaces, the result and a digest of the report's JSON, which must agree
across trees and runs.  The JSON result goes to stdout.
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

CASES = {"dual_gf7_k6": 2, "gf2_k13_s1": 1, "fail_gf7_p5": 2}  # case: s
SEED = 7


def _quartiles(values, digits):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(med, digits), "q1": round(q1, digits), "q3": round(q3, digits)}


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _random_code(bf, fld, k, n, rng):
    """A k x n code with nonzero, projectively distinct random columns
    (offending columns are redrawn)."""
    cols = rng.integers(0, fld.q, size=(n, k))
    while True:
        bad = ~cols.any(axis=1)
        if not bad.any():
            _, repeats = bf.linalg.distinct_rows(bf.supply.normalize_rows(fld, cols))
            bad[repeats] = True
        if not bad.any():
            return bf.LinearCode(bf.MatrixGF(fld, cols.T))
        cols[bad] = rng.integers(0, fld.q, size=(int(bad.sum()), k))


def _code(bf, case):
    if case == "gf2_k13_s1":
        import numpy as np
        return _random_code(bf, bf.field_create(2), 13, 73, np.random.default_rng(SEED))
    fld = bf.field_create(7)
    graph = bf.complete_graph(6) if case == "dual_gf7_k6" else bf.path_graph(5)
    b = bf.construct_cherry(graph, bf.supply_mds(fld, 4, graph.n))
    return bf.blocking_to_code(b)


def measure(src: str, case: str) -> dict:
    """Two checks of `case` in this process; the second is timed."""
    sys.path.insert(0, src)
    import blockforge as bf
    s = CASES[case]
    code = _code(bf, case)
    setup_mb = _rss_mb()
    bf.is_s_minimal(code, s)
    peak_mb = _rss_mb()
    t = time.perf_counter()
    rep = bf.is_s_minimal(code, s)
    check_s = time.perf_counter() - t
    report = json.dumps(rep.to_dict(), sort_keys=True)
    return {"check_s": check_s, "setup_rss_mb": setup_mb, "peak_rss_mb": peak_mb,
            "check_rss_rise_mb": peak_mb - setup_mb, "n": code.n,
            "subspaces": rep.subspaces_examined, "result": rep.result,
            "report_sha": hashlib.sha256(report.encode()).hexdigest()[:16]}


def _fresh(src, case):
    out = subprocess.run([sys.executable, __file__, "--one", src, case],
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def _summary(runs):
    first = runs[0]
    out = {key: first[key] for key in ("n", "subspaces", "result", "report_sha")}
    for key in out:
        if any(run[key] != out[key] for run in runs):
            raise SystemExit(f"runs disagree on {key}")
    out["check_s"] = _quartiles([r["check_s"] for r in runs], 4)
    for key in ("setup_rss_mb", "peak_rss_mb", "check_rss_rise_mb"):
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
              "repeat": args.repeat, "seed": SEED, "cases": {}}
    labels = list(trees)
    for case in args.cases:
        runs = {label: [] for label in labels}
        for i in range(args.repeat):
            for label in labels[i % 2:] + labels[:i % 2]:  # alternate which tree runs first
                runs[label].append(_fresh(trees[label], case))
        out = {label: _summary(runs[label]) for label in labels}
        if len({out[label]["report_sha"] for label in labels}) > 1:
            raise SystemExit(f"trees disagree on the report for {case}")
        print(json.dumps({case: {label: (out[label]["check_s"]["median"],
                                         out[label]["peak_rss_mb"]["median"])
                                 for label in labels}}), file=sys.stderr)
        result["cases"][case] = {"s": CASES[case], **out}
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
