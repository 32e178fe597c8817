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

import hashlib
import json
import sys
import time

import benchkit

CASES = {"dual_gf7_k6": 2, "gf2_k13_s1": 1, "fail_gf7_p5": 2}  # case: s
SEED = 7


def _code(bf, case):
    if case == "gf2_k13_s1":
        return bf.LinearCode(benchkit.distinct_columns(bf, bf.field_create(2), 13, 73, SEED))
    fld = bf.field_create(7)
    graph = bf.complete_graph(6) if case == "dual_gf7_k6" else bf.path_graph(5)
    b = bf.construct_cherry(graph, bf.supply_mds(fld, 4, graph.n))
    return bf.blocking_to_code(b)


def measure(case: str) -> dict:
    """Two checks of `case` in this process; the second is timed."""
    import blockforge as bf
    s = CASES[case]
    code = _code(bf, case)
    setup_mb = benchkit.rss_mb()
    bf.is_s_minimal(code, s)
    peak_mb = benchkit.rss_mb()
    t = time.perf_counter()
    rep = bf.is_s_minimal(code, s)
    check_s = time.perf_counter() - t
    report = json.dumps(rep.to_dict(), sort_keys=True)
    return {"check_s": check_s, "setup_rss_mb": setup_mb, "peak_rss_mb": peak_mb,
            "check_rss_rise_mb": peak_mb - setup_mb, "n": code.n,
            "subspaces": rep.subspaces_examined, "result": rep.result,
            "report_sha": hashlib.sha256(report.encode()).hexdigest()[:16]}


def _summary(runs):
    out = benchkit.agree(runs, ("n", "subspaces", "result", "report_sha"))
    out["check_s"] = benchkit.quartiles([r["check_s"] for r in runs], 4)
    for key in ("setup_rss_mb", "peak_rss_mb", "check_rss_rise_mb"):
        out[key] = benchkit.quartiles([r[key] for r in runs], 1)
    return out


def main():
    ap = benchkit.parser(__doc__, 7, "fresh processes per tree and case")
    ap.add_argument("--cases", action="append", choices=list(CASES),
                    help="a case to run; repeat for more (default: every case)")
    args = benchkit.parse(ap, measure)
    result = {**benchkit.header(args.repeat), "seed": SEED, "cases": {}}
    for case in args.cases or CASES:
        runs = args.trees.runs(args.repeat, lambda src: benchkit.run(__file__, src, case))
        out = {label: _summary(r) for label, r in runs.items()}
        benchkit.agree(out.values(), ("report_sha",), f"trees on {case}")
        print(json.dumps({case: {label: (o["check_s"]["median"], o["peak_rss_mb"]["median"])
                                 for label, o in out.items()}}), file=sys.stderr)
        result["cases"][case] = {"s": CASES[case], **out}
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
