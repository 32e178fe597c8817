#!/usr/bin/env python3
"""Time the row sort and the code around it in one or more source trees.

    python3 scripts/bench_rows.py --repeat 5 parent=/path/to/old/src change=src > BENCH_rows.json

Each positional argument is LABEL=SRC, a `src` directory holding the
`blockforge` package.  Every measurement runs in a fresh process per tree
(the trees alternate), with BLAS single-threaded:

- `span_merge`: the largest block that `edge_span_union` hands to
  `distinct_rows` while it builds the cherry set of the benchmark's
  lps-sampled inputs (seed 1: LPS X^{5,13}, a random 20 x 2184 supply over
  GF(3)), and the time `distinct_rows` takes on it;
- `from_points`: `BlockingSet.from_points` on a writable copy of that set's
  canonical points, as `read_blocking_set` hands them over;
- `parse_graph`: `parse_graph` of the LPS graph X^{5,29};
- `rss_after_construct`: `ru_maxrss` right after `construct_cherry` on the
  lps-sampled inputs, in a process that does nothing else (--repeat
  processes per tree, not --repeat calls).

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
MEASURES = ("span_merge", "from_points", "parse_graph", "rss_after_construct")
SEED = 1


def _quartiles(values, digits):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(med, digits), "q1": round(q1, digits), "q3": round(q3, digits)}


def _time(fn, repeat):
    fn()
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return _quartiles(times, 4)


def _lps_cherry(bf):
    """The lps-sampled pipeline of bench/workloads.py up to `construct_cherry`."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    wl = workloads.load(str(ROOT / "bench" / "workloads.json"))["lps-sampled"]
    inp = wl.setup(bf, SEED)
    g = bf.lps_graph(wl.LPS_P, wl.LPS_Q)
    gp = bf.verify_general_position(inp["supply"], workloads.S, wl.SPAN_T,
                                    samples=wl.GP_SAMPLES, seed=inp["seeds"]["gp"])
    return bf.construct_cherry(g, inp["supply"], report=gp)


def measure(name: str, src: str, repeat: int) -> dict:
    sys.path.insert(0, src)
    import blockforge as bf
    if name == "rss_after_construct":
        import resource
        b = _lps_cherry(bf)
        return {"points": b.size,
                "ru_maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}
    if name == "parse_graph":
        text = bf.expander.format_graph(bf.lps_graph(5, 29))
        return {"graph": "X^{5,29}", **_time(lambda: bf.expander.parse_graph(text), repeat)}
    if name == "from_points":
        b = _lps_cherry(bf)
        points = b.points.copy()
        return {"rows": points.shape[0], "cols": points.shape[1],
                **_time(lambda: bf.BlockingSet.from_points(b.field, points), repeat)}
    construct = bf.construct
    sort = construct.distinct_rows
    largest = [None]

    def keep(rows):
        if largest[0] is None or len(rows) > len(largest[0]):
            largest[0] = rows
        return sort(rows)

    construct.distinct_rows = keep
    try:
        _lps_cherry(bf)
    finally:
        construct.distinct_rows = sort
    rows = largest[0]
    return {"rows": rows.shape[0], "cols": rows.shape[1], **_time(lambda: sort(rows), repeat)}


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
    trees = dict(tree.split("=", 1) for tree in args.trees or ["change=src"])
    result = {"machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                          "blas_threads": 1},
              "repeat": args.repeat, "seed": SEED, "measures": {}}
    for name in MEASURES:
        if name == "rss_after_construct":
            runs = {label: [] for label in trees}
            for _ in range(args.repeat):
                for label, src in trees.items():
                    runs[label].append(_fresh(name, src, args.repeat))
            out = {label: {"points": r[0]["points"],
                           "ru_maxrss_mb": _quartiles([x["ru_maxrss_mb"] for x in r], 1)}
                   for label, r in runs.items()}
        else:
            out = {label: _fresh(name, src, args.repeat) for label, src in trees.items()}
        print(json.dumps({name: out}), file=sys.stderr)
        result["measures"][name] = out
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
