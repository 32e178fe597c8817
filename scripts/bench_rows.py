#!/usr/bin/env python3
"""Time the row sort and the code around it in one or more source trees.

    python3 scripts/bench_rows.py --repeat 5 change=src > BENCH_rows.json

Each positional argument is LABEL=SRC, a `src` directory holding the
`blockforge` package.  Every measurement runs in a fresh process per tree
(the trees alternate), with BLAS single-threaded:

- `span_merge`: the largest block that `edge_span_union` hands to
  `distinct_rows` while it builds the cherry set of the benchmark's
  lps-sampled inputs (seed 1: LPS X^{5,13}, a random 20 x 2184 supply over
  GF(3)), and the time `distinct_rows` takes on it;
- `from_points`: `BlockingSet.from_points` on a writable copy of that set's
  canonical points, as `read_blocking_set` hands them over;
- `distinct_shuffled`: `distinct_rows` on that set's points in a seeded
  random order, so that its output gather reads every row out of order;
- `row_chunks`: every chunk of `linalg._row_chunks` over that set's
  points, the body that `write_blocking_set` writes (one gather a chunk);
- `read_graph`: `read_graph` of the LPS graph X^{5,29} from the bytes
  `write_graph` wrote for it, in an `io.BytesIO`;
- `rss_after_construct`: `ru_maxrss` right after `construct_cherry` on the
  lps-sampled inputs, in a process that does nothing else (--repeat
  processes per tree, not --repeat calls).

Timings are the median and quartiles of --repeat calls after one warm-up
call.  The JSON result goes to stdout.
"""

from __future__ import annotations

import io
import json
import sys

import benchkit

MEASURES = ("span_merge", "from_points", "distinct_shuffled", "row_chunks", "read_graph",
            "rss_after_construct")
SEED = 1


def _lps_cherry(bf):
    """The lps-sampled pipeline of bench/workloads.py up to `construct_cherry`."""
    return benchkit.lps_cherry(bf, *benchkit.lps_sampled(bf, SEED))


def measure(name: str, repeat: int) -> dict:
    import blockforge as bf
    if name == "rss_after_construct":
        b = _lps_cherry(bf)
        return {"points": b.size, "ru_maxrss_mb": round(benchkit.rss_mb(), 1)}
    if name == "read_graph":
        stream = io.BytesIO()
        bf.expander.write_graph(stream, bf.lps_graph(5, 29))
        raw = stream.getvalue()
        return {"graph": "X^{5,29}",
                **benchkit.timed(lambda: bf.expander.read_graph(io.BytesIO(raw)), repeat)}
    if name in ("from_points", "distinct_shuffled", "row_chunks"):
        b = _lps_cherry(bf)
        points = b.points.copy()
        if name == "distinct_shuffled":
            import numpy as np
            points = points[np.random.default_rng(SEED).permutation(len(points))]
        fn = {"from_points": lambda: bf.BlockingSet.from_points(b.field, points),
              "distinct_shuffled": lambda: bf.linalg.distinct_rows(points),
              "row_chunks": lambda: list(bf.linalg._row_chunks(points))}[name]
        return {"rows": points.shape[0], "cols": points.shape[1],
                **benchkit.timed(fn, repeat)}
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
    return {"rows": rows.shape[0], "cols": rows.shape[1],
            **benchkit.timed(lambda: sort(rows), repeat)}


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
