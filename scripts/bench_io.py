#!/usr/bin/env python3
"""Time the matrix text codec and the blocking-set file round trip in one or
more source trees.

    python3 scripts/bench_io.py --repeat 5 parent=/path/to/old/src change=src > BENCH_io.json

Each positional argument is LABEL=SRC, a `src` directory holding the
`blockforge` package.  For each field order q in 3, 13, 256 and 65521 the
input is a canonical set of 211,832 random points of GF(q)^20, the size and
dimension of the benchmark's lps-sampled cherry set, and the measures are:

- `format_rows`: `linalg.format_rows` on its points;
- `parse_rows`: `linalg.parse_rows` on that text, with the newline that
  precedes it in a matrix file;
- `write_blocking_set`: writing the set to a file;
- `read_blocking_set`: reading that file back, in a process that has done
  nothing else (another fresh process wrote the file), so its `ru_maxrss`
  once blockforge is imported (`before`) and after the timed reads
  (`after`) bound what the read itself holds.

Every measurement runs in a fresh process per tree (the trees alternate),
with BLAS single-threaded.  Timings are the median and quartiles of --repeat
calls after one warm-up call.  The JSON result goes to stdout.
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

FIELDS = {3: (3, 1), 13: (13, 1), 256: (2, 8), 65521: (65521, 1)}  # q: (p, m)
MEASURES = ("format_rows", "parse_rows", "write_blocking_set", "read_blocking_set")
POINTS, DIM, SEED = 211_832, 20, 1


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


def _rss_mb():
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def _points(bf, q):
    """POINTS distinct canonical points of GF(q)^DIM, sorted, from one seeded draw."""
    import numpy as np
    fld = bf.field_create(*FIELDS[q])
    rows = np.random.default_rng(SEED).integers(0, q, size=(POINTS + POINTS // 8, DIM))
    b = bf.BlockingSet.from_points(fld, rows[rows.any(axis=1)])
    return bf.BlockingSet(fld, DIM, b.points[:POINTS])


def measure(name: str, q: int, src: str, repeat: int, path: str) -> dict:
    sys.path.insert(0, src)
    import blockforge as bf
    if name == "read_blocking_set":
        before = _rss_mb()
        timing = _time(lambda: bf.construct.read_blocking_set(path), repeat)
        b = bf.construct.read_blocking_set(path)
        return {"rows": b.size, "cols": b.k, "points_sha": _sha(b), **timing,
                "ru_maxrss_mb": {"before": before, "after": _rss_mb()}}
    b = _points(bf, q)
    out = {"rows": b.size, "cols": b.k}
    if name == "write_file":
        bf.construct.write_blocking_set(path, b)
        return {**out, "points_sha": _sha(b), "file_bytes": os.path.getsize(path)}
    if name == "format_rows":
        return {**out, **_time(lambda: bf.linalg.format_rows(b.points), repeat)}
    if name == "parse_rows":
        body = "\n" + bf.linalg.format_rows(b.points)
        return {**out, **_time(lambda: bf.linalg.parse_rows(body, b.size, b.k), repeat)}
    return {**out, **_time(lambda: bf.construct.write_blocking_set(path, b), repeat)}


def _sha(b) -> str:
    return hashlib.sha256(b.points.astype("int64").tobytes()).hexdigest()[:16]


def _fresh(name, q, src, repeat, path):
    out = subprocess.run([sys.executable, __file__, "--one", name, str(q), src, path,
                          "--repeat", str(repeat)],
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def _run(name, q, src, repeat, tmp):
    path = os.path.join(tmp, "b.pts")
    if name != "read_blocking_set":
        return _fresh(name, q, src, repeat, path)
    wrote = _fresh("write_file", q, src, repeat, path)
    read = _fresh(name, q, src, repeat, path)
    if read.pop("points_sha") != wrote["points_sha"]:
        raise SystemExit(f"{src}: read_blocking_set does not give back the set for q={q}")
    return {**read, "file_bytes": wrote["file_bytes"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("trees", nargs="*", metavar="LABEL=SRC")
    ap.add_argument("--repeat", type=int, default=5, help="timed calls per measurement")
    ap.add_argument("--one", nargs=4, metavar=("MEASURE", "Q", "SRC", "PATH"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.repeat < 2:
        ap.error("--repeat must be >= 2, for quartiles")
    if args.one:
        name, q, src, path = args.one
        print(json.dumps(measure(name, int(q), src, args.repeat, path)))
        return
    trees = dict(tree.split("=", 1) for tree in args.trees or ["change=src"])
    result = {"machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                          "blas_threads": 1},
              "repeat": args.repeat, "seed": SEED, "points": POINTS, "dim": DIM,
              "measures": {}}
    for name in MEASURES:
        result["measures"][name] = {}
        for q in FIELDS:
            with tempfile.TemporaryDirectory() as tmp:
                out = {label: _run(name, q, src, args.repeat, tmp) for label, src in trees.items()}
            print(json.dumps({name: {q: out}}), file=sys.stderr)
            result["measures"][name][str(q)] = out
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
