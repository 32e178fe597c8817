#!/usr/bin/env python3
"""Time the blocking-set codec on a binary stream and on a file, in one or
more source trees.

    python3 scripts/bench_io.py --repeat 5 change=src > BENCH_io.json

Each positional argument is LABEL=SRC, a `src` directory holding the
`blockforge` package.  For each field order q in 3, 13, 256 and 65521 the
input is a canonical set of 211,832 random points of GF(q)^20, the size and
dimension of the benchmark's lps-sampled cherry set, and the measures are:

- `write_stream`: `write_blocking_set` of the set to an `io.BytesIO`;
- `read_stream`: `read_blocking_set` of those bytes, from an `io.BytesIO`;
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

import hashlib
import io
import json
import os
import sys
import tempfile

import benchkit

FIELDS = {3: (3, 1), 13: (13, 1), 256: (2, 8), 65521: (65521, 1)}  # q: (p, m)
MEASURES = ("write_stream", "read_stream", "write_blocking_set", "read_blocking_set")
POINTS, DIM, SEED = 211_832, 20, 1


def _points(bf, q):
    """POINTS distinct canonical points of GF(q)^DIM, sorted, from one seeded draw."""
    import numpy as np
    fld = bf.field_create(*FIELDS[q])
    rows = np.random.default_rng(SEED).integers(0, q, size=(POINTS + POINTS // 8, DIM))
    b = bf.BlockingSet.from_points(fld, rows[rows.any(axis=1)])
    return bf.BlockingSet(fld, DIM, b.points[:POINTS])


def measure(name: str, q: int, repeat: int, path: str) -> dict:
    import blockforge as bf
    timed = benchkit.timed
    if name == "read_blocking_set":
        before = round(benchkit.rss_mb(), 1)
        timing = timed(lambda: bf.construct.read_blocking_set(path), repeat)
        b = bf.construct.read_blocking_set(path)
        return {"rows": b.size, "cols": b.k, "points_sha": _sha(b), **timing,
                "ru_maxrss_mb": {"before": before, "after": round(benchkit.rss_mb(), 1)}}
    b = _points(bf, q)
    out = {"rows": b.size, "cols": b.k}
    if name == "write_file":
        bf.construct.write_blocking_set(path, b)
        return {**out, "points_sha": _sha(b), "file_bytes": os.path.getsize(path)}
    if name == "write_stream":
        return {**out, **timed(lambda: bf.construct.write_blocking_set(io.BytesIO(), b), repeat)}
    if name == "read_stream":
        stream = io.BytesIO()
        bf.construct.write_blocking_set(stream, b)
        raw = stream.getvalue()
        if bf.construct.read_blocking_set(io.BytesIO(raw)) != b:
            raise SystemExit(f"read_blocking_set does not give back the set for q={q}")
        return {**out, **timed(lambda: bf.construct.read_blocking_set(io.BytesIO(raw)), repeat)}
    return {**out, **timed(lambda: bf.construct.write_blocking_set(path, b), repeat)}


def _sha(b) -> str:
    return hashlib.sha256(b.points.astype("int64").tobytes()).hexdigest()[:16]


def _run(name, q, src, repeat, tmp):
    path = os.path.join(tmp, "b.pts")
    if name != "read_blocking_set":
        return benchkit.run(__file__, src, name, q, repeat, path)
    wrote = benchkit.run(__file__, src, "write_file", q, repeat, path)
    read = benchkit.run(__file__, src, name, q, repeat, path)
    if read.pop("points_sha") != wrote["points_sha"]:
        raise SystemExit(f"{src}: read_blocking_set does not give back the set for q={q}")
    return {**read, "file_bytes": wrote["file_bytes"]}


def main():
    args = benchkit.parse(benchkit.parser(__doc__, 5, "timed calls per measurement"), measure)
    result = {**benchkit.header(args.repeat), "seed": SEED, "points": POINTS, "dim": DIM,
              "measures": {}}
    for name in MEASURES:
        result["measures"][name] = {}
        for q in FIELDS:
            with tempfile.TemporaryDirectory() as tmp:
                out = args.trees.once(lambda src: _run(name, q, src, args.repeat, tmp))
            print(json.dumps({name: {q: out}}), file=sys.stderr)
            result["measures"][name][str(q)] = out
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
