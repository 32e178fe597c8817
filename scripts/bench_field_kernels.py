#!/usr/bin/env python3
"""Time the array kernels of `gf.FieldSpec`, one kind of field per process.

    python3 scripts/bench_field_kernels.py --src change=src --src parent=../parent/src

Every case runs in a fresh interpreter with single-threaded BLAS, importing
blockforge from the source tree given for its label.  A case builds one
field with `field_create` (timed, so table construction shows), draws
seeded random operands and times `matmul_arr` at the two shapes the
verifiers use (the GF(9) K7 span product 192x4 @ 4x815 and an 18x20 @
20x2000 block) plus `add_arr` on the 192x815 output, reporting the median
and quartiles of --repeat calls after one warm-up call.  A second group
times `field_create` alone for the largest fields the package supports.
The JSON result goes to stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

# (label, p, m): a prime field, a small and a large table field, and one
# field above any table cap, which takes the log/Zech path.
KERNEL_FIELDS = [("GF(13)", 13, 1), ("GF(9)", 3, 2), ("GF(256)", 2, 8), ("GF(3^6)", 3, 6)]
SHAPES = [(192, 4, 815), (18, 20, 2000)]
CREATE_FIELDS = [("GF(2^16)", 2, 16), ("GF(3^10)", 3, 10)]


def _quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median_ms": round(1e3 * med, 3), "q1_ms": round(1e3 * q1, 3),
            "q3_ms": round(1e3 * q3, 3)}


def _time(fn, repeat):
    fn()
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return _quartiles(times)


def run_case(kind: str, p: int, m: int, repeat: int) -> dict:
    """Body of one fresh process."""
    import numpy as np

    from blockforge.gf import field_create

    t0 = time.perf_counter()
    fld = field_create(p, m)
    out = {"field_create_s": round(time.perf_counter() - t0, 4)}
    if kind == "create":
        return out
    rng = np.random.default_rng(0)
    for r, t, c in SHAPES:
        a = rng.integers(0, fld.q, size=(r, t), dtype=np.int64)
        b = rng.integers(0, fld.q, size=(t, c), dtype=np.int64)
        out[f"matmul_arr {r}x{t}x{c}"] = _time(lambda: fld.matmul_arr(a, b), repeat)
    r, _, c = SHAPES[0]
    x = rng.integers(0, fld.q, size=(r, c), dtype=np.int64)
    y = rng.integers(0, fld.q, size=(r, c), dtype=np.int64)
    out[f"add_arr {r}x{c}"] = _time(lambda: fld.add_arr(x, y), repeat)
    return out


def spawn(src: str, kind: str, p: int, m: int, repeat: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--case", kind,
                           str(p), str(m), "--repeat", str(repeat)],
                          env=env, capture_output=True, text=True, check=True, timeout=600)
    return json.loads(proc.stdout.splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--src", action="append", default=None, metavar="LABEL=PATH",
                    help="a source tree to time (repeatable; default change=src)")
    ap.add_argument("--repeat", type=int, default=21, help="timed calls per kernel")
    ap.add_argument("--case", nargs=3, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args()

    if args.case:
        kind, p, m = args.case
        print(json.dumps(run_case(kind, int(p), int(m), args.repeat)))
        return

    result = {"machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                          "blas_threads": 1},
              "repeat": args.repeat, "runs": {}}
    for spec in args.src or ["change=src"]:
        label, _, path = spec.partition("=")
        run = result["runs"][label] = {}
        for name, p, m in KERNEL_FIELDS:
            run[name] = spawn(path, "kernels", p, m, args.repeat)
            print(f"{label} {name}: {run[name]}", file=sys.stderr)
        for name, p, m in CREATE_FIELDS:
            run[name] = spawn(path, "create", p, m, args.repeat)
            print(f"{label} {name}: {run[name]}", file=sys.stderr)
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
