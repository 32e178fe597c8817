#!/usr/bin/env python3
"""Time the array kernels of `gf.FieldSpec`, one kind of field per process.

    python3 scripts/bench_field_kernels.py parent=../parent/src change=src

Every case runs in a fresh interpreter with single-threaded BLAS, importing
blockforge from the source tree given for its label (LABEL=SRC; the trees
alternate).  A case builds one
field with `field_create` (timed, so table construction shows), draws
seeded random operands and times `matmul_arr` at the two shapes the
verifiers use (the GF(9) K7 span product 192x4 @ 4x815 and an 18x20 @
20x2000 block) plus `add_arr` on the 192x815 output, reporting the median
and quartiles of --repeat calls after one warm-up call.  A second group
times `field_create` alone for the largest fields the package supports.  A
third times `matmul_arr` over GF(3) at the lps-sampled pipeline's large
shapes, with operands in the field's storage type as the pipeline holds
them: a sampled chunk's images (211,832x20 @ 20x24, 12 trials of s = 2), a
span-dump chunk (4x3 @ 3x655,200) and a product of 5,000x546 @ 546x24, and
then `add_arr` and `mul_arr` on two 211,832x20 operands, the size of the
lps-sampled point set.  The JSON result goes to stdout.
"""

from __future__ import annotations

import json
import sys
import time

import benchkit

# (label, p, m): a prime field, a small and a large table field, and one
# field above any table cap, which takes the log/Zech path.
KERNEL_FIELDS = [("GF(13)", 13, 1), ("GF(9)", 3, 2), ("GF(256)", 2, 8), ("GF(3^6)", 3, 6)]
SHAPES = [(192, 4, 815), (18, 20, 2000)]
CREATE_FIELDS = [("GF(2^16)", 2, 16), ("GF(3^10)", 3, 10)]
LARGE_FIELDS = [("GF(3) large", 3, 1)]
LARGE_SHAPES = [(211_832, 20, 24), (4, 3, 655_200), (5_000, 546, 24)]


def measure(kind: str, p: int, m: int, repeat: int) -> dict:
    """Body of one fresh process."""
    import numpy as np

    from blockforge.gf import field_create

    t0 = time.perf_counter()
    fld = field_create(p, m)
    out = {"field_create_s": round(time.perf_counter() - t0, 4)}
    if kind == "create":
        return out
    rng = np.random.default_rng(0)
    dtype = fld.dtype if kind == "large" else np.int64
    for r, t, c in LARGE_SHAPES if kind == "large" else SHAPES:
        a = rng.integers(0, fld.q, size=(r, t)).astype(dtype)
        b = rng.integers(0, fld.q, size=(t, c)).astype(dtype)
        out[f"matmul_arr {r}x{t}x{c}"] = benchkit.timed(lambda: fld.matmul_arr(a, b), repeat,
                                                        3, "_ms", 1e3)
    if kind == "large":
        r, c, _ = LARGE_SHAPES[0]  # the sampled chunk's points
    else:
        r, _, c = SHAPES[0]  # the span product's output
    x = rng.integers(0, fld.q, size=(r, c)).astype(dtype)
    y = rng.integers(0, fld.q, size=(r, c)).astype(dtype)
    for name in ("add_arr", "mul_arr") if kind == "large" else ("add_arr",):
        kernel = getattr(fld, name)
        out[f"{name} {r}x{c}"] = benchkit.timed(lambda: kernel(x, y), repeat, 3, "_ms", 1e3)
    return out


def main():
    args = benchkit.parse(benchkit.parser(__doc__, 21, "timed calls per kernel"), measure)
    result = {**benchkit.header(args.repeat),
              "runs": {label: {} for label, _ in args.trees.pairs}}
    for kind, fields in (("kernels", KERNEL_FIELDS), ("create", CREATE_FIELDS),
                         ("large", LARGE_FIELDS)):
        for name, p, m in fields:
            ran = args.trees.once(lambda src: benchkit.run(__file__, src, kind, p, m, args.repeat))
            for label, run in ran.items():
                result["runs"][label][name] = run
                print(f"{label} {name}: {run}", file=sys.stderr)
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
