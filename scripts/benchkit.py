"""The harness that every `scripts/bench_*.py` shares.

A bench script names the source trees to compare as positional LABEL=SRC
arguments (default `change=src`), each a `src` directory holding the
`blockforge` package.  Every measurement runs in a fresh process: the
script re-invokes itself with the hidden `--one SRC ARGS`, where SRC is put
first on the child's path and ARGS is the JSON list of arguments for the
script's `measure`; the child checks that `blockforge` came from SRC and
prints the measurement as JSON on its last stdout line.  Children run with
BLAS single-threaded.  `Trees` flips which tree runs first on every round,
so no tree always runs on a cold or a warm machine.  The script prints its
JSON result to stdout and its progress to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_ENV = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


class Trees:
    """The (label, src) pairs to compare, and which of them runs first next."""

    def __init__(self, pairs):
        self.pairs = list(pairs)
        self.turn = 0

    def runs(self, rounds, fn):
        """fn(src) for every tree, `rounds` times, reversing the order of
        the trees from one round to the next (and from one call to the
        next): {label: [result per round]}, labels in the given order."""
        out = {label: [] for label, _ in self.pairs}
        for _ in range(rounds):
            for label, src in self.pairs[::-1] if self.turn % 2 else self.pairs:
                out[label].append(fn(src))
            self.turn += 1
        return out

    def once(self, fn):
        """One round of `runs`: {label: fn(src)}."""
        return {label: results[0] for label, results in self.runs(1, fn).items()}


def parser(doc: str, repeat: int, repeat_help: str) -> argparse.ArgumentParser:
    """The arguments every bench script takes; a script may add its own."""
    ap = argparse.ArgumentParser(description=doc,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("trees", nargs="*", metavar="LABEL=SRC",
                    help="a labelled `src` directory holding blockforge (default change=src)")
    ap.add_argument("--repeat", type=int, default=repeat, help=repeat_help)
    ap.add_argument("--one", nargs=2, metavar=("SRC", "ARGS"), help=argparse.SUPPRESS)
    return ap


def parse(ap: argparse.ArgumentParser, measure):
    """Parse the command line.  Under `--one SRC ARGS` run `measure` in this
    process, print its JSON and exit; otherwise return the arguments, with
    `trees` as a `Trees`."""
    args = ap.parse_args()
    if args.repeat < 2:
        ap.error("--repeat must be >= 2, for quartiles")
    if args.one:
        src, given = args.one
        print(json.dumps(one(measure, src, json.loads(given))))
        raise SystemExit(0)
    pairs = [tree.partition("=") for tree in args.trees or ["change=src"]]
    if any(not sep or not label or not src for label, sep, src in pairs):
        ap.error("each tree is LABEL=SRC")
    args.trees = Trees(dict((label, src) for label, _, src in pairs).items())
    return args


def run(script: str, src: str, *args):
    """`script --one SRC ARGS` in a fresh process with BLAS single-threaded:
    the JSON value on its last stdout line."""
    proc = subprocess.run([sys.executable, script, "--one", os.path.abspath(src),
                           json.dumps(args)],
                          env={**os.environ, **BLAS_ENV}, stdout=subprocess.PIPE, text=True,
                          check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def one(measure, src: str, args):
    """measure(*args) with `src` first on the path, once its `blockforge`
    is checked to come from `src`."""
    sys.path.insert(0, src)
    out = measure(*args)
    check_tree(sys.modules.get("blockforge"), src)
    return out


def check_tree(module, src) -> None:
    """Exit unless `module` is the blockforge package of the tree `src`."""
    where = getattr(module, "__file__", None)
    if where is None or Path(where).resolve().parent != (Path(src) / "blockforge").resolve():
        raise SystemExit(f"imported blockforge from {where}, not from {src}")


def header(repeat: int) -> dict:
    return {"machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                        "blas_threads": 1},
            "repeat": repeat}


def quartiles(values, digits: int, unit: str = "", scale: float = 1.0) -> dict:
    """Median and quartiles of `values` times `scale`, rounded to `digits`,
    under the keys median, q1 and q3, each followed by `unit`."""
    q1, med, q3 = statistics.quantiles([v * scale for v in values], n=4, method="inclusive")
    return {f"median{unit}": round(med, digits), f"q1{unit}": round(q1, digits),
            f"q3{unit}": round(q3, digits)}


def timed(fn, repeat: int, digits: int = 4, unit: str = "", scale: float = 1.0) -> dict:
    """One warm-up call of fn, then the `quartiles` of `repeat` timed calls in seconds."""
    fn()
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return quartiles(times, digits, unit, scale)


def rss_mb() -> float:
    """This process's peak resident set size so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def agree(runs, keys, who: str = "runs") -> dict:
    """{key: value} for `keys` of the first run; exit naming the first key on
    which another run differs."""
    runs = list(runs)
    out = {key: runs[0][key] for key in keys}
    for key in keys:
        if any(run[key] != out[key] for run in runs):
            raise SystemExit(f"{who} disagree on {key}")
    return out


def distinct_columns(bf, fld, k: int, n: int, seed: int):
    """A k x n `MatrixGF` over `fld` with nonzero, projectively distinct
    random columns from `default_rng(seed)` (offending columns are redrawn)."""
    import numpy as np
    rng = np.random.default_rng(seed)
    cols = rng.integers(0, fld.q, size=(n, k))
    while True:
        bad = ~cols.any(axis=1)
        if not bad.any():
            _, repeats = bf.linalg.distinct_rows(bf.supply.normalize_rows(fld, cols))
            bad[repeats] = True
        if not bad.any():
            return bf.MatrixGF(fld, cols.T)
        cols[bad] = rng.integers(0, fld.q, size=(int(bad.sum()), k))


def lps_sampled(bf, seed: int):
    """The lps-sampled workload of bench/workloads.py: (the workloads
    module, the workload, its inputs at `seed`)."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    wl = workloads.load(str(ROOT / "bench" / "workloads.json"))["lps-sampled"]
    return workloads, wl, wl.setup(bf, seed)


def lps_gate(bf, workloads, wl, inp):
    """The sampled general-position gate of the lps-sampled inputs, as
    bench/workloads.py runs it."""
    return bf.verify_general_position(inp["supply"], workloads.S, wl.SPAN_T,
                                      samples=wl.GP_SAMPLES, seed=inp["seeds"]["gp"])


def lps_cherry(bf, workloads, wl, inp):
    """`construct_cherry` on the lps-sampled inputs, behind their gate."""
    g = bf.lps_graph(wl.LPS_P, wl.LPS_Q)
    return bf.construct_cherry(g, inp["supply"], report=lps_gate(bf, workloads, wl, inp))
