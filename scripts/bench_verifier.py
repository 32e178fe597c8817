#!/usr/bin/env python3
"""Time both scans of the exhaustive verifier, and the sampled verifier
against its per-trial loop, on the same instances.

    PYTHONPATH=src python3 scripts/bench_verifier.py --repeat 5 > BENCH_verifier.json

`is_strong_blocking` runs the projection-cover scan over the [k, s+1]
quotient maps when that family plus the q^(s+1) keys of a map is smaller
than the [k, s] family of subspaces, and the meet-rank scan otherwise.  This
script forces each scan in turn on the cherry sets of the benchmark's
exhaustive workload (MDS supply in F_q^4, s = 2; the failing P5 set also
with count_all), on s = 1 rows of the same sets, where the rule picks the
meet-rank scan, and on the failing cherry set of the 9-cycle over a seeded
random 6 x 9 supply in GF(3) (s = 2, where the rule also picks the meet-rank
scan; with count_all, so every block holding one of its 171 failing
subspaces is ranked).  Per case it records the family sizes, the scan the
rule picks, the median and quartiles of --repeat timed calls after one
warm-up call, and whether the two scans' reports are byte-identical.

The `sampled` row times `is_strong_blocking_sampled` on the cherry set of
the benchmark's lps-sampled workload (seed 1: LPS X^{5,13}, a random
20 x 2184 supply over GF(3), built by bench/workloads.py), with its 12
trials and trial seed, against the per-trial loop it replaced (one
kernel, subspace and meet rank per trial), and records whether the two
reports are byte-identical.  Each scan of each case, and the sampled row,
is built and timed in a fresh spawned process of its own, so no time
depends on what ran before it in the same process; `chosen_is_faster`
records whether the rule's scan had the lower median.  BLAS runs
single-threaded.  The JSON result goes to stdout.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import multiprocessing
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import blockforge as bf
from blockforge import verify
from blockforge.construct import construct_cherry
from blockforge.expander import complete_graph, cycle_graph, path_graph
from blockforge.gf import field_create
from blockforge.linalg import (MatrixGF, gaussian_binomial, kernel_basis, quotient_map, rref,
                               subspace_from_rows)
from blockforge.supply import supply_mds, supply_random_verified

ROOT = Path(__file__).resolve().parent.parent


def _mds_cherry(p, m, graph, n):
    return construct_cherry(graph(n), supply_mds(field_create(p, m), 4, n))


def _random_cherry():
    supply, report = supply_random_verified(field_create(3), 6, 9, s=2, t=8, seed=1)
    return construct_cherry(cycle_graph(9), supply, report=report)


# label -> builder: the four instances of the exhaustive workload (k = 4),
# and a k = 6 set with 171 failing subspaces at s = 2
INSTANCES = {"GF(13) K10": lambda: _mds_cherry(13, 1, complete_graph, 10),
             "GF(7) K6": lambda: _mds_cherry(7, 1, complete_graph, 6),
             "GF(9) K7": lambda: _mds_cherry(3, 2, complete_graph, 7),
             "GF(13) P5": lambda: _mds_cherry(13, 1, path_graph, 5),
             "GF(3) k=6 C9": _random_cherry}
# (instance, s, count_all)
CASES = [("GF(13) K10", 2, False), ("GF(7) K6", 2, False), ("GF(9) K7", 2, False),
         ("GF(13) P5", 2, False), ("GF(13) P5", 2, True),
         ("GF(13) K10", 1, False), ("GF(9) K7", 1, False), ("GF(7) K6", 1, False),
         ("GF(13) P5", 1, False), ("GF(3) k=6 C9", 2, True)]


def _time(fn, repeat):
    result = fn()
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    q1, med, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return result, {"median_s": round(med, 4), "q1_s": round(q1, 4), "q3_s": round(q3, 4)}


def time_scan(index, scan, repeat):
    """CASES[index] verified by one scan ("cover" or "meet"), forced, in
    this process: (the case's facts, the timing, the report as JSON)."""
    label, s, count_all = CASES[index]
    b = INSTANCES[label]()
    q, k = b.field.q, b.k
    facts = {"size": b.size, "k": k, "s": s, "count_all": count_all,
             "meets": gaussian_binomial(k, s, q), "maps": gaussian_binomial(k, s + 1, q),
             "keys": q ** (s + 1),
             "chosen": "cover" if verify._prefers_cover(k, s, q) else "meet"}
    verify._prefers_cover = lambda *args: scan == "cover"
    rep, timing = _time(lambda: verify.is_strong_blocking(b, s, count_all=count_all), repeat)
    return facts, timing, json.dumps(rep.to_dict(), sort_keys=True)


def per_trial_sampled(b, s, trials, seed):
    """The sampled verifier as one loop of trials: draw the map, build its
    kernel L, rank the points of B inside L; stop at the first failure."""
    fld, k = b.field, b.k
    rng = np.random.default_rng(seed)
    for t in range(trials):
        while True:
            R, r, _ = rref(MatrixGF(fld, rng.integers(0, fld.q, size=(s, k))))
            if r == s:
                break
        L = subspace_from_rows(kernel_basis(R))
        achieved = int(verify._meet_ranks(fld, b.points, quotient_map(L).data[None],
                                          L.pivots)[0])
        if achieved < k - s:
            return verify.VerificationReport("sampled", s, t + 1, "fail",
                                             verify.Counterexample(L, achieved, t), 0.0)
    return verify.VerificationReport("sampled", s, trials, "pass", None, 0.0)


def run_sampled(repeat):
    """The lps-sampled seed-1 cherry set, verified by both samplers."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    wl = workloads.load(str(ROOT / "bench" / "workloads.json"))["lps-sampled"]
    inp = wl.setup(bf, 1)
    g = bf.lps_graph(wl.LPS_P, wl.LPS_Q)
    gp = bf.verify_general_position(inp["supply"], workloads.S, wl.SPAN_T,
                                    samples=wl.GP_SAMPLES, seed=inp["seeds"]["gp"])
    b = bf.construct_cherry(g, inp["supply"], report=gp)
    args = (b, workloads.S, wl.TRIALS, inp["seeds"]["trials"])
    out = {"instance": "lps-sampled seed 1", "size": b.size, "k": b.k, "s": workloads.S,
           "trials": wl.TRIALS}
    reports = {}
    for name, fn in (("batched", verify.is_strong_blocking_sampled),
                     ("per_trial", per_trial_sampled)):
        rep, out[name] = _time(lambda: fn(*args), repeat)
        reports[name] = json.dumps(rep.to_dict(), sort_keys=True)
    out["result"] = json.loads(reports["batched"])["result"]
    out["reports_identical"] = reports["batched"] == reports["per_trial"]
    return out


def _fresh(fn, *args):
    """fn(*args) in a fresh spawned process."""
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        return pool.apply(fn, args)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeat", type=int, default=5, help="timed calls per scan and case")
    args = ap.parse_args()

    result = {"machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                          "blas_threads": 1, "process_per_scan": True},
              "repeat": args.repeat, "cases": []}
    for index, (label, _, _) in enumerate(CASES):
        case, reports = {"instance": label}, {}
        for scan in ("cover", "meet"):
            facts, case[scan], reports[scan] = _fresh(time_scan, index, scan, args.repeat)
        case = {"instance": label, **facts, "cover": case["cover"], "meet": case["meet"],
                "result": json.loads(reports["meet"])["result"],
                "reports_identical": reports["cover"] == reports["meet"]}
        other = "meet" if case["chosen"] == "cover" else "cover"
        case["chosen_is_faster"] = case[case["chosen"]]["median_s"] <= case[other]["median_s"]
        print(json.dumps(case), file=sys.stderr)
        result["cases"].append(case)
    result["sampled"] = _fresh(run_sampled, args.repeat)
    print(json.dumps(result["sampled"]), file=sys.stderr)
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
