#!/usr/bin/env python3
"""Time both scans of the exhaustive verifier, and the sampled verifier
against its per-trial loop, on the same instances.

    python3 scripts/bench_verifier.py --repeat 5 change=src > BENCH_verifier.json

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
rule picks, each scan's median and quartiles over --repeat fresh processes,
and whether the two scans' reports are byte-identical.  Each of those
processes builds the case, runs the scan once to warm up and times one more
call; the rounds alternate which scan runs first, and the trees alternate
within each scan.  `chosen_is_faster` is true or false when the two scans'
quartile ranges are apart, and "unresolved" when they overlap.

The `sampled` row times `is_strong_blocking_sampled` on the cherry set of
the benchmark's lps-sampled workload (seed 1: LPS X^{5,13}, a random
20 x 2184 supply over GF(3), built by bench/workloads.py), with its 12
trials and trial seed, against the per-trial loop it replaced (one
kernel, subspace and meet rank per trial), the same way as the scans: the
median and quartiles over --repeat rounds of one fresh process per sampler
and tree, each building the set, calling the sampler once to warm up and
timing one more call, the rounds alternating which sampler runs first and
the trees alternating within each sampler; it records whether the two
reports are byte-identical.  The `sampled_k200` row does the same at
k = 200, on the span dump of the cherries of X^{5,13} over a seeded random
200 x 2184 supply in GF(3) with projectively distinct columns, built as
scripts/bench_rss.py builds it (211,848 points, s = 2, 12 trials, trial
seed 7).  Each positional argument is LABEL=SRC; no time depends on what
ran before it in the same process.  BLAS runs single-threaded.  The JSON
result goes to stdout.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

import benchkit

# label -> (p, m, graph, n): the four MDS cherry sets of the exhaustive
# workload (k = 4); the k = 6 set with 171 failing subspaces at s = 2 is random
INSTANCES = {"GF(13) K10": (13, 1, "complete_graph", 10), "GF(7) K6": (7, 1, "complete_graph", 6),
             "GF(9) K7": (3, 2, "complete_graph", 7), "GF(13) P5": (13, 1, "path_graph", 5),
             "GF(3) k=6 C9": None}
# (instance, s, count_all)
CASES = [("GF(13) K10", 2, False), ("GF(7) K6", 2, False), ("GF(9) K7", 2, False),
         ("GF(13) P5", 2, False), ("GF(13) P5", 2, True),
         ("GF(13) K10", 1, False), ("GF(9) K7", 1, False), ("GF(7) K6", 1, False),
         ("GF(13) P5", 1, False), ("GF(3) k=6 C9", 2, True)]
# the k = 200 sampled row's input, as scripts/bench_rss.py builds it
RSS_GRAPH, RSS_FIELD, RSS_SEED = (5, 13), 3, 7


def _instance(bf, label):
    if INSTANCES[label] is None:
        supply, report = bf.supply_random_verified(bf.field_create(3), 6, 9, s=2, t=8, seed=1)
        return bf.construct_cherry(bf.cycle_graph(9), supply, report=report)
    p, m, graph, n = INSTANCES[label]
    return bf.construct_cherry(getattr(bf, graph)(n), bf.supply_mds(bf.field_create(p, m), 4, n))


def _timed_once(fn):
    """(the seconds of one call of fn after a warm-up call, its report as JSON)."""
    fn()
    t0 = time.perf_counter()
    report = fn()
    seconds = time.perf_counter() - t0
    return seconds, json.dumps(report.to_dict(), sort_keys=True)


def time_scan(index, scan):
    """CASES[index] verified by one scan ("cover" or "meet"), forced, in
    this process: (the case's facts, the seconds of one call after a warm-up
    call, the report as JSON)."""
    import blockforge as bf
    from blockforge import verify
    from blockforge.linalg import gaussian_binomial
    label, s, count_all = CASES[index]
    b = _instance(bf, label)
    q, k = b.field.q, b.k
    facts = {"size": b.size, "k": k, "s": s, "count_all": count_all,
             "meets": gaussian_binomial(k, s, q), "maps": gaussian_binomial(k, s + 1, q),
             "keys": q ** (s + 1),
             "chosen": "cover" if verify._prefers_cover(k, s, q) else "meet"}
    verify._prefers_cover = lambda *args: scan == "cover"
    return (facts, *_timed_once(lambda: verify.is_strong_blocking(b, s, count_all=count_all)))


def per_trial_sampled(b, s, trials, seed):
    """The sampled verifier as one loop of trials: draw the map, build its
    kernel L, rank the points of B inside L; stop at the first failure."""
    from blockforge import verify
    from blockforge.linalg import MatrixGF, kernel_basis, quotient_map, rref, subspace_from_rows
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
                                             verify.Counterexample(L, achieved, t))
    return verify.VerificationReport("sampled", s, trials, "pass", None)


def _sampled_case(bf, k):
    """(the set, s, trials, trial seed) of the sampled row at dimension k:
    the lps-sampled seed-1 cherry set at k = 20, else the span dump of
    bench_rss.py at k."""
    if k == 20:
        lps = benchkit.lps_sampled(bf, 1)
        workloads, wl, inp = lps
        return benchkit.lps_cherry(bf, *lps), workloads.S, wl.TRIALS, inp["seeds"]["trials"]
    fld = bf.field_create(RSS_FIELD)
    g = bf.lps_graph(*RSS_GRAPH)
    supply = bf.PointSupply(benchkit.distinct_columns(bf, fld, k, g.n, RSS_SEED + k),
                            provenance="random")
    b = bf.edge_span_union(bf.construct.cherry_hypergraph(g), supply)
    return b, 2, 12, RSS_SEED


def time_sampled(k, sampler):
    """The sampled row's set at dimension k verified by one sampler
    ("batched" or "per_trial") in this process: (the set's facts, the
    seconds of one call after a warm-up call, the report as JSON)."""
    import blockforge as bf
    b, s, trials, seed = _sampled_case(bf, k)
    fn = {"batched": bf.verify.is_strong_blocking_sampled, "per_trial": per_trial_sampled}[sampler]
    facts = {"size": b.size, "k": b.k, "s": s, "trials": trials}
    return (facts, *_timed_once(lambda: fn(b, s, trials, seed)))


def measure(what, *args):
    return {"scan": time_scan, "sampled": time_sampled}[what](*args)


def _faster(chosen: dict, other: dict):
    """Whether the chosen scan's times lie below the other's: "unresolved"
    when the two quartile ranges overlap."""
    if chosen["q1_s"] <= other["q3_s"] and other["q1_s"] <= chosen["q3_s"]:
        return "unresolved"
    return chosen["median_s"] < other["median_s"]


def _rows(trees, repeat, ways, *args):
    """{label: row} from `repeat` rounds of one fresh process per way and
    tree, `measure(*args, way)`, the rounds alternating which way runs
    first.  A row holds the facts every run agrees on, each way's median
    and quartiles, the result and whether every report is byte-identical."""
    ran = {way: {} for way in ways}
    for turn in range(repeat):
        for way in ways[::-1] if turn % 2 else ways:
            got = trees.once(lambda src: benchkit.run(__file__, src, *args, way))
            for label, out in got.items():
                ran[way].setdefault(label, []).append(out)
    rows = {}
    for label in ran[ways[0]]:
        runs = [run for way in ways for run in ran[way][label]]
        row = benchkit.agree([facts for facts, _, _ in runs], runs[0][0], f"runs of {label}")
        for way in ways:
            row[way] = benchkit.quartiles([s for _, s, _ in ran[way][label]], 4, "_s")
        row["result"] = json.loads(runs[0][2])["result"]
        row["reports_identical"] = len({report for _, _, report in runs}) == 1
        rows[label] = row
    return rows


def _case(trees, index, repeat):
    """{label: the case's row} from `repeat` rounds of one fresh process per
    scan and tree, with whether the rule's scan is the faster."""
    rows = _rows(trees, repeat, ("cover", "meet"), "scan", index)
    for row in rows.values():
        other = "meet" if row["chosen"] == "cover" else "cover"
        row["chosen_is_faster"] = _faster(row[row["chosen"]], row[other])
    return rows


def main():
    args = benchkit.parse(benchkit.parser(
        __doc__, 5, "fresh processes per scan and case, and per sampler"),
        measure)
    result = benchkit.header(args.repeat)
    result["machine"]["process_per_scan"] = True
    result["cases"] = []
    for index, (label, _, _) in enumerate(CASES):
        case = {"instance": label, **_case(args.trees, index, args.repeat)}
        print(json.dumps(case), file=sys.stderr)
        result["cases"].append(case)
    for key, instance, k in [("sampled", "lps-sampled seed 1", 20),
                             ("sampled_k200", "bench_rss.py k=200", 200)]:
        result[key] = {"instance": instance,
                       **_rows(args.trees, args.repeat, ("batched", "per_trial"), "sampled", k)}
        print(json.dumps(result[key]), file=sys.stderr)
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
