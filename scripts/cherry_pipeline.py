#!/usr/bin/env python3
"""End-to-end cherry pipeline over a sweep of (q, k, n) parameters.

For each instance: build an MDS supply, take the cherries of K_n, dump the
span union, verify the strong 2-blocking property exhaustively, and run the
minimal-code check on the converted generator matrix.  The two verdicts must
agree (they are dual); the table shows sizes against the theoretical lower
bound.
"""

import argparse
import time

import blockforge as bf
from blockforge.expander import complete_graph
from blockforge.mincode import blocking_to_code, is_s_minimal

DEFAULT_CASES = [(5, 3, 4), (7, 3, 5), (7, 4, 6), (11, 3, 6), (9, 3, 5)]


def run_case(q, k, n):
    fld = bf.field_create(*((3, 2) if q == 9 else (q,)))
    supply = bf.supply_mds(fld, k, n)
    report = bf.verify_general_position(supply)
    t0 = time.perf_counter()
    b = bf.construct_cherry(complete_graph(n), supply, report=report)
    rep = bf.is_strong_blocking(b, 2)
    minimal = is_s_minimal(blocking_to_code(b), 2)
    elapsed = time.perf_counter() - t0
    if rep.passed != minimal.passed:
        raise bf.DualityMismatchError(
            f"q={q} k={k} n={n}: blocking {rep.result}, minimal {minimal.result}")
    return {
        "q": q, "k": k, "n": n,
        "points": b.size,
        "lower_bound": bf.lower_bound(q, k, 2),
        "subspaces": rep.subspaces_checked,
        "blocking": rep.result,
        "minimal": minimal.result,
        "seconds": elapsed,
    }


def main():
    argparse.ArgumentParser(description=__doc__).parse_args()
    header = f"{'q':>3} {'k':>2} {'n':>2} {'|B|':>5} {'bound':>5} {'subs':>6} {'block':>6} {'minimal':>7} {'sec':>7}"
    print(header)
    print("-" * len(header))
    for q, k, n in DEFAULT_CASES:
        r = run_case(q, k, n)
        print(f"{r['q']:>3} {r['k']:>2} {r['n']:>2} {r['points']:>5} "
              f"{r['lower_bound']:>5} {r['subspaces']:>6} {r['blocking']:>6} "
              f"{r['minimal']:>7} {r['seconds']:>7.2f}")


if __name__ == "__main__":
    main()
