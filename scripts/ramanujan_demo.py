#!/usr/bin/env python3
"""Build LPS Cayley graphs, bound the spectral gap, and sample the mixing
inequalities.

The graphs are (p+1)-regular on ~q^3 vertices; every non-trivial adjacency
eigenvalue should sit below 2*sqrt(p), and the mixing discrepancies should
stay below that lambda on every sampled vertex set.  Each line names the
spectral method: "trace" prints the proved interval [lower, bound] and its
walk length r, "exact" the eigensolver's value, and "power-iteration" an
estimate.  "ok" means a proof wherever the trace or exact path ran.
"""

import argparse
import math
import time

import blockforge as bf

DEFAULT_PAIRS = [(5, 13), (5, 17), (5, 29), (13, 17)]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=200, help="mixing samples per graph")
    ap.add_argument("--tol", type=float, default=1e-7)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    for p, q2 in DEFAULT_PAIRS:
        t0 = time.perf_counter()
        g = bf.lps_graph(p, q2)
        build = time.perf_counter() - t0
        t0 = time.perf_counter()
        rep = bf.second_eigenvalue(g, tol=args.tol, seed=args.seed)
        spect = time.perf_counter() - t0
        lam = 2 * math.sqrt(p)
        mix = bf.check_mixing(g, lam=lam, trials=args.trials, seed=args.seed)
        status = "ok" if rep.lambda_bound <= lam + 1e-6 and mix.violations == 0 else "VIOLATION"
        if rep.method == "trace":
            spectrum = f"r={rep.r} lambda in [{rep.lambda_lower:.6f}, {rep.lambda_bound:.6f}]"
        elif rep.method == "exact":
            spectrum = f"lambda={rep.lambda_bound:.6f}"
        else:
            spectrum = f"lambda~{rep.lambda_bound:.6f} (estimate)"
        print(f"X^({p},{q2}): n={g.n} d={g.degree} bipartite={rep.bipartite} "
              f"{rep.method} {spectrum} (2*sqrt(p)={lam:.6f}) "
              f"mixing {mix.violations}/{args.trials} violations "
              f"[{build:.2f}s build, {spect:.2f}s spectra] {status}")


if __name__ == "__main__":
    main()
