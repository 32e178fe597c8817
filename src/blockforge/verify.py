"""Ground-truth verification of strong s-blocking sets.

The exhaustive verifier quantifies over every codimension-s subspace L: it
applies the s x k quotient map of L to all points at once, gathers the points
that land in L, and checks that they span L (rank k-s).  The subspace stream
shards into contiguous index ranges, and the merged report is defined purely
in terms of the canonical enumeration order (earliest counterexample wins),
so runs with different worker counts are byte-identical.

Also here: sampled verification for larger instances, the scalar-orbit affine
conversion with its exhaustive coset check, and a small-case minimum-size
search used to produce ground truths for tests.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .budgets import DEFAULT_BUDGETS
from .construct import BlockingSet, lower_bound
from .errors import BudgetExceededError
from .linalg import (MatrixGF, SubspaceBasis, enumerate_subspaces,
                     gaussian_binomial, kernel_basis, projective_reps,
                     quotient_map, rank, rref, subspace_from_rows)


@dataclass(frozen=True)
class Counterexample:
    subspace: SubspaceBasis
    rank: int
    index: int  # position in the canonical enumeration (trial number when sampled)

    def to_dict(self) -> dict:
        return {"basis": self.subspace.basis.data.tolist(),
                "rank": self.rank, "index": self.index}


@dataclass(frozen=True)
class VerificationReport:
    mode: str  # "exhaustive" | "sampled"
    s: int
    subspaces_checked: int
    result: str  # "pass" | "fail"
    counterexample: Counterexample | None
    wall_time: float
    counterexample_count: int | None = None

    @property
    def passed(self) -> bool:
        return self.result == "pass"

    def to_dict(self, include_wall_time: bool = False) -> dict:
        # wall_time is excluded by default so reports are byte-reproducible.
        d = {"mode": self.mode, "s": self.s,
             "subspaces_checked": self.subspaces_checked,
             "result": self.result,
             "counterexample": None if self.counterexample is None
             else self.counterexample.to_dict(),
             "counterexample_count": self.counterexample_count}
        if include_wall_time:
            d["wall_time"] = self.wall_time
        return d


def _intersection_rank(b: BlockingSet, q_map: np.ndarray) -> int:
    """Rank of {points of b lying in the null space of q_map}."""
    fld = b.field
    images = fld.matmul_arr(q_map, b.points.T)  # s x N
    mask = ~images.any(axis=0)
    if not mask.any():
        return 0
    return rank(MatrixGF(fld, b.points[mask]))


def _scan_shard(b: BlockingSet, s: int, start: int, stop: int, count_all: bool):
    """Scan [start, stop) of the canonical subspace order.

    Returns (first_failure | None, failures_in_shard, checked) where checked
    is the number of subspaces examined inside the shard (stops early at the
    first failure unless count_all is set).
    """
    fld = b.field
    k = b.k
    needed = k - s
    first = None
    failures = 0
    checked = 0
    for idx, L in enumerate(enumerate_subspaces(fld, k, s, budget=None,
                                                start=start, stop=stop)):
        gidx = start + idx
        checked += 1
        q_map = quotient_map(L).data
        r = _intersection_rank(b, q_map)
        if r < needed:
            failures += 1
            if first is None:
                first = Counterexample(L, r, gidx)
            if not count_all:
                break
    return first, failures, checked


def is_strong_blocking(b: BlockingSet, s: int, *,
                       budget: int = DEFAULT_BUDGETS.subspaces,
                       jobs: int = 1, count_all: bool = False) -> VerificationReport:
    """Exhaustively decide whether b meets every codimension-s subspace in a
    spanning set.

    A failure reports the earliest counterexample in the canonical subspace
    order together with the rank actually achieved.  With count_all the scan
    never short-circuits and the total number of failing subspaces is
    reported as well.
    """
    k = b.k
    if not 1 <= s < k:
        raise ValueError(f"need 1 <= s < k, got s={s}, k={k}")
    q = b.field.q
    total = gaussian_binomial(k, s, q)
    if total > budget:
        raise BudgetExceededError("subspaces", budget, total,
                                  "use is_strong_blocking_sampled")
    t0 = time.perf_counter()
    jobs = max(1, int(jobs))
    bounds = [(total * i) // jobs for i in range(jobs + 1)]
    shards = [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]
    if len(shards) <= 1:
        results = [_scan_shard(b, s, 0, total, count_all)]
    else:
        with ThreadPoolExecutor(max_workers=len(shards)) as pool:
            results = list(pool.map(lambda w: _scan_shard(b, s, w[0], w[1], count_all),
                                    shards))
    firsts = [r[0] for r in results if r[0] is not None]
    failures = sum(r[1] for r in results)
    wall = time.perf_counter() - t0
    if not firsts:
        return VerificationReport("exhaustive", s, total, "pass", None, wall,
                                  failures if count_all else None)
    best = min(firsts, key=lambda c: c.index)
    # Checked count is defined by the canonical order (work to the first
    # failure), so reports do not depend on the worker count.
    checked = total if count_all else best.index + 1
    return VerificationReport("exhaustive", s, checked, "fail", best, wall,
                              failures if count_all else None)


def is_strong_blocking_sampled(b: BlockingSet, s: int, trials: int,
                               seed: int = 0) -> VerificationReport:
    """Test uniformly random codimension-s subspaces.

    Never certifies: a pass only means no counterexample was found in
    `trials` draws.  The subspace sequence is a pure function of the seed.
    """
    k = b.k
    if not 1 <= s < k:
        raise ValueError(f"need 1 <= s < k, got s={s}, k={k}")
    if trials < 1:
        raise ValueError("need at least one trial")
    fld = b.field
    needed = k - s
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    for t in range(trials):
        while True:
            q_map = rng.integers(0, fld.q, size=(s, k))
            R, r, _ = rref(MatrixGF(fld, q_map))
            if r == s:
                break
        canon = R.data  # canonical representative of the sampled quotient map
        achieved = _intersection_rank(b, canon)
        if achieved < needed:
            L = subspace_from_rows(kernel_basis(MatrixGF(fld, canon)))
            wall = time.perf_counter() - t0
            return VerificationReport("sampled", s, t + 1, "fail",
                                      Counterexample(L, achieved, t), wall)
    wall = time.perf_counter() - t0
    return VerificationReport("sampled", s, trials, "pass", None, wall)


# ---------------------------------------------------------------------------
# Affine conversion
# ---------------------------------------------------------------------------

def to_affine_blocking(b: BlockingSet) -> np.ndarray:
    """{0} union every nonzero scalar multiple of every point of b.

    Exactly (q-1)|b| + 1 vectors: the natural affine witness for a strong
    s-blocking set, blocking all codimension-(s+1) affine subspaces.
    """
    fld = b.field
    pieces = [np.zeros((1, b.k), dtype=np.int64)]
    for lam in range(1, fld.q):
        pieces.append(fld.mul_arr(lam, b.points))
    out = np.vstack(pieces)
    out = np.unique(out, axis=0)
    expected = (fld.q - 1) * b.size + 1
    if out.shape[0] != expected:
        raise ValueError("scalar orbits collided; the points of b are not projectively distinct")
    return out


def blocks_affine(points: np.ndarray, fld, codim: int, *,
                  budget: int = DEFAULT_BUDGETS.subspaces):
    """Exhaustively check that the affine point set meets every affine
    subspace of the given codimension.

    Every affine subspace of codimension c is a coset {x : Q x = z} of the
    null space of a canonical c x k quotient map, so it suffices that the
    image Q @ points covers all q^c labels for every linear subspace.
    Returns (True, None) or (False, {"basis": ..., "label": ...}).
    """
    k = points.shape[1]
    q = fld.q
    total = gaussian_binomial(k, k - codim, q)
    if total * (q ** codim) > budget:
        raise BudgetExceededError("subspaces", budget, total * q ** codim)
    weights = q ** np.arange(codim, dtype=np.int64)
    for L in enumerate_subspaces(fld, k, codim, budget=None):
        q_map = quotient_map(L).data
        labels = (fld.matmul_arr(q_map, points.T).T @ weights)
        hit = set(int(v) for v in labels)
        if len(hit) < q ** codim:
            missing = next(z for z in range(q ** codim) if z not in hit)
            return False, {"basis": L.basis.data.tolist(), "label": missing}
    return True, None


# ---------------------------------------------------------------------------
# Small-case minimum-size oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchResult:
    size: int
    blocking_set: BlockingSet
    exact: bool
    candidates_tested: int


def minimum_size_search(fld, k: int, s: int,
                        budget: int = 1_000_000) -> SearchResult:
    """Smallest strong s-blocking set in PG(k-1, q) by exhaustive search.

    Candidate subsets are enumerated by increasing size starting at the
    theoretical lower bound, with a spanning-rank prefilter; the first
    passing set is therefore an exact optimum.  When the budget runs out the
    full point set (always a strong s-blocking set) is returned flagged
    inexact.
    """
    pts = []
    for block in projective_reps(fld, k):
        pts.extend(block.T)
    pts = np.array(pts, dtype=np.int64)
    everything = BlockingSet.from_points(fld, pts, {"construction": "all-points"})
    tested = 0
    lb = lower_bound(fld.q, k, s)
    for size in range(lb, len(pts) + 1):
        for subset in combinations(range(len(pts)), size):
            if tested >= budget:
                return SearchResult(everything.size, everything, False, tested)
            tested += 1
            chosen = pts[list(subset)]
            if rank(MatrixGF(fld, chosen)) < k:
                continue
            cand = BlockingSet.from_points(fld, chosen, {"construction": "search"})
            if is_strong_blocking(cand, s).passed:
                return SearchResult(size, cand, True, tested)
    return SearchResult(everything.size, everything, True, tested)
