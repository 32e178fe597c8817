"""Ground-truth verification of strong s-blocking sets.

The exhaustive verifier quantifies over every codimension-s subspace L: it
tests all points for membership in a block of subspaces with one field
matmul, gathers the points that land in each L, and checks that they span L
(rank k-s).  The report is defined purely in terms of the canonical
enumeration order (earliest counterexample wins), so runs with different
shard counts are byte-identical.

Also here: sampled verification for larger instances, the scalar-orbit affine
conversion with its exhaustive coset check, and a small-case minimum-size
search used to produce ground truths for tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .budgets import DEFAULT_BUDGETS
from .construct import BlockingSet, lower_bound
from .errors import BudgetExceededError
from .linalg import (MatrixGF, SubspaceBasis, gaussian_binomial, kernel_basis,
                     projective_reps, rank, rref, rref_blocks, rref_stack, subspace_from_rows)


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


def _quotient_parts(fld, points: np.ndarray, pivots: tuple[int, ...], block: np.ndarray):
    """The two halves of Q x = x[free] - x[pivots] @ R[:, free], the image of
    every point x under the quotient map Q of every subspace L in a block of
    RREF bases R (x lies in L iff x == x[pivots] @ R, as R[:, pivots] = I).

    Returns x[free] (c x 1 x N) and x[pivots] @ R[:, free] (c x count x N),
    the latter from one field matmul of inner dimension dim L.
    """
    free = [j for j in range(points.shape[1]) if j not in pivots]
    shape = (len(free), len(block), len(points))
    r_free = block[:, :, free].transpose(2, 0, 1).reshape(shape[0] * shape[1], len(pivots))
    span = fld.matmul_arr(r_free, points[:, list(pivots)].T).reshape(shape)
    return points[:, free].T[:, None, :], span


def _meet_ranks(fld, points: np.ndarray, pivots: tuple[int, ...], block: np.ndarray):
    """Rank of the points inside each subspace L of a block of RREF bases, read
    in L's basis (their pivot coordinates) and ranked as one zero-padded stack."""
    own, span = _quotient_parts(fld, points, pivots, block)
    which, where = np.nonzero((span == own).all(axis=0))  # (L, point) pairs, L-major
    counts = np.bincount(which, minlength=len(block))
    stack = np.zeros((len(block), counts.max(initial=0), len(pivots)), dtype=np.int64)
    slot = np.arange(len(which)) - np.repeat(np.cumsum(counts) - counts, counts)
    stack[which, slot] = points[where][:, list(pivots)]
    return rref_stack(fld, stack)[1]


def _scan_shard(b: BlockingSet, s: int, start: int, stop: int, count_all: bool):
    """Scan [start, stop) of the canonical subspace order a block at a time.

    Returns (first_failure | None, failures_in_shard); the scan stops at the
    first failure unless count_all is set.
    """
    fld = b.field
    k = b.k
    first = None
    failures = 0
    idx = start
    for pivots, block in rref_blocks(fld, k, k - s, start, stop):
        ranks = _meet_ranks(fld, b.points, pivots, block)
        bad = np.nonzero(ranks < k - s)[0]
        if bad.size and first is None:
            i = int(bad[0])
            first = Counterexample(SubspaceBasis(k, MatrixGF(fld, block[i]), pivots),
                                   int(ranks[i]), idx + i)
            if not count_all:
                return first, 1
        failures += bad.size
        idx += len(block)
    return first, failures


def is_strong_blocking(b: BlockingSet, s: int, *,
                       budget: int = DEFAULT_BUDGETS.subspaces,
                       jobs: int = 1, count_all: bool = False) -> VerificationReport:
    """Exhaustively decide whether b meets every codimension-s subspace in a
    spanning set.

    A failure reports the earliest counterexample in the canonical subspace
    order together with the rank actually achieved.  With count_all the scan
    never short-circuits and the total number of failing subspaces is
    reported as well.  `jobs` contiguous shards of that order are scanned in
    sequence; the report does not depend on it.
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
    first = None
    failures = 0
    for lo, hi in zip(bounds, bounds[1:]):
        if first is not None and not count_all:
            break
        shard_first, shard_failures = _scan_shard(b, s, lo, hi, count_all)
        first = first or shard_first
        failures += shard_failures
    wall = time.perf_counter() - t0
    if first is None:
        return VerificationReport("exhaustive", s, total, "pass", None, wall,
                                  failures if count_all else None)
    # Checked count is defined by the canonical order (work to the first
    # failure), so reports do not depend on the shard count.
    checked = total if count_all else first.index + 1
    return VerificationReport("exhaustive", s, checked, "fail", first, wall,
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
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    for t in range(trials):
        while True:
            q_map = rng.integers(0, fld.q, size=(s, k))
            R, r, _ = rref(MatrixGF(fld, q_map))
            if r == s:
                break
        L = subspace_from_rows(kernel_basis(R))  # R: the canonical sampled quotient map
        achieved = int(_meet_ranks(fld, b.points, L.pivots, L.basis.data[None])[0])
        if achieved < k - s:
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
    if codim < 1:
        raise ValueError("the full space has no quotient map (codim 0)")
    k = points.shape[1]
    q = fld.q
    total = gaussian_binomial(k, k - codim, q)
    if total * (q ** codim) > budget:
        raise BudgetExceededError("subspaces", budget, total * q ** codim)
    weights = q ** np.arange(codim, dtype=np.int64)
    for pivots, block in rref_blocks(fld, k, k - codim):
        own, span = _quotient_parts(fld, points, pivots, block)
        labels = np.tensordot(weights, fld.sub_arr(own, span), axes=1)  # count x N
        hit = np.zeros((len(block), q ** codim), dtype=bool)
        hit[np.arange(len(block))[:, None], labels] = True
        missed = np.nonzero(~hit.all(axis=1))[0]
        if missed.size:
            i = int(missed[0])
            return False, {"basis": block[i].tolist(),
                           "label": int(np.argmin(hit[i]))}
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
    pts = np.hstack(list(projective_reps(fld, k))).T
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
