"""Ground-truth verification of strong s-blocking sets.

Every verifier asks for the rank of the points of B inside a subspace L, and
one kernel answers it: `_meet_ranks` takes a stack of quotient maps Q
(L = ker Q) and, per L, k - s columns onto which L projects one to one.  It
images the points under every map, in blocks of at most VERIFY_CHUNK image
entries (x lies in L iff Q x = 0); per L an evenly spaced sample of at most
2(k-s) of its points is ranked first, and only an L whose sample falls
short gets all its points ranked.  A large B is first imaged at a stride,
and only the L whose strided points fall short of rank k-s are imaged
against every point.

The exhaustive verifier decides whether B meets every codimension-s
subspace L in a spanning set (rank k-s), with one of two scans:

* Meet ranks.  A block of RREF bases R of subspaces L goes to the kernel as
  their null-space maps, read at R's pivots (x = x[pivots] @ R on L).
* Projection cover.  L fails exactly when a hyperplane H of L holds all of
  B in L, that is, when the nonzero images of B under the quotient map Q of
  the codimension-(s+1) subspace H miss a point y of PG(s, q); then
  L = H + span(x) with Q x = y.  No rank is computed and no map is imaged
  whole: per pivot set, the rows of the RREF maps vary independently (the
  map at offset m is a mixed-radix tuple of row digits), each row's vectors
  are imaged once into a table of base-q key digits, and a map's point keys
  are sums of table rows (`_cover_scan` has the chunk rule).

The cover scan runs when its [k, s+1] maps plus the q^(s+1) keys of a map are
fewer than the [k, s] subspaces, which holds for k/2 <= s <= k-2; the
meet-rank scan runs otherwise.  Both scans return the ascending canonical
positions of the failing L (the meet-rank scan, without count_all, only
those up to its first failing block), and the report is built from those
positions alone: the kernel ranks the earliest, and failures are counted
once each, so both scans give byte-identical reports.

Also here: sampled verification for larger instances (random RREF maps R,
read at R's free columns), the scalar-orbit affine conversion with its
exhaustive coset check (labels Q x from the same null-space maps), and a
small-case minimum-size search used to produce ground truths for tests.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .budgets import DEFAULT_BUDGETS
from .construct import BlockingSet, lower_bound
from .errors import BudgetExceededError
from .linalg import (MatrixGF, SubspaceBasis, _null_space, _pivot_sets, distinct_rows,
                     gaussian_binomial, kernel_basis, projective_reps, rank, rank_stack,
                     rref_blocks, rref_index, rref_stack, subspace_from_rows)


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
    counterexample_count: int | None = None

    @property
    def passed(self) -> bool:
        return self.result == "pass"

    def to_dict(self) -> dict:
        d = {"mode": self.mode, "s": self.s,
             "subspaces_checked": self.subspaces_checked,
             "result": self.result,
             "counterexample": None if self.counterexample is None
             else self.counterexample.to_dict(),
             "counterexample_count": self.counterexample_count}
        if self.mode == "sampled" and self.passed:
            # T uniform draws with no failure: a bad-subspace fraction f would
            # have let that happen with probability (1 - f)^T, at most 5% for
            # f >= 1 - 0.05^(1/T) (about 3/T).
            below = -math.expm1(math.log(0.05) / self.subspaces_checked)
            d["confidence"] = {"level": 0.95, "bad_fraction_below": below}
        return d


def _ragged_ranks(fld, groups: np.ndarray, rows: np.ndarray, count: int) -> np.ndarray:
    """Rank of each group 0..count-1 of rows, given group-major (groups
    ascending), ranked as one zero-padded stack."""
    sizes = np.bincount(groups, minlength=count)
    stack = np.zeros((count, sizes.max(initial=0), rows.shape[1]), dtype=rows.dtype)
    slot = np.arange(len(groups)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    stack[groups, slot] = rows
    return rank_stack(fld, stack)


def _meet_ranks(fld, points: np.ndarray, maps: np.ndarray, coords) -> np.ndarray:
    """Exact rank of the points inside each L = ker Q, for a stack of rank-s
    quotient maps Q (count x s x k).

    The points are imaged under the maps at once, in blocks of at most
    VERIFY_CHUNK image entries; x lies in L iff Q x = 0.  The points of L
    are read in `coords`, k - s columns onto which L projects one to one
    (count x (k-s), or one row for every L).  Per L at most 2(k-s) of its
    points, evenly spaced in point order, are ranked first; only the L whose
    sample falls short of k - s get all their points ranked.

    With at least 8 need points, need = 4 q^s (k-s), a first round does all
    this on every (N // need)-th point only, about need points of which a
    random L holds about 4(k-s).  An L whose rank there reaches k - s is
    done, as rank(B meet L) <= dim L = k - s; only the L that fall short go
    on to a round over every point.
    """
    count, s, k = maps.shape
    coords = np.broadcast_to(coords, (count, k - s))
    ranks = np.zeros(count, dtype=np.int64)
    todo = np.arange(count)  # the L not yet known to reach k - s
    stride = len(points) // (4 * fld.q ** s * (k - s))
    for pts in [points[::stride], points] if stride >= 8 else [points]:
        flat = maps[todo].reshape(todo.size * s, k).T.astype(pts.dtype)  # images in pts' type
        inside = np.empty((todo.size, len(pts)), dtype=bool)  # L-major, for np.nonzero
        step = max(1, VERIFY_CHUNK // (todo.size * s))  # points per block
        for lo in range(0, len(pts), step):
            img = fld.matmul_arr(pts[lo:lo + step], flat).reshape(-1, todo.size, s)
            block = img[:, :, 0] == 0
            for row in range(1, s):  # one compare per map row: a reduce over s is slower
                block &= img[:, :, row] == 0
            inside[:, lo:lo + step] = block.T
        which, where = np.nonzero(inside)  # (position in todo, point) pairs, L-major

        def read(pairs):
            return pts[where[pairs][:, None], coords[todo[which[pairs]]]]

        sizes = np.bincount(which, minlength=todo.size)
        take = np.minimum(sizes, 2 * (k - s))
        group = np.repeat(np.arange(todo.size), take)
        j = np.arange(len(group)) - np.repeat(np.cumsum(take) - take, take)
        sample = (np.cumsum(sizes) - sizes)[group] + j * sizes[group] // take[group]
        got = _ragged_ranks(fld, group, read(sample), todo.size)
        short = np.nonzero((got < k - s) & (sizes > take))[0]
        if short.size:
            pairs = np.nonzero(np.isin(which, short))[0]
            got[short] = _ragged_ranks(fld, np.searchsorted(short, which[pairs]),
                                       read(pairs), short.size)
        ranks[todo] = got
        todo = todo[got < k - s]
        if not todo.size:
            break
    return ranks


def _meet_scan(b: BlockingSet, s: int, count_all: bool) -> np.ndarray:
    """Canonical positions, ascending, of failing codimension-s subspaces,
    found by ranking the points inside every L, a block of the canonical
    order at a time: every failing L with count_all, else those of the first
    block that holds one."""
    fld, k = b.field, b.k
    found, idx = [], 0
    for pivots, block in rref_blocks(fld, k, k - s):
        # x = x[pivots] @ R on L, so L projects one to one onto its pivots
        ranks = _meet_ranks(fld, b.points, _null_space(fld, block, pivots), pivots)
        found.append(idx + np.nonzero(ranks < k - s)[0])
        if found[-1].size and not count_all:
            break
        idx += len(block)
    return np.concatenate(found)


# Entries per array of a chunk: _meet_ranks's image entries (points x maps x
# map rows, at least one point), and _cover_scan's row tables and per-chunk
# keys (at least one map's keys).  The sampled verifier's chunks hold up to
# 32 VERIFY_CHUNK membership flags (trials x points, at least one trial).
VERIFY_CHUNK = 1 << 17


@functools.lru_cache(maxsize=16)
def _projective_index(fld, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(reps, keys): the projective points of F_q^dim as rows, in
    `projective_reps` order, and keys[l - 1, i] the base-q key (first
    coordinate most significant) of l * reps[i], for l = 1 .. q-1."""
    q = fld.q
    reps = projective_reps(fld, dim)
    keys = fld.mul_arr(np.arange(1, q)[:, None, None], reps) @ q ** np.arange(dim - 1, -1, -1)
    reps.setflags(write=False)
    keys.setflags(write=False)
    return reps, keys


def _cover_misses(prefix: np.ndarray, tail: np.ndarray, mults: np.ndarray,
                  span: int) -> np.ndarray:
    """missed[i * len(tail) + j, y]: whether the map whose point keys are
    prefix[i] + tail[j] (keys in [0, span)) misses the projective point
    reps[y], that is, none of those keys is one of mults[:, y]."""
    pre = prefix + (np.arange(len(prefix)) * (len(tail) * span))[:, None]
    post = tail + (np.arange(len(tail)) * span)[:, None]
    hit = np.zeros(len(prefix) * len(tail) * span, dtype=bool)
    hit[pre[:, None] + post[None]] = True  # each map's keys in a span of their own
    return ~hit.reshape(-1, span)[:, mults].any(axis=1)


def _cover_scan(b: BlockingSet, s: int) -> np.ndarray:
    """Canonical positions, sorted and distinct, of every failing
    codimension-s subspace, found by projection cover.

    For each quotient map Q of a codimension-(s+1) subspace H = ker Q, a
    projective point y of PG(s, q) that no point of b maps to names the
    failing L = H + span(x), Q x = y, whose hyperplane H holds all of b in L.

    Within one pivot set, row r of Q is e_(pivot r) plus f_r free entries,
    so the map at offset m is the mixed-radix tuple (d_0, ..., d_s) of its
    rows' free entries read in base q, row 0 most significant.  A point's
    key sum_r q^(s-r) (Q_r x) holds each row's image in a base-q digit of its
    own, so keys add as integers: each row's q^(f_r) vectors are imaged once
    into a table of scaled keys, and a chunk of maps sums table rows, the
    last row broadcast against the sums of the others.  A table of more than
    VERIFY_CHUNK entries is imaged per chunk instead, for the vectors that
    chunk uses.  Only failing maps are rebuilt from their digits.
    """
    fld, k, q = b.field, b.k, b.field.q
    reps, mults = _projective_index(fld, s + 1)
    span = q ** (s + 1)  # keys per map
    points_t = np.ascontiguousarray(b.points.T)
    step = max(1, VERIFY_CHUNK // max(b.size, span))  # maps per chunk
    found = []
    for pivots, _ in _pivot_sets(q, k, s + 1):
        free = [[j for j in range(p + 1, k) if j not in pivots] for p in pivots]
        radix = np.array([q ** len(cols) for cols in free])  # vectors per row

        def vectors(r, digits):
            out = np.zeros((len(digits), k), dtype=b.points.dtype)
            out[:, pivots[r]] = 1
            out[:, free[r]] = digits[:, None] // q ** np.arange(len(free[r]) - 1, -1, -1) % q
            return out

        def image(r, digits):  # q^(s-r) (v x) for each vector v, one row per digit
            used, slot = np.unique(digits, return_inverse=True)
            img = fld.matmul_arr(vectors(r, used), points_t).astype(np.intp)
            img *= q ** (s - r)
            return img if np.array_equal(used, digits) else img[slot]

        tables = [image(r, np.arange(radix[r])) if radix[r] * b.size <= VERIFY_CHUNK
                  else None for r in range(s + 1)]

        def keys(r, digits):
            return image(r, digits) if tables[r] is None else tables[r][digits]

        # a group is the digits of rows 0..s-1: m = group * radix[s] + d_s
        weight = np.array([radix[r + 1:s].prod() for r in range(s)])
        groups = radix[:s].prod()
        per = max(1, step // radix[s])  # groups per chunk
        width = min(step, radix[s])  # last-row digits per chunk
        for j0 in range(0, radix[s], width):  # last row outside: each block imaged once
            last = np.arange(j0, min(j0 + width, radix[s]))
            tail = keys(s, last)
            for g0 in range(0, groups, per):
                digits = np.arange(g0, min(g0 + per, groups))[:, None] // weight % radix[:s]
                prefix = sum(keys(r, digits[:, r]) for r in range(s))
                m, y = np.nonzero(_cover_misses(prefix, tail, mults, span))
                if m.size:
                    d = np.c_[digits[m // len(last)], last[m % len(last)]]
                    maps = np.stack([vectors(r, d[:, r]) for r in range(s + 1)], axis=1)
                    basis = np.concatenate([_null_space(fld, maps, pivots),
                                            np.zeros((m.size, 1, k), dtype=np.int64)], axis=1)
                    basis[:, -1, list(pivots)] = reps[y]  # x: y at the pivots, 0 elsewhere
                    found.append(np.unique(rref_index(fld, rref_stack(fld, basis)[0])))
    return np.unique(np.concatenate(found)) if found else np.zeros(0, dtype=np.int64)


def _prefers_cover(k: int, s: int, q: int) -> bool:
    """Whether the projection-cover scan is cheaper than the meet-rank scan:
    fewer quotient maps plus keys per map than codimension-s subspaces."""
    return gaussian_binomial(k, s + 1, q) + q ** (s + 1) < gaussian_binomial(k, s, q)


def is_strong_blocking(b: BlockingSet, s: int, *,
                       budget: int = DEFAULT_BUDGETS.subspaces,
                       jobs: int = 1, count_all: bool = False) -> VerificationReport:
    """Exhaustively decide whether b meets every codimension-s subspace in a
    spanning set.

    A failure reports the earliest counterexample in the canonical subspace
    order together with the rank actually achieved.  With count_all the
    total number of failing subspaces is reported as well.  The scan is the
    projection cover when `_prefers_cover`, the meet-rank scan otherwise;
    both return the failing positions, so the report does not depend on
    which.  `jobs` is accepted for compatibility and does not change the
    scan.
    """
    k = b.k
    if not 1 <= s < k:
        raise ValueError(f"need 1 <= s < k, got s={s}, k={k}")
    fld = b.field
    total = gaussian_binomial(k, s, fld.q)
    if total > budget:
        raise BudgetExceededError("subspaces", budget, total,
                                  "use is_strong_blocking_sampled")
    failing = _cover_scan(b, s) if _prefers_cover(k, s, fld.q) else _meet_scan(b, s, count_all)
    count = failing.size if count_all else None
    if not failing.size:
        return VerificationReport("exhaustive", s, total, "pass", None, count)
    i = int(failing[0])
    pivots, block = next(rref_blocks(fld, k, k - s, i, i + 1))
    achieved = int(_meet_ranks(fld, b.points, _null_space(fld, block, pivots), pivots)[0])
    first = Counterexample(SubspaceBasis(k, MatrixGF(fld, block[0]), pivots), achieved, i)
    # Checked count is defined by the canonical order (work to the first
    # failure), so reports do not depend on the scan.
    return VerificationReport("exhaustive", s, total if count_all else i + 1, "fail", first,
                              count)


def _sampled_map(fld, rng, s: int, k: int) -> np.ndarray:
    """A uniformly random rank-s quotient map in canonical RREF (s x k):
    draws are rejected until one has rank s."""
    while True:
        R, r = rref_stack(fld, rng.integers(0, fld.q, size=(s, k))[None])
        if r[0] == s:
            return R[0]


def is_strong_blocking_sampled(b: BlockingSet, s: int, trials: int,
                               seed: int = 0) -> VerificationReport:
    """Test uniformly random codimension-s subspaces.

    Never certifies: a pass only means no counterexample was found in
    `trials` draws.  The subspace sequence is a pure function of the seed.
    Trials run in chunks of at most 32 VERIFY_CHUNK membership flags (trials
    x points, at least one trial), each chunk one `_meet_ranks` call; the
    earliest failing trial is reported.
    """
    k = b.k
    if not 1 <= s < k:
        raise ValueError(f"need 1 <= s < k, got s={s}, k={k}")
    if trials < 1:
        raise ValueError("need at least one trial")
    fld = b.field
    rng = np.random.default_rng(seed)
    step = max(1, (VERIFY_CHUNK << 5) // b.size)
    for lo in range(0, trials, step):
        maps = np.stack([_sampled_map(fld, rng, s, k) for _ in range(min(step, trials - lo))])
        free = np.ones((len(maps), k), dtype=bool)  # L = ker R projects one to one onto these
        free[np.arange(len(maps))[:, None], (maps != 0).argmax(axis=2)] = False
        ranks = _meet_ranks(fld, b.points, maps, np.nonzero(free)[1].reshape(len(maps), k - s))
        bad = np.nonzero(ranks < k - s)[0]
        if bad.size:
            t = int(bad[0])
            L = subspace_from_rows(kernel_basis(MatrixGF(fld, maps[t])))
            return VerificationReport("sampled", s, lo + t + 1, "fail",
                                      Counterexample(L, int(ranks[t]), lo + t))
    return VerificationReport("sampled", s, trials, "pass", None)


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
    return distinct_rows(np.vstack(pieces))[0]


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
        maps = _null_space(fld, block, pivots).reshape(-1, k).T.astype(points.dtype)
        img = fld.matmul_arr(points, maps).reshape(len(points), len(block), codim)
        labels = (img @ weights).T  # count x N
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
    pts = projective_reps(fld, k)
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
