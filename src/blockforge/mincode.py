"""s-minimal codes and their duality with strong blocking sets.

A code is s-minimal when the supports of its s-dimensional subspaces form an
antichain: no distinct pair X != Y with supp(X) contained in supp(Y)
(containment here is inclusive, which is the reading under which the
equivalence with strong blocking sets is exact, equal supports included).
The row space of a generator matrix with nonzero, pairwise projectively
distinct columns is s-minimal iff those columns form a strong s-blocking
set; duality_check runs both oracles and treats disagreement as a fatal
internal error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .budgets import DEFAULT_BUDGETS
from .construct import BlockingSet
from .errors import BudgetExceededError, DualityMismatchError
from .gf import FieldSpec
from . import linalg
from .linalg import MatrixGF, SubspaceBasis, gaussian_binomial, rank, rref_blocks
from .supply import PointSupply
from .verify import is_strong_blocking


@dataclass(frozen=True)
class LinearCode:
    """A [n, k] code held as a full-rank generator matrix."""

    generator: MatrixGF

    def __post_init__(self):
        if rank(self.generator) != self.generator.rows:
            raise ValueError("generator matrix is rank-deficient")

    @property
    def field(self) -> FieldSpec:
        return self.generator.field

    @property
    def n(self) -> int:
        return self.generator.cols

    @property
    def k(self) -> int:
        return self.generator.rows


def blocking_to_code(b: BlockingSet) -> LinearCode:
    """Generator matrix whose columns are the points of b (must span)."""
    gen = MatrixGF(b.field, b.points.T)
    try:
        return LinearCode(gen)  # ranks the generator once
    except ValueError:
        raise ValueError("point set does not span; the code would be rank-deficient") from None


def code_to_blocking(code: LinearCode, provenance=None) -> BlockingSet:
    return BlockingSet.from_points(code.field, code.generator.data.T,
                                   provenance or {"construction": "code-columns"})


def support(x: SubspaceBasis) -> frozenset[int]:
    """Coordinate positions where some vector of the subspace is nonzero.

    The union of supports over any spanning set equals the subspace support,
    so this is basis-independent.
    """
    return frozenset(int(j) for j in np.nonzero(x.basis.data.any(axis=0))[0])


@dataclass(frozen=True)
class MinimalityReport:
    s: int
    subspaces_examined: int
    result: str  # "pass" | "fail"
    violating_pair: tuple | None  # (basis rows of X, basis rows of Y) with supp X <= supp Y

    @property
    def passed(self) -> bool:
        return self.result == "pass"

    def to_dict(self) -> dict:
        return {"s": self.s, "subspaces_examined": self.subspaces_examined,
                "result": self.result,
                "violating_pair": None if self.violating_pair is None else
                [self.violating_pair[0].tolist(), self.violating_pair[1].tolist()]}


def is_s_minimal(code: LinearCode, s: int, *,
                 budget: int = DEFAULT_BUDGETS.minimal_subspaces) -> MinimalityReport:
    """Brute-force antichain check over every s-dimensional subspace.

    Subspaces are enumerated in the k-dimensional message space a block at a
    time, and only the projective points of that space are pushed through
    the generator, so the work is q^k-sized, never q^n-sized.  Supports are
    rows of a boolean matrix S (see `_support_matrix`); supp(X_i) is inside
    supp(X_j) iff the 0/1 product of S[i] and ~S[j] is 0, and the least such
    pair i != j in (i, j) order is reported.

    Only candidate pairs are multiplied: if supp(X_i) is inside supp(X_j),
    X_i vanishes wherever X_j does, in particular at the first zero z_j of
    X_j.  So the j sharing a first zero z are checked together against the
    rows i with S[i, z] = 0 (about 1/q^s of them), in products of at most
    RREF_BLOCK * total entries, and a j of full support pairs with every
    i != j.
    """
    fld = code.field
    k = code.k
    if s < 1:
        raise ValueError("s must be >= 1")
    if s > k:
        return MinimalityReport(s, 0, "pass", None)
    total = gaussian_binomial(k, s, fld.q)
    if total > budget:
        raise BudgetExceededError("minimal_subspaces", budget, total)
    if total == 1:  # s == k: the whole space, and one subspace makes no pair
        return MinimalityReport(s, total, "pass", None)
    gen = code.generator.data
    pair = _first_contained_pair(_support_matrix(fld, gen, s), linalg.RREF_BLOCK * total)
    if pair is None:
        return MinimalityReport(s, total, "pass", None)
    # Rebuild the rows of X_i and X_j from their indices and recount their
    # supports directly before reporting.
    ri, rj = (fld.matmul_arr(next(rref_blocks(fld, k, s, x, x + 1))[1][0], gen) for x in pair)
    if not set(np.nonzero(ri.any(axis=0))[0]) <= set(np.nonzero(rj.any(axis=0))[0]):
        raise RuntimeError("the support matrix disagrees with a direct recount")
    return MinimalityReport(s, total, "fail", (ri, rj))


def _support_matrix(fld: FieldSpec, gen: np.ndarray, s: int) -> np.ndarray:
    """Boolean matrix whose row i is the support of the i-th s-dimensional
    subspace of the message space (the order of `rref_blocks`) in the code
    generated by `gen`; needs s < k, so that there are no more points than
    subspaces.

    Each row of an RREF matrix is itself a 1 x k RREF matrix, a projective
    point, and supp(X) is the union of the supports of its rows, so only the
    points are pushed through the generator; a row is found among the points
    by its entries read in base q.
    """
    k, n = gen.shape
    digits = fld.q ** np.arange(k - 1, -1, -1, dtype=np.int64)
    points, codes = [], []
    for _, block in rref_blocks(fld, k, 1):
        points.append(fld.matmul_arr(block[:, 0], gen) != 0)
        codes.append(block[:, 0] @ digits)
    points = np.vstack(points)
    if s == 1:  # the subspaces are the points
        return points
    codes = np.concatenate(codes)
    order = np.argsort(codes)
    codes = codes[order]
    out = np.empty((gaussian_binomial(k, s, fld.q), n), dtype=bool)
    lo = 0
    for _, block in rref_blocks(fld, k, s):
        rows = order[np.searchsorted(codes, block @ digits)]  # (count, s) point indices
        np.any(points[rows], axis=1, out=out[lo:lo + len(block)])
        lo += len(block)
    return out


def _first_contained_pair(supports: np.ndarray, block: int) -> tuple[int, int] | None:
    """The least (i, j), i != j, with row i of the boolean matrix `supports`
    inside row j, or None; no product computed has more than `block` entries.
    """
    best = None
    zeros = ~supports
    has_zero = zeros.any(axis=1)
    full = np.flatnonzero(~has_zero)  # a full support j holds every i != j
    if len(supports) > 1 and full.size:
        j = int(full[0] if full[0] or full.size == 1 else full[1])
        best = (int(j == 0), j)  # (0, j), or (1, 0) when 0 is the only full j
    first_zero = zeros.argmax(axis=1)
    js = np.flatnonzero(has_zero)
    js = js[np.argsort(first_zero[js], kind="stable")]  # grouped by first zero, j ascending
    for grp in np.split(js, np.flatnonzero(np.diff(first_zero[js])) + 1) if js.size else ():
        ii = np.flatnonzero(zeros[:, first_zero[grp[0]]])
        if best is not None:
            ii = ii[ii <= best[0]]
        if not ii.size:
            continue
        inside = supports[ii].astype(np.float32)
        width = max(1, block // ii.size)
        for lo in range(0, grp.size, width):
            pair = _least_pair(inside, ii, zeros, grp[lo:lo + width])
            if pair is not None:
                best = pair if best is None else min(best, pair)
        del inside  # before the next group's copy is made
    return best


def _least_pair(inside: np.ndarray, ii: np.ndarray, zeros: np.ndarray,
                chunk: np.ndarray) -> tuple[int, int] | None:
    """The least (i, j), i in ii, j in chunk, i != j, with supp X_i inside
    supp X_j, or None.  `inside` holds the support rows ii as 0/1 float32,
    `zeros` is the complement of the whole support matrix, and every j of
    the chunk up to ii[-1] is in ii.  The product is freed on return."""
    # 0/1 products summed in float32 are 0 exactly when every term is 0
    missing = inside @ zeros[chunk].T.astype(np.float32)  # |supp X_i - supp X_j|
    at = np.searchsorted(ii, chunk)
    own = at < ii.size
    missing[at[own], own.nonzero()[0]] = 1  # i == j is not a pair
    pairs = np.argwhere(missing == 0)  # row-major: its first is the least
    return (int(ii[pairs[0, 0]]), int(chunk[pairs[0, 1]])) if pairs.size else None


def duality_check(columns: MatrixGF, s: int, *,
                  subspace_budget: int = DEFAULT_BUDGETS.subspaces,
                  minimal_budget: int = DEFAULT_BUDGETS.minimal_subspaces):
    """Run both sides of the blocking-set / minimal-code equivalence.

    Returns (columns form a strong s-blocking set, row space is s-minimal).
    The two booleans are equal by theorem; inequality raises
    DualityMismatchError because it can only mean a broken oracle.
    """
    PointSupply(columns, provenance="duality-input")  # nonzero, projectively distinct
    if rank(columns) != columns.rows:
        raise ValueError("columns do not have full row rank")
    k = columns.rows
    if not 1 <= s < k:
        raise ValueError(f"need 1 <= s < k, got s={s}, k={k}")
    b = BlockingSet.from_points(columns.field, columns.data.T,
                                {"construction": "duality-input"})
    blocking = is_strong_blocking(b, s, budget=subspace_budget).passed
    minimal = is_s_minimal(LinearCode(columns), s, budget=minimal_budget).passed
    if blocking != minimal:
        raise DualityMismatchError(
            f"verifier says blocking={blocking} but minimality says {minimal}; "
            "the two are provably equivalent, so one oracle is broken")
    return blocking, minimal
