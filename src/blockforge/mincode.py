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

import time
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
    if rank(gen) < b.k:
        raise ValueError("point set does not span; the code would be rank-deficient")
    return LinearCode(gen)


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
    wall_time: float

    @property
    def passed(self) -> bool:
        return self.result == "pass"

    def to_dict(self, include_wall_time: bool = False) -> dict:
        d = {"s": self.s, "subspaces_examined": self.subspaces_examined,
             "result": self.result,
             "violating_pair": None if self.violating_pair is None else
             [self.violating_pair[0].tolist(), self.violating_pair[1].tolist()]}
        if include_wall_time:
            d["wall_time"] = self.wall_time
        return d


def is_s_minimal(code: LinearCode, s: int, *,
                 budget: int = DEFAULT_BUDGETS.minimal_subspaces) -> MinimalityReport:
    """Brute-force antichain check over every s-dimensional subspace.

    Subspaces are enumerated in the k-dimensional message space and pushed
    through the generator a block at a time, so the work is q^k-sized, never
    q^n-sized.  Supports are rows of a boolean matrix S; supp(X_i) is inside
    supp(X_j) iff row i of S @ (~S).T is 0 at j, and the first such pair
    i != j in (i, j) order is reported.
    """
    fld = code.field
    k = code.k
    if s < 1:
        raise ValueError("s must be >= 1")
    t0 = time.perf_counter()
    if s > k:
        return MinimalityReport(s, 0, "pass", None, time.perf_counter() - t0)
    total = gaussian_binomial(k, s, fld.q)
    if total > budget:
        raise BudgetExceededError("minimal_subspaces", budget, total)
    gen = code.generator.data
    supports = np.vstack([
        fld.matmul_arr(block.reshape(-1, k), gen).reshape(len(block), s, -1).any(axis=1)
        for _, block in rref_blocks(fld, k, s)])  # total x n
    # 0/1 products summed in float32 are 0 exactly when every term is 0
    outside = (~supports).astype(np.float32).T
    for lo in range(0, total, linalg.RREF_BLOCK):
        inside = supports[lo:lo + linalg.RREF_BLOCK].astype(np.float32)
        missing = inside @ outside  # |supp X_i - supp X_j|
        rows = np.arange(len(missing))
        missing[rows, lo + rows] = 1  # i == j is not a pair
        pairs = np.argwhere(missing == 0)
        if pairs.size:
            i, j = lo + int(pairs[0, 0]), int(pairs[0, 1])
            # Rebuild the rows of X_i and X_j from their indices and recount
            # their supports directly before reporting.
            ri, rj = (fld.matmul_arr(next(rref_blocks(fld, k, s, x, x + 1))[1][0], gen)
                      for x in (i, j))
            if not set(np.nonzero(ri.any(axis=0))[0]) <= set(np.nonzero(rj.any(axis=0))[0]):
                raise RuntimeError("the support matrix disagrees with a direct recount")
            return MinimalityReport(s, total, "fail", (ri, rj), time.perf_counter() - t0)
    return MinimalityReport(s, total, "pass", None, time.perf_counter() - t0)


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
