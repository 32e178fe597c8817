"""Vector supplies in general position.

The constructions consume a set W of n column vectors in F_q^k with two
measured properties: every s+1 columns linearly independent (s_independence)
and every t columns spanning (span_threshold).  At desk scale the asymptotic
code families are replaced by extended Reed-Solomon columns (MDS, when
q >= n-1) or by seeded random supplies that are certified by exhaustive
verification.  Constructions downstream read the measured report, never the
provenance.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .budgets import Budgets, DEFAULT_BUDGETS
from .errors import BudgetExceededError
from .gf import FieldSpec
from .linalg import (MatrixGF, distinct_rows, normalize_rows, rank_stack, read_matrix,
                     read_sidecar, rref_blocks, write_matrix)

RANK_CHUNK = 256  # sampled column subsets per rank_stack call in _rank_deficient
RANDOM_MAX_TRIES = 50  # candidate supplies supply_random_verified draws before it gives up


@dataclass(frozen=True)
class PointSupply:
    """k x n matrix whose columns are projectively distinct nonzero vectors."""

    matrix: MatrixGF
    provenance: str

    def __post_init__(self):
        _, repeats = distinct_rows(normalize_rows(self.field, self.matrix.data.T))
        if repeats.size:
            raise ValueError(f"column {repeats[0]} repeats an earlier projective point")

    @property
    def field(self) -> FieldSpec:
        return self.matrix.field

    @property
    def k(self) -> int:
        return self.matrix.rows

    @property
    def n(self) -> int:
        return self.matrix.cols


@dataclass(frozen=True)
class GeneralPositionReport:
    s_independence: int
    # None when the columns do not span F_q^k; on the sampled path also when
    # a sampled t-subset does not span, or when the independence check fails first
    span_threshold: int | None
    method: str  # "exhaustive" | "sampled"

    def to_dict(self) -> dict:
        return {"s_independence": self.s_independence,
                "span_threshold": self.span_threshold,
                "method": self.method}

    @classmethod
    def from_dict(cls, d: dict) -> "GeneralPositionReport":
        return cls(d["s_independence"], d["span_threshold"], d["method"])


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def supply_mds(field: FieldSpec, k: int, n: int) -> PointSupply:
    """Extended Reed-Solomon columns (1, a, a^2, ..., a^(k-1)).

    Needs q >= n-1.  Every min(k, j) columns are independent for all j, and
    every k columns span, which is exactly what a Vandermonde system gives.
    """
    q = field.q
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    if q < n - 1:
        raise ValueError(f"q={q} is too small for n={n} (need q >= n-1)")
    cols = []
    for a in range(min(n, q)):
        cols.append([field.pow(a, i) for i in range(k)])
    if n == q + 1:
        cols.append([0] * (k - 1) + [1])
    data = np.array(cols, dtype=np.int64).T
    return PointSupply(MatrixGF(field, data), provenance="mds")


def _random_columns(field: FieldSpec, k: int, n: int, rng) -> np.ndarray | None:
    """n nonzero, projectively distinct random vectors of F_q^k as rows, in
    draw order, within 100 n draws (None if they run out).  Each round draws
    exactly the missing rows in one call, which is the same stream as one
    draw per row, and drops the zero rows and the repeats of earlier rows."""
    cols = np.zeros((0, k), dtype=np.int64)
    draws = 0
    while len(cols) < n and draws < 100 * n:
        m = min(n - len(cols), 100 * n - draws)
        draws += m
        new = rng.integers(0, field.q, size=(m, k))
        cols = np.vstack([cols, new[new.any(axis=1)]])
        cols = np.delete(cols, distinct_rows(normalize_rows(field, cols))[1], axis=0)
    return cols if len(cols) == n else None


def supply_random_verified(field: FieldSpec, k: int, n: int, s: int, t: int,
                           seed: int = 0, budgets: Budgets = DEFAULT_BUDGETS):
    """Seeded random supply certified by verify_general_position.

    Returns (PointSupply, GeneralPositionReport).  Raises after
    RANDOM_MAX_TRIES failed candidates; deterministic for a given seed.
    """
    if s >= k:
        raise ValueError(f"s={s} is impossible: {k + 1} vectors in F_q^{k} are never independent")
    if t < k or t > n or n < k:
        raise ValueError(f"infeasible parameters k={k}, n={n}, t={t}: need n >= k and k <= t <= n")
    q = field.q
    n_projective = (q ** k - 1) // (q - 1)
    if n > n_projective:
        raise ValueError(f"n={n} exceeds the {n_projective} projective points available")
    rng = np.random.default_rng(seed)
    for _ in range(RANDOM_MAX_TRIES):
        cols = _random_columns(field, k, n, rng)
        if cols is None:
            continue
        supply = PointSupply(MatrixGF(field, cols.T), provenance="random-verified")
        report = verify_general_position(supply, s, t, budgets=budgets)
        if (report.s_independence >= s and report.span_threshold is not None
                and report.span_threshold <= t):
            return supply, report
    raise ValueError(f"no supply with s={s}, t={t} found in {RANDOM_MAX_TRIES} tries "
                     f"(seed={seed})")


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

def _rank_deficient(matrix: MatrixGF, subsets, needed: int) -> bool:
    """Whether some column subset from the iterator `subsets` (index
    sequences of one size) has rank below `needed`.  Ranks RANK_CHUNK subsets
    per rank_stack call and takes none past the first chunk that has one."""
    while chunk := list(itertools.islice(subsets, RANK_CHUNK)):
        stack = matrix.data[:, np.array(chunk)].transpose(1, 0, 2)  # a k x size matrix each
        if (rank_stack(matrix.field, stack) < needed).any():
            return True
    return False


def _weights(matrix: MatrixGF, budget: int) -> list[int]:
    """counts[w], w = 0..n: the points x of PG(k-1, q) with wt(x M) = w, in one sweep."""
    field, (k, n) = matrix.field, matrix.data.shape
    if (total := (field.q ** k - 1) // (field.q - 1)) > budget:
        raise BudgetExceededError("codewords", budget, total)
    counts = np.zeros(n + 1, dtype=np.int64)
    for _, block in rref_blocks(field, k, 1):
        words = field.matmul_arr(block[:, 0], matrix.data)
        counts += np.bincount(np.count_nonzero(words, axis=1), minlength=n + 1)
    return counts.tolist()


def _dual_min_weight(q: int, counts: list[int]) -> int | None:
    """d(C-perp): the least j >= 1 whose MacWilliams sum |C| B_j = sum_w A_w K_j(w)
    (K_j Krawtchouk) is positive, None if C-perp = {0}.  At rank r, counts[0] =
    (q^(k-r)-1)/(q-1) and A_w = (q-1) counts[w]/q^(k-r) (w > 0): summed times q^(k-r)."""
    n = len(counts) - 1
    scaled = [counts[0] * (q - 1) + 1] + [(q - 1) * c for c in counts[1:]]
    for j in range(1, n + 1):
        if sum(a * sum((-1) ** i * (q - 1) ** (j - i) * math.comb(w, i) * math.comb(n - w, j - i)
                       for i in range(j + 1)) for w, a in enumerate(scaled)) > 0:
            return j
    return None


def min_distance(matrix: MatrixGF, *, budget: int) -> int | None:
    """Minimum Hamming weight of the row-space code; None if rank < rows."""
    counts = _weights(matrix, budget)
    return None if counts[0] else next((w for w, c in enumerate(counts) if c), None)


def dual_distance(matrix: MatrixGF, *, budget: int = DEFAULT_BUDGETS.codewords) -> int | None:
    """Least number of dependent columns, d(C-perp); None if none (only for n <= k)."""
    return _dual_min_weight(matrix.field.q, _weights(matrix, budget))


def verify_general_position(supply: PointSupply, s: int | None = None,
                            t: int | None = None, *,
                            budgets: Budgets = DEFAULT_BUDGETS,
                            samples: int = 100_000, seed: int = 0) -> GeneralPositionReport:
    """Measure s_independence and span_threshold.

    Exhaustive when the column subsets up to size k fit `budgets.subsets` and
    the codewords fit `budgets.codewords`, yet ranking no subset: one sweep of
    the codewords' weights gives d(C), span_threshold = n - d + 1, and through
    MacWilliams d(C-perp), s_independence = min(k-1, d(C-perp) - 2).
    Otherwise checks the requested (s, t) on `samples` seeded random subsets;
    that path only refutes, so the report is flagged method="sampled".
    """
    if samples < 1:
        raise ValueError(f"samples={samples}: the sampled check needs at least one draw")
    mat = supply.matrix
    (k, n), q = mat.data.shape, supply.field.q
    if s is not None and s < 0:
        raise ValueError(f"s={s}: need s >= 0")
    if t is not None and not 1 <= t <= n:
        raise ValueError(f"t={t}: need 1 <= t <= n={n}")
    indep_cost = sum(math.comb(n, j) for j in range(1, min(k, n) + 1))
    span_cost = (q ** k - 1) // (q - 1)
    if indep_cost <= budgets.subsets and span_cost <= budgets.codewords:
        counts = _weights(mat, budgets.codewords)
        dd = _dual_min_weight(q, counts)
        s_ind = k - 1 if dd is None else min(k - 1, dd - 2)
        span = None if counts[0] else n + 1 - next(w for w, c in enumerate(counts) if c)
        return GeneralPositionReport(s_ind, span, "exhaustive")

    if s is None or t is None:
        raise BudgetExceededError(
            "subsets", budgets.subsets, indep_cost,
            "exhaustive check over budget; pass target (s, t) for sampled mode")
    rng = np.random.default_rng(seed)
    indep, span = min(s + 1, n), min(t, n)
    if _rank_deficient(mat, (rng.choice(n, indep, replace=False) for _ in range(samples)), indep):
        return GeneralPositionReport(0, None, "sampled")
    if _rank_deficient(mat, (rng.choice(n, span, replace=False) for _ in range(samples)), k):
        return GeneralPositionReport(s, None, "sampled")
    return GeneralPositionReport(s, t, "sampled")


# ---------------------------------------------------------------------------
# File I/O: matrix file + JSON sidecar
# ---------------------------------------------------------------------------

def write_supply(target, supply: PointSupply,
                 report: GeneralPositionReport | None = None) -> None:
    """Write the supply's matrix to `target`, a path or a binary stream; next
    to a path, its provenance and `report` go to the sidecar."""
    side = {"provenance": supply.provenance}
    if report is not None:
        side["report"] = report.to_dict()
    write_matrix(target, supply.matrix, side)


def read_supply(source):
    """(PointSupply, GeneralPositionReport | None) from a path or a binary
    stream; "file" provenance and no report without a sidecar, as for a stream."""
    matrix = read_matrix(source)
    side = read_sidecar(source) or {}
    report = side.get("report")
    return (PointSupply(matrix, provenance=side.get("provenance", "file")),
            None if report is None else GeneralPositionReport.from_dict(report))
