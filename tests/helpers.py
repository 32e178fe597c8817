"""Shared randomized instance generators for the test suite.

Everything here is seeded by the caller, so test runs are reproducible.
"""

from __future__ import annotations

import numpy as np

from blockforge import construct
from blockforge.errors import BudgetExceededError
from blockforge.expander import Hypergraph
from blockforge.gf import FieldSpec
from blockforge.lincomb import EdgeWitness, EliminationOrder
from blockforge.linalg import (MatrixGF, distinct_rows, matmul, projective_reps, rank,
                               subspace_from_rows)
from blockforge.supply import PointSupply, normalize_column, normalize_rows


# A GF(2) [12, 4] code that is not 2-minimal: the supports of its 2-dim
# subspaces X_0 and X_1 are not contained in any other one, and the first
# pair i != j with supp(X_i) inside supp(X_j) in (i, j) order is (2, 1).
PINNED_CODE = [[1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0],
               [0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 0, 0],
               [0, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0],
               [0, 1, 0, 1, 0, 1, 0, 0, 0, 1, 1, 1]]


def identity_matrix(fld: FieldSpec, n: int) -> MatrixGF:
    return MatrixGF(fld, np.eye(n, dtype=np.int64))


def zero_matrix(fld: FieldSpec, rows: int, cols: int) -> MatrixGF:
    return MatrixGF(fld, np.zeros((rows, cols), dtype=np.int64))


def rank_product(a: MatrixGF, b: MatrixGF) -> int:
    """rank(a @ b); always >= rank(a) + rank(b) - inner_dim (Sylvester)."""
    return rank(matmul(a, b))


def supply_column(supply: PointSupply, j: int) -> np.ndarray:
    """Column j of a supply (the removed `PointSupply.column`)."""
    return supply.matrix.data[:, j]


def span_union_resorting(h: Hypergraph, supply: PointSupply, point_cap: int) -> np.ndarray:
    """The span dump as `construct.edge_span_union` computed it before each
    chunk was deduplicated on its own: int64 rows, the growing set re-sorted
    after every chunk of `construct.SPAN_CHUNK_ROWS` rows, and the budget
    checked against its size there."""
    fld, k = supply.field, supply.k
    distinct = np.zeros((0, k), dtype=np.int64)
    for size in sorted({len(e) for e in h.edges}):
        edges = np.array([e for e in h.edges if len(e) == size]).T
        coeffs = np.hstack(list(projective_reps(fld, size))).T
        step = max(1, construct.SPAN_CHUNK_ROWS // len(coeffs))
        for lo in range(0, edges.shape[1], step):
            flat = supply.matrix.data.T[edges[:, lo:lo + step]].reshape(size, -1)
            pts = fld.matmul_arr(coeffs, flat).reshape(-1, k)
            pts = pts[pts.any(axis=1)]
            distinct, _ = distinct_rows(np.vstack([distinct, normalize_rows(fld, pts)]))
            if len(distinct) > point_cap:
                raise BudgetExceededError("points", point_cap, len(distinct))
    return distinct


def projective_point_count(q: int, k: int) -> int:
    return (q ** k - 1) // (q - 1)


def random_subspace(fld: FieldSpec, k: int, dim: int, rng):
    """A uniform-ish random dim-dimensional subspace of F_q^k."""
    while True:
        m = MatrixGF(fld, rng.integers(0, fld.q, size=(dim, k)))
        s = subspace_from_rows(m)
        if s.dim == dim:
            return s


def random_admissible_columns(fld: FieldSpec, k: int, n: int, rng) -> MatrixGF:
    """A k x n matrix with nonzero, projectively distinct columns and full
    row rank (the admissible inputs of the duality theorem)."""
    if n > projective_point_count(fld.q, k):
        raise ValueError("not enough projective points")
    while True:
        data = rng.integers(0, fld.q, size=(k, n))
        if not all(data[:, j].any() for j in range(n)):
            continue
        keys = {tuple(int(v) for v in normalize_column(fld, data[:, j]))
                for j in range(n)}
        if len(keys) < n:
            continue
        m = MatrixGF(fld, data)
        if rank(m) == k:
            return m


def random_certificate_instance(fld: FieldSpec, k: int, s: int, n: int, rng):
    """Build (supply, L, hypergraph, witnesses, order) with a valid s-tree-like
    structure by working backward from the witnesses.

    Processing elimination positions from late to early, each step picks an
    edge into the suffix, random nonzero coefficients, and a random target in
    L, then *solves* for the new vertex's supply column.  The ordering is
    then relabeled by a random permutation so the elimination order is not
    the identity.  Tiny fields can paint themselves into a corner (no fresh
    projective point solves the constraint), so generation retries.
    """
    q = fld.q
    if s == 1:
        # 1-bounded hypergraphs only have singleton edges, so every
        # eliminated vertex's column must lie inside L itself; keep L a
        # hyperplane and cap n by the projective points available in it.
        n = min(n, projective_point_count(q, k - 1))
    if n < max(2, s):
        raise ValueError(f"no feasible instance for q={q}, k={k}, s={s}")
    for attempt in range(50):
        if attempt >= 25 and n > max(2, s):
            n -= 1  # tiny fields can run out of fresh points; shrink
        try:
            return _certificate_instance_once(fld, k, s, n, rng)
        except RuntimeError:
            continue
    raise RuntimeError(f"instance generation kept colliding for q={fld.q}, k={k}, n={n}")


def _certificate_instance_once(fld: FieldSpec, k: int, s: int, n: int, rng):
    q = fld.q
    if n < s or n < 2:
        raise ValueError("need n >= max(s, 2)")
    if n > projective_point_count(q, k):
        raise ValueError("not enough projective points for distinct columns")
    codim = 1 if s == 1 else int(rng.integers(1, min(3, k - 1) + 1))
    L = random_subspace(fld, k, k - codim, rng)

    need = n - s + 1
    cols: dict[int, np.ndarray] = {}
    seen: set[tuple[int, ...]] = set()

    def accept(pos: int, vec: np.ndarray) -> bool:
        if not vec.any():
            return False
        key = tuple(int(v) for v in normalize_column(fld, vec))
        if key in seen:
            return False
        seen.add(key)
        cols[pos] = vec.astype(np.int64)
        return True

    for pos in range(need, n):
        while not accept(pos, rng.integers(0, q, size=k)):
            pass

    def random_target():
        if L.dim == 0:
            return np.zeros(k, dtype=np.int64)
        coeffs = rng.integers(0, q, size=L.dim)
        return fld.matmul_arr(coeffs[None, :], L.basis.data)[0]

    edges: list[tuple[int, ...]] = []
    witnesses: dict[tuple[int, ...], EdgeWitness] = {}
    for ell in range(need - 1, -1, -1):
        placed = False
        for _ in range(200):
            size = int(rng.integers(1, min(s, n - ell) + 1))
            rest = sorted(rng.choice(np.arange(ell + 1, n), size=size - 1,
                                     replace=False).tolist()) if size > 1 else []
            edge = tuple([ell] + rest)
            coeffs = {v: int(rng.integers(1, q)) for v in edge}
            target = random_target()
            acc = target.copy()
            for v in rest:
                acc = fld.sub_arr(acc, fld.mul_arr(coeffs[v], cols[v]))
            w_new = fld.mul_arr(fld.inv(coeffs[ell]), acc)
            if accept(ell, np.asarray(w_new)):
                edges.append(edge)
                witnesses[edge] = EdgeWitness(
                    edge, tuple(coeffs[v] for v in edge),
                    tuple(int(v) for v in target))
                placed = True
                break
        if not placed:
            raise RuntimeError("could not place a fresh supply column; retry with another seed")

    edges.reverse()  # edges[i] eliminates position i

    perm = rng.permutation(n)  # position -> vertex label
    data = np.zeros((k, n), dtype=np.int64)
    for pos, vec in cols.items():
        data[:, perm[pos]] = vec
    supply = PointSupply(MatrixGF(fld, data), provenance="certificate-test")

    relabeled_edges = []
    relabeled_witnesses = {}
    for edge in edges:
        mapped = tuple(int(perm[v]) for v in edge)
        pairs = sorted(zip(mapped, witnesses[edge].coefficients))
        new_edge = tuple(v for v, _ in pairs)
        relabeled_edges.append(new_edge)
        relabeled_witnesses[new_edge] = EdgeWitness(
            new_edge, tuple(c for _, c in pairs), witnesses[edge].target)

    h = Hypergraph.from_edges(n, relabeled_edges, max_edge_size=s)
    order = EliminationOrder(tuple(int(perm[pos]) for pos in range(n)), s,
                             tuple(relabeled_edges))
    return supply, L, h, relabeled_witnesses, order
