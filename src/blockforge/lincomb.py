"""Proper-linear-combination hypergraphs and tree-like rank certificates.

A *proper* combination has every coefficient nonzero.  Given a supply W and
a target subspace L, a vertex subset X is an edge when some proper
combination of the X-columns of W lands in L; a witness records the
coefficients and the resulting vector.  A hypergraph with an elimination
order in which each early vertex has degree exactly one in the remaining
suffix yields a triangular coefficient matrix M, and the rank of M @ N
(N = the ordered points) certifies how much of L the proper span covers:
at least rank(N) - s + 1 for an s-bounded hypergraph.

The full edge-is-an-oracle hypergraph is never materialized; candidate edges
always come from a construction (cherries, neighbourhoods, subsets of balls)
and are tested one at a time.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import BudgetExceededError, CertificateError
from .expander import Hypergraph
from .linalg import (MatrixGF, distinct_rows, kernel_basis, matmul, normalize_rows,
                     projective_reps, quotient_map, rank, SubspaceBasis)
from .supply import PointSupply

COEFF_TUPLES = 1_000_000  # coefficient tuples a witness search may enumerate


@dataclass(frozen=True)
class EdgeWitness:
    """A proper combination of an edge's supply columns that lies in the
    target subspace: sum(coefficients[i] * W[edge[i]]) == target."""

    edge: tuple[int, ...]
    coefficients: tuple[int, ...]
    target: tuple[int, ...]

    def __post_init__(self):
        if len(self.edge) != len(self.coefficients):
            raise ValueError("one coefficient per edge vertex required")
        if any(c == 0 for c in self.coefficients):
            raise ValueError("proper combinations have no zero coefficients")

    def check(self, supply: PointSupply, L: SubspaceBasis | None = None) -> None:
        acc = supply.field.matmul_arr(supply.matrix.data[:, list(self.edge)],
                                      np.array(self.coefficients)[:, None])[:, 0]
        if not np.array_equal(acc, np.asarray(self.target)):
            raise ValueError("witness target does not match its combination")
        if L is not None and not L.contains(acc):
            raise ValueError("witness target is not in the target subspace")


@dataclass(frozen=True)
class EliminationOrder:
    """A vertex ordering v_1..v_n where each v_i for i <= n-s+1 has degree
    exactly 1 in the hypergraph induced on the suffix {v_i, ..., v_n};
    witness_edges[i] is that unique edge."""

    order: tuple[int, ...]
    s: int
    witness_edges: tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# Witness search
# ---------------------------------------------------------------------------

def plc_edge(supply: PointSupply, X, L: SubspaceBasis, *,
             size_cap: int | None = None,
             coeff_budget: int = COEFF_TUPLES):
    """Witness that X is an edge of the proper-combination hypergraph toward
    L, or None.

    The witness coefficients a solve Q W_X a = 0.  The projective null space
    of Q W_X is scanned whole, so the witness is deterministic: the
    lexicographically least all-nonzero solution with first coefficient 1.
    """
    X = tuple(sorted(int(v) for v in X))
    if len(X) < 1 or len(set(X)) != len(X):
        raise ValueError("X must be a nonempty set of distinct vertex indices")
    if any(v < 0 or v >= supply.n for v in X):
        raise ValueError(f"vertex indices {X} out of range")
    fld = supply.field
    k = supply.k
    if L.ambient_dim != k:
        raise ValueError("subspace ambient dimension disagrees with the supply")
    s = L.codim
    cap = size_cap if size_cap is not None else s + 1
    if s >= 1 and len(X) > cap:
        raise ValueError(f"edge size {len(X)} exceeds the bound {cap}")

    cols = supply.matrix.data[:, X]  # k x |X|
    if s == 0:
        # Everything lies in the full space; take the all-ones combination.
        coeffs = (1,) * len(X)
        target = fld.matmul_arr(cols, np.ones((len(X), 1), dtype=np.int64))[:, 0]
        return EdgeWitness(X, coeffs, tuple(int(v) for v in target))

    A = fld.matmul_arr(quotient_map(L).data, cols)  # s x |X|
    kern = kernel_basis(MatrixGF(fld, A))  # nu x |X|
    nu = kern.rows
    if nu == 0:
        return None
    q = fld.q
    total = (q ** nu - 1) // (q - 1)
    if total > coeff_budget:
        raise BudgetExceededError("coeff_tuples", coeff_budget, total)
    cand = fld.matmul_arr(projective_reps(fld, nu), kern.data)  # total x |X|
    cand = cand[(cand != 0).all(axis=1)]
    if not len(cand):
        return None
    best = tuple(distinct_rows(normalize_rows(fld, cand))[0][0].tolist())  # first coefficient 1
    target = fld.matmul_arr(cols, np.array(best, dtype=np.int64)[:, None])[:, 0]
    return EdgeWitness(X, best, tuple(int(v) for v in target))


def build_plc_hypergraph(supply: PointSupply, L: SubspaceBasis, candidate_edges, *,
                         size_cap: int | None = None,
                         coeff_budget: int = COEFF_TUPLES):
    """Restrict the proper-combination hypergraph to the candidate edges.

    Returns (Hypergraph, {edge: EdgeWitness}).  Candidates are deduplicated
    and queried independently, so callers may shard this loop.
    """
    witnesses: dict[tuple[int, ...], EdgeWitness] = {}
    for cand in sorted({tuple(sorted(int(v) for v in e)) for e in candidate_edges}):
        w = plc_edge(supply, cand, L, size_cap=size_cap, coeff_budget=coeff_budget)
        if w is not None:
            witnesses[cand] = w
    h = Hypergraph.from_edges(supply.n, witnesses.keys(),
                              max_edge_size=size_cap)
    return h, witnesses


# ---------------------------------------------------------------------------
# Tree-like recognition
# ---------------------------------------------------------------------------

def tree_like_order(h: Hypergraph, s: int):
    """Find an elimination order proving h is s-tree-like, or None.

    Repeatedly remove the least-index vertex of degree exactly 1 in the
    hypergraph induced on the live vertices.  None proves that h is not
    s-tree-like, because removing any vertex v of degree 1 keeps an order if
    one exists.  Take an order of the live set and let e be v's one edge.
    If v is in the order, moving v to the front keeps it valid: only e dies,
    and no vertex before v can use e, since v still needs it.  If v is not,
    v goes first in place of the vertex whose edge is e, or of the last
    vertex when no vertex uses e; that vertex stays live to the end.

    Live degrees are kept as counts, and the vertices of degree 1 in a
    min-heap, so a pass costs O(sum of edge sizes + n log n): removing a
    vertex kills its live edges, each of which lowers the degree of its
    other vertices once.
    """
    if not h.is_bounded(s):
        raise ValueError(f"hypergraph is not {s}-bounded")
    edges = h.edges
    incident: list[list[int]] = [[] for _ in range(h.n)]
    for i, e in enumerate(edges):
        for v in e:
            incident[v].append(i)
    degree = [len(ids) for ids in incident]
    live_edge = [True] * len(edges)
    ready = [v for v in range(h.n) if degree[v] == 1]  # ascending, so already a heap
    seq: list[int] = []
    picked: list[tuple[int, ...]] = []
    while len(seq) < h.n - s + 1:
        while ready and degree[ready[0]] != 1:  # a stale entry: its degree fell to 0
            heapq.heappop(ready)
        if not ready:
            return None
        v = heapq.heappop(ready)
        seq.append(v)
        picked.append(next(edges[i] for i in incident[v] if live_edge[i]))
        for i in incident[v]:
            if live_edge[i]:
                live_edge[i] = False
                for u in edges[i]:
                    if u != v:
                        degree[u] -= 1
                        if degree[u] == 1:
                            heapq.heappush(ready, u)
    rest = sorted(set(range(h.n)).difference(seq))
    return EliminationOrder(tuple(seq) + tuple(rest), s, tuple(picked))


def check_elimination_order(h: Hypergraph, order: EliminationOrder) -> bool:
    """Recount the degree-1 suffix property from scratch."""
    n = h.n
    if sorted(order.order) != list(range(n)):
        return False
    need = max(n - order.s + 1, 0)
    if len(order.witness_edges) != need:
        return False
    for i in range(need):
        suffix = set(order.order[i:])
        v = order.order[i]
        live = [e for e in h.edges if all(u in suffix for u in e) and v in e]
        if len(live) != 1 or live[0] != order.witness_edges[i]:
            return False
    return True


# ---------------------------------------------------------------------------
# Rank certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    """Triangular coefficient matrix M, ordered point matrix N, and the
    certified dimension rank(M @ N) >= rank(N) - s + 1."""

    order: EliminationOrder
    witnesses: dict
    m_matrix: MatrixGF
    n_matrix: MatrixGF
    achieved_dim: int

    def to_dict(self) -> dict:
        return {
            "order": list(self.order.order),
            "s": self.order.s,
            "edges": [{"edge": list(e),
                       "coefficients": list(self.witnesses[e].coefficients)}
                      for e in self.order.witness_edges],
            "achieved_dim": self.achieved_dim,
        }


def certify(supply: PointSupply, L: SubspaceBasis, h: Hypergraph,
            witnesses: dict, order: EliminationOrder) -> Certificate:
    """Assemble the rank certificate for an s-tree-like hypergraph.

    Row l of M carries the witness coefficients of the l-th elimination edge,
    placed at the order positions of its vertices; N stacks the supply
    columns in order.  Raises CertificateError on a missing witness or a
    non-triangular order, and refuses to return a certificate whose rows fail
    to land in L or whose rank falls below rank(N) - s + 1 (that bound is a
    theorem, so a violation means a broken witness or order).
    """
    fld = supply.field
    n = h.n
    s = order.s
    if sorted(order.order) != list(range(n)):
        raise CertificateError("order is not a permutation of the vertex set")
    pos = {v: i for i, v in enumerate(order.order)}
    nrows = len(order.witness_edges)
    m_data = np.zeros((nrows, n), dtype=np.int64)
    for ell, e in enumerate(order.witness_edges):
        w = witnesses.get(tuple(e))
        if w is None:
            raise CertificateError(f"no witness for elimination edge {e}")
        w.check(supply)
        for v, c in zip(w.edge, w.coefficients):
            p = pos[v]
            if p < ell:
                raise CertificateError(
                    f"edge {e} reaches position {p} before its row {ell}: order is not triangular")
            m_data[ell, p] = c
        if m_data[ell, ell] == 0:
            raise CertificateError(f"row {ell} has a zero diagonal: order is not triangular")
    n_data = supply.matrix.data[:, list(order.order)].T  # n x k
    m_mat = MatrixGF(fld, m_data)
    n_mat = MatrixGF(fld, n_data)
    product = matmul(m_mat, n_mat)
    for ell, e in enumerate(order.witness_edges):
        row = product.data[ell]
        if not np.array_equal(row, np.asarray(witnesses[tuple(e)].target)):
            raise CertificateError(f"certificate row {ell} is not the witness combination")
        if not L.contains(row):
            raise CertificateError(f"certificate row {ell} is not in the target subspace")
    achieved = rank(product)
    floor = rank(n_mat) - s + 1
    if achieved < floor:
        raise CertificateError(
            f"achieved dimension {achieved} fell below the certified floor {floor}")
    return Certificate(order, dict(witnesses), m_mat, n_mat, achieved)


def exactly_s_plus_one_edge(supply: PointSupply, U, L: SubspaceBasis, s: int, *,
                            coeff_budget: int = COEFF_TUPLES):
    """Search the (s+1)-subsets of U for a full-support witness toward L.

    Requires q > s.  When every s+1 supply columns are independent and
    |U| >= (s+2)!, such an edge always exists; the first subset (in index
    order) with a witness is returned.
    """
    if supply.field.q <= s:
        raise ValueError(f"need q > s, got q={supply.field.q}, s={s}")
    U = sorted(int(v) for v in U)
    if len(U) < s + 1:
        return None
    for X in combinations(U, s + 1):
        w = plc_edge(supply, X, L, size_cap=s + 1, coeff_budget=coeff_budget)
        if w is not None:
            return w
    return None
