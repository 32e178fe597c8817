"""Shared randomized instance generators for the test suite.

Everything here is seeded by the caller, so test runs are reproducible.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import combinations, product

import numpy as np

from blockforge import construct
from blockforge.budgets import DEFAULT_BUDGETS
from blockforge.errors import BudgetExceededError
from blockforge.expander import Graph, Hypergraph, _legendre, _sqrt_minus_one
from blockforge.gf import FieldSpec
from blockforge.lincomb import EdgeWitness, EliminationOrder
from blockforge import linalg
from blockforge.linalg import (MatrixGF, SubspaceBasis, distinct_rows, gaussian_binomial,
                               kernel_basis, matmul, normalize_rows, projective_reps, rank,
                               rank_stack, rref_blocks, subspace_from_rows)
from blockforge.mincode import LinearCode, MinimalityReport
from blockforge.supply import GeneralPositionReport, PointSupply, min_distance
from blockforge.verify import _ragged_ranks


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


def normalize_column(field: FieldSpec, col: np.ndarray) -> np.ndarray:
    """Scale so the first nonzero coordinate is 1 (the removed
    `supply.normalize_column`)."""
    nz = np.nonzero(col)[0]
    if nz.size == 0:
        raise ValueError("cannot normalize the zero vector")
    lead = int(col[nz[0]])
    if lead == 1:
        return col.astype(np.int64)
    return field.mul_arr(field.inv(lead), col)


def random_columns_by_loop(field: FieldSpec, k: int, n: int, rng) -> np.ndarray | None:
    """The candidate draw of `supply.supply_random_verified` as it was: one
    `rng.integers` call per vector, skipping zero vectors and projective
    repeats by tuple keys, at most 100 n draws."""
    cols = []
    seen = set()
    attempts = 0
    while len(cols) < n and attempts < 100 * n:
        attempts += 1
        cand = rng.integers(0, field.q, size=k)
        if not cand.any():
            continue
        key = tuple(int(v) for v in normalize_column(field, cand))
        if key in seen:
            continue
        seen.add(key)
        cols.append(cand)
    return np.array(cols, dtype=np.int64) if len(cols) == n else None


def quotient_parts(fld, points: np.ndarray, pivots: tuple[int, ...], block: np.ndarray):
    """The two halves of Q x = x[free] - x[pivots] @ R[:, free], the image of
    every point x under the quotient map Q of every subspace L in a block of
    RREF bases R (x lies in L iff x == x[pivots] @ R, as R[:, pivots] = I);
    the removed `verify._quotient_parts`.

    Returns x[free] (c x 1 x N) and x[pivots] @ R[:, free] (c x count x N),
    the latter from one field matmul of inner dimension dim L.
    """
    free = [j for j in range(points.shape[1]) if j not in pivots]
    shape = (len(free), len(block), len(points))
    r_free = block[:, :, free].transpose(2, 0, 1).reshape(shape[0] * shape[1], len(pivots))
    span = fld.matmul_arr(r_free, points[:, list(pivots)].T).reshape(shape)
    return points[:, free].T[:, None, :], span


def meet_ranks_by_basis(fld, points: np.ndarray, pivots: tuple[int, ...], block: np.ndarray):
    """Rank of the points inside each subspace L of a block of RREF bases, read
    in L's basis (their pivot coordinates), every point of L ranked; the
    basis-side meet ranks that `verify._meet_ranks` replaced."""
    own, span = quotient_parts(fld, points, pivots, block)
    which, where = np.nonzero((span == own).all(axis=0))  # (L, point) pairs, L-major
    return _ragged_ranks(fld, which, points[where][:, list(pivots)], len(block))


def dual_distance_by_ranks(matrix: MatrixGF):
    """The smallest number of dependent columns, or None when every subset of
    columns is independent, by ranking every column subset of size j = 1, 2,
    ... up to k; k+1 if none of them is dependent and n > k.  The exact
    general-position sweep that `supply.dual_distance` replaced."""
    k, n = matrix.rows, matrix.cols
    for j in range(1, min(k, n) + 1):
        subsets = np.array(list(combinations(range(n), j)))
        if (rank_stack(matrix.field, matrix.data[:, subsets].transpose(1, 0, 2)) < j).any():
            return j
    return k + 1 if n > k else None


def general_position_by_draws(supply: PointSupply, s: int, t: int, samples: int,
                              seed: int) -> GeneralPositionReport:
    """The sampled path of `supply.verify_general_position` one draw at a
    time: each subset by Floyd's algorithm on its own `rng.random(size)`
    row, with a Python list for the picks, ranked alone with `rank`."""
    rng = np.random.default_rng(seed)
    mat = supply.matrix
    k, n = mat.shape

    def deficient(size, needed):
        for _ in range(samples):
            u, picks = rng.random(size), []
            for i, top in enumerate(range(n - size, n)):
                pick = int(u[i] * (top + 1))  # uniform in [0, top]
                picks.append(top if pick in picks else pick)
            if rank(MatrixGF(mat.field, mat.data[:, picks])) < needed:
                return True
        return False

    if deficient(min(s + 1, n), min(s + 1, n)):
        return GeneralPositionReport(0, None, "sampled")
    if deficient(min(t, n), k):
        return GeneralPositionReport(s, None, "sampled")
    return GeneralPositionReport(s, t, "sampled")


def dual_distance_by_codewords(matrix: MatrixGF, *,
                               budget: int = DEFAULT_BUDGETS.codewords):
    """The smallest number of dependent columns computed the other way, as
    the minimum weight over the null space of the matrix (enumerated
    projectively): a cross-check of `supply.dual_distance`."""
    kern = kernel_basis(matrix)  # nullity x n
    if kern.rows == 0:
        return None
    return min_distance(kern, budget=budget)


def minimal_pair_dense(supports: np.ndarray) -> tuple[int, int] | None:
    """The first pair (i, j), i != j, in (i, j) order with row i of the
    boolean matrix `supports` inside row j, by the dense scan that
    `mincode.is_s_minimal` ran before its candidate-pair scan: every row
    against every complement, RREF_BLOCK rows at a time."""
    # 0/1 products summed in float32 are 0 exactly when every term is 0
    outside = (~supports).astype(np.float32).T
    for lo in range(0, len(supports), linalg.RREF_BLOCK):
        inside = supports[lo:lo + linalg.RREF_BLOCK].astype(np.float32)
        missing = inside @ outside  # |supp X_i - supp X_j|
        rows = np.arange(len(missing))
        missing[rows, lo + rows] = 1  # i == j is not a pair
        pairs = np.argwhere(missing == 0)
        if pairs.size:
            return lo + int(pairs[0, 0]), int(pairs[0, 1])
    return None


def is_s_minimal_dense(code: LinearCode, s: int) -> MinimalityReport:
    """`mincode.is_s_minimal` with the dense pair scan (no budget): the
    reference its reports must equal byte for byte."""
    fld, k = code.field, code.k
    if s > k:
        return MinimalityReport(s, 0, "pass", None)
    total = gaussian_binomial(k, s, fld.q)
    gen = code.generator.data
    supports = np.vstack([
        fld.matmul_arr(block.reshape(-1, k), gen).reshape(len(block), s, -1).any(axis=1)
        for _, block in rref_blocks(fld, k, s)])  # total x n
    pair = minimal_pair_dense(supports)
    if pair is None:
        return MinimalityReport(s, total, "pass", None)
    # Rebuild the rows of X_i and X_j from their indices and recount their
    # supports directly before reporting.
    ri, rj = (fld.matmul_arr(next(rref_blocks(fld, k, s, x, x + 1))[1][0], gen) for x in pair)
    if not set(np.nonzero(ri.any(axis=0))[0]) <= set(np.nonzero(rj.any(axis=0))[0]):
        raise RuntimeError("the support matrix disagrees with a direct recount")
    return MinimalityReport(s, total, "fail", (ri, rj))


def supply_column(supply: PointSupply, j: int) -> np.ndarray:
    """Column j of a supply (the removed `PointSupply.column`)."""
    return supply.matrix.data[:, j]


def span_union_by_edges(h: Hypergraph, supply: PointSupply, *,
                        point_cap: int = DEFAULT_BUDGETS.points) -> construct.BlockingSet:
    """The span dump as `construct.edge_span_union` computed it before it
    imaged faces: every projective point of each edge's whole span, one field
    matmul per chunk of equal-size edges, each chunk deduplicated on its own
    and the chunks merged once at the end, under the same budget rule."""
    fld, k = supply.field, supply.k
    columns = supply.matrix.data.T.astype(fld.dtype)  # n x k
    chunks, held = [], 0
    for size, edges in h.edge_arrays.items():
        edges = edges.T  # size x edges
        coeffs = projective_reps(fld, size).astype(fld.dtype)  # reps x size
        step = max(1, construct.SPAN_CHUNK_ROWS // len(coeffs))
        for lo in range(0, edges.shape[1], step):
            flat = columns[edges[:, lo:lo + step]].reshape(size, -1)
            pts = fld.matmul_arr(coeffs, flat).reshape(-1, k)
            pts = pts[pts.any(axis=1)]  # dependent columns can cancel
            chunks.append(distinct_rows(normalize_rows(fld, pts))[0])
            held += len(chunks[-1])
            if held > point_cap:
                chunks = [distinct_rows(np.concatenate(chunks))[0]]
                held = len(chunks[0])
                if held > point_cap:
                    raise BudgetExceededError("points", point_cap, held)
    if len(chunks) > 1:
        chunks = [distinct_rows(np.concatenate(chunks))[0]]
    distinct = chunks[0] if chunks else np.zeros((0, k), dtype=fld.dtype)
    distinct.setflags(write=False)
    return construct.BlockingSet(fld, k, distinct, {"construction": "edge_span_union"})


def faces_by_set(h: Hypergraph, j: int) -> list[tuple[int, ...]]:
    """The distinct j-subsets of the edges of h in lexicographic order, from a
    Python set of tuples."""
    return sorted({f for e in h.edges if len(e) >= j for f in combinations(e, j)})


def proper_combinations(fld: FieldSpec, j: int) -> np.ndarray:
    """The (q-1)^(j-1) coefficient vectors (1, a_2, ..., a_j), every a_i
    nonzero, in base-(q-1) order of (a_2, ..., a_j)."""
    return np.array([(1, *a) for a in product(range(1, fld.q), repeat=j - 1)], dtype=np.int64)


def span_union_resorting(h: Hypergraph, supply: PointSupply, point_cap: int) -> np.ndarray:
    """The face-order span dump of `construct.edge_span_union` with the
    growing set re-sorted after every chunk: int64 rows, chunks of
    max(1, `construct.SPAN_CHUNK_ROWS` // (q-1)^(j-1)) faces of each size j
    in lexicographic order, and the budget checked against the set's size
    after every chunk."""
    fld, k = supply.field, supply.k
    distinct = np.zeros((0, k), dtype=np.int64)
    for j in range(1, max((len(e) for e in h.edges), default=0) + 1):
        faces = np.array(faces_by_set(h, j)).T
        coeffs = proper_combinations(fld, j)
        step = max(1, construct.SPAN_CHUNK_ROWS // len(coeffs))
        for lo in range(0, faces.shape[1], step):
            flat = supply.matrix.data.T[faces[:, lo:lo + step]].reshape(j, -1)
            pts = fld.matmul_arr(coeffs, flat).reshape(-1, k)
            pts = pts[pts.any(axis=1)]
            distinct, _ = distinct_rows(np.vstack([distinct, normalize_rows(fld, pts)]))
            if len(distinct) > point_cap:
                raise BudgetExceededError("points", point_cap, len(distinct))
    return distinct


def enumerate_subspaces(field: FieldSpec, k: int, codim: int, *,
                        budget: int | None = DEFAULT_BUDGETS.subspaces,
                        start: int = 0, stop: int | None = None):
    """Yield every codimension-`codim` subspace of F_q^k exactly once, in the
    canonical order of `rref_blocks` (the removed `linalg.enumerate_subspaces`).

    The [start, stop) window selects a contiguous shard of that order.
    """
    if not 0 <= codim <= k:
        raise ValueError(f"need 0 <= codim <= k, got codim={codim}, k={k}")
    total = gaussian_binomial(k, k - codim, field.q)
    if budget is not None and total > budget:
        raise BudgetExceededError("subspaces", budget, total,
                                  "switch to sampled verification or raise the budget")
    for pivots, block in rref_blocks(field, k, k - codim, start, stop):
        for mat in block:
            yield SubspaceBasis(k, MatrixGF(field, mat), pivots)


def rref_stack_int64(field: FieldSpec, a) -> tuple[np.ndarray, np.ndarray]:
    """`linalg.rref_stack` as it eliminated before it worked in the field's
    storage type: the same column sweep, in int64 throughout."""
    R = np.array(a, dtype=np.int64)
    _, rows, cols = R.shape
    ranks = np.zeros(len(R), dtype=np.int64)
    for c in range(cols):
        if (ranks == rows).all():
            break
        cand = (R[:, :, c] != 0) & (np.arange(rows) >= ranks[:, None])
        b = np.nonzero(cand.any(axis=1))[0]
        src, r = cand[b].argmax(axis=1), ranks[b]
        piv = R[b, src, c:]
        R[b, src, c:] = R[b, r, c:]
        R[b, r, c:] = piv = field.mul_arr(field.inv_arr(piv[:, 0])[:, None], piv)
        neg = field.neg_arr(R[b, :, c])
        neg[np.arange(b.size), r] = 0
        hb, hr = np.nonzero(neg)
        R[b[hb], hr, c:] = field.add_arr(R[b[hb], hr, c:],
                                         field.mul_arr(neg[hb, hr][:, None], piv[hb]))
        ranks[b] += 1
    return R, ranks


def hypergraph_by_set(n: int, edges, max_edge_size: int | None = None):
    """(edges, max_edge_size) as `Hypergraph.from_edges` built them before it
    kept arrays: a set of sorted tuples, checked in sorted order."""
    canon = sorted({tuple(sorted(int(v) for v in e)) for e in edges})
    for e in canon:
        if not e:
            raise ValueError("empty hyperedge")
        if len(set(e)) != len(e):
            raise ValueError(f"repeated vertex in edge {e}")
        if e[0] < 0 or e[-1] >= n:
            raise ValueError(f"edge {e} out of range for n={n}")
    width = max((len(e) for e in canon), default=0)
    if max_edge_size is not None and width > max_edge_size:
        raise ValueError(f"edge of size {width} exceeds the bound {max_edge_size}")
    return tuple(canon), max_edge_size if max_edge_size is not None else width


def cherries_by_set(g: Graph) -> tuple[tuple[int, int, int], ...]:
    """The cherries of g as `construct.cherry_hypergraph` listed them before
    it worked on arrays: a set of sorted vertex triples, in sorted order."""
    cherries = set()
    for x in range(g.n):
        for y, z in combinations(g.adjacency[x], 2):
            cherries.add(tuple(sorted((x, y, z))))
    return tuple(sorted(cherries))


# References: the graph operators as `expander` and `construct` ran them
# before they worked on the CSR arrays, on the tuple view `g.adjacency`.

def bfs_distances(g: Graph, start: int, radius: int | None = None) -> dict[int, int]:
    """Distances from `start`, up to `radius` when given, by the per-vertex
    deque BFS (`expander._bfs_reach` and `_bfs_within`)."""
    dist = {start: 0}
    dq = deque([start])
    while dq:
        u = dq.popleft()
        if dist[u] == radius:
            continue
        for v in g.adjacency[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                dq.append(v)
    return dist


def is_connected_by_bfs(g: Graph) -> bool:
    return g.n == 0 or len(bfs_distances(g, 0)) == g.n


def bipartition_by_bfs(g: Graph):
    """`Graph.bipartition`: a +-1 coloring vector, or None at the first edge
    whose ends get one colour."""
    color = np.zeros(g.n, dtype=np.int64)
    for s in range(g.n):
        if color[s]:
            continue
        color[s] = 1
        dq = deque([s])
        while dq:
            u = dq.popleft()
            for v in g.adjacency[u]:
                if color[v] == 0:
                    color[v] = -color[u]
                    dq.append(v)
                elif color[v] == color[u]:
                    return None
    return color


def ball_by_bfs(g: Graph, x: int, t: int) -> tuple[int, ...]:
    return tuple(sorted(bfs_distances(g, x, t)))


def power_graph_by_bfs(g: Graph, u: int) -> Graph:
    edges = []
    for x in range(g.n):
        for y in bfs_distances(g, x, u):
            if x < y:
                edges.append((x, y))
    return Graph(g.n, edges)


def largest_component_by_bfs(g: Graph, subset) -> tuple[int, ...]:
    inside = set(int(v) for v in subset)
    best: tuple[int, ...] = ()
    seen: set[int] = set()
    for s in sorted(inside):
        if s in seen:
            continue
        comp = {s}
        dq = deque([s])
        while dq:
            u = dq.popleft()
            for v in g.adjacency[u]:
                if v in inside and v not in comp:
                    comp.add(v)
                    dq.append(v)
        seen |= comp
        if len(comp) > len(best):
            best = tuple(sorted(comp))
    return best


def find_star_vertex_by_sets(g: Graph, u0, *others):
    sets = [set(int(v) for v in u0)] + [set(int(v) for v in s) for s in others]
    for a, b in combinations(sets, 2):
        if a & b:
            raise ValueError("vertex sets must be pairwise disjoint")
    for x in sorted(sets[0]):
        nbrs = set(g.adjacency[x])
        if all(nbrs & s for s in sets[1:]):
            return x
    return None


def mixing_by_matvec(g: Graph, lam: float, trials: int, seed: int = 0) -> dict:
    """`expander.check_mixing(...).to_dict()` with e(G[U]) and e(G[U, V])
    from float adjacency matvecs over `g.neighbors`, as it counted them
    before it read the edge array."""
    d, n = g.degree, g.n
    rng = np.random.default_rng(seed)
    violations, max_ratio, eps = 0, 0.0, 1e-9
    for _ in range(trials):
        mask = rng.random(n) < 0.5
        u = int(mask.sum())
        if u:
            x = mask.astype(np.float64)
            inside = int(round((x @ np.add.reduce(x[g.neighbors], axis=0)) / 2))
            lhs, rhs = abs(2 * inside - d / n * u * u), lam * u
            max_ratio = max(max_ratio, lhs / rhs)
            violations += lhs > rhs + eps
        c = rng.integers(0, 3, n)
        mu, mv = c == 0, c == 1
        u, v = int(mu.sum()), int(mv.sum())
        if u and v:
            y = mv.astype(np.float64)
            between = int(round(mu.astype(np.float64) @ np.add.reduce(y[g.neighbors], axis=0)))
            lhs, rhs = abs(between - d / n * u * v), lam * math.sqrt(u * v)
            max_ratio = max(max_ratio, lhs / rhs)
            violations += lhs > rhs + eps
    return {"lambda": lam, "trials": trials, "violations": violations, "max_ratio": max_ratio}


def _subsets_by_set(n: int, lists, r: int, budget: int) -> tuple[tuple[int, ...], ...]:
    """The r-subsets of every vertex's sorted list, gathered in a set; the
    budget is checked one vertex at a time against the distinct edges so far."""
    edges: set[tuple[int, ...]] = set()
    for x in range(n):
        if len(lists[x]) < r:
            continue
        if math.comb(len(lists[x]), r) + len(edges) > budget:
            raise BudgetExceededError("cliques", budget, len(edges) + math.comb(len(lists[x]), r))
        edges.update(combinations(lists[x], r))
    return tuple(sorted(edges))


def neighborhood_edges_by_set(g: Graph, s: int, budget: int = DEFAULT_BUDGETS.cliques):
    """`construct.neighborhood_hypergraph`'s edges: (s+1)-subsets of N[x]."""
    closed = [sorted(set(g.adjacency[x]) | {x}) for x in range(g.n)]
    return _subsets_by_set(g.n, closed, s + 1, budget)


def ball_edges_by_set(g: Graph, s: int, budget: int = DEFAULT_BUDGETS.cliques):
    """`construct.ball_power_hypergraph`'s edges: (s+1)-subsets
    of the radius-(s+1) balls."""
    balls = [ball_by_bfs(g, x, s + 1) for x in range(g.n)]
    return _subsets_by_set(g.n, balls, s + 1, budget)


def _pgl_normalize(mat: tuple[int, int, int, int], q2: int) -> tuple[int, int, int, int]:
    for entry in mat:
        if entry % q2:
            inv = pow(entry, q2 - 2, q2)
            return tuple((x * inv) % q2 for x in mat)
    raise ValueError("zero matrix cannot represent a PGL element")


def _mat_mul(x, y, q2):
    return ((x[0] * y[0] + x[1] * y[2]) % q2,
            (x[0] * y[1] + x[1] * y[3]) % q2,
            (x[2] * y[0] + x[3] * y[2]) % q2,
            (x[2] * y[1] + x[3] * y[3]) % q2)


def blowup_by_loop(g: Graph, d: int) -> Graph:
    """`expander.blowup` as a loop over the vertices and the edges of g."""
    edges = []
    for v in range(g.n):
        for i, j in combinations(range(d), 2):
            edges.append((v * d + i, v * d + j))
    for u, v in g.edges():
        for i in range(d):
            for j in range(d):
                edges.append((u * d + i, v * d + j))
    return Graph(g.n * d, edges)


def lps_quadruples_by_loop(p: int) -> list[tuple[int, int, int, int]]:
    """`expander._lps_quadruples` as a loop over a, b and c: every (a, b, c,
    d) with a^2 + b^2 + c^2 + d^2 = p, a odd positive, b, c, d even."""
    sols = []
    lim = math.isqrt(p)
    for a in range(1, lim + 1, 2):
        r1 = p - a * a
        bl = math.isqrt(r1)
        for b in range(-bl - (bl % 2), bl + 1, 2):
            r2 = r1 - b * b
            if r2 < 0:
                continue
            cl = math.isqrt(r2)
            for c in range(-cl - (cl % 2), cl + 1, 2):
                r3 = r2 - c * c
                if r3 < 0:
                    continue
                d = math.isqrt(r3)
                if d * d == r3 and d % 2 == 0:
                    for dd in ({d, -d} if d else {0}):
                        sols.append((a, b, c, dd))
    return sorted(set(sols))


def lps_graph_by_bfs(p: int, q2: int) -> tuple[Graph, list[tuple[int, int, int, int]]]:
    """X^{p,q2} as `expander.lps_graph` built it before its closure ran one
    level at a time: a vertex-by-vertex BFS over normalized matrix tuples.
    Returns the graph and the matrix of each vertex, in vertex order."""
    i_unit = _sqrt_minus_one(q2)
    gens = [_pgl_normalize(((a + i_unit * b) % q2, (c + i_unit * d) % q2,
                            (-c + i_unit * d) % q2, (a - i_unit * b) % q2), q2)
            for a, b, c, d in lps_quadruples_by_loop(p)]
    identity = (1, 0, 0, 1)
    index = {identity: 0}
    order = [identity]
    edges = []
    dq = deque([identity])
    while dq:
        g = dq.popleft()
        gi = index[g]
        for s in gens:
            h = _pgl_normalize(_mat_mul(g, s, q2), q2)
            hi = index.get(h)
            if hi is None:
                hi = len(order)
                index[h] = hi
                order.append(h)
                dq.append(h)
            if gi < hi:
                edges.append((gi, hi))
    expected = q2 * (q2 * q2 - 1) // (2 if _legendre(p, q2) == 1 else 1)
    if len(order) != expected:
        raise RuntimeError(f"group closure has {len(order)} elements, expected {expected}")
    return Graph(len(order), edges, cayley=True), order


BACKTRACK_LIMIT = 20  # the most vertices tree_like_order_two_pass backtracks over


def _live_degrees(edges, alive):
    deg: dict[int, list[tuple[int, ...]]] = {v: [] for v in alive}
    for e in edges:
        if all(v in alive for v in e):
            for v in e:
                deg[v].append(e)
    return deg


def tree_like_order_two_pass(h: Hypergraph, s: int):
    """The removed `lincomb.tree_like_order`: a greedy least-index pass, then,
    when it stalls and n <= BACKTRACK_LIMIT, a recursive backtracking search
    from scratch."""
    if not h.is_bounded(s):
        raise ValueError(f"hypergraph is not {s}-bounded")
    n = h.n
    need = n - s + 1
    if need <= 0:
        order = tuple(range(n))
        return EliminationOrder(order, s, ())

    def greedy():
        seq: list[int] = []
        picked: list[tuple[int, ...]] = []
        alive = set(range(n))
        while len(seq) < need:
            deg = _live_degrees(h.edges, alive)
            choice = next((v for v in sorted(alive) if len(deg[v]) == 1), None)
            if choice is None:
                return None
            seq.append(choice)
            picked.append(deg[choice][0])
            alive.remove(choice)
        return seq, picked, alive

    found = greedy()
    if found is not None:
        seq, picked, alive = found
        return EliminationOrder(tuple(seq) + tuple(sorted(alive)), s, tuple(picked))

    if n > BACKTRACK_LIMIT:
        return None

    failed: set[frozenset[int]] = set()

    def backtrack(alive: frozenset[int], seq, picked):
        if len(seq) >= need:
            return seq, picked
        if alive in failed:
            return None
        deg = _live_degrees(h.edges, alive)
        for v in sorted(alive):
            if len(deg[v]) == 1:
                res = backtrack(alive - {v}, seq + [v], picked + [deg[v][0]])
                if res is not None:
                    return res
        failed.add(alive)
        return None

    res = backtrack(frozenset(range(n)), [], [])
    if res is None:
        return None
    seq, picked = res
    order = tuple(seq) + tuple(sorted(set(range(n)) - set(seq)))
    return EliminationOrder(order, s, tuple(picked))


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
