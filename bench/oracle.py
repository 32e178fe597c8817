"""Independent oracle for the benchmark's output checks.

Nothing here calls blockforge code.  Field arithmetic comes from tables built
from (p, m, modulus) alone, with the same base-p encoding of scalars, and the
checks use a different characterization than the program under test:

* Projection cover.  B is strong s-blocking iff for every codimension-(s+1)
  subspace H the nonzero images of B under F^k -> F^k/H cover all of
  PG(s, q).  An uncovered point P of the quotient names the failing
  codimension-s subspace L = preimage of span(P), so the failures can be
  counted and compared with the exhaustive verifier's counterexamples.
* Span dump.  Every projective point spanned by a cherry, recomputed in bulk
  and compared with the constructed set.
* Sampled subspaces.  Random codimension-s subspaces, drawn from the oracle's
  own generator, must meet B in a set of rank k - s.
"""

from __future__ import annotations

import itertools

import numpy as np

QUOTIENT_CHUNK = 128  # quotient maps imaged per batch in failing_subspaces
CHERRY_CHUNK = 2048  # cherries spanned per batch in cherry_span_keys


class Field:
    """GF(p^m) as lookup tables over the integers 0..q-1 (base-p digits,
    least significant digit = constant coefficient)."""

    def __init__(self, p: int, m: int, modulus):
        self.p, self.m, self.q = p, m, p ** m
        q = self.q
        digits = np.array([[(a // p ** i) % p for i in range(m)] for a in range(q)],
                          dtype=np.int64)
        pows = p ** np.arange(m, dtype=np.int64)
        self.add = ((digits[:, None, :] + digits[None, :, :]) % p) @ pows
        mod = [int(c) % p for c in modulus]
        mul = np.zeros((q, q), dtype=np.int64)
        for a in range(q):
            for b in range(q):
                prod = [0] * (2 * m - 1)
                for i in range(m):
                    for j in range(m):
                        prod[i + j] = (prod[i + j] + digits[a, i] * digits[b, j]) % p
                for d in range(2 * m - 2, m - 1, -1):  # x^m = -(mod[0] + ... )
                    c, prod[d] = prod[d], 0
                    for i in range(m):
                        prod[d - m + i] = (prod[d - m + i] - c * mod[i]) % p
                mul[a, b] = sum(int(prod[i]) * p ** i for i in range(m))
        self.mul = mul
        self.neg = np.array([int(np.nonzero(self.add[a] == 0)[0][0]) for a in range(q)])
        self.inv = np.zeros(q, dtype=np.int64)
        for a in range(1, q):
            self.inv[a] = int(np.nonzero(mul[a] == 1)[0][0])

    def sub(self, a, b):
        return self.add[a, self.neg[b]]

    def images(self, Q: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Q (..., r, k) applied to the rows of X (N, k): shape (..., r, N)."""
        out = np.zeros(Q.shape[:-1] + (X.shape[0],), dtype=np.int64)
        for j in range(X.shape[1]):
            out = self.add[out, self.mul[Q[..., j, None], X[:, j]]]
        return out

    def normalize(self, V: np.ndarray) -> np.ndarray:
        """Scale each nonzero row (last axis) so its first nonzero entry is 1."""
        nz = V != 0
        lead_pos = nz.argmax(axis=-1)
        lead = np.take_along_axis(V, lead_pos[..., None], axis=-1)
        return self.mul[self.inv[lead], V]

    def keys(self, V: np.ndarray) -> np.ndarray:
        """Big-endian base-q integer of each row, so key order is row order."""
        w = self.q ** np.arange(V.shape[-1] - 1, -1, -1, dtype=np.int64)
        return V @ w

    def rref(self, M: np.ndarray):
        """Reduced row echelon form, rank and pivot columns."""
        R = np.array(M, dtype=np.int64, copy=True)
        rows, cols = R.shape
        r = 0
        pivots = []
        for c in range(cols):
            if r == rows:
                break
            nz = np.nonzero(R[r:, c])[0]
            if nz.size == 0:
                continue
            pr = r + int(nz[0])
            R[[r, pr]] = R[[pr, r]]
            R[r] = self.mul[self.inv[R[r, c]], R[r]]
            hit = np.nonzero(R[:, c])[0]
            hit = hit[hit != r]
            if hit.size:
                R[hit] = self.sub(R[hit], self.mul[R[hit, c, None], R[r]])
            pivots.append(c)
            r += 1
        return R[:r], r, pivots

    def rank(self, M: np.ndarray) -> int:
        return self.rref(M)[1]

    def kernel(self, M: np.ndarray) -> np.ndarray:
        """Rows spanning {x : M x = 0}."""
        R, r, piv = self.rref(M)
        k = M.shape[1]
        rows = []
        for j in range(k):
            if j in piv:
                continue
            v = np.zeros(k, dtype=np.int64)
            v[j] = 1
            for i, pc in enumerate(piv):
                v[pc] = self.neg[R[i, j]]
            rows.append(v)
        return np.array(rows, dtype=np.int64).reshape(len(rows), k)

    def projective_points(self, d: int) -> np.ndarray:
        """All normalized nonzero vectors of F_q^d, one per projective point."""
        pts = [v for v in itertools.product(range(self.q), repeat=d)
               if any(v) and v[next(i for i, x in enumerate(v) if x)] == 1]
        return np.array(pts, dtype=np.int64)

    def rref_matrices(self, rows: int, k: int) -> np.ndarray:
        """Every rows x k matrix in reduced row echelon form of full rank."""
        out = []
        for piv in itertools.combinations(range(k), rows):
            free = [(i, j) for i in range(rows) for j in range(piv[i] + 1, k)
                    if j not in piv]
            for vals in itertools.product(range(self.q), repeat=len(free)):
                mat = np.zeros((rows, k), dtype=np.int64)
                for i, pc in enumerate(piv):
                    mat[i, pc] = 1
                for (i, j), v in zip(free, vals):
                    mat[i, j] = v
                out.append(mat)
        return np.array(out)


def failing_subspaces(F: Field, points: np.ndarray, s: int):
    """Canonical RREF bases (as tuples) of every codimension-s subspace L for
    which points of B inside L fail to span L, found by projection cover."""
    k = points.shape[1]
    quotients = F.rref_matrices(s + 1, k)
    targets = F.projective_points(s + 1)
    target_keys = F.keys(targets)
    failing = set()
    for lo in range(0, len(quotients), QUOTIENT_CHUNK):
        Qs = quotients[lo:lo + QUOTIENT_CHUNK]
        img = np.swapaxes(F.images(Qs, points), 1, 2)  # (c, N, s+1)
        nonzero = img.any(axis=-1)
        keys = np.where(nonzero, F.keys(F.normalize(img)), -1)
        hit = np.zeros((len(Qs), F.q ** (s + 1)), dtype=bool)
        rows = np.broadcast_to(np.arange(len(Qs))[:, None], keys.shape)
        hit[rows[nonzero], keys[nonzero]] = True
        for qi, ti in zip(*np.nonzero(~hit[:, target_keys])):
            annihilator = F.kernel(targets[ti][None, :])  # s x (s+1), kernel = span(P)
            M = F.images(annihilator, Qs[qi].T)  # s x k
            L, _, _ = F.rref(F.kernel(M))
            failing.add(tuple(map(tuple, L.tolist())))
    return failing


def meet_rank(F: Field, points: np.ndarray, basis) -> int:
    """Rank of the points of B lying in the row space of `basis`."""
    Q = F.kernel(np.asarray(basis, dtype=np.int64))  # s x k, null space = L
    inside = ~F.images(Q, points).any(axis=0)
    return F.rank(points[inside]) if inside.any() else 0


def cherry_span_keys(F: Field, columns: np.ndarray, adjacency):
    """Sorted distinct keys of every projective point in the span of a cherry
    {x, y, z} (y, z distinct neighbours of x) of the graph."""
    cherries = sorted({tuple(sorted((x, y, z)))
                       for x, nbrs in enumerate(adjacency)
                       for y, z in itertools.combinations(nbrs, 2)})
    coeffs = F.projective_points(3)  # (P, 3)
    cols = np.asarray(columns, dtype=np.int64).T  # (n, k)
    out = []
    for lo in range(0, len(cherries), CHERRY_CHUNK):
        trip = np.array(cherries[lo:lo + CHERRY_CHUNK], dtype=np.int64)  # (e, 3)
        vecs = cols[trip]  # (e, 3, k)
        acc = np.zeros((len(trip), len(coeffs), cols.shape[1]), dtype=np.int64)
        for t in range(3):
            acc = F.add[acc, F.mul[coeffs[None, :, t, None], vecs[:, None, t, :]]]
        acc = acc.reshape(-1, cols.shape[1])
        acc = acc[acc.any(axis=1)]
        out.append(np.unique(F.keys(F.normalize(acc))))
    return np.unique(np.concatenate(out))


def sampled_meet_ranks(F: Field, points: np.ndarray, s: int, trials: int, seed: int):
    """Ranks of B inside `trials` random codimension-s subspaces."""
    rng = np.random.default_rng(seed)
    k = points.shape[1]
    ranks = []
    while len(ranks) < trials:
        Q = rng.integers(0, F.q, size=(s, k))
        if F.rank(Q) < s:
            continue
        inside = ~F.images(Q, points).any(axis=0)
        ranks.append(F.rank(points[inside]) if inside.any() else 0)
    return ranks
