"""Expander graphs: LPS Ramanujan construction, spectral-gap bounds, mixing
checks, the hypergraph edge-list type, and the graph operators (powers,
blow-ups, balls) used by the blocking-set constructions.

Graphs are immutable and hold their adjacency as a sorted edge array and
its CSR arrays; components and bipartition come from root hooking over the
edges, balls and powers from a BFS a level at a time.  `second_eigenvalue`
reports max |lambda| over the non-trivial adjacency spectrum (every
eigenvalue but d, and -d for bipartite graphs) by one of three paths:

* exact: a dense eigensolve, for graphs of at most `EXACT_MAX_VERTICES` vertices;
* trace: a proved interval from exact closed-walk counts, for larger graphs
  known to be Cayley graphs (only `lps_graph` marks one);
* power iteration: an estimate, not a proof, for every other large graph.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .gf import field_create, is_prime
from .linalg import distinct_rows, normalize_rows, read_rows, write_rows


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of an array of non-negative integers, ascending."""
    keys = np.sort(keys)
    return keys[np.diff(keys, prepend=-1) != 0]


class Graph:
    """Simple undirected graph on vertices 0..n-1, held as its sorted edge
    array and CSR arrays; `adjacency`, the tuple view, is built on first use.

    `cayley=True` records that the graph is a Cayley graph, so every vertex
    sees the same closed-walk counts.  Only `lps_graph` passes it; the graph
    file format does not carry it, and no derived graph inherits it.
    """

    def __init__(self, n: int, edges, *, cayley: bool = False):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        pairs = np.array(edges if isinstance(edges, np.ndarray) else list(edges))
        if pairs.size and pairs.dtype.kind not in "iu":
            raise ValueError(f"vertex labels must be integers, not {pairs.dtype}")
        pairs = pairs.astype(np.int64, copy=False).reshape(len(pairs), 2)
        bad = (pairs[:, 0] == pairs[:, 1]) | ((pairs < 0) | (pairs >= n)).any(axis=1)
        if bad.any():
            u, v = pairs[bad.argmax()].tolist()
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        self.n = n
        self.cayley = cayley
        # both directions of every edge as keys u * n + v, sorted once
        u, v = pairs.T
        tails, heads = np.divmod(_distinct(np.concatenate([u * n + v, v * n + u])), n)
        forward = tails < heads
        self._edge_array = np.stack([tails[forward], heads[forward]], axis=1)  # u < v, sorted
        self.m = len(self._edge_array)
        # CSR form: the sorted neighbours of v are _heads[_ends[v] - deg v:_ends[v]]
        self._heads = heads
        self._heads.setflags(write=False)
        self._ends = np.cumsum(np.bincount(tails, minlength=n))
        self._ends.setflags(write=False)

    @functools.cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        heads, ends = self._heads.tolist(), self._ends.tolist()
        return tuple(tuple(heads[a:b]) for a, b in zip([0] + ends, ends))

    def degrees(self) -> np.ndarray:
        return np.diff(self._ends, prepend=0)

    def is_regular(self) -> bool:
        return self.n == 0 or bool(np.ptp(self.degrees()) == 0)

    @property
    def degree(self) -> int:
        if not self.is_regular():
            raise ValueError("graph is not regular")
        return int(self._ends[0]) if self.n else 0

    def edges(self):
        return map(tuple, self._edge_array.tolist())

    def _row(self, v: int) -> np.ndarray:
        """The sorted neighbours of v."""
        return self._heads[(self._ends[v - 1] if v else 0):self._ends[v]]

    def _rows(self, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The neighbours of every vertex of `vs`, row after row, and the
        position in `vs` of the row each one comes from."""
        ends = self._ends[vs]
        degs = ends - np.where(vs > 0, self._ends[vs - 1], 0)
        at = np.repeat(np.arange(len(vs)), degs)
        return self._heads[np.arange(len(at)) + (ends - np.cumsum(degs))[at]], at

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self._row(u) == v).any())

    @functools.cached_property
    def neighbors(self) -> np.ndarray:
        """(d, n) int64 array of a d-regular graph; column v holds the sorted
        neighbours of v, so the adjacency matvec A @ x is
        np.add.reduce(x[neighbors], axis=0)."""
        return np.ascontiguousarray(self._heads.reshape(self.n, self.degree).T)

    def _bfs(self, sources, radius: int | None = None) -> list[np.ndarray]:
        """The sorted keys at BFS distance 0, 1, ... up to `radius` (None:
        all); key label * n + v is v in the search from that label's
        `sources`.  A neighbour of level i lies in level i - 1, i or i + 1,
        so the next level is the frontier's neighbours minus the last two."""
        levels = [_distinct(np.asarray(sources, dtype=np.int64))]
        n = self.n
        while len(levels[-1]) and len(levels) - 1 != radius:
            labels, vs = np.divmod(levels[-1], n)
            heads, at = self._rows(vs)
            reached = _distinct(labels[at] * n + heads)
            for old in levels[-2:]:
                i = np.minimum(np.searchsorted(old, reached), len(old) - 1)
                reached = reached[old[i] != reached]
            levels.append(reached)
        return levels

    def neighborhoods(self, radius: int = 1, *, closed: bool = False,
                      centres=None) -> tuple[np.ndarray, np.ndarray]:
        """The sorted lists of the vertices at distance 1..radius (0..radius
        when `closed`) from each of the `centres` (None: all), in CSR form
        (values, ends); the open radius-1 lists are the graph's own arrays.
        `centres` is any sequence of integers."""
        if radius < 0:
            raise ValueError("radius must be >= 0")
        if centres is None:
            if radius == 1 and not closed:
                return self._heads, self._ends
            centres = np.arange(self.n)
        centres = np.asarray(centres)
        if centres.size and centres.dtype.kind not in "iu":
            raise ValueError(f"centres must be integers, not {centres.dtype}")
        centres = centres.astype(np.int64, copy=False)
        if centres.size and (centres.min() < 0 or centres.max() >= self.n):
            raise ValueError(f"centres must be vertices in [0, {self.n})")
        keys = np.sort(np.concatenate(self._bfs(np.arange(len(centres)) * self.n + centres, radius)))
        labels, values = np.divmod(keys, self.n)
        if not closed:
            keep = values != centres[labels]
            labels, values = labels[keep], values[keep]
        return values, np.cumsum(np.bincount(labels, minlength=len(centres)))

    def is_connected(self) -> bool:
        return not self._components()[0].any()

    def bipartition(self):
        """Return a +-1 coloring vector if the graph is bipartite, else None:
        +1 at even distance from the least vertex of its component."""
        return self._components()[1]

    def _components(self, inside=None) -> tuple[np.ndarray, np.ndarray | None]:
        """The least vertex of each vertex's component (in G[inside], for a
        vertex where the mask holds; any other is its own) and `bipartition`.
        Each round every root takes the least key 2 w + parity over its
        tree's edges to a root w, then pointers are followed to the roots,
        adding up the parities of walks.  The least vertex's tree takes in
        every tree next to it: at most diameter + 1 rounds."""
        edges = self._edge_array
        if inside is not None:
            edges = edges[inside[edges].all(axis=1)]
        u, v = np.concatenate([edges, edges[:, ::-1]]).T
        root, parity = np.arange(self.n), np.zeros(self.n, dtype=np.int64)
        while True:
            key = 2 * root + parity  # a root's own key is 2 root
            np.minimum.at(key, root[u], 2 * root[v] + (parity[u] ^ parity[v] ^ 1))
            to, step = np.divmod(key, 2)
            if np.array_equal(to, root):
                return root, None if (parity[u] == parity[v]).any() else 1 - 2 * parity
            while not np.array_equal(to[to], to):
                to, step = to[to], step ^ step[to]
            root, parity = to, step

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def complete_graph(n: int) -> Graph:
    """K_n: the (n, n-1, 1) fallback expander for sizes LPS cannot hit."""
    return Graph(n, combinations(range(n), 2))


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


class Hypergraph:
    """Edge lists over vertices 0..n-1 (vertex i names column i of a supply).

    The edges of each size r are held as one read-only (m_r, r) int64 array,
    `edge_arrays[r]`: every row ascending, the rows distinct and in
    lexicographic order.  `edges`, the tuple view of every edge in
    lexicographic tuple order, is built on first use.  Use `from_edges`.
    """

    def __init__(self, n: int, edge_arrays: dict[int, np.ndarray], max_edge_size: int):
        self.n = n
        self.edge_arrays = edge_arrays
        self.max_edge_size = max_edge_size

    @classmethod
    def from_edges(cls, n: int, edges, max_edge_size: int | None = None) -> "Hypergraph":
        """The hypergraph of the distinct vertex sets in `edges`: an (m, r)
        integer array, or an iterable of vertex sequences of any sizes."""
        if isinstance(edges, np.ndarray):
            if edges.ndim != 2:
                raise ValueError(f"an edge array must be 2-D, not of shape {edges.shape}")
            groups = {edges.shape[1]: edges}
        else:
            groups = {}
            for e in edges:
                e = tuple(e)
                groups.setdefault(len(e), []).append(e)
        groups = {r: np.asarray(group) for r, group in sorted(groups.items()) if len(group)}
        if 0 in groups:
            raise ValueError("empty hyperedge")
        for a in groups.values():
            if a.dtype.kind not in "iu":
                raise ValueError(f"vertex labels must be integers, not {a.dtype}")
        rows = {r: np.sort(a.astype(np.int64, copy=False).reshape(len(a), r), axis=1)
                for r, a in groups.items()}
        bad = []  # the least bad edge of each size
        for a in rows.values():
            hit = (a[:, 1:] == a[:, :-1]).any(axis=1) | (a[:, 0] < 0) | (a[:, -1] >= n)
            if hit.any():
                bad.append(min(map(tuple, a[hit].tolist())))
        if bad:
            e = min(bad)
            if len(set(e)) != len(e):
                raise ValueError(f"repeated vertex in edge {e}")
            raise ValueError(f"edge {e} out of range for n={n}")
        width = max(rows, default=0)
        if max_edge_size is not None and width > max_edge_size:
            raise ValueError(f"edge of size {width} exceeds the bound {max_edge_size}")
        arrays = {}
        for r, a in rows.items():
            arrays[r] = distinct_rows(a)[0]
            arrays[r].setflags(write=False)
        return cls(n, arrays, max_edge_size if max_edge_size is not None else width)

    @functools.cached_property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(e for a in self.edge_arrays.values() for e in map(tuple, a.tolist())))

    @property
    def m(self) -> int:
        return sum(len(a) for a in self.edge_arrays.values())

    def is_bounded(self, s: int) -> bool:
        return all(r <= s for r in self.edge_arrays)

    def __eq__(self, other):
        return (isinstance(other, Hypergraph) and self.n == other.n
                and self.max_edge_size == other.max_edge_size
                and self.edge_arrays.keys() == other.edge_arrays.keys()
                and all(np.array_equal(a, other.edge_arrays[r])
                        for r, a in self.edge_arrays.items()))

    def __hash__(self):
        return hash((self.n, self.max_edge_size,
                     tuple((r, a.tobytes()) for r, a in self.edge_arrays.items())))

    def __repr__(self):
        return f"Hypergraph(n={self.n}, m={self.m}, max_edge_size={self.max_edge_size})"


# ---------------------------------------------------------------------------
# LPS Ramanujan graphs
# ---------------------------------------------------------------------------

def _legendre(a: int, p: int) -> int:
    ls = pow(a % p, (p - 1) // 2, p)
    return -1 if ls == p - 1 else ls


def _sqrt_minus_one(q2: int) -> int:
    # q2 = 1 mod 4, so a square root of -1 exists; take the least one.
    for x in range(2, q2):
        if (x * x) % q2 == q2 - 1:
            return x
    raise ValueError(f"-1 is not a square mod {q2}")  # pragma: no cover


def _lps_quadruples(p: int) -> list[tuple[int, int, int, int]]:
    # All (a,b,c,d) with a^2+b^2+c^2+d^2 = p, a odd positive, b,c,d even; the
    # (a, b, c) grid has ~p^1.5/2 points, fewer than any X^{p,q2} has vertices.
    lim = math.isqrt(p)
    even = np.arange(lim % 2 - lim, lim + 1, 2)
    a, b, c = np.meshgrid(np.arange(1, lim + 1, 2), even, even, indexing="ij")
    rest = p - a * a - b * b - c * c
    d = np.rint(np.sqrt(np.maximum(rest, 0))).astype(np.int64)
    hit = (d * d == rest) & (d % 2 == 0)
    a, b, c, d = (t[hit].tolist() for t in (a, b, c, d))
    return sorted({(x, y, z, sign * w) for x, y, z, w in zip(a, b, c, d) for sign in (1, -1)})


def lps_graph(p: int, q2: int) -> Graph:
    """The Lubotzky-Phillips-Sarnak Cayley graph X^{p,q2}.

    Generators are the p+1 integer quadruple solutions of
    a^2+b^2+c^2+d^2 = p (a odd positive, b,c,d even) mapped to 2x2 matrices
    over GF(q2).  The closure under right multiplication is PSL2(q2) when p
    is a quadratic residue mod q2 (non-bipartite) and PGL2(q2) otherwise
    (bipartite).  Always (p+1)-regular and connected.

    The closure runs one BFS level at a time: the level's matrices times
    every generator, normalized, keyed in base q2 and looked up in a table
    of the keys seen; new keys are numbered in order of first occurrence
    (level vertex, then generator), which is the numbering a vertex-by-vertex
    BFS gives.
    """
    if not (is_prime(p) and is_prime(q2)):
        raise ValueError("p and q2 must both be prime")
    if p == q2:
        raise ValueError("p and q2 must be distinct")
    if p % 4 != 1 or q2 % 4 != 1:
        raise ValueError("p and q2 must both be congruent to 1 mod 4")
    if q2 <= 2 * math.sqrt(p):
        raise ValueError(f"need q2 > 2*sqrt(p) = {2 * math.sqrt(p):.3f}")

    quads = _lps_quadruples(p)
    if len(quads) != p + 1:  # pragma: no cover - Jacobi guarantees p+1
        raise RuntimeError(f"expected {p + 1} generator quadruples, found {len(quads)}")
    i_unit = _sqrt_minus_one(q2)
    fld = field_create(q2)  # a matrix, as a row of 4 entries, is projective like a point
    a, b, c, d = np.array(quads, dtype=np.int64).T
    gens = normalize_rows(fld, np.stack([a + i_unit * b, c + i_unit * d,
                                         -c + i_unit * d, a - i_unit * b], axis=1) % q2)
    if distinct_rows(gens)[1].size:  # pragma: no cover
        raise RuntimeError("generators collide in PGL2; parameters too small")

    # A normalized matrix has a leading 1, so its base-q2 key is below 2 q2^3.
    weights = q2 ** np.arange(3, -1, -1, dtype=np.int64)
    index = np.full(2 * q2 ** 3, -1, dtype=np.int64)  # key -> vertex, -1 unseen
    level = np.array([[1, 0, 0, 1]], dtype=np.int64)
    index[level @ weights] = 0
    n, tails, heads = 1, [], []
    while len(level):  # the level holds vertices n - len(level) .. n - 1
        prods = np.matmul(level.reshape(-1, 1, 2, 2), gens.reshape(1, -1, 2, 2)) % q2
        prods = normalize_rows(fld, prods.reshape(-1, 4))
        keys = prods @ weights
        unseen = np.nonzero(index[keys] < 0)[0]
        fresh = unseen[np.sort(np.unique(keys[unseen], return_index=True)[1])]  # first occurrences
        index[keys[fresh]] = np.arange(n, n + len(fresh))
        tails.append(np.repeat(np.arange(n - len(level), n), p + 1))
        heads.append(index[keys])
        n += len(fresh)
        level = prods[fresh]
    tails, heads = np.concatenate(tails), np.concatenate(heads)

    expected = q2 * (q2 * q2 - 1)
    if _legendre(p, q2) == 1:
        expected //= 2
    if n != expected:  # pragma: no cover - sanity net
        raise RuntimeError(f"group closure has {n} elements, expected {expected}")
    forward = tails < heads
    g = Graph(n, np.stack([tails[forward], heads[forward]], axis=1), cayley=True)
    if not g.is_regular() or g.degree != p + 1:  # pragma: no cover
        raise RuntimeError("LPS graph is not (p+1)-regular; parameters too small")
    return g


# ---------------------------------------------------------------------------
# Spectral bounds
# ---------------------------------------------------------------------------

EXACT_MAX_VERTICES = 2000  # largest graph that method="auto" eigensolves densely
TRACE_MAX_WALK = 512  # the trace path's longest walk; the bound reached there is reported
POWER_MAX_ITER = 1_000_000  # power iteration raises if it has not converged by then


@dataclass(frozen=True)
class SpectralReport:
    n: int
    d: int
    lambda_bound: float
    method: str  # "exact" | "trace" | "power-iteration"
    bipartite: bool
    lambda_lower: float | None = None  # trace path only, like r
    r: int | None = None

    def to_dict(self) -> dict:
        out = {"n": self.n, "d": self.d, "lambda_bound": self.lambda_bound,
               "method": self.method, "bipartite": self.bipartite}
        if self.method == "trace":
            out.update(lambda_lower=self.lambda_lower, r=self.r)
        return out


def _float_root(num: int, den: int, k: int, *, up: bool) -> float:
    """A float b >= 0 with b^k * den >= num (up) or <= num (not up), for
    integers num, den >= 0 (den > 0 when num > 0).  Starts from the
    floating-point root and moves one ulp at a time until the inequality
    holds exactly in integers."""
    if num == 0:
        return 0.0
    b = 2.0 ** ((math.log2(num) - math.log2(den)) / k)
    while True:
        top, bottom = b.as_integer_ratio()
        lhs, rhs = top ** k * den, num * bottom ** k
        if (lhs >= rhs) if up else (lhs <= rhs):
            return b
        b = math.nextafter(b, math.inf if up else 0.0)


def _trace_interval(g: Graph, d: int, bipartite: bool) -> tuple[float, float, int]:
    """Proved bounds (lower, upper, r) on max |lambda| over the non-trivial
    spectrum of a connected d-regular Cayley graph.

    Every vertex of a Cayley graph closes the same number of walks, so with
    x_r = A^r e_0 in exact integers, trace A^(2r) = n |x_r|^2 and
    T_r = n |x_r|^2 - c d^(2r) (c = 2 if bipartite, else 1) is the sum of
    lambda^(2r) over the non-trivial eigenvalues.  So max |lambda|^(2r) <= T_r
    gives the upper bound, and T_(r+1) <= max |lambda|^2 T_r the lower one.
    The upper bound is evaluated every 8 steps; the walk stops at the first
    r where it is at most 2 sqrt(d-1), or at TRACE_MAX_WALK.
    """
    n, nbr = g.n, g.neighbors
    c = 2 if bipartite else 1

    def step(x, r):  # A^r e_0 -> A^(r+1) e_0, in int64 while d^(r+1) fits
        if x.dtype != object and d ** (r + 1) >= 2 ** 63:
            x = x.astype(object)
        return np.add.reduce(x[nbr], axis=0)

    def trace(x, r):
        t = n * sum(v * v for v in x.tolist()) - c * d ** (2 * r)
        if t < 0:
            raise RuntimeError("closed-walk counts differ between vertices; "
                               "the graph is not a Cayley graph")
        return t

    x = np.zeros(n, dtype=np.int64)
    x[0] = 1
    r = 0
    while True:
        for _ in range(8):
            x = step(x, r)
            r += 1
        t = trace(x, r)
        upper = _float_root(t, 1, 2 * r, up=True)
        if upper <= 2 * math.sqrt(d - 1) or r >= TRACE_MAX_WALK:
            break
    lower = _float_root(trace(step(x, r), r + 1), t, 2, up=False)
    return lower, upper, r


def second_eigenvalue(g: Graph, tol: float = 1e-8, *, method: str = "auto",
                      seed: int = 0) -> SpectralReport:
    """max |lambda| over the adjacency eigenvalues other than d (and -d for
    bipartite graphs, which is flagged).

    `method="auto"` runs the dense eigensolve ("exact") up to
    `EXACT_MAX_VERTICES` vertices; above it, the trace path for a graph marked
    Cayley and power iteration for any other.

    * exact: `lambda_bound` is the eigensolver's value.
    * trace: a proof.  `lambda_bound` and `lambda_lower` bracket the value,
      both checked in exact integers against the closed-walk counts of
      length 2r and 2r + 2 (see `_trace_interval`); `r` is reported.
    * power iteration: an estimate, not a bound.  Power iteration on A'^2,
      the adjacency operator with the trivial eigenvectors (all-ones, and
      the bipartition signs) projected out, runs to residual <= tol;
      `lambda_bound` is the Rayleigh estimate + tol.
    """
    if method not in ("auto", "exact", "trace", "power"):
        raise ValueError(f"unknown spectral method {method!r}")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol={tol} must be a positive finite number")
    if method == "trace" and not g.cayley:
        raise ValueError("the trace path needs a graph marked as a Cayley graph")
    if g.n == 0:
        raise ValueError("empty graph")
    if not g.is_regular():
        raise ValueError("spectral report requires a regular graph")
    least, coloring = g._components()
    if least.any():
        raise ValueError("spectral report requires a connected graph")
    d = g.degree
    bipartite = coloring is not None

    if method == "auto":
        method = "exact" if g.n <= EXACT_MAX_VERTICES else "trace" if g.cayley else "power"
    if method == "trace":
        lower, upper, r = _trace_interval(g, d, bipartite)
        return SpectralReport(g.n, d, upper, "trace", bipartite, lower, r)
    if method == "exact":
        dense = np.zeros((g.n, g.n))
        dense[g.neighbors, np.arange(g.n)] = 1.0
        evs = np.linalg.eigvalsh(dense)
        evs = np.sort(evs)
        if abs(evs[-1] - d) >= 1e-6:
            raise RuntimeError(f"top eigenvalue {evs[-1]} of a {d}-regular graph is not {d}")
        evs = evs[:-1]
        if bipartite and evs.size:
            if abs(evs[0] + d) >= 1e-6:
                raise RuntimeError(f"least eigenvalue {evs[0]} of a bipartite graph is not {-d}")
            evs = evs[1:]
        bound = float(np.max(np.abs(evs))) if evs.size else 0.0
        return SpectralReport(g.n, d, bound, "exact", bipartite)

    n = g.n
    nbr = g.neighbors
    deflate = [np.full(n, 1.0 / math.sqrt(n))]
    if bipartite:
        deflate.append(coloring.astype(np.float64) / math.sqrt(n))

    def apply(v):
        w = np.add.reduce(v[nbr], axis=0)
        for u in deflate:
            w -= (u @ w) * u
        return w

    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    for u in deflate:
        x -= (u @ x) * u
    x /= np.linalg.norm(x)

    theta = 0.0
    for _ in range(POWER_MAX_ITER):
        z = apply(apply(x))  # one step of power iteration on A'^2
        theta = float(x @ z)
        resid = float(np.linalg.norm(z - theta * x))
        nz = float(np.linalg.norm(z))
        if nz == 0.0:
            break
        x = z / nz
        if resid <= tol:
            break
    else:
        raise RuntimeError(f"power iteration did not reach residual {tol} "
                           f"in {POWER_MAX_ITER} iterations")
    estimate = math.sqrt(max(theta, 0.0))
    return SpectralReport(g.n, d, estimate + tol, "power-iteration", bipartite)


# ---------------------------------------------------------------------------
# Mixing-lemma checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MixingReport:
    lam: float
    trials: int
    violations: int
    max_ratio: float

    def to_dict(self) -> dict:
        return {"lambda": self.lam, "trials": self.trials,
                "violations": self.violations, "max_ratio": self.max_ratio}


def check_mixing(g: Graph, lam: float, trials: int, seed: int = 0) -> MixingReport:
    """Sample vertex sets and test both mixing inequalities with the given
    lambda:

        |2 e(G[U]) - (d/n)|U|^2|        <= lam |U|
        |e(G[U,V]) - (d/n)|U||V||       <= lam sqrt(|U||V|)   (U, V disjoint)

    Returns the violation count and the largest observed LHS/RHS ratio.
    """
    if not lam > 0 or trials < 0:
        raise ValueError(f"mixing check needs lam > 0 and trials >= 0, got lam={lam}, "
                         f"trials={trials}")
    if not g.is_regular():
        raise ValueError("mixing check requires a regular graph")
    d, n = g.degree, g.n
    x, y = g._edge_array.T  # e(G[U]) and e(G[U, V]) are counted on the edge array
    rng = np.random.default_rng(seed)
    violations = 0
    max_ratio = 0.0
    eps = 1e-9
    for _ in range(trials):
        mask = rng.random(n) < 0.5
        u = int(mask.sum())
        if u:
            lhs = abs(2 * int((mask[x] & mask[y]).sum()) - d / n * u * u)
            rhs = lam * u
            max_ratio = max(max_ratio, lhs / rhs)
            if lhs > rhs + eps:
                violations += 1
        c = rng.integers(0, 3, n)
        mu, mv = c == 0, c == 1
        u, v = int(mu.sum()), int(mv.sum())
        if u and v:
            lhs = abs(int((mu[x] & mv[y]).sum() + (mv[x] & mu[y]).sum()) - d / n * u * v)
            rhs = lam * math.sqrt(u * v)
            max_ratio = max(max_ratio, lhs / rhs)
            if lhs > rhs + eps:
                violations += 1
    return MixingReport(lam, trials, violations, max_ratio)


# ---------------------------------------------------------------------------
# Component / star lemmas as runnable operations
# ---------------------------------------------------------------------------

def largest_component(g: Graph, subset) -> tuple[int, ...]:
    """Vertex set of a maximum connected component of G[subset].

    Ties are broken toward the component containing the smallest vertex, so
    the result is deterministic.
    """
    inside = np.zeros(g.n, dtype=bool)
    inside[np.fromiter(subset, dtype=np.int64)] = True
    least = g._components(inside)[0]
    sizes = np.bincount(least[inside], minlength=g.n)  # by least vertex; argmax takes the first
    return tuple(np.flatnonzero(inside & (least == sizes.argmax())).tolist()) if inside.any() else ()


def find_star_vertex(g: Graph, u0, *others):
    """A vertex of u0 adjacent to every one of the other sets, or None.

    The sets must be pairwise disjoint.  Scans u0 in ascending order, so the
    answer is deterministic.
    """
    sets = [set(int(v) for v in u0)] + [set(int(v) for v in s) for s in others]
    for a, b in combinations(sets, 2):
        if a & b:
            raise ValueError("vertex sets must be pairwise disjoint")
    for x in sorted(sets[0]):
        nbrs = set(g._row(x).tolist())
        if all(nbrs & s for s in sets[1:]):
            return x
    return None


# ---------------------------------------------------------------------------
# Graph operators
# ---------------------------------------------------------------------------

def ball(g: Graph, x: int, t: int) -> tuple[int, ...]:
    """All vertices at distance at most t from x (BFS)."""
    if t < 0:
        raise ValueError("radius must be >= 0")
    if not 0 <= x < g.n:
        raise ValueError(f"centre {x} is not a vertex in [0, {g.n})")
    return tuple(np.sort(np.concatenate(g._bfs([x], t))).tolist())


def power_graph(g: Graph, u: int) -> Graph:
    """Edge xy iff 1 <= dist(x, y) <= u."""
    if u < 1:
        raise ValueError("power must be >= 1")
    values, ends = g.neighborhoods(u)
    centres = np.repeat(np.arange(g.n), np.diff(ends, prepend=0))
    forward = centres < values
    return Graph(g.n, np.stack([centres[forward], values[forward]], axis=1))


def blowup(g: Graph, d: int) -> Graph:
    """Replace each vertex by a clique of size d, joining cliques completely
    across original edges.  n*d vertices."""
    if d < 1:
        raise ValueError("blow-up factor must be >= 1")
    cliques = np.arange(g.n)[:, None, None] * d + np.stack(np.triu_indices(d, 1), axis=1)
    i, j = np.divmod(np.arange(d * d), d)
    u, v = g._edge_array.T[:, :, None] * d
    across = np.stack([u + i, v + j], axis=2)
    return Graph(g.n * d, np.concatenate([cliques.reshape(-1, 2), across.reshape(-1, 2)]))


# ---------------------------------------------------------------------------
# Graph file format
# ---------------------------------------------------------------------------

def write_graph(target, g: Graph) -> None:
    """Write g to `target`, a path or a binary stream: `graph <n> <m>`, then
    one `u v` edge per line, u < v, in sorted order."""
    write_rows(target, f"graph {g.n} {g.m}\n", g._edge_array)


def _graph_shape(head: str) -> tuple[int, int, int]:
    toks = head.split()
    if len(toks) != 3 or toks[0] != "graph":
        raise ValueError(f"malformed graph header: {head!r}")
    return int(toks[1]), int(toks[2]), 2


def read_graph(source) -> Graph:
    """The graph in the file at the path or in the binary stream `source`."""
    return Graph(*read_rows(source, 1, _graph_shape))
