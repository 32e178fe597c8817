"""Explicit strong blocking-set constructions.

Each recipe builds an (s+1)-uniform hypergraph on the vertices of a graph
whose vertices carry general-position supply columns, then dumps every
projective point in the span of every edge: it images each face (a distinct
subset of an edge) once, with its proper combinations.  Cherries (paths of
length two) give strong 2-blocking sets; for general s the edges are
r-subsets of balls (radius r = s+1 around a common center) or of closed
neighborhoods.

The asymptotic parameter schedules from the analysis (alpha = 1/8, d = 258
for cherries; p > 64 r^2 for the ball recipe; p > 16 q^(4s)/eps^2 for the
neighborhood recipe) are recorded as provenance presets only: desk-scale
instances cannot meet them, and the verifier is the source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from itertools import combinations, product
import math

import numpy as np

from .budgets import Budgets, DEFAULT_BUDGETS
from .errors import BudgetExceededError
from .expander import Graph, Hypergraph
from .gf import FieldSpec
from .linalg import (_row_keys, distinct_rows, matrix_head, normalize_rows, read_field_rows,
                     read_sidecar, write_rows)
from .supply import GeneralPositionReport, PointSupply, verify_general_position

ASYMPTOTIC_PRESETS = {
    "cherry": {"alpha": 0.125, "d": 258},
    "ballpower": {"p_min": "64*(s+1)^2", "radius": "s+1"},
    "neighborhood": {"p_min": "16*q^(4s)/eps^2", "radius": 1},
}

SPAN_CHUNK_ROWS = 1 << 18  # span points per field matmul in edge_span_union


@dataclass(frozen=True)
class BlockingSet:
    """Normalized, sorted, deduplicated projective point set in PG(k-1, q).

    The constructor checks this form in one O(N) pass, without a sort, and
    raises a ValueError naming the first row that breaks it.  It stores the
    points in the field's storage type (`FieldSpec.dtype`: uint8 up to
    q = 256, uint16 above), casting, to a read-only copy, only points of
    another integer type, so that equal sets hash equal."""

    field: FieldSpec
    k: int
    points: np.ndarray  # (num_points, k), first nonzero coordinate of each row is 1
    provenance: dict = dataclass_field(default_factory=dict)

    def __post_init__(self):
        pts = np.asarray(self.points)
        if pts.ndim != 2 or pts.shape[1] != self.k:
            raise ValueError(f"points have shape {pts.shape}, not (num_points, {self.k})")
        if not len(pts):
            raise ValueError("a blocking set needs at least one point")
        if pts.dtype.kind not in "iu":
            raise ValueError(f"point entries must be integers, not {pts.dtype}")
        if pts.min() < 0 or pts.max() >= self.field.q:
            raise ValueError(f"point entries must lie in [0, {self.field.q})")
        if pts.dtype != self.field.dtype:
            pts = pts.astype(self.field.dtype)
            pts.setflags(write=False)
            object.__setattr__(self, "points", pts)
        lead = pts[np.arange(len(pts)), (pts != 0).argmax(axis=1)]
        if (lead != 1).any():
            raise ValueError(f"row {(lead != 1).argmax()} is not normalized: "
                             f"its first nonzero entry is not 1")
        after = np.zeros(len(pts) - 1, dtype=bool)  # row i+1 > row i, from the last word up
        for word in reversed(_row_keys(pts)):
            after = (word[1:] > word[:-1]) | ((word[1:] == word[:-1]) & after)
        if not after.all():
            i = int(after.argmin()) + 1
            raise ValueError(f"row {i} does not follow row {i - 1}: the points are "
                             f"unsorted or not projectively distinct")

    @classmethod
    def from_points(cls, fld: FieldSpec, points, provenance=None) -> "BlockingSet":
        """The distinct projective points of the nonzero rows of `points`.
        Rows in the field's storage type are normalized in it; any other
        input is read as int64."""
        rows = np.asarray(points)
        if rows.dtype != fld.dtype:
            rows = rows.astype(np.int64)
        if rows.size == 0:
            raise ValueError("a blocking set needs at least one point")
        data, _ = distinct_rows(normalize_rows(fld, rows))
        data.setflags(write=False)
        return cls(fld, rows.shape[1], data, dict(provenance or {}))

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def __eq__(self, other):
        return (isinstance(other, BlockingSet) and self.field == other.field
                and self.k == other.k and np.array_equal(self.points, other.points))

    def __hash__(self):
        return hash((self.field, self.k, self.points.tobytes()))


def lower_bound(q: int, k: int, s: int) -> int:
    """Minimum possible size of a strong s-blocking set in PG(k-1, q):
    ceil((q^(s+1) - 1) (k - s) / (q - 1))."""
    if s < 1 or k <= s:
        raise ValueError(f"need k > s >= 1, got k={k}, s={s}")
    if q < 2:
        raise ValueError(f"q={q} is not a prime power")
    num = (q ** (s + 1) - 1) * (k - s)
    return -(-num // (q - 1))


# ---------------------------------------------------------------------------
# Span dumps
# ---------------------------------------------------------------------------

def _faces(h: Hypergraph, j: int) -> np.ndarray:
    """The distinct j-subsets of the edges of h, each row ascending, the rows
    in lexicographic order."""
    subsets = [a[:, list(pick)] for r, a in h.edge_arrays.items() if r >= j
               for pick in combinations(range(r), j)]
    return distinct_rows(np.concatenate(subsets))[0]


def _chunk_points(fld: FieldSpec, coeffs: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The distinct projective points among coeffs @ cols[:, i] for every
    face i, where cols (j x faces x k) holds each face's columns.  A function
    of its own so that the chunk's images are freed on return, before the
    final merge."""
    pts = fld.matmul_arr(coeffs, cols.reshape(len(cols), -1)).reshape(-1, cols.shape[-1])
    pts = pts[pts.any(axis=1)]  # dependent columns can cancel
    return distinct_rows(normalize_rows(fld, pts))[0]


def edge_span_union(h: Hypergraph, supply: PointSupply, *,
                    point_cap: int = DEFAULT_BUDGETS.points,
                    provenance=None) -> BlockingSet:
    """All projective points of span(f) over every edge f, deduplicated, in
    the field's storage type.  Each such point is a proper combination
    (1, a_2, ..., a_j), every a_i nonzero, of the columns of a face: a
    distinct j-subset of some edge (of exactly one face when the columns are
    in general position).  So the faces of each size j are imaged once each,
    (q-1)^(j-1) vectors per face, in one field matmul per chunk of faces,
    built only when size j's turn comes; each chunk is deduplicated on its
    own and the chunks are merged once at the end.  Once the chunk sizes add
    up past `point_cap`, the chunks so far are merged early, and the budget
    is exceeded when the merged count is."""
    fld, k = supply.field, supply.k
    columns = supply.matrix.data.T.astype(fld.dtype)  # n x k
    chunks, held = [], 0
    for j in range(1, max(h.edge_arrays, default=0) + 1):
        faces = _faces(h, j).T  # j x faces
        coeffs = np.array([(1, *a) for a in product(range(1, fld.q), repeat=j - 1)],
                          dtype=fld.dtype)  # (q-1)^(j-1) x j
        step = max(1, SPAN_CHUNK_ROWS // len(coeffs))
        for lo in range(0, faces.shape[1], step):
            chunks.append(_chunk_points(fld, coeffs, columns[faces[:, lo:lo + step]]))
            held += len(chunks[-1])
            if held > point_cap:
                chunks = [distinct_rows(np.concatenate(chunks))[0]]
                held = len(chunks[0])
                if held > point_cap:
                    raise BudgetExceededError("points", point_cap, held)
        del faces  # before the next size's faces, or the final merge
    if len(chunks) > 1:
        chunks = [distinct_rows(np.concatenate(chunks))[0]]
    distinct = chunks[0] if chunks else np.zeros((0, k), dtype=fld.dtype)
    distinct.setflags(write=False)
    prov = dict(provenance or {})
    prov.setdefault("construction", "edge_span_union")
    return BlockingSet(fld, k, distinct, prov)


def _local_subsets(lists, r: int, *, centred: bool = False,
                   budget: int | None = None) -> np.ndarray:
    """The rows f, or (x, f) when `centred`, for every vertex x and every
    r-subset f of x's sorted list, one list length at a time; `lists` yields
    the lists of vertices 0, 1, ... in runs, in the CSR form of
    `Graph.neighborhoods`.  `budget` caps the row count, sum C(len, r), as
    each run arrives; no row is built before every run has passed."""
    runs, total = [(np.zeros(0, dtype=np.int64),) * 2], 0
    for values, ends in lists:
        runs.append((values, np.diff(ends, prepend=0)))
        total += sum(c * math.comb(d, r) for d, c in enumerate(np.bincount(runs[-1][1]).tolist()))
        if budget is not None and total > budget:
            raise BudgetExceededError("cliques", budget, total)
    values, lengths = map(np.concatenate, zip(*runs))
    ends = np.cumsum(lengths)
    rows = [np.zeros((0, r + centred), dtype=np.int64)]
    for d, c in enumerate(np.bincount(lengths).tolist()):
        if d < r or not c:
            continue
        xs = np.nonzero(lengths == d)[0]
        block = values[(ends[xs] - d)[:, None] + np.arange(d)]  # len(xs) x d
        picks = np.array(list(combinations(range(d), r))).T  # r x C(d, r)
        cols = [block[:, i].ravel() for i in picks]
        if centred:
            cols.insert(0, np.repeat(xs, picks.shape[1]))
        rows.append(np.stack(cols, axis=1))
    return np.concatenate(rows)


def cherry_hypergraph(g: Graph) -> Hypergraph:
    """3-sets {x, y, z} with xy and xz both edges of g: each vertex x with
    every 2-subset of its neighbours."""
    return Hypergraph.from_edges(g.n, _local_subsets([g.neighborhoods()], 2, centred=True),
                                 max_edge_size=3)


def construct_cherry(g: Graph, supply: PointSupply, *,
                     report: GeneralPositionReport | None = None,
                     budgets: Budgets = DEFAULT_BUDGETS) -> BlockingSet:
    """Strong 2-blocking set candidate from the cherries of g."""
    if supply.n != g.n:
        raise ValueError(f"supply has {supply.n} columns but the graph has {g.n} vertices")
    report = report or verify_general_position(supply, budgets=budgets)
    if report.s_independence < 2:
        raise ValueError(f"cherry construction needs every 3 columns independent "
                         f"(measured s_independence={report.s_independence})")
    h = cherry_hypergraph(g)
    if h.m == 0:
        raise ValueError("graph has no path of length two, so there are no cherries")
    prov = {"construction": "cherry", "s": 2, "graph_n": g.n, "graph_m": g.m,
            "presets": ASYMPTOTIC_PRESETS["cherry"]}
    return edge_span_union(h, supply, point_cap=budgets.points, provenance=prov)


def ball_power_hypergraph(g: Graph, s: int, *,
                          budgets: Budgets = DEFAULT_BUDGETS) -> Hypergraph:
    """(s+1)-uniform edge set for the radius-(s+1) recipe: the r-subsets of
    some ball B_r(x), the common-center reading that the covering argument
    manipulates."""
    r = s + 1
    # the balls of the centres in [0, 1), [1, 2), [2, 4), [4, 8), ...: the budget
    # raises having built those of at most twice the centres that passed it
    runs = (g.neighborhoods(r, closed=True, centres=np.arange(1 << i >> 1, min(1 << i, g.n)))
            for i in range(g.n.bit_length() + 1))
    rows = _local_subsets(runs, r, budget=budgets.cliques)
    return Hypergraph.from_edges(g.n, rows, max_edge_size=r)


def construct_ball_power(g: Graph, supply: PointSupply, s: int, *,
                         report: GeneralPositionReport | None = None,
                         budgets: Budgets = DEFAULT_BUDGETS) -> BlockingSet:
    """Strong s-blocking set candidate from r-subsets of radius-r balls."""
    if supply.n != g.n:
        raise ValueError(f"supply has {supply.n} columns but the graph has {g.n} vertices")
    if not 1 <= s < supply.k:
        raise ValueError(f"need 1 <= s < k, got s={s}, k={supply.k}")
    report = report or verify_general_position(supply, budgets=budgets)
    if report.s_independence < s:
        raise ValueError(f"ball construction needs every {s + 1} columns independent "
                         f"(measured s_independence={report.s_independence})")
    h = ball_power_hypergraph(g, s, budgets=budgets)
    prov = {"construction": "ballpower", "s": s, "graph_n": g.n, "graph_m": g.m,
            "presets": ASYMPTOTIC_PRESETS["ballpower"]}
    return edge_span_union(h, supply, point_cap=budgets.points, provenance=prov)


def neighborhood_hypergraph(g: Graph, s: int, *,
                            budgets: Budgets = DEFAULT_BUDGETS) -> Hypergraph:
    """(s+1)-subsets of closed neighborhoods N[x]."""
    rows = _local_subsets([g.neighborhoods(1, closed=True)], s + 1, budget=budgets.cliques)
    return Hypergraph.from_edges(g.n, rows, max_edge_size=s + 1)


def construct_neighborhood(g: Graph, supply: PointSupply, s: int, *,
                           report: GeneralPositionReport | None = None,
                           budgets: Budgets = DEFAULT_BUDGETS) -> BlockingSet:
    """Strong s-blocking set candidate from (s+1)-subsets of closed
    neighborhoods; the small-q recipe."""
    if supply.n != g.n:
        raise ValueError(f"supply has {supply.n} columns but the graph has {g.n} vertices")
    if not 1 <= s < supply.k:
        raise ValueError(f"need 1 <= s < k, got s={s}, k={supply.k}")
    report = report or verify_general_position(supply, budgets=budgets)
    h = neighborhood_hypergraph(g, s, budgets=budgets)
    degenerate = int((g.degrees() < s).sum())  # |N[x]| < s + 1
    prov = {"construction": "neighborhood", "s": s, "graph_n": g.n, "graph_m": g.m,
            "span_threshold": report.span_threshold,
            "vertices_below_edge_size": degenerate,
            "presets": ASYMPTOTIC_PRESETS["neighborhood"]}
    return edge_span_union(h, supply, point_cap=budgets.points, provenance=prov)


# ---------------------------------------------------------------------------
# File I/O: points as matrix rows + JSON provenance sidecar
# ---------------------------------------------------------------------------

def _file_set(fld: FieldSpec, rows: np.ndarray, provenance: dict) -> BlockingSet:
    """The set of a file's rows, entries in [0, q): the rows themselves when
    the constructor's check finds them canonical, as the writer stores them;
    any other rows through `from_points`."""
    rows.setflags(write=False)
    try:
        return BlockingSet(fld, rows.shape[1], rows, provenance)
    except ValueError:
        return BlockingSet.from_points(fld, rows, provenance)


def write_blocking_set(target, b: BlockingSet) -> None:
    """Write b's points to `target`, a path or a binary stream; next to a
    path, its provenance goes to the sidecar."""
    write_rows(target, matrix_head(b.field, *b.points.shape), b.points, b.provenance)


def read_blocking_set(source) -> BlockingSet:
    """The set in the file at the path or in the binary stream `source`; its
    provenance is {"construction": "file"} updated by the sidecar, if any."""
    fld, rows = read_field_rows(source)
    return _file_set(fld, rows, {"construction": "file", **(read_sidecar(source) or {})})
