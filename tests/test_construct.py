import io
import itertools

import numpy as np
import pytest

from blockforge import construct, linalg
from blockforge.construct import (BlockingSet, cherry_hypergraph,
                                  ball_power_hypergraph, construct_ball_power,
                                  construct_cherry, construct_neighborhood,
                                  edge_span_union, lower_bound,
                                  neighborhood_hypergraph, read_blocking_set,
                                  write_blocking_set)
from blockforge.errors import BudgetExceededError
from blockforge.expander import (Graph, Hypergraph, complete_graph, cycle_graph,
                                 lps_graph, path_graph)
from blockforge.gf import FieldSpec, field_create
from blockforge.linalg import MatrixGF
from blockforge.supply import GeneralPositionReport, PointSupply, supply_mds
from blockforge.verify import is_strong_blocking

from helpers import (cherries_by_set, faces_by_set, identity_matrix, normalize_column,
                     random_admissible_columns, span_union_by_edges, span_union_resorting,
                     supply_column)


def identity_supply(fld, k):
    return PointSupply(identity_matrix(fld, k), "test")


def test_lower_bound_values():
    assert lower_bound(3, 10, 1) == 36
    assert lower_bound(2, 3, 1) == 6
    for q, s in [(2, 1), (3, 2), (5, 2)]:
        assert lower_bound(q, s + 1, s) == (q ** (s + 1) - 1) // (q - 1)
    with pytest.raises(ValueError):
        lower_bound(3, 2, 2)
    with pytest.raises(ValueError):
        lower_bound(3, 3, 0)


def test_edge_span_single_vertex():
    fld = field_create(5)
    sup = supply_mds(fld, 3, 4)
    h = Hypergraph.from_edges(4, [(2,)])
    b = edge_span_union(h, sup)
    assert b.size == 1
    expect = normalize_column(fld, supply_column(sup, 2))
    assert np.array_equal(b.points[0], expect)


def test_edge_span_projective_line_gf2():
    fld = field_create(2)
    sup = identity_supply(fld, 3)
    h = Hypergraph.from_edges(3, [(0, 1)])
    b = edge_span_union(h, sup)
    assert b.size == 3  # (2^2 - 1)/(2 - 1)


# Columns e1, e2, e1+e2, e3, e1+e4 over any field: the edge {0, 1, 2} is
# dependent, so its span dump meets the zero vector.
SPAN_COLUMNS = [[1, 0, 1, 0, 1],
                [0, 1, 1, 0, 0],
                [0, 0, 0, 1, 0],
                [0, 0, 0, 0, 1]]


@pytest.mark.parametrize("chunk_rows", [construct.SPAN_CHUNK_ROWS, 5],
                         ids=["one-chunk", "chunks-of-5"])  # 5: many merges
@pytest.mark.parametrize("edges", ["cherries", "mixed"])
@pytest.mark.parametrize("p,m", [(2, 1), (5, 1), (3, 2)], ids=["GF(2)", "GF(5)", "GF(9)"])
def test_edge_span_dedup_matches_recount(p, m, edges, chunk_rows, monkeypatch):
    monkeypatch.setattr(construct, "SPAN_CHUNK_ROWS", chunk_rows)
    fld = field_create(p, m)
    sup = PointSupply(MatrixGF(fld, SPAN_COLUMNS), "test")
    if edges == "cherries":
        h = cherry_hypergraph(complete_graph(5))
    else:
        h = Hypergraph.from_edges(5, [(4,), (0, 3), (1, 2), (0, 1, 2), (2, 3, 4)])
    b = edge_span_union(h, sup)
    # independent recount: enumerate every span point per edge via the
    # all-tuples loop and deduplicate with a python set
    seen = set()
    for e in h.edges:
        cols = sup.matrix.data[:, list(e)]
        for coeffs in itertools.product(range(fld.q), repeat=len(e)):
            if not any(coeffs):
                continue
            v = fld.matmul_arr(cols, np.array(coeffs)[:, None])[:, 0]
            if v.any():
                seen.add(tuple(int(x) for x in normalize_column(fld, v)))
    assert b.size == len(seen)
    assert [tuple(p) for p in b.points] == sorted(seen)


def test_edge_span_point_cap():
    fld = field_create(5)
    sup = supply_mds(fld, 3, 4)
    h = cherry_hypergraph(complete_graph(4))
    with pytest.raises(BudgetExceededError):
        edge_span_union(h, sup, point_cap=10)
    size = edge_span_union(h, sup).size
    assert edge_span_union(h, sup, point_cap=size).size == size
    with pytest.raises(BudgetExceededError) as err:
        edge_span_union(h, sup, point_cap=size - 1)
    assert err.value.required == size  # crossed at the last chunk: the count at its merge


def _mixed_span_instance(p, m, k, n=10):
    """A random admissible supply of n columns and a hypergraph with edges of
    sizes 1, 2 and 3: a few vertices, every pair and the cherries of K_n."""
    fld = field_create(p, m)
    sup = PointSupply(random_admissible_columns(fld, k, n, np.random.default_rng(p * m + k)),
                      "test")
    edges = ([(v,) for v in range(0, n, 3)] + list(itertools.combinations(range(n), 2))
             + sorted(cherry_hypergraph(complete_graph(n)).edges))
    return sup, Hypergraph.from_edges(n, edges, max_edge_size=3)


@pytest.mark.parametrize("p,m,k", [(2, 1, 6), (3, 1, 5), (3, 2, 4)],
                         ids=["GF(2)", "GF(3)", "GF(9)"])
def test_span_dump_merges_its_chunks_once(p, m, k, monkeypatch):
    sup, h = _mixed_span_instance(p, m, k)
    one = edge_span_union(h, sup)
    monkeypatch.setattr(construct, "SPAN_CHUNK_ROWS", 8)
    calls = []
    dedup = construct.distinct_rows
    monkeypatch.setattr(construct, "distinct_rows", lambda rows: calls.append(1) or dedup(rows))
    many = edge_span_union(h, sup)
    vectors = {j: (sup.field.q - 1) ** (j - 1) for j in (1, 2, 3)}  # per face of size j
    faces = {j: len(faces_by_set(h, j)) for j in vectors}
    chunks = sum(-(-faces[j] // max(1, 8 // vectors[j])) for j in vectors)
    # each size's faces, each chunk, then one merge
    assert chunks > 20 and len(calls) == len(faces) + chunks + 1
    assert many == one and many.points.dtype == one.points.dtype == sup.field.dtype
    assert np.array_equal(many.points, span_union_resorting(h, sup, one.size))


@pytest.mark.parametrize("chunk_rows", [40, construct.SPAN_CHUNK_ROWS],
                         ids=["many-chunks", "one-chunk"])
@pytest.mark.parametrize("p,m,k", [(2, 1, 6), (3, 1, 5), (3, 2, 4)],
                         ids=["GF(2)", "GF(3)", "GF(9)"])
def test_span_dump_budget_matches_resorting_each_chunk(p, m, k, chunk_rows, monkeypatch):
    sup, h = _mixed_span_instance(p, m, k)
    monkeypatch.setattr(construct, "SPAN_CHUNK_ROWS", chunk_rows)
    size = edge_span_union(h, sup).size
    for cap in sorted(set(range(1, size, max(1, size // 25))) | {size - 1}):
        with pytest.raises(BudgetExceededError) as want:
            span_union_resorting(h, sup, cap)
        with pytest.raises(BudgetExceededError) as got:
            edge_span_union(h, sup, point_cap=cap)
        assert ((got.value.budget, got.value.limit, got.value.required)
                == (want.value.budget, want.value.limit, want.value.required)), cap
    assert edge_span_union(h, sup, point_cap=size).size == size


FACE_FIELDS = pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (3, 2), (13, 1)],
                                      ids=["GF(2)", "GF(3)", "GF(4)", "GF(9)", "GF(13)"])


def _shared_face_instance(fld, case):
    """A supply and a hypergraph with edges of sizes 1 to 4 that share faces.
    "mixed": random admissible columns and random edges on 8 vertices.
    "dependent": column 2 = c0 + c1 and column 5 = c0 + c1 + c3, with every
    subset of {0, ..., 5} of size at most 4 as an edge, so that proper
    combinations cancel ({0, 1, 2} over GF(2)) and coincide ((1, 1) on {0, 1}
    is column 2)."""
    rng = np.random.default_rng(fld.q)
    if case == "mixed":
        sup = PointSupply(random_admissible_columns(fld, 5, 8, rng), "test")
        edges = [tuple(rng.choice(8, size=r, replace=False)) for r in rng.integers(1, 5, size=20)]
        edges += [(0, 1, 2, 3), (0, 1, 2), (1, 2, 4), (1, 2), (2,)]
        return sup, Hypergraph.from_edges(8, edges, max_edge_size=4)
    while True:
        cols = random_admissible_columns(fld, 5, 6, rng).data.copy()
        cols[:, 2] = fld.add_arr(cols[:, 0], cols[:, 1])
        cols[:, 5] = fld.add_arr(cols[:, 2], cols[:, 3])
        try:
            sup = PointSupply(MatrixGF(fld, cols), "test")
        except ValueError:  # a sum repeated a column projectively: draw again
            continue
        edges = [e for r in range(1, 5) for e in itertools.combinations(range(6), r)]
        return sup, Hypergraph.from_edges(6, edges, max_edge_size=4)


@pytest.mark.parametrize("chunk_rows", [construct.SPAN_CHUNK_ROWS, 7],
                         ids=["one-chunk", "chunks-of-7"])
@pytest.mark.parametrize("case", ["mixed", "dependent"])
@FACE_FIELDS
def test_face_dump_matches_the_edge_dump(p, m, case, chunk_rows, monkeypatch):
    monkeypatch.setattr(construct, "SPAN_CHUNK_ROWS", chunk_rows)
    sup, h = _shared_face_instance(field_create(p, m), case)
    got, want = edge_span_union(h, sup), span_union_by_edges(h, sup)
    assert got == want and got.points.dtype == want.points.dtype
    assert got.points.tobytes() == want.points.tobytes()
    with pytest.raises(BudgetExceededError) as err:
        edge_span_union(h, sup, point_cap=want.size - 1)
    assert err.value.required == want.size  # the dump ends by merging every chunk


@FACE_FIELDS
def test_face_dump_matches_the_edge_dump_for_neighborhoods(p, m):
    fld = field_create(p, m)
    g = Graph(9, [(i, (i + d) % 9) for i in range(9) for d in (1, 3)])  # closed N[x] of size 5
    sup = PointSupply(random_admissible_columns(fld, 6, 9, np.random.default_rng(p * m)), "test")
    got = construct_neighborhood(g, sup, 3)
    want = span_union_by_edges(neighborhood_hypergraph(g, 3), sup)
    assert got == want and got.points.tobytes() == want.points.tobytes()


def _imaged_rows(monkeypatch, k):
    """Spy on the field matmul: (proper combinations, faces) of every call."""
    calls = []
    matmul = FieldSpec.matmul_arr

    def spy(self, a, b):
        calls.append((np.shape(a), np.shape(b)[1] // k))
        return matmul(self, a, b)

    monkeypatch.setattr(FieldSpec, "matmul_arr", spy)
    return calls


@pytest.mark.parametrize("chunk_rows", [construct.SPAN_CHUNK_ROWS, 7],
                         ids=["one-chunk", "chunks-of-7"])
@pytest.mark.parametrize("case", ["mixed", "dependent"])
@FACE_FIELDS
def test_span_dump_images_each_face_once(p, m, case, chunk_rows, monkeypatch):
    monkeypatch.setattr(construct, "SPAN_CHUNK_ROWS", chunk_rows)
    fld = field_create(p, m)
    sup, h = _shared_face_instance(fld, case)
    calls = _imaged_rows(monkeypatch, sup.k)
    edge_span_union(h, sup)
    want = sum(len(faces_by_set(h, j)) * (fld.q - 1) ** (j - 1) for j in range(1, 5))
    assert sum(vectors * faces for (vectors, _), faces in calls) == want
    for (vectors, j), faces in calls:
        assert vectors == (fld.q - 1) ** (j - 1)
        assert vectors * faces <= max(chunk_rows, vectors)


@pytest.mark.parametrize("p,m,n", [(5, 1, 6), (7, 1, 8), (3, 2, 10), (13, 1, 10)],
                         ids=["GF(5)", "GF(7)", "GF(9)", "GF(13)"])
def test_span_dump_of_cherries_in_general_position_images_each_point_once(p, m, n, monkeypatch):
    fld = field_create(p, m)
    sup = supply_mds(fld, 6, n)  # every 6 columns, the union of any two faces, independent
    calls = _imaged_rows(monkeypatch, 6)
    b = edge_span_union(cherry_hypergraph(complete_graph(n)), sup)
    assert sum(vectors * faces for (vectors, _), faces in calls) == b.size


def test_edge_span_monotone():
    fld = field_create(3)
    sup = supply_mds(fld, 3, 4)
    h_small = Hypergraph.from_edges(4, [(0, 1)])
    h_big = Hypergraph.from_edges(4, [(0, 1), (1, 2, 3)])
    b_small = edge_span_union(h_small, sup)
    b_big = edge_span_union(h_big, sup)
    small = {tuple(p) for p in b_small.points}
    big = {tuple(p) for p in b_big.points}
    assert small <= big


def test_normalization_idempotent():
    fld = field_create(7)
    rng = np.random.default_rng(3)
    pts = rng.integers(0, 7, size=(20, 3))
    pts = [p for p in pts if p.any()]
    b1 = BlockingSet.from_points(fld, pts)
    b2 = BlockingSet.from_points(fld, b1.points)
    assert b1 == b2


def test_cherry_k4_verified():
    fld = field_create(5)
    sup = supply_mds(fld, 3, 4)
    b = construct_cherry(complete_graph(4), sup)
    assert is_strong_blocking(b, 2).passed
    assert b.size >= lower_bound(5, 3, 2)
    assert b.provenance["construction"] == "cherry"
    assert b.provenance["presets"] == {"alpha": 0.125, "d": 258}


def test_cherry_point_count_bound():
    fld = field_create(5)
    sup = supply_mds(fld, 3, 4)
    g = complete_graph(4)
    b = construct_cherry(g, sup)
    d = g.degree
    assert b.size * (5 - 1) <= 5 ** 3 * g.n * d * d  # projective size vs raw bound


def _named_graph(name):
    if name == "star":
        return Graph(7, [(0, v) for v in range(1, 7)])
    if name == "irregular":  # 7 and 8 isolated, 4, 5 and 6 of degree 1
        return Graph(9, [(0, 1), (0, 2), (3, 0), (1, 2), (3, 4), (6, 5)])
    if name.startswith("X"):
        return lps_graph(*map(int, name[1:].split(",")))
    return {"K": complete_graph, "P": path_graph, "C": cycle_graph}[name[0]](int(name[1:]))


@pytest.mark.parametrize("name", ["K0", "K1", "K2", "K3", "K7", "P1", "P2", "P3", "P8",
                                  "C3", "C4", "C9", "star", "irregular", "X5,13", "X5,29"])
def test_cherries_match_the_set_of_tuples(name):
    g = _named_graph(name)
    want = cherries_by_set(g)
    h = cherry_hypergraph(g)
    assert h.edges == want and h.m == len(want) and h.n == g.n and h.max_edge_size == 3
    assert list(h.edge_arrays) == ([3] if want else [])
    if want:
        assert h.edge_arrays[3].tolist() == [list(e) for e in want]


def test_cherry_construction_never_builds_the_edge_tuples(monkeypatch):
    g = lps_graph(5, 13)
    fld = field_create(3)
    sup = PointSupply(MatrixGF(fld, np.random.default_rng(13).integers(0, 3, size=(20, g.n))),
                      "test")

    def refuse(self):
        raise AssertionError("Hypergraph.edges was built")
    monkeypatch.setattr(Hypergraph, "edges", property(refuse))
    b = construct_cherry(g, sup, report=GeneralPositionReport(2, 40, "sampled"))
    assert b.size > lower_bound(3, 20, 2) and b.provenance["graph_n"] == g.n


def test_cherry_rejects_matching():
    fld = field_create(5)
    sup = supply_mds(fld, 3, 4)
    matching = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="cherries"):
        construct_cherry(matching, sup)


def test_cherry_rejects_low_independence():
    fld = field_create(2)
    # four columns of F_2^3 with e1, e2, e1+e2 dependent
    data = np.array([[1, 0, 1, 0], [0, 1, 1, 0], [0, 0, 0, 1]])
    sup = PointSupply(MatrixGF(fld, data), "bad")
    with pytest.raises(ValueError, match="independent"):
        construct_cherry(complete_graph(4), sup)


def test_cherry_size_mismatch():
    fld = field_create(5)
    sup = supply_mds(fld, 3, 5)
    with pytest.raises(ValueError, match="columns"):
        construct_cherry(complete_graph(4), sup)


def test_ball_power_k5_verified():
    fld = field_create(7)
    sup = supply_mds(fld, 3, 5)
    b = construct_ball_power(complete_graph(5), sup, 2)
    assert is_strong_blocking(b, 2).passed


def test_ball_power_edges_share_a_centre():
    # on a path, radius-2 balls around one centre reach pairs at distance up
    # to 4, and no further
    h = ball_power_hypergraph(path_graph(6), 1)
    assert set(h.edges) == {(a, b) for a in range(6) for b in range(a + 1, min(a + 5, 6))}


@pytest.mark.parametrize("recipe", [construct_neighborhood, construct_ball_power])
@pytest.mark.parametrize("s", [0, 3, 4])
def test_recipes_need_s_below_k(recipe, s):
    # the neighbourhood recipe built a 57-point candidate at s = k = 3
    with pytest.raises(ValueError, match=f"need 1 <= s < k, got s={s}, k=3"):
        recipe(complete_graph(6), supply_mds(field_create(7), 3, 6), s)


def test_ball_power_s1_connected_spanning():
    fld = field_create(5)
    sup = supply_mds(fld, 3, 4)
    b = construct_ball_power(cycle_graph(4), sup, 1)
    assert is_strong_blocking(b, 1).passed


def test_ball_power_disconnected_fails_verification():
    # two disjoint edges: each radius-2 ball stays inside its component, so
    # the union is two projective lines in PG(2,5); any further line through
    # their meeting point catches only one blocking-set point
    fld = field_create(5)
    sup = supply_mds(fld, 3, 4)
    g = Graph(4, [(0, 1), (2, 3)])
    b = construct_ball_power(g, sup, 1)
    rep = is_strong_blocking(b, 1)
    assert not rep.passed and rep.counterexample is not None


def test_verified_sets_respect_lower_bound():
    fld = field_create(7)
    sup = supply_mds(fld, 3, 5)
    for b, s in [(construct_ball_power(complete_graph(5), sup, 2), 2),
                 (construct_neighborhood(complete_graph(5), sup, 2), 2)]:
        assert is_strong_blocking(b, s).passed
        assert b.size >= lower_bound(7, 3, s)


def test_neighborhood_kn_equals_ballpower_on_complete():
    fld = field_create(7)
    sup = supply_mds(fld, 3, 5)
    h_n = neighborhood_hypergraph(complete_graph(5), 2)
    h_b = ball_power_hypergraph(complete_graph(5), 2)
    assert h_n.edges == h_b.edges
    b1 = construct_neighborhood(complete_graph(5), sup, 2)
    b2 = construct_ball_power(complete_graph(5), sup, 2)
    assert b1 == b2


def test_neighborhood_star_spans_iff_supply_spans():
    fld = field_create(5)
    sup = supply_mds(fld, 3, 5)
    star = Graph(5, [(0, i) for i in range(1, 5)])
    b = construct_neighborhood(star, sup, 1)
    assert is_strong_blocking(b, 1).passed


def test_neighborhood_flags_low_degree_vertices():
    fld = field_create(5)
    sup = supply_mds(fld, 4, 5)  # k = 4: the recipe needs s < k
    star = Graph(5, [(0, i) for i in range(1, 5)])
    b = construct_neighborhood(star, sup, 3)  # r=4 > deg+1 for the leaves
    assert b.provenance["vertices_below_edge_size"] == 4


def random_points(fld, seed, count=60, k=4):
    rows = np.random.default_rng(seed).integers(0, fld.q, (count, k))
    return BlockingSet.from_points(fld, rows[rows.any(axis=1)])


def test_from_points_canonicalizes_other_rows():
    fld = field_create(3)
    canonical = random_points(fld, 1)
    pts = canonical.points
    order = np.random.default_rng(2).permutation(len(pts))
    scaled = pts.copy()
    scaled[5] = fld.mul_arr(2, scaled[5])
    out_of_range = pts.copy()
    out_of_range[-1, -1] += 3  # reduced mod 3 by the normalization, not kept as is
    for rows in (pts, pts[order], pts[::-1], scaled, np.vstack([pts, pts[:3]]), out_of_range):
        assert BlockingSet.from_points(fld, rows) == canonical


def test_from_points_reduces_narrow_rows_past_q_as_int64():
    fld = field_create(3)
    rows = np.array([[2, 255, 7], [0, 1, 254], [0, 2, 2]], dtype=np.uint8)
    want = BlockingSet.from_points(fld, rows.astype(np.int64))
    assert want.points.tolist() == [[0, 1, 1], [0, 1, 2], [1, 0, 2]]
    assert BlockingSet.from_points(fld, rows) == want


@pytest.mark.parametrize("p,m,k", [(3, 1, 4), (2, 8, 3), (65521, 1, 3)],
                         ids=["GF(3)", "GF(2^8)", "GF(65521)"])
def test_equal_sets_of_any_integer_type_hash_equal(p, m, k):
    fld = field_create(p, m)
    pts = random_points(fld, 5, k=k).points
    assert pts.dtype == fld.dtype and not pts.flags.writeable
    stored = BlockingSet(fld, k, pts)
    assert stored.points is pts  # already the storage type: kept as given
    cast = [BlockingSet(fld, k, pts.astype(np.int64)), BlockingSet(fld, k, pts.tolist()),
            BlockingSet(fld, k, pts.astype(np.uint32)), BlockingSet.from_points(fld, pts.tolist())]
    for b in cast:
        assert b.points.dtype == fld.dtype and not b.points.flags.writeable
        assert b == stored and hash(b) == hash(stored)
    with pytest.raises(ValueError, match="must be integers"):
        BlockingSet(fld, k, pts.astype(float))


@pytest.mark.parametrize("p,k", [(3, 4), (65521, 7)])  # one and three key words per row
def test_blocking_set_checks_its_rows(p, k):
    fld = field_create(p)
    good = random_points(fld, 4, k=k).points
    assert BlockingSet(fld, k, good) == BlockingSet.from_points(fld, good)
    scaled = good.copy()
    scaled[3] = fld.mul_arr(2, scaled[3])
    cases = [(scaled, "row 3 is not normalized"),
             (good[[0, 2, 1, 3]], "row 2 does not follow row 1"),
             (good[[0, 1, 1, 2]], "row 2 does not follow row 1"),
             (good[::-1], "row 1 does not follow row 0"),
             (np.vstack([np.zeros((1, k), dtype=np.int64), good]), "row 0 is not normalized"),
             (good + np.eye(len(good), k, k - 1, dtype=np.int64) * p, r"must lie in \[0,"),
             (good[:0], "needs at least one point"),
             (good[:, :-1], "not \\(num_points"),
             ]
    for rows, message in cases:
        with pytest.raises(ValueError, match=message):
            BlockingSet(fld, k, rows)


def test_blocking_set_orders_rows_by_their_first_different_word():
    # entries up to 65520 put 3 digits in a key word: rows 0 and 1 agree in
    # the first word, rows 1 and 2 differ in it, rows 2 and 3 only in the last
    fld = field_create(65521)
    rows = np.array([[1, 5, 65520, 0, 9, 9, 3], [1, 5, 65520, 1, 0, 0, 0],
                     [1, 6, 0, 0, 0, 0, 0], [1, 6, 0, 0, 0, 0, 1]])
    assert len(linalg._row_keys(rows)) == 3
    BlockingSet(fld, 7, rows)
    for order, message in [([1, 0, 2, 3], "row 1 does not follow row 0"),
                           ([0, 2, 1, 3], "row 2 does not follow row 1"),
                           ([0, 1, 3, 2], "row 3 does not follow row 2"),
                           ([0, 1, 2, 2], "row 3 does not follow row 2")]:
        with pytest.raises(ValueError, match=message):
            BlockingSet(fld, 7, rows[order])


def test_blocking_set_rejects_zero():
    fld = field_create(3)
    with pytest.raises(ValueError):
        BlockingSet.from_points(fld, [np.zeros(3, dtype=int)])
    with pytest.raises(ValueError, match="needs at least one point"):
        BlockingSet.from_points(fld, [])


def _set_text(b: BlockingSet) -> str:
    """The bytes `write_blocking_set` writes for b to a stream, as text."""
    out = io.BytesIO()
    write_blocking_set(out, b)
    return out.getvalue().decode()


def _set_from(text: str) -> BlockingSet:
    """`read_blocking_set` of the bytes of `text`, from a stream."""
    return read_blocking_set(io.BytesIO(text.encode()))


def _matrix_text(m: MatrixGF) -> str:
    """The bytes `write_matrix` writes for m to a stream, as text."""
    out = io.BytesIO()
    linalg.write_matrix(out, m)
    return out.getvalue().decode()


def test_blocking_set_file_round_trip(tmp_path):
    fld = field_create(5)
    sup = supply_mds(fld, 3, 4)
    b = construct_cherry(complete_graph(4), sup)
    path = tmp_path / "b.pts"
    write_blocking_set(path, b)
    again = read_blocking_set(path)
    assert again == b
    assert again.provenance["construction"] == "cherry"
    # stream round trip, and a file without its sidecar
    again2 = _set_from(_set_text(b))
    assert again2 == b and again2.provenance == {"construction": "file"}
    (tmp_path / "b.pts.json").unlink()
    again3 = read_blocking_set(path)
    assert again3 == b and again3.provenance == {"construction": "file"}


@pytest.mark.parametrize("p", [3, 13])  # the byte-level grid, and np.loadtxt
def test_blocking_set_file_reads_back_with_any_newline(p, tmp_path):
    b = random_points(field_create(p), 5, count=200, k=6)
    path = tmp_path / "b.pts"
    write_blocking_set(path, b)
    raw = path.read_bytes()
    assert raw.count(b"\n") == b.size + 2 and b"\r" not in raw
    for newline in (b"\n", b"\r\n", b"\r"):
        path.write_bytes(raw.replace(b"\n", newline))
        again = read_blocking_set(path)
        assert again == b and again.provenance == b.provenance | {"construction": "file"}


def test_read_blocking_set_keeps_canonical_rows_as_stored(tmp_path, monkeypatch):
    fld = field_create(3)
    b = random_points(fld, 7, count=300, k=5)
    path = tmp_path / "b.pts"
    write_blocking_set(path, b)

    def refuse(*args, **kwargs):
        raise RuntimeError("from_points called on canonical rows")

    monkeypatch.setattr(BlockingSet, "from_points", classmethod(refuse))
    assert read_blocking_set(path) == b
    assert _set_from(_set_text(b)) == b


@pytest.mark.parametrize("p", [3, 13], ids=["grid", "loadtxt"])
def test_blocking_set_file_round_trip_builds_no_matrix(p, tmp_path, monkeypatch):
    fld = field_create(p)
    b = random_points(fld, 3, count=200, k=5)
    path = tmp_path / "b.pts"
    grids = []
    grid_rows = linalg._grid_rows
    monkeypatch.setattr(linalg, "_grid_rows", lambda *a: grids.append(grid_rows(*a)) or grids[-1])

    def refuse(self, *args):
        raise RuntimeError("a MatrixGF was built on the file path")

    monkeypatch.setattr(MatrixGF, "__init__", refuse)
    write_blocking_set(path, b)
    again = read_blocking_set(path)
    assert again == b and again.points.dtype == fld.dtype and not again.points.flags.writeable
    if p < 10:  # the single-digit grid's uint8 array is the set's points
        assert again.points is grids[-1]


@pytest.mark.parametrize("p, m", [(3, 1), (13, 1), (2, 8), (65521, 1)])
def test_blocking_set_text_matches_the_matrix_form(p, m, monkeypatch):
    """The stdin/stdout form: the bytes and the set that `write_matrix` and
    `read_matrix` of a `MatrixGF` give, with no `MatrixGF` built."""
    fld = field_create(p, m)
    b = random_points(fld, 11, count=150, k=5)
    want_text = _matrix_text(MatrixGF(fld, b.points))
    shuffled = _matrix_text(MatrixGF(fld, b.points[::-1]))
    want = [construct._file_set(fld, np.array(linalg.read_matrix(io.BytesIO(t.encode())).data),
                                {"construction": "file"})
            for t in (want_text, shuffled)]

    def refuse(self, *args):
        raise RuntimeError("a MatrixGF was built on the text path")

    monkeypatch.setattr(MatrixGF, "__init__", refuse)
    assert _set_text(b) == want_text
    for text, set_from_matrix in zip((want_text, shuffled), want):
        again = _set_from(text)
        assert again == set_from_matrix == b
        assert again.provenance == set_from_matrix.provenance == {"construction": "file"}
        assert again.points.dtype == fld.dtype and not again.points.flags.writeable
    with pytest.raises(ValueError, match="entries out of range"):
        _set_from(want_text.replace("\n1 ", f"\n{fld.q} ", 1))


def test_read_blocking_set_canonicalizes_hand_written_rows(tmp_path):
    fld = field_create(3)
    b = random_points(fld, 9, count=100, k=4)
    pts = b.points
    scaled = pts.copy()
    scaled[4] = fld.mul_arr(2, scaled[4])
    repeated = np.vstack([pts, pts[:2]])
    path = tmp_path / "b.pts"
    for rows in (pts[::-1], scaled, repeated):
        linalg.write_matrix(path, MatrixGF(fld, rows))
        assert read_blocking_set(path) == b
        assert _set_from(path.read_text()) == b
    for rows, message in [(np.vstack([pts, np.zeros((1, 4), dtype=np.int64)]), "is zero"),
                          (pts[:0], "needs at least one point")]:
        linalg.write_matrix(path, MatrixGF(fld, rows))
        with pytest.raises(ValueError, match=message):
            read_blocking_set(path)
