import functools
import io
import json
import math
import time
from itertools import combinations

import numpy as np
import pytest

from blockforge import expander
from blockforge.budgets import Budgets
from blockforge.construct import ball_power_hypergraph, neighborhood_hypergraph
from blockforge.errors import BudgetExceededError
from blockforge.expander import (Graph, Hypergraph, ball, blowup, check_mixing,
                                 complete_graph, cycle_graph, find_star_vertex, largest_component,
                                 lps_graph, path_graph, power_graph, read_graph,
                                 second_eigenvalue, write_graph)

from helpers import (ball_by_bfs, ball_edges_by_set, bfs_distances, bipartition_by_bfs,
                     blowup_by_loop, find_star_vertex_by_sets,
                     hypergraph_by_set, is_connected_by_bfs, largest_component_by_bfs,
                     lps_graph_by_bfs, lps_quadruples_by_loop, mixing_by_matvec,
                     neighborhood_edges_by_set, power_graph_by_bfs)


def _graph_text(g: Graph) -> str:
    """The bytes `write_graph` writes for g to a stream, as text."""
    out = io.BytesIO()
    write_graph(out, g)
    return out.getvalue().decode()


def _graph_from(text: str) -> Graph:
    """`read_graph` of the bytes of `text`, from a stream."""
    return read_graph(io.BytesIO(text.encode()))


@pytest.fixture(scope="module")
def lps_5_13():
    return lps_graph(5, 13)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 5)])
    g = Graph(3, [(0, 1), (1, 0), (1, 2)])  # duplicate edges collapse
    assert g.m == 2 and g.adjacency[1] == (0, 2)


def test_lps_5_13_shape(lps_5_13):
    g = lps_5_13
    assert g.n == 13 * (13 ** 2 - 1)  # PGL2(13): 5 is a non-residue mod 13
    assert g.is_regular() and g.degree == 6
    assert g.is_connected()
    assert g.bipartition() is not None


def test_lps_5_29_shape():
    g = lps_graph(5, 29)
    assert g.n == 29 * (29 ** 2 - 1) // 2  # PSL2(29): 5 = 11^2 mod 29
    assert g.is_regular() and g.degree == 6
    assert g.is_connected()
    assert g.bipartition() is None


def test_lps_quadruples_match_the_loop():
    for p in range(2, 2000):
        got = expander._lps_quadruples(p)
        assert got == lps_quadruples_by_loop(p), p
        assert all(type(v) is int for quad in got for v in quad)


def test_lps_parameter_validation():
    with pytest.raises(ValueError):
        lps_graph(7, 13)  # 7 != 1 mod 4
    with pytest.raises(ValueError):
        lps_graph(5, 15)  # not prime
    with pytest.raises(ValueError):
        lps_graph(5, 5)
    with pytest.raises(ValueError):
        lps_graph(13, 5)  # 5 < 2*sqrt(13)


def test_second_eigenvalue_complete_graph():
    rep = second_eigenvalue(complete_graph(8))
    assert rep.method == "exact" and not rep.bipartite
    assert rep.lambda_bound == pytest.approx(1.0, abs=1e-9)


def test_second_eigenvalue_c4():
    rep = second_eigenvalue(cycle_graph(4))
    assert rep.bipartite
    assert rep.lambda_bound == pytest.approx(0.0, abs=1e-9)


def test_second_eigenvalue_requires_regular_connected():
    with pytest.raises(ValueError):
        second_eigenvalue(path_graph(4))
    with pytest.raises(ValueError):
        second_eigenvalue(Graph(4, [(0, 1), (2, 3)]))


def test_power_iteration_matches_exact():
    g = power_graph(cycle_graph(24), 2)  # 4-regular circulant, non-bipartite
    exact = second_eigenvalue(g, method="exact")
    power = second_eigenvalue(g, tol=1e-9, method="power")
    assert power.method == "power-iteration"
    assert abs(power.lambda_bound - exact.lambda_bound) < 1e-6
    gb = cycle_graph(20)  # bipartite: -2 must be excluded on both paths
    exact_b = second_eigenvalue(gb, method="exact")
    power_b = second_eigenvalue(gb, tol=1e-9, method="power")
    assert exact_b.bipartite and power_b.bipartite
    assert abs(power_b.lambda_bound - exact_b.lambda_bound) < 1e-6


def test_lps_5_13_is_ramanujan(lps_5_13):
    rep = second_eigenvalue(lps_5_13, tol=1e-7)
    assert rep.lambda_bound <= 2 * math.sqrt(5) + 1e-6


@pytest.fixture(scope="module")
def lps_17_13():
    return lps_graph(17, 13)  # PSL2(13): 17 = 2^2 mod 13, so not bipartite


def _walk_traces(g, v, r_max):
    """T_r = n |A^r e_v|^2 - c d^(2r) for r = 0..r_max, by a per-vertex loop
    over Python ints from vertex v."""
    n, d = g.n, g.degree
    c = 2 if g.bipartition() is not None else 1
    x = [0] * n
    x[v] = 1
    traces = []
    for r in range(r_max + 1):
        traces.append(n * sum(a * a for a in x) - c * d ** (2 * r))
        x = [sum(x[u] for u in g.adjacency[w]) for w in range(n)]
    return traces


@pytest.mark.parametrize("graph, bipartite", [("lps_5_13", True), ("lps_17_13", False)])
def test_trace_interval_brackets_the_dense_value(graph, bipartite, request):
    g = request.getfixturevalue(graph)
    rep = second_eigenvalue(g, method="trace")
    assert rep.method == "trace" and rep.bipartite == bipartite
    dense = second_eigenvalue(g, method="exact").lambda_bound
    assert rep.lambda_lower <= dense <= rep.lambda_bound <= 2 * math.sqrt(g.degree - 1)
    assert 0 < rep.r <= expander.TRACE_MAX_WALK and rep.r % 8 == 0
    # The exact checks, on walk counts out of the last vertex rather than 0:
    # b^(2r) >= T_r and lower^2 T_r <= T_(r+1), and the walk stopped at the
    # first evaluated r whose bound meets 2 sqrt(d - 1).
    traces = _walk_traces(g, g.n - 1, rep.r + 1)
    t, t_next = traces[rep.r], traces[rep.r + 1]
    top, bottom = rep.lambda_bound.as_integer_ratio()
    assert top ** (2 * rep.r) >= t * bottom ** (2 * rep.r)
    top, bottom = rep.lambda_lower.as_integer_ratio()
    assert top ** 2 * t <= t_next * bottom ** 2
    r_before = rep.r - 8
    if r_before:
        assert traces[r_before] > (2 * math.sqrt(g.degree - 1)) ** (2 * r_before)


def test_trace_reports_the_bound_reached_at_the_walk_cap(lps_5_13, monkeypatch):
    monkeypatch.setattr(expander, "TRACE_MAX_WALK", 16)
    rep = second_eigenvalue(lps_5_13, method="trace")
    assert rep.r == 16
    assert rep.lambda_bound > 2 * math.sqrt(5)  # proved, but not yet Ramanujan
    top, bottom = rep.lambda_bound.as_integer_ratio()
    assert top ** 32 >= _walk_traces(lps_5_13, 0, 16)[16] * bottom ** 32
    assert rep.lambda_lower <= 4.2498 < rep.lambda_bound


def test_trace_needs_a_cayley_graph(lps_5_13):
    assert lps_5_13.cayley
    for g in (complete_graph(8), power_graph(cycle_graph(24), 2)):
        assert not g.cayley
        with pytest.raises(ValueError, match="Cayley"):
            second_eigenvalue(g, method="trace")
    with pytest.raises(ValueError, match="unknown spectral method"):
        second_eigenvalue(complete_graph(8), method="lanczos")


def test_graph_file_does_not_carry_the_cayley_mark(lps_5_13):
    again = _graph_from(_graph_text(lps_5_13))
    assert not again.cayley and _graph_text(again) == _graph_text(lps_5_13)
    assert second_eigenvalue(again, tol=1e-3).method == "power-iteration"
    assert second_eigenvalue(lps_5_13).method == "trace"


def test_trace_report_bytes(lps_5_13):
    first, again = (second_eigenvalue(lps_5_13) for _ in range(2))
    assert json.dumps(first.to_dict()) == json.dumps(again.to_dict()) == (
        f'{{"n": 2184, "d": 6, "lambda_bound": {first.lambda_bound!r}, "method": "trace", '
        f'"bipartite": true, "lambda_lower": {first.lambda_lower!r}, "r": 48}}')


def test_reports_of_one_path_ignore_the_tolerance():
    # the tolerance steers power iteration only; the exact and trace reports
    # of two tolerances are equal, not only their JSON
    g = Graph(11, [(i, (i + 1) % 11) for i in range(11)], cayley=True)
    for method in ("exact", "trace"):
        coarse, fine = (second_eigenvalue(g, tol, method=method) for tol in (1e-3, 1e-9))
        assert coarse == fine


def test_exact_and_power_report_bytes():
    exact = second_eigenvalue(complete_graph(8))
    power = second_eigenvalue(cycle_graph(20), tol=1e-9, method="power")
    assert json.dumps(exact.to_dict()) == (
        f'{{"n": 8, "d": 7, "lambda_bound": {exact.lambda_bound!r}, "method": "exact", '
        f'"bipartite": false}}')
    assert json.dumps(power.to_dict()) == (
        f'{{"n": 20, "d": 2, "lambda_bound": {power.lambda_bound!r}, '
        f'"method": "power-iteration", "bipartite": true}}')
    assert exact.lambda_lower is None and exact.r is None and power.r is None


def test_check_mixing_complete_graph():
    rep = check_mixing(complete_graph(12), lam=1.0, trials=50, seed=1)
    assert rep.violations == 0
    assert rep.max_ratio <= 1.0 + 1e-9


def test_check_mixing_adversarial_disjoint_cliques():
    m = 10
    edges = list(combinations(range(m), 2))
    edges += [(a + m, b + m) for a, b in combinations(range(m), 2)]
    g = Graph(2 * m, edges)
    rep = check_mixing(g, lam=0.1, trials=30, seed=2)
    assert rep.violations > 0 and rep.max_ratio > 1.0


@pytest.mark.parametrize("graph", ["K12", "C30", "C40^3", "two K10", "X5,13"])
def test_check_mixing_counts_match_the_adjacency_matvec(graph):
    if graph == "two K10":
        edges = list(combinations(range(10), 2))
        g = Graph(20, edges + [(a + 10, b + 10) for a, b in edges])
    else:
        g = {"K12": lambda: complete_graph(12), "C30": lambda: cycle_graph(30),
             "C40^3": lambda: power_graph(cycle_graph(40), 3),
             "X5,13": lambda: lps_graph(5, 13)}[graph]()
    for lam, seed in [(0.1, 2), (1.0, 1), (2 * math.sqrt(5), 3)]:
        got = check_mixing(g, lam, trials=25, seed=seed).to_dict()
        assert got == mixing_by_matvec(g, lam, 25, seed)
        assert type(got["violations"]) is int


def test_check_mixing_certified_lambda(lps_5_13):
    rep = check_mixing(lps_5_13, lam=2 * math.sqrt(5), trials=50, seed=3)
    assert rep.violations == 0


@pytest.mark.parametrize("lam, trials", [(0, 5), (-1, 5), (float("nan"), 5), (1.0, -1)])
def test_check_mixing_rejects_a_bad_lambda_or_trial_count(lam, trials):
    # lam = 0 divided by zero, lam = -1 counted every sampled set as a violation
    with pytest.raises(ValueError, match="lam > 0 and trials >= 0"):
        check_mixing(cycle_graph(12), lam, trials)


@pytest.mark.parametrize("method", ["auto", "exact", "trace", "power"])
@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_second_eigenvalue_rejects_a_bad_tolerance(method, tol):
    # power iteration can never reach a residual <= 0: tol = -1 ran its
    # whole iteration budget before failing
    g = Graph(11, [(i, (i + 1) % 11) for i in range(11)], cayley=True)
    with pytest.raises(ValueError, match="must be a positive finite number"):
        second_eigenvalue(g, tol=tol, method=method)


def test_largest_component_whole_graph():
    g = cycle_graph(6)
    assert largest_component(g, range(6)) == tuple(range(6))


def test_largest_component_isolated():
    g = path_graph(5)
    assert largest_component(g, [0, 3]) in ((0,), (3,))
    assert len(largest_component(g, [0, 3])) == 1
    assert largest_component(g, []) == ()


@pytest.fixture(scope="module")
def paley_101():
    # Paley graph: a (101, 50, ~5.5)-graph, so lambda/d is small enough for
    # the component and star lemmas to bite (the degree-6 LPS instances have
    # lambda/d ~ 0.75, which makes those hypotheses vacuous).
    q = 101
    squares = {(x * x) % q for x in range(1, q)}
    edges = [(u, v) for u, v in combinations(range(q), 2) if (v - u) % q in squares]
    return Graph(q, edges)


def test_largest_component_lemma_bound(paley_101):
    g = paley_101
    lam = second_eigenvalue(g).lambda_bound
    assert 2 * lam * g.n / g.degree < g.n / 4  # hypothesis is non-vacuous
    rng = np.random.default_rng(5)
    for _ in range(10):
        u = np.nonzero(rng.random(g.n) < 0.4)[0]
        comp = largest_component(g, u)
        assert len(comp) >= len(u) - 2 * lam * g.n / g.degree


def test_find_star_vertex_star_graph():
    g = Graph(7, [(0, i) for i in range(1, 7)])
    x = find_star_vertex(g, [0], [1, 2], [3], [4, 5])
    assert x == 0
    assert find_star_vertex(g, [], [1]) is None
    with pytest.raises(ValueError):
        find_star_vertex(g, [0, 1], [1, 2])


def test_find_star_vertex_lemma_threshold(paley_101):
    g = paley_101
    lam = second_eigenvalue(g).lambda_bound
    b = lam * g.n / g.degree
    t = 3
    rng = np.random.default_rng(7)
    for trial in range(10):
        perm = rng.permutation(g.n)
        size0 = int(t * b) + 1
        size_i = int(b) + 1
        assert size0 + t * size_i <= g.n
        u0 = perm[:size0]
        rest = [perm[size0 + i * size_i: size0 + (i + 1) * size_i] for i in range(t)]
        assert find_star_vertex(g, u0, *rest) is not None


def test_power_graph_examples():
    tri = power_graph(path_graph(3), 2)
    assert tri.m == 3
    g = cycle_graph(6)
    assert power_graph(g, 1).m == g.m
    sq = power_graph(g, 2)
    assert sq.is_regular() and sq.degree == 4


def test_power_graph_against_bfs_oracle():
    rng = np.random.default_rng(9)
    edges = {(u, v) for u, v in combinations(range(10), 2)
             if rng.random() < 0.3}
    g = Graph(10, edges)
    for u in (1, 2, 3):
        pg = power_graph(g, u)
        for x in range(10):
            dist = bfs_distances(g, x)
            expect = {y for y, d in dist.items() if 1 <= d <= u}
            assert set(pg.adjacency[x]) == expect


def test_power_graph_submultiplicative():
    rng = np.random.default_rng(11)
    edges = {(u, v) for u, v in combinations(range(9), 2) if rng.random() < 0.25}
    g = Graph(9, edges)
    for a, b in [(1, 2), (2, 2), (2, 3)]:
        lhs = set(power_graph(power_graph(g, a), b).edges())
        rhs = set(power_graph(g, a * b).edges())
        assert lhs <= rhs


def test_blowup_examples():
    assert blowup(Graph(1, []), 3).m == 3  # K3
    k4 = blowup(Graph(2, [(0, 1)]), 2)
    assert k4.n == 4 and k4.m == 6
    g = blowup(cycle_graph(4), 2)
    assert g.n == 8 and g.m == 4 * 1 + 4 * 4


def test_blowup_count_formula():
    rng = np.random.default_rng(13)
    edges = {(u, v) for u, v in combinations(range(7), 2) if rng.random() < 0.4}
    g = Graph(7, edges)
    for d in (1, 2, 3):
        bg = blowup(g, d)
        assert bg.n == g.n * d
        assert bg.m == g.n * d * (d - 1) // 2 + g.m * d * d


def test_ball():
    g = path_graph(5)
    assert ball(g, 2, 0) == (2,)
    assert ball(g, 0, 4) == (0, 1, 2, 3, 4)
    assert ball(g, 2, 1) == (1, 2, 3)


@pytest.mark.parametrize("x", [-1, 6, 10])
def test_ball_rejects_a_centre_outside_the_graph(x):
    # x = 10 returned (9, 10, 11), keys of another search label; x = -1 returned ()
    with pytest.raises(ValueError, match=r"not a vertex in \[0, 6\)"):
        ball(cycle_graph(6), x, 1)


@pytest.mark.parametrize("centres", [[7], [-1], [0, 6]])
def test_neighborhoods_reject_centres_outside_the_graph(centres):
    with pytest.raises(ValueError, match=r"centres must be vertices in \[0, 6\)"):
        cycle_graph(6).neighborhoods(1, centres=np.array(centres))


def test_ball_degree_bound(lps_5_13):
    g = lps_5_13
    d = g.degree
    got = len(ball(g, 17, 2))
    assert got <= 1 + d + d * (d - 1)


def test_graph_file_round_trip(lps_5_13, tmp_path):
    g = power_graph(cycle_graph(7), 2)
    again = _graph_from(_graph_text(g))
    assert again.n == g.n and list(again.edges()) == list(g.edges())
    write_graph(tmp_path / "c7.g", g)
    assert (tmp_path / "c7.g").read_text() == _graph_text(g)
    again = read_graph(tmp_path / "c7.g")
    assert again.n == g.n and list(again.edges()) == list(g.edges())
    assert _graph_text(path_graph(3)) == "graph 3 2\n0 1\n1 2\n"
    assert _graph_text(Graph(2, [])) == "graph 2 0\n"
    with pytest.raises(ValueError):
        _graph_from("graph 3 1\n0 1 2\n")
    with pytest.raises(ValueError):
        _graph_from("graph 3 2\n0 1\n")


def _loop_graph(n, edges):
    """The reference: the per-edge loop `Graph` was built with before it worked
    on arrays.  Returns (adjacency, edges, the graph file text)."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        adj[u].add(v)
        adj[v].add(u)
    adjacency = tuple(tuple(sorted(s)) for s in adj)
    pairs = [(u, v) for u in range(n) for v in adjacency[u] if u < v]
    return adjacency, pairs, f"graph {n} {len(pairs)}\n" + "".join(f"{u} {v}\n" for u, v in pairs)


@pytest.mark.parametrize("seed", range(6))
def test_graph_matches_the_per_edge_loop(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 80))
    used = max(1, n - 5)  # the top vertices stay isolated
    edges = rng.integers(0, used, (int(rng.integers(0, 4 * n)), 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    edges = np.vstack([edges, edges[: len(edges) // 2, ::-1], edges[: len(edges) // 3]])
    edges = edges[rng.permutation(len(edges))]
    adjacency, pairs, text = _loop_graph(n, edges)
    for given in (edges, edges.tolist(), (tuple(e) for e in edges.tolist())):
        g = Graph(n, given)
        assert g.adjacency == adjacency and g.m == len(pairs)
        assert all(type(v) is int for a in g.adjacency for v in a)
        assert list(g.edges()) == pairs
        assert all(type(u) is int and type(v) is int for u, v in g.edges())
        assert _graph_text(g) == text


@pytest.mark.parametrize("edges", [
    [(0, 1), (0, 7), (2, 2)],   # out of range, then a self-loop
    [(0, 1), (2, 2), (0, 7)],   # self-loop, then out of range
    [(1, 2), (7, 7), (0, 9)],   # both at once: the self-loop is named
    [(-1, 3), (4, 4)],
])
def test_graph_names_the_first_bad_edge(edges):
    with pytest.raises(ValueError) as want:
        _loop_graph(5, edges)
    with pytest.raises(ValueError) as got:
        Graph(5, edges)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("p, q2", [(5, 13), (5, 29), (17, 13)],
                         ids=["X^{5,13} (PGL)", "X^{5,29} (PSL)", "X^{17,13} (PSL)"])
def test_lps_closure_matches_the_tuple_bfs(p, q2):
    """Equal adjacency tuples: the same graph under the same vertex numbering,
    which is BFS order from the identity (vertex 0)."""
    g = lps_graph(p, q2)
    ref, order = lps_graph_by_bfs(p, q2)
    assert g.n == ref.n == len(order) and g.m == ref.m and g.cayley
    assert g.adjacency == ref.adjacency
    assert list(g.edges()) == list(ref.edges())
    dist = bfs_distances(g, 0)
    assert [dist[v] for v in range(g.n)] == sorted(dist.values())


FROM_EDGES_CASES = [  # (n, edges of one size, max_edge_size)
    (4, [(1, 0), (0, 1), (3, 2), (0, 1)], None),
    (6, [(5, 1, 3), (0, 4, 2), (3, 1, 5), (0, 1, 2)], 3),
    (3, [(2,), (0,), (2,)], 4),
    (3, [], 2),
    (3, [(1, 2), (0, 0), (2, 2)], None),      # repeated vertex: (0, 0) comes first
    (3, [(2, 5), (1, 0), (4, 1)], None),      # out of range: (1, 4) comes first
    (3, [(0, -1), (1, 2)], None),             # negative
    (3, [(3, 3), (0, 5)], None),              # out of range (0, 5) before repeated (3, 3)
    (3, [(0, 0), (0, 5)], None),              # repeated (0, 0) before out of range (0, 5)
    (3, [(0, 1, 2)], 2),                      # over the bound
    (3, [(0, 1, 9)], 2),                      # out of range is named before the bound
    (3, [(), ()], None),                      # empty
]


@pytest.mark.parametrize("n, edges, bound", FROM_EDGES_CASES)
def test_from_edges_matches_the_set_of_tuples(n, edges, bound):
    try:
        want = hypergraph_by_set(n, edges, bound)
    except ValueError as err:
        want = str(err)
    width = len(edges[0]) if edges else 0
    array = np.array(edges, dtype=np.int64).reshape(len(edges), width)
    given = {"array": array, "list": edges, "generator": (tuple(e) for e in edges),
             "narrow array": array.astype(np.int16)}
    for kind, value in given.items():
        try:
            h = Hypergraph.from_edges(n, value, bound)
        except ValueError as err:
            assert str(err) == want, kind
            continue
        assert (h.edges, h.max_edge_size) == want, kind
        assert h.m == len(h.edges) and h.n == n
        for r, rows in h.edge_arrays.items():
            assert rows.dtype == np.int64 and not rows.flags.writeable
            assert rows.tolist() == [list(e) for e in h.edges if len(e) == r]
        assert h == Hypergraph.from_edges(n, edges, bound)
        assert hash(h) == hash(Hypergraph.from_edges(n, edges, bound))


@pytest.mark.parametrize("n, edges", [
    (5, [(4,), (0, 1, 2), (0, 1), (2, 3), (1, 0), (3,), (1, 2, 4, 3)]),
    (3, [(2, 2, 1), (0, 3)]),                 # out of range (0, 3) sorts first
    (5, [(4,), (0, 1, 7)]),
    (4, [(0, 1), (1, 2, 3), ()]),
])
def test_from_edges_of_mixed_sizes_matches_the_set_of_tuples(n, edges):
    try:
        want = hypergraph_by_set(n, edges)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            Hypergraph.from_edges(n, edges)
        assert str(got.value) == str(err)
        return
    h = Hypergraph.from_edges(n, edges)
    assert (h.edges, h.max_edge_size) == want  # one lexicographic order across sizes
    assert list(h.edge_arrays) == sorted({len(e) for e in edges})
    assert h.is_bounded(4) and not h.is_bounded(3)


def test_from_edges_rejects_an_array_that_is_not_2d():
    with pytest.raises(ValueError, match="2-D"):
        Hypergraph.from_edges(3, np.array([0, 1, 2]))


@pytest.mark.parametrize("edges", [[(0.5, 1)], np.array([[0.0, 1.0]]), [(0, 1), (1.5, 2)],
                                   [(0, "1")]], ids=["half", "float array", "mixed", "text"])
def test_graph_and_hypergraph_reject_non_integer_labels(edges):
    # (0.5, 1) was truncated to the edge (0, 1)
    for build in (Graph, Hypergraph.from_edges):
        with pytest.raises(ValueError, match="vertex labels must be integers"):
            build(3, edges)


# ---------------------------------------------------------------------------
# The CSR operators against the per-vertex Python references in helpers.py
# ---------------------------------------------------------------------------

def _random_graph(n, p, seed, isolated=0):
    rng = np.random.default_rng(seed)
    used = n - isolated
    return Graph(n, [(u, v) for u, v in combinations(range(used), 2) if rng.random() < p])


@functools.lru_cache(maxsize=None)
def _graph(name):
    if name.startswith("X"):
        return lps_graph(*map(int, name[1:].split(",")))
    named = {
        "star": lambda: Graph(7, [(0, v) for v in range(1, 7)]),
        "empty5": lambda: Graph(5, []),
        # two triangles, a path and two isolated vertices
        "components": lambda: Graph(12, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                                         (6, 7), (7, 8), (8, 9)]),
        "sparse": lambda: _random_graph(40, 0.04, 1, isolated=4),
        "irregular": lambda: _random_graph(30, 0.2, 2, isolated=2),
        "dense": lambda: _random_graph(16, 0.6, 3),
        # P30, C9 and C6 under a random relabelling, so no component's least
        # vertex lies at an end of its vertex order
        "shuffled": lambda: Graph(45, np.random.default_rng(5).permutation(45)[
            [(i, i + 1) for i in range(29)] + [(30 + i, 30 + (i + 1) % 9) for i in range(9)]
            + [(39 + i, 39 + (i + 1) % 6) for i in range(6)]]),
        # random bipartite: even vertices against odd ones
        "bipartite": lambda: Graph(24, [(u, v) for u, v in _random_graph(24, 0.3, 4).edges()
                                        if (u + v) % 2]),
    }
    if name in named:
        return named[name]()
    return {"K": complete_graph, "P": path_graph, "C": cycle_graph}[name[0]](int(name[1:]))


SMALL_GRAPHS = ["K0", "K1", "K2", "K5", "P1", "P6", "C7", "C8", "star", "empty5", "components",
                "sparse", "irregular", "dense", "shuffled", "bipartite"]
LPS_GRAPHS = ["X5,13", "X5,29"]  # bipartite, and not bipartite


def _adjacency_by_loop(g):
    adj = [set() for _ in range(g.n)]
    for u, v in g.edges():
        adj[u].add(v)
        adj[v].add(u)
    return tuple(tuple(sorted(a)) for a in adj)


@pytest.mark.parametrize("name", SMALL_GRAPHS + LPS_GRAPHS)
def test_graph_views_match_the_tuple_adjacency(name):
    g = _graph(name)
    assert g.adjacency == _adjacency_by_loop(g)
    assert all(type(v) is int for a in g.adjacency for v in a)
    assert g.degrees().tolist() == [len(a) for a in g.adjacency]
    if not g.is_regular():
        with pytest.raises(ValueError, match="not regular"):
            g.neighbors
        return
    want = np.array(g.adjacency, dtype=np.int64).reshape(g.n, g.degree).T
    assert g.neighbors.dtype == np.int64 and g.neighbors.flags.c_contiguous
    assert np.array_equal(g.neighbors, want) and type(g.degree) is int


@pytest.mark.parametrize("name", SMALL_GRAPHS + LPS_GRAPHS)
def test_bfs_operators_match_the_python_bfs(name):
    g = _graph(name)
    assert g.is_connected() == is_connected_by_bfs(g)
    want, got = bipartition_by_bfs(g), g.bipartition()
    assert (got is None) == (want is None)
    if want is not None:
        assert got.dtype == np.int64 and np.array_equal(got, want)
    rng = np.random.default_rng(g.n)
    for x in rng.permutation(g.n)[:10].tolist():
        for t in range(4):
            assert ball(g, x, t) == ball_by_bfs(g, x, t)
    for density in (0.0, 0.2, 0.5, 0.9, 1.0):
        subset = np.flatnonzero(rng.random(g.n) < density)
        got = largest_component(g, subset)
        assert got == largest_component_by_bfs(g, subset)
        assert all(type(v) is int for v in got)
    for parts in (1, 2, 3):
        cut = np.sort(rng.choice(g.n + 1, parts, replace=True))
        sets = np.split(rng.permutation(g.n), cut[1:])
        assert find_star_vertex(g, *sets) == find_star_vertex_by_sets(g, *sets)


@pytest.mark.parametrize("name", SMALL_GRAPHS + LPS_GRAPHS)
def test_power_graph_matches_the_python_bfs(name):
    g = _graph(name)
    for u in (2,) if name in LPS_GRAPHS else (1, 2, 3):
        got, want = power_graph(g, u), power_graph_by_bfs(g, u)
        assert got.n == want.n and got.m == want.m
        assert np.array_equal(got._edge_array, want._edge_array)


@pytest.mark.parametrize("name", SMALL_GRAPHS)
def test_blowup_matches_the_loop(name):
    g = _graph(name)
    for d in (1, 2, 3):
        got, want = blowup(g, d), blowup_by_loop(g, d)
        assert got.n == want.n and np.array_equal(got._edge_array, want._edge_array)


@pytest.mark.parametrize("name", SMALL_GRAPHS + LPS_GRAPHS)
def test_local_subset_hypergraphs_match_the_set_of_tuples(name):
    g = _graph(name)  # cherries: test_construct.py::test_cherries_match_the_set_of_tuples
    for s in {"X5,13": (3,), "X5,29": (2,)}.get(name, (1, 2, 3)):
        h = neighborhood_hypergraph(g, s)
        assert h.edges == neighborhood_edges_by_set(g, s) and h.max_edge_size == s + 1
    if name not in LPS_GRAPHS:  # at LPS scale the ball recipe exceeds the default budget
        for s in (1, 2):
            h = ball_power_hypergraph(g, s)
            assert h.edges == ball_edges_by_set(g, s) and h.max_edge_size == s + 1


def test_graph_operators_never_build_the_tuple_view():
    g = lps_graph(5, 13)  # fresh: no other test has read its adjacency
    second_eigenvalue(g)
    second_eigenvalue(_graph_from(_graph_text(g)), tol=1e-3)
    check_mixing(g, 2 * math.sqrt(5), trials=2)
    ball(g, 0, 2)
    largest_component(g, range(0, g.n, 3))
    find_star_vertex(g, [0], [1])
    power_graph(g, 2)
    neighborhood_hypergraph(g, 2)
    assert g.is_regular() and g.has_edge(*next(g.edges()))
    assert "adjacency" not in vars(g)


def test_components_take_one_pass_not_one_search_each():
    """Twenty thousand isolated vertices, or ten thousand single edges, cost
    one hooking pass each, not one search per component."""
    empty, matching = Graph(20000, []), Graph(20000, np.arange(20000).reshape(-1, 2))
    start = time.perf_counter()
    assert not empty.is_connected() and not matching.is_connected()
    assert np.array_equal(empty.bipartition(), np.ones(20000, dtype=np.int64))
    assert np.array_equal(matching.bipartition(), np.tile([1, -1], 10000))
    assert largest_component(empty, range(20000)) == (0,)
    assert largest_component(matching, range(1, 20000)) == (2, 3)
    assert time.perf_counter() - start < 0.5


def test_ball_budget_raises_before_every_ball_is_built(monkeypatch):
    """The ball recipe gathers its balls in runs of 1, 1, 2, 4, ... centres
    and raises at the first run that takes sum C(|B_r(x)|, r) past the
    budget.  On X^{5,29} with s = 5, vertex 0 alone is past it; with s = 1
    each ball holds 37 vertices, C(37, 2) = 666 rows, and the run that ends
    at 2048 centres is the first past 10^6."""
    g = _graph("X5,29")
    built = []
    neighborhoods = Graph.neighborhoods

    def counted(self, radius=1, *, closed=False, centres=None):
        assert centres is not None and len(centres) < self.n, "every ball built at once"
        built.extend(centres.tolist())
        return neighborhoods(self, radius, closed=closed, centres=centres)

    monkeypatch.setattr(Graph, "neighborhoods", counted)
    with pytest.raises(BudgetExceededError) as err:
        ball_power_hypergraph(g, 5)
    assert built == [0] and err.value.required == math.comb(len(ball(g, 0, 6)), 6)
    built.clear()
    with pytest.raises(BudgetExceededError) as err:
        ball_power_hypergraph(g, 1)
    assert built == list(range(2048)) and err.value.required == 2048 * 666


def _rows_before_dedup(lists, r):
    return sum(math.comb(len(a), r) for a in lists)


@pytest.mark.parametrize("recipe", ["neighborhood", "ball"])
@pytest.mark.parametrize("name", ["K5", "C8", "star", "components", "sparse", "irregular",
                                  "bipartite", "X5,13"])
def test_clique_budget_counts_the_rows_before_dedup(recipe, name):
    """The budget raises exactly when sum C(|list|, r) exceeds it, with that
    sum as the count at the boundary, so whenever the vertex-by-vertex check
    on distinct edges raised; at the boundary the hypergraph is the
    reference's."""
    g = _graph(name)
    s = 2 if recipe == "neighborhood" else 1
    if recipe == "neighborhood":
        build, reference = neighborhood_hypergraph, neighborhood_edges_by_set
        total = _rows_before_dedup([set(a) | {x} for x, a in enumerate(g.adjacency)], s + 1)
    else:
        build, reference = ball_power_hypergraph, ball_edges_by_set
        total = _rows_before_dedup([ball_by_bfs(g, x, s + 1) for x in range(g.n)], s + 1)
    with pytest.raises(BudgetExceededError) as err:
        build(g, s, budgets=Budgets(cliques=total - 1))
    assert (err.value.budget, err.value.limit, err.value.required) == ("cliques", total - 1, total)
    if name in LPS_GRAPHS:
        return
    assert build(g, s, budgets=Budgets(cliques=total)).edges == reference(g, s, total)
    for budget in range(1, total, max(1, total // 40)):
        try:
            reference(g, s, budget)
        except BudgetExceededError:
            with pytest.raises(BudgetExceededError):
                build(g, s, budgets=Budgets(cliques=budget))
