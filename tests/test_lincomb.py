import itertools
import random

import numpy as np
import pytest

from helpers import (identity_matrix, random_certificate_instance, random_subspace,
                     supply_column, tree_like_order_two_pass, zero_matrix)

from blockforge.errors import CertificateError
from blockforge.expander import Hypergraph
from blockforge.gf import field_create
from blockforge.lincomb import (EdgeWitness, build_plc_hypergraph,
                                certify, check_elimination_order,
                                exactly_s_plus_one_edge, plc_edge, tree_like_order)
from blockforge.linalg import MatrixGF, matmul, rank, subspace_from_rows
from blockforge.supply import PointSupply, supply_mds


def identity_supply(fld, k):
    return PointSupply(identity_matrix(fld, k), "test")


def brute_force_plc(supply, X, L):
    """Independent oracle: try every nonzero coefficient tuple."""
    fld = supply.field
    q = fld.q
    for coeffs in itertools.product(range(1, q), repeat=len(X)):
        acc = np.zeros(supply.k, dtype=np.int64)
        for v, c in zip(X, coeffs):
            acc = fld.add_arr(acc, fld.mul_arr(c, supply_column(supply, v)))
        if L.contains(acc):
            return coeffs
    return None


def test_plc_edge_hand_example():
    f2 = field_create(2)
    sup = identity_supply(f2, 3)
    L = subspace_from_rows(MatrixGF(f2, [[1, 1, 0], [0, 0, 1]]))
    w = plc_edge(sup, (0, 1), L)
    assert w is not None
    assert w.coefficients == (1, 1) and w.target == (1, 1, 0)


def test_plc_edge_no_witness():
    f2 = field_create(2)
    sup = identity_supply(f2, 3)
    L = subspace_from_rows(MatrixGF(f2, [[0, 1, 0], [0, 0, 1]]))  # x1 = 0
    assert plc_edge(sup, (0,), L) is None


def test_plc_edge_size_cap():
    f2 = field_create(2)
    sup = identity_supply(f2, 4)
    L = subspace_from_rows(MatrixGF(f2, [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]]))
    with pytest.raises(ValueError):
        plc_edge(sup, (0, 1, 2), L)  # codim 1 caps edges at size 2
    # e1+e2+e3+e4 has coordinate sum 0, so it lies in the hyperplane L
    w = plc_edge(sup, (0, 1, 2, 3), L, size_cap=4)
    assert w is not None and w.target == (1, 1, 1, 1)


def test_plc_edge_matches_brute_force():
    rng = np.random.default_rng(5)
    f3 = field_create(3)
    for _ in range(60):
        k = int(rng.integers(3, 6))
        n = int(rng.integers(3, 7))
        data = rng.integers(0, 3, size=(k, n))
        try:
            sup = PointSupply(MatrixGF(f3, data), "rand")
        except ValueError:
            continue
        L = random_subspace(f3, k, int(rng.integers(1, k)), rng)
        size = int(rng.integers(1, min(4, n + 1)))
        X = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
        got = plc_edge(sup, X, L, size_cap=len(X))
        expect = brute_force_plc(sup, X, L)
        assert (got is None) == (expect is None)
        if got is not None:
            got.check(sup, L)


def test_plc_edge_is_brute_force_first_hit():
    # the witness is the lexicographically least all-nonzero combination,
    # which is the oracle's first hit (it has first coefficient 1)
    rng = np.random.default_rng(7)
    for p, m in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2)]:
        fld = field_create(p, m)
        for _ in range(15):
            k = int(rng.integers(3, 6))
            data = rng.integers(0, fld.q, size=(k, 6))
            try:
                sup = PointSupply(MatrixGF(fld, data), "rand")
            except ValueError:
                continue
            L = random_subspace(fld, k, int(rng.integers(1, k)), rng)
            size = int(rng.integers(1, 5))
            X = tuple(sorted(rng.choice(6, size=size, replace=False).tolist()))
            got = plc_edge(sup, X, L, size_cap=size)
            expect = brute_force_plc(sup, X, L)
            assert (None if got is None else got.coefficients) == expect
            if got is not None:
                got.check(sup, L)


def test_build_plc_full_space_keeps_everything():
    f3 = field_create(3)
    sup = identity_supply(f3, 4)
    L = subspace_from_rows(identity_matrix(f3, 4))
    cands = [(0,), (1, 2), (0, 2, 3)]
    h, wit = build_plc_hypergraph(sup, L, cands, size_cap=3)
    assert h.m == 3 and set(wit) == {(0,), (1, 2), (0, 2, 3)}


def test_build_plc_zero_space_empty():
    f3 = field_create(3)
    sup = identity_supply(f3, 4)  # independent columns
    L = subspace_from_rows(zero_matrix(f3, 1, 4))
    h, wit = build_plc_hypergraph(sup, L, [(0,), (0, 1), (1, 2, 3)], size_cap=3)
    assert h.m == 0 and not wit


def test_build_plc_cherries_match_subset_calls():
    fld = field_create(5)
    sup = supply_mds(fld, 3, 4)
    rng = np.random.default_rng(9)
    L = random_subspace(fld, 3, 1, rng)
    cherries = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    cands = set()
    for ch in cherries:
        for size in (1, 2, 3):
            cands.update(itertools.combinations(ch, size))
    h, wit = build_plc_hypergraph(sup, L, cands, size_cap=3)
    for cand in sorted(cands):
        expect = plc_edge(sup, cand, L, size_cap=3)
        assert (cand in wit) == (expect is not None)


def test_hypergraph_validation():
    with pytest.raises(ValueError):
        Hypergraph.from_edges(3, [()])
    with pytest.raises(ValueError):
        Hypergraph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Hypergraph.from_edges(3, [(0, 1, 2)], max_edge_size=2)
    h = Hypergraph.from_edges(4, [(1, 0), (0, 1)])
    assert h.edges == ((0, 1),)


def test_tree_like_graph_tree():
    # leaf removal on a tree succeeds with s=2
    h = Hypergraph.from_edges(6, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)])
    order = tree_like_order(h, 2)
    assert order is not None
    assert check_elimination_order(h, order)


def test_tree_like_tight_path():
    for r, ell in [(2, 5), (3, 4), (4, 3)]:
        n = ell + r - 1
        edges = [tuple(range(i, i + r)) for i in range(ell)]
        h = Hypergraph.from_edges(n, edges)
        order = tree_like_order(h, r)
        assert order is not None
        assert check_elimination_order(h, order)


def test_tree_like_single_edge():
    s = 4
    h = Hypergraph.from_edges(s, [tuple(range(s))])
    order = tree_like_order(h, s)
    assert order is not None and len(order.witness_edges) == 1


def test_tree_like_not_bounded():
    h = Hypergraph.from_edges(4, [(0, 1, 2, 3)])
    with pytest.raises(ValueError):
        tree_like_order(h, 3)


def test_tree_like_failure_detected():
    # a 4-cycle has no degree-1 vertex at the start, and backtracking
    # correctly reports that it is not 2-tree-like
    h = Hypergraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert tree_like_order(h, 2) is None


def test_tree_like_backtracking_beats_greedy():
    # 3 goes first and the triangle then has no vertex of degree 1; the
    # least-index rule stalls only where no order exists (tree_like_order)
    h = Hypergraph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    order = tree_like_order(h, 2)
    if order is not None:
        assert check_elimination_order(h, order)


def _planted_hypergraph(rnd, n, s):
    """An s-tree-like hypergraph by construction (vertex i's edge holds i and
    up to s - 1 later vertices), relabelled at random, plus 0-3 random edges
    of size at most s, which may break it; `rnd` is a `random.Random`."""
    edges = [[i, *rnd.sample(range(i + 1, n), rnd.randint(1, min(s, n - i)) - 1)]
             for i in range(max(n - s + 1, 0))]
    edges += [rnd.sample(range(n), rnd.randint(1, min(s, n))) for _ in range(rnd.randint(0, 3))]
    perm = rnd.sample(range(n), n)
    return Hypergraph.from_edges(n, [[perm[v] for v in e] for e in edges], max_edge_size=s)


def test_tree_like_order_matches_the_two_pass_search():
    # The two-pass search backtracked after a stalled greedy pass up to 20
    # vertices: here from 2 to 14 (it backtracks on every None) and from 21
    # to 27 (it does not).  Its backtracking costs up to seconds per None at
    # 18-20 vertices, where the new search takes milliseconds.
    rnd = random.Random(22)
    sizes = [*range(2, 15), *range(21, 28)]
    seen = {(small, found): 0 for small in (True, False) for found in (True, False)}
    for _ in range(2000):
        n, s = rnd.choice(sizes), rnd.randint(1, 3)
        h = _planted_hypergraph(rnd, n, s)
        got = tree_like_order(h, s)
        assert got == tree_like_order_two_pass(h, s)
        assert got is None or check_elimination_order(h, got)
        seen[n <= 14, got is not None] += 1
    assert min(seen.values()) >= 150, seen


@pytest.mark.parametrize("n", [20, 21])
@pytest.mark.parametrize("cycle", [3, 4, 7])
def test_tree_like_order_matches_on_both_sides_of_the_old_limit(n, cycle):
    # A cycle with a path hanging off it: the least-index rule eats the path
    # and stalls on the cycle, which the two-pass search then backtracked
    # over at n = 20 but not at 21; with the cycle's edge dropped, a path.
    path = [(v, v + 1) for v in range(cycle - 1, n - 1)]
    loop = [(v, v + 1) for v in range(cycle - 1)] + [(0, cycle - 1)]
    for edges, tree_like in [(path + loop, False), (path + loop[:-1], True)]:
        h = Hypergraph.from_edges(n, edges)
        got = tree_like_order(h, 2)
        assert got == tree_like_order_two_pass(h, 2)
        assert (got is not None) == tree_like


def test_tree_like_order_on_long_paths_and_cycles():
    # 20,000 vertices: recounting every live degree at each removal, as the
    # search once did, takes 0.84 s at 1,000 and grows as n^2.
    n = 20_000
    path = [(v, v + 1) for v in range(n - 1)]
    got = tree_like_order(Hypergraph.from_edges(n, path), 2)
    assert got.order == tuple(range(n)) and got.witness_edges == tuple(path)
    assert tree_like_order(Hypergraph.from_edges(n, path + [(0, n - 1)]), 2) is None


@pytest.mark.parametrize("n, s", [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2)])
def test_greedy_elimination_is_complete(n, s):
    # Every hypergraph on n vertices with edges of size <= s: the
    # least-index rule finds an order exactly when backtracking does.
    pool = [e for r in range(1, s + 1) for e in itertools.combinations(range(n), r)]
    found = 0
    for mask in range(1 << len(pool)):
        h = Hypergraph.from_edges(n, [e for i, e in enumerate(pool) if mask >> i & 1],
                                  max_edge_size=s)
        got = tree_like_order(h, s)
        assert got == tree_like_order_two_pass(h, s)
        found += got is not None
    assert 0 < found < 1 << len(pool)


def test_certificate_spanning_tree():
    # a spanning tree of proper-pair edges certifies dimension >= k - 1
    f2 = field_create(2)
    sup = PointSupply(identity_matrix(f2, 4), "test")
    L = subspace_from_rows(MatrixGF(f2, [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]]))
    h, wit = build_plc_hypergraph(sup, L, [(0, 1), (1, 2), (2, 3)])
    order = tree_like_order(h, 2)
    cert = certify(sup, L, h, wit, order)
    assert cert.achieved_dim >= 4 - 2 + 1


def test_certificate_single_edge():
    f3 = field_create(3)
    sup = supply_mds(f3, 3, 3)
    L = subspace_from_rows(identity_matrix(f3, 3))
    h, wit = build_plc_hypergraph(sup, L, [(0, 1, 2)], size_cap=3)
    order = tree_like_order(h, 3)
    cert = certify(sup, L, h, wit, order)
    assert cert.m_matrix.rows == 1
    assert cert.achieved_dim >= rank(cert.n_matrix) - 3 + 1


def test_certificate_missing_witness_and_bad_order():
    f2 = field_create(2)
    sup = PointSupply(identity_matrix(f2, 4), "test")
    L = subspace_from_rows(MatrixGF(f2, [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]]))
    h, wit = build_plc_hypergraph(sup, L, [(0, 1), (1, 2), (2, 3)])
    order = tree_like_order(h, 2)
    with pytest.raises(CertificateError):
        certify(sup, L, h, {}, order)
    from blockforge.lincomb import EliminationOrder
    bad = EliminationOrder(tuple(reversed(order.order)), 2, order.witness_edges)
    with pytest.raises(CertificateError):
        certify(sup, L, h, wit, bad)


def test_certificate_randomized_instances():
    rng = np.random.default_rng(11)
    for trial in range(40):
        q = int(rng.choice([2, 3, 5]))
        fld = field_create(q)
        s = int(rng.choice([1, 2, 3]))
        k = int(rng.integers(3, 9))
        n_max = min(10, (q ** k - 1) // (q - 1))
        n = int(rng.integers(max(2, s), n_max + 1))
        sup, L, h, wit, order = random_certificate_instance(fld, k, s, n, rng)
        assert check_elimination_order(h, order)
        cert = certify(sup, L, h, wit, order)
        assert cert.achieved_dim >= rank(cert.n_matrix) - s + 1
        # independent recount of the rank of M @ N
        assert cert.achieved_dim == rank(matmul(cert.m_matrix, cert.n_matrix))


def test_exactly_s_plus_one_edge_small():
    fld = field_create(7)
    sup = supply_mds(fld, 2, 6)
    rng = np.random.default_rng(13)
    L = random_subspace(fld, 2, 1, rng)  # a projective point, codim 1
    w = exactly_s_plus_one_edge(sup, range(6), L, 1)
    assert w is not None and len(w.edge) == 2
    w.check(sup, L)


def test_exactly_s_plus_one_edge_too_few_vertices():
    fld = field_create(7)
    sup = supply_mds(fld, 3, 4)
    rng = np.random.default_rng(17)
    L = random_subspace(fld, 3, 1, rng)
    assert exactly_s_plus_one_edge(sup, range(2), L, 2) is None


def test_exactly_s_plus_one_edge_q_le_s():
    fld = field_create(2)
    sup = PointSupply(identity_matrix(fld, 3), "test")
    rng = np.random.default_rng(19)
    L = random_subspace(fld, 3, 1, rng)
    with pytest.raises(ValueError):
        exactly_s_plus_one_edge(sup, range(3), L, 2)


def test_edge_witness_validation():
    with pytest.raises(ValueError):
        EdgeWitness((0, 1), (1, 0), (0, 0))
    with pytest.raises(ValueError):
        EdgeWitness((0, 1), (1,), (0, 0))

