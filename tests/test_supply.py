import io
import itertools
import json

import numpy as np
import pytest

from blockforge import supply
from blockforge.budgets import Budgets
from blockforge.gf import field_create
from blockforge.linalg import MatrixGF, normalize_rows, projective_reps, rank
from blockforge.supply import (GeneralPositionReport, PointSupply, dual_distance,
                               read_supply, supply_mds, supply_random_verified,
                               verify_general_position, write_supply)

from helpers import (dual_distance_by_codewords, dual_distance_by_ranks,
                     general_position_by_draws, identity_matrix, random_columns_by_loop)


def test_mds_gf5_every_triple_independent():
    fld = field_create(5)
    sup = supply_mds(fld, 3, 5)
    assert sup.n == 5
    for cols in itertools.combinations(range(5), 3):
        assert rank(MatrixGF(fld, sup.matrix.data[:, cols])) == 3


def test_mds_field_too_small():
    with pytest.raises(ValueError):
        supply_mds(field_create(2), 3, 5)


def test_mds_extended_column():
    fld = field_create(5)
    sup = supply_mds(fld, 3, 6)  # n = q + 1 appends e_k
    assert np.array_equal(sup.matrix.data[:, 5], [0, 0, 1])
    for cols in itertools.combinations(range(6), 3):
        assert rank(MatrixGF(fld, sup.matrix.data[:, cols])) == 3


def test_verify_identity_columns():
    fld = field_create(3)
    sup = PointSupply(identity_matrix(fld, 4), "test")
    rep = verify_general_position(sup)
    assert rep.s_independence == 3
    assert rep.span_threshold == 4
    assert rep.method == "exhaustive"


def test_verify_mds_reports():
    fld = field_create(7)
    rep = verify_general_position(supply_mds(fld, 3, 6))
    assert rep.s_independence == 2 and rep.span_threshold == 3
    rep7 = verify_general_position(supply_mds(fld, 3, 7))
    assert rep7.s_independence == 2 and rep7.span_threshold == 3


def test_supply_rejects_zero_and_duplicate_columns():
    fld = field_create(3)
    with pytest.raises(ValueError, match="vector 1 is zero"):
        PointSupply(MatrixGF(fld, [[1, 0], [0, 0]]), "bad")
    with pytest.raises(ValueError):
        PointSupply(MatrixGF(fld, [[1, 2], [1, 2]]), "bad")  # 2*(1,1) = (2,2)
    # columns a, b, 2b, 2a with a sorted before b: the earliest repeat is 2
    with pytest.raises(ValueError, match="column 2 repeats"):
        PointSupply(MatrixGF(fld, [[0, 1, 2, 0], [1, 0, 0, 2]]), "bad")


def test_random_verified_deterministic():
    # (GF(3), k=4, n=12, s=2, t=10): dependent triples are common at this
    # density, so the search may legitimately fail -- but it must do so
    # deterministically, and the verification is the oracle either way.
    fld = field_create(3)

    def run():
        try:
            return supply_random_verified(fld, 4, 12, s=2, t=10, seed=1)
        except ValueError as exc:
            return str(exc)

    first, second = run(), run()
    if isinstance(first, str):
        assert first == second
    else:
        assert np.array_equal(first[0].matrix.data, second[0].matrix.data)
        assert first[1] == second[1]
        assert first[1].s_independence >= 2
        assert first[1].span_threshold is not None and first[1].span_threshold <= 10


def test_random_verified_succeeds_easy_target():
    fld = field_create(3)
    sup, rep = supply_random_verified(fld, 4, 12, s=1, t=12, seed=1)
    assert rep.s_independence >= 1
    assert rep.span_threshold is not None and rep.span_threshold <= 12
    assert rep.method == "exhaustive"


def test_random_verified_s_too_large():
    with pytest.raises(ValueError):
        supply_random_verified(field_create(3), 4, 12, s=4, t=10)


def test_random_verified_identity_scale():
    # n = k, s = k-1, t = k is feasible (the identity columns qualify);
    # the random search must find some qualifying supply
    fld = field_create(5)
    sup, rep = supply_random_verified(fld, 3, 3, s=2, t=3, seed=0)
    assert rep.s_independence == 2 and rep.span_threshold == 3


@pytest.mark.parametrize("p,m,k,n", [(2, 1, 3, 7), (2, 1, 4, 15), (2, 1, 4, 9), (2, 1, 5, 20),
                                     (3, 1, 3, 13), (3, 1, 4, 30), (2, 2, 3, 21), (5, 1, 3, 12),
                                     (7, 1, 2, 8), (3, 2, 3, 40), (13, 1, 4, 60), (3, 1, 6, 200)])
def test_block_draw_matches_the_draw_at_a_time_loop(p, m, k, n):
    # (2, 1, 3, 7) and (2, 1, 4, 15) draw all of PG(2, 2) and PG(3, 2): many
    # rounds of repeats; the generator must be left in the same state as well.
    fld = field_create(p, m)
    for seed in range(4):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = supply._random_columns(fld, k, n, got_rng)
        want = random_columns_by_loop(fld, k, n, want_rng)
        assert np.array_equal(got, want)
        assert got_rng.integers(0, 1 << 30, size=4).tolist() == \
            want_rng.integers(0, 1 << 30, size=4).tolist()


@pytest.mark.parametrize("q,k,n,s,t,seed", [(3, 4, 12, 2, 10, 1), (3, 4, 12, 1, 12, 1),
                                            (5, 3, 3, 2, 3, 0), (2, 5, 12, 2, 10, 3),
                                            (7, 3, 10, 2, 8, 5)])
def test_random_verified_matches_the_draw_at_a_time_loop(monkeypatch, q, k, n, s, t, seed):
    fld = field_create(q)

    def run():
        try:
            sup, rep = supply_random_verified(fld, k, n, s=s, t=t, seed=seed)
            return sup.matrix.data.tolist(), rep.to_dict()
        except ValueError as exc:
            return str(exc)
    got = run()
    monkeypatch.setattr(supply, "_random_columns", random_columns_by_loop)
    assert got == run()


def test_dual_distance_paths_agree():
    rng = np.random.default_rng(3)
    cases = [(2, 3, 6), (2, 4, 8), (3, 3, 6), (3, 2, 7), (5, 3, 6)]
    for q, k, n in cases:
        fld = field_create(q)
        for _ in range(5):
            data = rng.integers(0, q, size=(k, n))
            # columns need not be a valid supply for this equivalence
            m = MatrixGF(fld, data)
            if q ** (n - rank(m)) > 10 ** 6:
                continue
            assert dual_distance(m) == dual_distance_by_codewords(m)


def test_dual_distance_mds():
    # dual of an MDS code is MDS: minimum dependent subset has size k+1
    fld = field_create(7)
    sup = supply_mds(fld, 3, 6)
    assert dual_distance(sup.matrix) == 4
    assert dual_distance_by_codewords(sup.matrix) == 4
    assert dual_distance_by_ranks(sup.matrix) == 4


def _oracle_matrices(seed, count):
    """`count` seeded random matrices over GF(2), GF(3), GF(4), GF(5) and
    GF(9) with k <= 4 and n <= min(8, k + 4), which keeps the null space
    that `dual_distance_by_codewords` sweeps small; every third one has a
    repeated row, so that a third are rank-deficient, and the small k and q
    make zero and repeated columns common."""
    rng = np.random.default_rng(seed)
    fields = [field_create(p, m) for p, m in [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]]
    for i in range(count):
        fld = fields[i % len(fields)]
        k = int(rng.integers(1, 5))
        n = int(rng.integers(1, min(8, k + 4) + 1))
        data = rng.integers(0, fld.q, size=(k, n))
        if i % 3 == 0 and k > 1:
            data[int(rng.integers(1, k))] = data[0]
        yield MatrixGF(fld, data)


def test_dual_distance_matches_both_oracles():
    # MacWilliams on one codeword sweep against the column-subset rank sweep
    # it replaced and against the least weight of the null space
    seen = {"deficient": 0, "n<=k": 0, "none": 0}
    for m in _oracle_matrices(26, 520):
        got = dual_distance(m)
        assert got == dual_distance_by_ranks(m) == dual_distance_by_codewords(m), m.data
        seen["deficient"] += rank(m) < m.rows
        seen["n<=k"] += m.cols <= m.rows
        seen["none"] += got is None
    assert min(seen.values()) >= 20, seen


def test_exact_gate_is_one_codeword_sweep(monkeypatch):
    sup = supply_mds(field_create(11), 6, 10)
    want = verify_general_position(sup)
    sweeps, ranked = [], []
    real = supply.rref_blocks

    def spy_sweep(field, k, dim, *rest):
        sweeps.append((field.q, k, dim, *rest))
        return real(field, k, dim, *rest)
    real_deficient = supply._rank_deficient

    def spy_ranks(*args):
        ranked.append(args)
        return real_deficient(*args)
    monkeypatch.setattr(supply, "rref_blocks", spy_sweep)
    monkeypatch.setattr(supply, "_rank_deficient", spy_ranks)
    assert verify_general_position(sup) == want
    assert want == GeneralPositionReport(5, 6, "exhaustive")
    assert sweeps == [(11, 6, 1)] and ranked == []
    # the sampled path still ranks its draws, through the same spy
    verify_general_position(sup, 5, 6, budgets=Budgets(subsets=1), samples=3)
    assert len(ranked) == 2 and sweeps == [(11, 6, 1)]


def _dependent_triple_supply():
    """7 columns of PG(3, 3) holding the dependent triple e1, e2, e1 + e2."""
    fld = field_create(3)
    cols = [[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
            [1, 0, 1, 1], [0, 1, 2, 1]]
    return PointSupply(MatrixGF(fld, np.array(cols).T), "test")


@pytest.mark.parametrize("samples", [0, -1])
def test_sampled_check_needs_a_draw(samples):
    sup = _dependent_triple_supply()
    assert verify_general_position(sup).s_independence == 1
    tiny = Budgets(subsets=1, codewords=1)
    with pytest.raises(ValueError, match=f"samples={samples}"):
        verify_general_position(sup, 2, 4, budgets=tiny, samples=samples)


def test_random_verified_names_infeasible_parameters():
    with pytest.raises(ValueError, match="infeasible parameters k=4, n=3, t=5"):
        supply_random_verified(field_create(3), 4, 3, s=1, t=5)


def test_supply_round_trip(tmp_path):
    fld = field_create(7)
    sup = supply_mds(fld, 3, 6)
    rep = verify_general_position(sup)
    path = tmp_path / "supply.pts"
    write_supply(path, sup, rep)
    again, rep2 = read_supply(path)
    assert np.array_equal(again.matrix.data, sup.matrix.data)
    assert again.provenance == "mds"
    assert rep2 == rep
    assert verify_general_position(again) == rep
    (tmp_path / "supply.pts.json").unlink()
    again, rep2 = read_supply(path)
    assert np.array_equal(again.matrix.data, sup.matrix.data)
    assert again.provenance == "file" and rep2 is None
    # a stream carries the matrix alone, byte for byte the file's
    out = io.BytesIO()
    write_supply(out, sup, rep)
    assert out.getvalue() == path.read_bytes()
    again, rep2 = read_supply(io.BytesIO(out.getvalue()))
    assert np.array_equal(again.matrix.data, sup.matrix.data)
    assert again.provenance == "file" and rep2 is None


TINY = Budgets(subsets=1, codewords=1)  # forces the sampled path


def _sampled_supply(supply_seed):
    """14 random points of PG(3, 3)."""
    fld = field_create(3)
    pts = projective_reps(fld, 4)
    cols = pts[np.random.default_rng(supply_seed).choice(len(pts), size=14, replace=False)]
    return PointSupply(MatrixGF(fld, cols.T), "random")


def _sampled_general_position(supply_seed, cases, samples=40):
    """Sampled-path reports for the supply `_sampled_supply(supply_seed)`."""
    sup = _sampled_supply(supply_seed)
    return [verify_general_position(sup, s, t, budgets=TINY, samples=samples,
                                    seed=seed).to_dict() for s, t, seed in cases]


def test_sampled_general_position_report_bytes():
    # pinned from the block-drawn subsets, and confirmed one draw at a time:
    # a miss in the (s+1)-subset loop, a miss in each t-subset loop, a pass
    cases = [(2, 4, 0), (2, 4, 4), (1, 6, 0), (1, 6, 1)]
    got = _sampled_general_position(2, cases)
    assert json.dumps(got) == json.dumps([
        {"s_independence": 0, "span_threshold": None, "method": "sampled"},
        {"s_independence": 2, "span_threshold": None, "method": "sampled"},
        {"s_independence": 1, "span_threshold": None, "method": "sampled"},
        {"s_independence": 1, "span_threshold": 6, "method": "sampled"}])
    sup = _sampled_supply(2)
    assert got == [general_position_by_draws(sup, s, t, 40, seed).to_dict()
                   for s, t, seed in cases]


def test_sampled_general_position_matches_per_draw_ranks():
    got, outcomes = 0, set()
    for supply_seed in range(5):
        sup = _sampled_supply(supply_seed)
        for s, t in [(2, 4), (1, 4), (1, 6), (3, 5)]:
            for seed in range(5):
                want = general_position_by_draws(sup, s, t, 30, seed)
                assert verify_general_position(sup, s, t, budgets=TINY, samples=30,
                                               seed=seed) == want, (supply_seed, s, t, seed)
                got += 1
                outcomes.add((want.s_independence == s, want.span_threshold == t))
    assert got >= 100 and outcomes == {(False, False), (True, False), (True, True)}


@pytest.mark.parametrize("n,size", [(1, 1), (6, 1), (6, 3), (6, 6), (50, 40), (2184, 40)])
def test_drawn_subsets_hold_distinct_indices(n, size):
    picks = supply._draw_subsets(np.random.default_rng(n + size), n, size, 500)
    assert picks.shape == (500, size) and picks.min() >= 0 and picks.max() < n
    assert (np.diff(np.sort(picks, axis=1), axis=1) > 0).all()


def test_drawn_subsets_are_uniform():
    picks = supply._draw_subsets(np.random.default_rng(5), 6, 3, 20_000)
    counts = np.bincount(np.sort(picks, axis=1) @ [36, 6, 1])  # a subset's base-6 digits
    counts = counts[counts > 0]
    # 1,000 expected per subset, standard deviation about 31
    assert len(counts) == 20 and 850 < counts.min() <= counts.max() < 1150


def test_drawn_subsets_do_not_depend_on_the_draw_size():
    one = supply._draw_subsets(np.random.default_rng(3), 30, 7, 100)
    rng = np.random.default_rng(3)
    assert np.array_equal(one, np.vstack([supply._draw_subsets(rng, 30, 7, m)
                                          for m in (1, 33, 66)]))


def test_sampled_path_makes_no_choice_call(monkeypatch):
    sup, names, default_rng = _sampled_supply(2), [], np.random.default_rng

    class Spy:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def __getattr__(self, name):
            names.append(name)
            return getattr(self.rng, name)

    monkeypatch.setattr(np.random, "default_rng", Spy)
    verify_general_position(sup, 1, 6, budgets=TINY, samples=40, seed=1)
    assert "random" in names and "choice" not in names


def _rank_chunk_outputs():
    cases = [(s, t, seed) for s, t in [(2, 4), (1, 4), (1, 6), (3, 5)] for seed in range(3)]
    return [_sampled_general_position(i, cases, samples=25) for i in range(3)]


@pytest.mark.parametrize("chunk", [1, 3])
def test_rank_chunk_does_not_change_results(monkeypatch, chunk):
    default = _rank_chunk_outputs()
    monkeypatch.setattr(supply, "RANK_CHUNK", chunk)
    assert _rank_chunk_outputs() == default


def test_report_round_trip_dict():
    rep = GeneralPositionReport(2, 3, "exhaustive")
    assert GeneralPositionReport.from_dict(rep.to_dict()) == rep


def test_normalize_rows_reduces_a_prime_fields_leads_first():
    # an out-of-range lead was looked up in the inverse table: a bare IndexError
    f3, f5 = field_create(3), field_create(5)
    assert normalize_rows(f3, np.array([[0, 5]])).tolist() == [[0, 1]]
    assert normalize_rows(f5, np.array([[5, 1]])).tolist() == [[0, 1]]
    assert normalize_rows(f5, np.array([[-3, 1], [7, 10]])).tolist() == [[1, 3], [1, 0]]
    with pytest.raises(ValueError, match="vector 0 is zero"):
        normalize_rows(f3, np.array([[0, 3]]))


@pytest.mark.parametrize("row", [[1, 10], [1, 9], [9, 1], [1, -1]])
def test_normalize_rows_rejects_entries_outside_an_extension_field(row):
    # [1, 10] became [1, 2] and [1, 9] became [1, 0]: the tables were read past the row
    with pytest.raises(ValueError, match=r"must lie in \[0, 9\)"):
        normalize_rows(field_create(3, 2), np.array([row]))


@pytest.mark.parametrize("p,m", [(3, 1), (2, 2), (257, 1)])
def test_normalize_rows_keeps_an_empty_blocks_type(p, m):
    fld = field_create(p, m)
    out = normalize_rows(fld, np.zeros((0, 4), dtype=fld.dtype))
    assert out.shape == (0, 4) and out.dtype == fld.dtype


@pytest.mark.parametrize("s,t,need", [(-1, 4, "s >= 0"), (2, 99, "1 <= t <= n=6"),
                                      (2, 7, "1 <= t <= n=6"), (2, 0, "1 <= t <= n=6")])
def test_general_position_rejects_s_or_t_out_of_range(s, t, need):
    # the sampled path reported s_independence -1 or span_threshold 99 > n
    sup = supply_mds(field_create(7), 3, 6)
    for budgets in (Budgets(), Budgets(subsets=1)):  # the exact path, then the sampled one
        with pytest.raises(ValueError, match=f"need {need}"):
            verify_general_position(sup, s, t, budgets=budgets, samples=10)
    edge = verify_general_position(sup, 2, 6, budgets=Budgets(subsets=1), samples=10)
    assert edge == GeneralPositionReport(2, 6, "sampled")  # t = n is in range


@pytest.mark.parametrize("p,m", [(3, 1), (7, 1), (2, 2), (3, 2)])
def test_normalize_rows_copies_canonical_rows(monkeypatch, p, m):
    fld = field_create(p, m)
    rng = np.random.default_rng(p * m)
    rows = rng.integers(0, fld.q, (200, 5))
    rows = rows[rows.any(axis=1)]
    lead = rows[np.arange(len(rows)), (rows != 0).argmax(axis=1)]
    want = fld.mul_arr(fld.inv_arr(lead)[:, None], rows)
    cases = [(rows, True), (want, False)]
    if m == 1:  # entries outside [0, p) are reduced mod p
        wide = want.copy()
        wide[::7, -1] += p * rng.integers(1, 3, len(wide[::7])) * rng.choice([-1, 1])
        cases.append((wide, True))
    mul = type(fld).mul_arr
    calls = []

    def spy(self, a, b):
        calls.append(np.shape(b))
        return mul(self, a, b)
    monkeypatch.setattr(type(fld), "mul_arr", spy)
    for given, multiplied in cases:
        before = given.copy()
        calls.clear()
        out = normalize_rows(fld, given)
        assert np.array_equal(out, want)
        assert calls == ([given.shape] if multiplied else [])
        assert not np.shares_memory(out, given) and np.array_equal(given, before)
