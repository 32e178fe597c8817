import json

import numpy as np
import pytest

from blockforge.construct import BlockingSet, lower_bound
from blockforge.errors import BudgetExceededError
from blockforge.expander import complete_graph
from blockforge.gf import field_create
from blockforge import linalg, verify
from blockforge.linalg import (MatrixGF, gaussian_binomial, kernel_basis, projective_reps,
                               quotient_map, rank, rref, rref_blocks, subspace_from_rows)
from blockforge.mincode import LinearCode, blocking_to_code, is_s_minimal
from blockforge.supply import supply_mds
from blockforge.verify import (blocks_affine, is_strong_blocking,
                               is_strong_blocking_sampled, minimum_size_search,
                               to_affine_blocking)
from blockforge.construct import construct_cherry

from helpers import PINNED_CODE, enumerate_subspaces, meet_ranks_by_basis


def all_projective_points(fld, k):
    pts = projective_reps(fld, k)
    return BlockingSet.from_points(fld, pts, {"construction": "all"})


def hyperplane_points(fld, k):
    # all projective points with last coordinate zero: a single hyperplane
    pts = projective_reps(fld, k - 1)
    padded = np.hstack([pts, np.zeros((pts.shape[0], 1), dtype=np.int64)])
    return BlockingSet.from_points(fld, padded, {"construction": "hyperplane"})


def test_full_point_set_passes():
    for q, k, s in [(2, 3, 1), (3, 3, 2), (2, 4, 2)]:
        fld = field_create(q)
        rep = is_strong_blocking(all_projective_points(fld, k), s)
        assert rep.passed
        assert rep.subspaces_checked == gaussian_binomial(k, k - s, q)


def test_hyperplane_fails_with_counterexample():
    fld = field_create(2)
    b = hyperplane_points(fld, 3)
    rep = is_strong_blocking(b, 1)
    assert not rep.passed
    ce = rep.counterexample
    assert ce is not None and ce.rank < 3 - 1
    # counterexample validity re-verified independently
    q_map = quotient_map(ce.subspace)
    images = fld.matmul_arr(q_map.data, b.points.T)
    inside = b.points[~images.any(axis=0)]
    got = rank(MatrixGF(fld, inside)) if inside.size else 0
    assert got == ce.rank < 2


def test_count_all_mode():
    fld = field_create(2)
    b = hyperplane_points(fld, 3)
    rep = is_strong_blocking(b, 1, count_all=True)
    assert not rep.passed
    assert rep.subspaces_checked == gaussian_binomial(3, 2, 2)
    assert rep.counterexample_count == 6  # every hyperplane except b itself


def test_invalid_s():
    fld = field_create(2)
    b = all_projective_points(fld, 3)
    with pytest.raises(ValueError):
        is_strong_blocking(b, 0)
    with pytest.raises(ValueError):
        is_strong_blocking(b, 3)


def test_budget_error():
    fld = field_create(2)
    b = all_projective_points(fld, 3)
    with pytest.raises(BudgetExceededError):
        is_strong_blocking(b, 1, budget=3)


def test_shard_reports_identical_pass_and_fail():
    fld = field_create(5)
    good = construct_cherry(complete_graph(4), supply_mds(fld, 3, 4))
    bad = hyperplane_points(fld, 3)
    for b, s in [(good, 2), (bad, 1), (bad, 2)]:
        reports = [is_strong_blocking(b, s, jobs=j).to_dict() for j in (1, 2, 3, 5)]
        blobs = {json.dumps(r, sort_keys=True) for r in reports}
        assert len(blobs) == 1


def test_identical_runs_give_equal_reports():
    # reports hold no timer, so two runs compare equal as objects, not only as JSON
    fld = field_create(5)
    good = construct_cherry(complete_graph(4), supply_mds(fld, 3, 4))
    bad = hyperplane_points(fld, 3)
    for b, s in [(good, 2), (bad, 1), (bad, 2)]:
        assert is_strong_blocking(b, s) == is_strong_blocking(b, s)
        assert is_strong_blocking(b, s, count_all=True) == is_strong_blocking(b, s, count_all=True)
        assert is_strong_blocking_sampled(b, s, 20, 3) == is_strong_blocking_sampled(b, s, 20, 3)
    code = blocking_to_code(good)
    for s in (1, 2, 3, 4):
        assert is_s_minimal(code, s) == is_s_minimal(code, s)
    # a failing report holds its violating pair as arrays
    pinned = LinearCode(MatrixGF(field_create(2), PINNED_CODE))
    failing = is_s_minimal(pinned, 2)
    assert not failing.passed and failing == is_s_minimal(pinned, 2)
    assert failing != is_s_minimal(pinned, 1) and failing != is_s_minimal(code, 2)


def test_sampled_never_refutes_a_passing_set():
    fld = field_create(3)
    b = all_projective_points(fld, 3)
    rep = is_strong_blocking_sampled(b, 1, trials=200, seed=0)
    assert rep.passed and rep.subspaces_checked == 200


def test_sampled_finds_hyperplane_counterexample_fast():
    fld = field_create(2)
    b = hyperplane_points(fld, 3)
    rep = is_strong_blocking_sampled(b, 1, trials=500, seed=1)
    assert not rep.passed
    assert rep.subspaces_checked < 20  # failure density ~ 6/7


def test_sampled_deterministic():
    fld = field_create(3)
    b = all_projective_points(fld, 3)
    r1 = is_strong_blocking_sampled(b, 2, trials=50, seed=9)
    r2 = is_strong_blocking_sampled(b, 2, trials=50, seed=9)
    assert json.dumps(r1.to_dict(), sort_keys=True) == json.dumps(r2.to_dict(), sort_keys=True)


def test_sampled_failure_report_bytes():
    # pinned from the per-trial rank loop that the batched meet-rank replaced
    expected = [
        '{"mode": "sampled", "s": 2, "subspaces_checked": 1, "result": "fail", '
        '"counterexample": {"basis": [[0, 1, 0, 1], [0, 0, 1, 1]], "rank": 1, "index": 0}, '
        '"counterexample_count": null}',
        '{"mode": "sampled", "s": 1, "subspaces_checked": 3, "result": "fail", '
        '"counterexample": {"basis": [[1, 2, 0], [0, 0, 1]], "rank": 1, "index": 2}, '
        '"counterexample_count": null}']
    got = []
    for (p, m), k, s in [((3, 1), 4, 2), ((2, 2), 3, 1)]:
        fld = field_create(p, m)
        pts = projective_reps(fld, k)
        keep = np.random.default_rng(1).random(len(pts)) < 0.4
        b = BlockingSet.from_points(fld, pts[keep], {"construction": "random subset"})
        got.append(json.dumps(is_strong_blocking_sampled(b, s, 50, seed=3).to_dict()))
    assert got == expected


def test_sampled_pass_report_states_confidence():
    fld = field_create(3)
    b = all_projective_points(fld, 3)
    for trials in (1, 12, 200):
        rep = is_strong_blocking_sampled(b, 1, trials=trials, seed=0).to_dict()
        below = rep.pop("confidence")
        assert below["level"] == 0.95
        assert below["bad_fraction_below"] == pytest.approx(1 - 0.05 ** (1 / trials), rel=1e-12)
        # no failure in T draws is a 5% event once the bad fraction reaches the bound
        assert (1 - below["bad_fraction_below"]) ** trials == pytest.approx(0.05, rel=1e-9)
        assert rep == {"mode": "sampled", "s": 1, "subspaces_checked": trials, "result": "pass",
                       "counterexample": None, "counterexample_count": None}
    assert 0.0 < below["bad_fraction_below"] < 3 / 200
    failing = is_strong_blocking_sampled(hyperplane_points(field_create(2), 3), 1, 500, seed=1)
    exhaustive = is_strong_blocking(b, 1)
    assert "confidence" not in failing.to_dict() and "confidence" not in exhaustive.to_dict()


def test_exhaustive_and_sampled_agree():
    fld = field_create(5)
    good = construct_cherry(complete_graph(4), supply_mds(fld, 3, 4))
    assert is_strong_blocking(good, 2).passed
    assert is_strong_blocking_sampled(good, 2, trials=300, seed=3).passed


def test_to_affine_sizes():
    fld = field_create(5)
    b = construct_cherry(complete_graph(4), supply_mds(fld, 3, 4))
    aff = to_affine_blocking(b)
    assert aff.shape[0] == 4 * b.size + 1
    assert not aff[0].any()  # contains the origin


def test_to_affine_rejects_repeated_points():
    fld = field_create(5)
    with pytest.raises(ValueError, match="not projectively distinct"):
        b = BlockingSet(fld, 3, np.array([[1, 0, 0], [0, 1, 0], [1, 0, 0]]))
        to_affine_blocking(b)


def test_to_affine_gf2():
    fld = field_create(2)
    b = all_projective_points(fld, 3)
    aff = to_affine_blocking(b)
    assert aff.shape[0] == b.size + 1  # one nonzero scalar


def test_affine_blocking_check():
    fld = field_create(5)
    b = construct_cherry(complete_graph(4), supply_mds(fld, 3, 4))
    aff = to_affine_blocking(b)
    ok, _ = blocks_affine(aff, fld, 3)  # codim-3 affine subspaces = points of F_5^3
    assert ok
    # removing the origin breaks blocking at the single point {0}
    ok2, ce = blocks_affine(aff[1:], fld, 3)
    assert not ok2 and ce["label"] == 0


def random_subsets(fld, k, seed):
    """PG(k-1, q) itself, which passes for every s, and seeded random subsets
    of it from sparse (failing, some L missing every point) to dense."""
    pts = projective_reps(fld, k)
    rng = np.random.default_rng(seed)
    out = [BlockingSet.from_points(fld, pts, {"construction": "all"})]
    for frac in (0.15, 0.4, 0.7, 0.9):
        keep = rng.random(len(pts)) < frac
        if keep.any():
            out.append(BlockingSet.from_points(fld, pts[keep], {"construction": "random"}))
    return out


@pytest.mark.parametrize("p,m,k", [(2, 1, 4), (3, 1, 4), (2, 2, 3), (3, 2, 3),
                                   (5, 1, 3), (2, 1, 5), (2, 2, 4)])
def test_cover_scan_matches_meet_rank_scan(monkeypatch, p, m, k):
    fld = field_create(p, m)
    verdicts, deficits = set(), set()
    for b in random_subsets(fld, k, seed=p * 100 + m * 10 + k):
        for s in range(1, k):
            ranks = np.concatenate([meet_ranks_by_basis(fld, b.points, piv, block)
                                    for piv, block in rref_blocks(fld, k, k - s)])
            failing = np.nonzero(ranks < k - s)[0]
            assert verify._cover_scan(b, s).tolist() == failing.tolist()
            assert verify._meet_scan(b, s, True).tolist() == failing.tolist()
            assert verify._meet_scan(b, s, False)[:1].tolist() == failing[:1].tolist()
            deficits.update((k - s - ranks[failing]).tolist())
            reports = {}
            for cover in (True, False):
                monkeypatch.setattr(verify, "_prefers_cover", lambda *args, cover=cover: cover)
                reports[cover] = [json.dumps(is_strong_blocking(b, s, count_all=c).to_dict())
                                  for c in (False, True)]
            assert reports[True] == reports[False]
            verdicts.add(json.loads(reports[True][0])["result"])
    assert verdicts == {"pass", "fail"}
    if k > 3:  # some failing L has a rank deficit >= 2: several of its hyperplanes H miss it
        assert max(deficits) >= 2


def _failing_by_basis(b, s):
    """Canonical positions of the codimension-s subspaces whose meet with b
    does not span them, by the basis-side meet ranks."""
    fld, k = b.field, b.k
    ranks = np.concatenate([meet_ranks_by_basis(fld, b.points, piv, block)
                            for piv, block in rref_blocks(fld, k, k - s)])
    return np.nonzero(ranks < k - s)[0].tolist()


def _cover_images(monkeypatch, fld):
    """Record the left operand of every field matmul, and the prefix and tail
    key blocks of every `_cover_misses` call; returns (lefts, blocks)."""
    lefts, blocks = [], []
    matmul, misses = type(fld).matmul_arr, verify._cover_misses

    def spy_matmul(self, a, c):
        lefts.append(np.array(a))
        return matmul(self, a, c)

    def spy_misses(prefix, tail, mults, span):
        blocks.append((prefix.shape, tail.shape, span))
        return misses(prefix, tail, mults, span)
    monkeypatch.setattr(type(fld), "matmul_arr", spy_matmul)
    monkeypatch.setattr(verify, "_cover_misses", spy_misses)
    return lefts, blocks


@pytest.mark.parametrize("p,m,k", [(2, 1, 5), (3, 1, 4), (2, 2, 4), (3, 2, 3), (5, 1, 3)])
def test_cover_scan_chunks_match_the_basis_side_ranks(monkeypatch, p, m, k):
    # Chunks of one map, chunks that divide no row table, and tables of the
    # leading row too large to hold: every one gives the basis-side positions.
    fld = field_create(p, m)
    q = fld.q
    lefts, _ = _cover_images(monkeypatch, fld)
    per_chunk_leads = 0
    for b in random_subsets(fld, k, seed=p * 100 + m * 10 + k):
        for s in range(1, k):
            want = _failing_by_basis(b, s)
            one = max(b.size, q ** (s + 1))  # VERIFY_CHUNK entries per map
            lead = q ** (k - 1 - s)  # vectors of row 0 when its pivot is column 0
            for chunk in (1, (q + 1) * one, lead * b.size - 1):
                monkeypatch.setattr(verify, "VERIFY_CHUNK", chunk)
                lefts.clear()
                assert verify._cover_scan(b, s).tolist() == want
                # row 0 with its pivot at column 0, imaged for a chunk's vectors only
                per_chunk_leads += any(a[:, 0].all() and len(a) < lead for a in lefts)
    assert per_chunk_leads


@pytest.mark.parametrize("p,k", [(3, 4), (2, 5)])
def test_cover_scan_arrays_stay_within_the_chunk(monkeypatch, p, k):
    fld = field_create(p)
    lefts, blocks = _cover_images(monkeypatch, fld)
    for b in random_subsets(fld, k, seed=11):
        for s in range(1, k):
            span = fld.q ** (s + 1)
            for chunk in (1, 3 * b.size, 1 << 17):
                monkeypatch.setattr(verify, "VERIFY_CHUNK", chunk)
                lefts.clear()
                blocks.clear()
                verify._cover_scan(b, s)
                bound = max(chunk, b.size, span)  # or one map's N keys, or its key span
                assert blocks and lefts
                assert max(len(a) * b.size for a in lefts) <= bound  # the images
                for (groups, n), (last, n2), got_span in blocks:
                    assert n == n2 == b.size and got_span == span
                    assert groups * n <= bound and last * n <= bound
                    assert groups * last * n <= bound  # the chunk's keys
                    assert groups * last * span <= bound  # its hit flags


def test_cover_scan_images_each_row_vector_once(monkeypatch):
    # One row per imaged vector, never a map's s+1 rows: with tables that
    # fit, each row's q^(f_r) vectors are imaged once per pivot set, far
    # fewer rows than the old scan's (s+1) per map.
    fld = field_create(13)
    b = construct_cherry(complete_graph(10), supply_mds(fld, 4, 10))
    lefts, _ = _cover_images(monkeypatch, fld)
    k, s, q = 4, 2, 13
    verify._cover_scan(b, s)
    want = sum(q ** (k - 1 - piv - (s - r))
               for piv_set, _ in linalg._pivot_sets(q, k, s + 1)
               for r, piv in enumerate(piv_set))
    assert sum(len(a) for a in lefts) == want == 39 + 27 + 15 + 3
    for a in lefts:
        assert a.shape[1] == k and len(np.unique(a, axis=0)) == len(a)
        lead = (a != 0).argmax(axis=1)
        assert (a[np.arange(len(a)), lead] == 1).all() and len(set(lead.tolist())) == 1
    assert want < gaussian_binomial(k, s + 1, q)


def _kernel_sets(fld, k, seed):
    """Point sets for the kernel checks: a hyperplane, whose large deficient
    meets outgrow the kernel's sample, and for small spaces PG(k-1, q) and
    random subsets of it (`random_subsets`), otherwise random draws of 40,
    400 and 4000 vectors, whose meets range from empty to spanning."""
    if (fld.q ** k - 1) // (fld.q - 1) <= 2000:
        return random_subsets(fld, k, seed) + [hyperplane_points(fld, k)]
    rng = np.random.default_rng(seed)
    draws = (rng.integers(0, fld.q, size=(m, k)) for m in (40, 400, 4000))
    return ([BlockingSet.from_points(fld, d[d.any(axis=1)]) for d in draws]
            + [hyperplane_points(fld, k)])


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2)])
def test_meet_ranks_match_the_basis_side_ranks(monkeypatch, p, m):
    # Q x = 0 through the null-space maps, read at L's pivots, against
    # x == x[pivots] @ R with every point of L ranked; in blocks of
    # RREF_BLOCK subspaces and of one.
    fld = field_create(p, m)
    rng = np.random.default_rng(p * 10 + m)
    calls = []  # one entry per elimination; a second one in a call is the fallback
    ragged = verify._ragged_ranks

    def spy(*args):
        calls.append(None)
        return ragged(*args)
    monkeypatch.setattr(verify, "_ragged_ranks", spy)
    full = deficient = fallbacks = 0
    for k in range(3, 7):
        for b in _kernel_sets(fld, k, seed=k):
            for s in range(1, k):
                total = gaussian_binomial(k, k - s, fld.q)
                starts = rng.integers(0, total, size=3)
                windows = [(0, linalg.RREF_BLOCK)] + [(int(i), int(i) + 1) for i in starts]
                for lo, hi in windows:
                    for pivots, block in rref_blocks(fld, k, k - s, lo, hi):
                        want = meet_ranks_by_basis(fld, b.points, pivots, block).tolist()
                        calls.clear()
                        maps = linalg._null_space(fld, block, pivots)
                        got = verify._meet_ranks(fld, b.points, maps, pivots).tolist()
                        assert got == want
                        fallbacks += len(calls) > 1
                        full += want.count(k - s)
                        deficient += len(want) - want.count(k - s)
    assert full and deficient and fallbacks


def test_scan_choice_follows_the_family_sizes(monkeypatch):
    assert verify._prefers_cover(4, 2, 13)  # [4,3] + 13^3 = 2380 + 2197 < [4,2] = 31110
    assert not verify._prefers_cover(4, 1, 13)  # [4,2] + 13^2 = 31279 > [4,1] = 2380
    assert not verify._prefers_cover(4, 3, 2)  # [4,4] + 2^4 = 17 > [4,3] = 15
    b = all_projective_points(field_create(3), 4)

    def refuse(*args):
        raise AssertionError("the other scan ran")
    monkeypatch.setattr(verify, "_meet_scan", refuse)
    assert is_strong_blocking(b, 2).passed  # [4,3] + 27 = 67 < [4,2] = 130: cover
    monkeypatch.undo()
    monkeypatch.setattr(verify, "_cover_scan", refuse)
    assert is_strong_blocking(b, 1).passed  # [4,2] + 9 = 139 > [4,1] = 40: meet ranks


def _rref_block_outputs():
    """Results of every rref_blocks consumer on small instances, as JSON."""
    out = []
    for p, m, k in [(2, 1, 5), (3, 1, 4), (2, 2, 3), (3, 2, 3)]:
        fld = field_create(p, m)
        for codim in range(k + 1):
            total = gaussian_binomial(k, k - codim, fld.q)
            for lo, hi in [(0, None), (total // 3, 2 * total // 3 + 1)]:
                out.append([[L.basis.data.tolist(), L.pivots] for L in
                            enumerate_subspaces(fld, k, codim, start=lo, stop=hi)])
        out.append(projective_reps(fld, k).tolist())
    fld = field_create(5)
    good = construct_cherry(complete_graph(5), supply_mds(fld, 4, 5))
    pts = projective_reps(fld, 4)
    sparse = BlockingSet.from_points(fld, pts[::2], {"construction": "every other point"})
    for b in (good, sparse, hyperplane_points(fld, 4)):
        for s in (1, 2):
            for jobs in (1, 2, 3, 5):
                for count_all in (False, True):
                    out.append(is_strong_blocking(b, s, jobs=jobs, count_all=count_all).to_dict())
        aff = to_affine_blocking(b)
        out.append([blocks_affine(aff, fld, c) for c in (1, 2, 3)])
        out.append([blocks_affine(aff[::3], fld, c) for c in (1, 2, 3)])
    codes = [LinearCode(MatrixGF(field_create(2), PINNED_CODE)), blocking_to_code(good),
             blocking_to_code(sparse)]
    out.append([is_s_minimal(code, s).to_dict() for code in codes for s in (1, 2, 3)])
    return json.dumps(out)


@pytest.mark.parametrize("block", [1, 3])
def test_rref_block_size_does_not_change_results(monkeypatch, block):
    default = _rref_block_outputs()
    monkeypatch.setattr(linalg, "RREF_BLOCK", block)
    assert _rref_block_outputs() == default


def test_minimum_size_search_k2():
    fld = field_create(2)
    res = minimum_size_search(fld, 2, 1)
    assert res.exact and res.size == 3  # all of PG(1,2)


def test_minimum_size_search_k3():
    fld = field_create(2)
    res = minimum_size_search(fld, 3, 1)
    assert res.exact
    assert res.size >= lower_bound(2, 3, 1) == 6
    assert res.size == 6
    assert is_strong_blocking(res.blocking_set, 1).passed


def test_minimum_size_search_budget_zero():
    fld = field_create(2)
    res = minimum_size_search(fld, 3, 1, budget=0)
    assert not res.exact
    assert is_strong_blocking(res.blocking_set, 1).passed  # fallback is everything


@pytest.mark.parametrize("p,m", [(2, 1), (5, 1), (3, 2)])
def test_to_affine_matches_unique_of_the_orbits(p, m):
    fld = field_create(p, m)
    rows = np.random.default_rng(p * m).integers(0, fld.q, (40, 4))
    b = BlockingSet.from_points(fld, rows[rows.any(axis=1)])
    orbits = np.vstack([np.zeros((1, 4), dtype=np.int64)]
                       + [fld.mul_arr(lam, b.points) for lam in range(1, fld.q)])
    assert np.array_equal(to_affine_blocking(b), np.unique(orbits, axis=0))


def _meet_rank(b, L):
    """Rank of the points of b inside L, by membership Q x = 0 and one rank."""
    inside = b.points[~b.field.matmul_arr(quotient_map(L).data, b.points.T).any(axis=0)]
    return rank(MatrixGF(b.field, inside)) if len(inside) else 0


def _per_trial_sampled(b, s, trials, seed):
    """The per-trial sampled verifier: one drawn map, one kernel, one subspace
    and one meet rank per trial."""
    fld, k = b.field, b.k
    rng = np.random.default_rng(seed)
    for t in range(trials):
        while True:
            R, r, _ = rref(MatrixGF(fld, rng.integers(0, fld.q, size=(s, k))))
            if r == s:
                break
        L = subspace_from_rows(kernel_basis(R))
        achieved = _meet_rank(b, L)
        if achieved < k - s:
            return verify.VerificationReport("sampled", s, t + 1, "fail",
                                             verify.Counterexample(L, achieved, t))
    return verify.VerificationReport("sampled", s, trials, "pass", None)


@pytest.mark.parametrize("p,m,ks", [(2, 1, (3, 4, 5)), (3, 1, (3, 4, 5)), (5, 1, (3, 4)),
                                    (7, 1, (3, 4)), (2, 2, (3, 4)), (3, 2, (3, 4))])
def test_sampled_matches_the_per_trial_loop(p, m, ks):
    fld = field_create(p, m)
    verdicts = set()
    for k in ks:
        for b in random_subsets(fld, k, seed=p * 100 + m * 10 + k):
            for s in range(1, k):
                for seed in (0, 1):
                    got = json.dumps(is_strong_blocking_sampled(b, s, 20, seed).to_dict())
                    want = json.dumps(_per_trial_sampled(b, s, 20, seed).to_dict())
                    assert got == want
                    verdicts.add(json.loads(got)["result"])
    assert verdicts == {"pass", "fail"}


def _free_columns(maps):
    """The k - s non-pivot columns of each RREF map of a (count, s, k) stack,
    onto which its null space projects one to one."""
    count, s, k = maps.shape
    free = np.ones((count, k), dtype=bool)
    free[np.arange(count)[:, None], (maps != 0).argmax(axis=2)] = False
    return np.nonzero(free)[1].reshape(count, k - s)


@pytest.mark.parametrize("p,m,k", [(3, 1, 4), (2, 2, 4), (7, 1, 4), (2, 1, 5)])
def test_sampled_ranks_are_exact_meet_ranks(p, m, k):
    fld = field_create(p, m)
    rng = np.random.default_rng(p + m + k)
    for b in random_subsets(fld, k, seed=k):
        for s in range(1, k):
            maps = np.stack([verify._sampled_map(fld, rng, s, k) for _ in range(12)])
            want = [_meet_rank(b, subspace_from_rows(kernel_basis(MatrixGF(fld, R))))
                    for R in maps]
            assert verify._meet_ranks(fld, b.points, maps, _free_columns(maps)).tolist() == want


def test_sampled_falls_back_when_the_sample_is_rank_deficient(monkeypatch):
    # L = ker R has dimension 3; B meets it in a 2-dimensional P (8 points over
    # GF(7)) and one more point, placed where the evenly spaced sample of 6 of
    # the 9 points (positions 0, 1, 3, 4, 6, 7) does not look.
    fld, k, s = field_create(7), 4, 1
    R = verify._sampled_map(fld, np.random.default_rng(0), s, k)  # trial 0 of seed 0
    L = subspace_from_rows(kernel_basis(MatrixGF(fld, R)))
    allpts = projective_reps(fld, k)
    in_L = allpts[~fld.matmul_arr(allpts, R.T).any(axis=1)]
    plane = BlockingSet.from_points(fld, fld.matmul_arr(
        projective_reps(fld, 2), L.basis.data[:2])).points
    for extra in in_L:
        meet = BlockingSet.from_points(fld, np.vstack([plane, extra]))
        if meet.size == 9 and np.nonzero((meet.points == extra).all(axis=1))[0][0] in (2, 5, 8):
            break
    else:
        raise AssertionError("no point of L outside P lands at an unsampled position")
    outside = allpts[fld.matmul_arr(allpts, R.T).any(axis=1)]
    b = BlockingSet.from_points(fld, np.vstack([meet.points, outside]))
    seen = []
    ragged = verify._ragged_ranks

    def spy(*args):
        seen.append(ragged(*args).tolist())
        return np.array(seen[-1])
    monkeypatch.setattr(verify, "_ragged_ranks", spy)
    assert verify._meet_ranks(fld, b.points, R[None], _free_columns(R[None])).tolist() == [3]
    assert seen == [[2], [3]]  # the sample falls short; all 9 points span L
    assert _meet_rank(b, L) == 3
    for trials in (1, 30):
        assert (is_strong_blocking_sampled(b, s, trials, seed=0).to_dict()
                == _per_trial_sampled(b, s, trials, seed=0).to_dict())


def _points_rank(fld, points, R):
    """Rank of the rows of `points` inside ker R, by membership and one rank."""
    inside = points[~fld.matmul_arr(points, R.T).any(axis=1)]
    return rank(MatrixGF(fld, inside)) if len(inside) else 0


def _strided_case(extra):
    """Over GF(3), k = 7, s = 1, where the kernel's strided round starts at
    8 * need = 8 * (4 * 3 * 6) = 576 points: (fld, R, points), R the map of
    a hyperplane L = ker R and the points those of a set B made of every
    point outside L (729), every point of a hyperplane P of L (121), and,
    when `extra`, one point of L outside P that the stride skips.  B meets
    L in rank 5 without the extra point and in rank 6 with it."""
    fld, k, s = field_create(3), 7, 1
    R = verify._sampled_map(fld, np.random.default_rng(1), s, k)
    L = kernel_basis(MatrixGF(fld, R)).data  # 6 x 7, a basis of L
    allpts = projective_reps(fld, k)
    outside = allpts[fld.matmul_arr(allpts, R.T).any(axis=1)]
    plane = fld.matmul_arr(projective_reps(fld, k - s - 1), L[:-1])  # P
    base = BlockingSet.from_points(fld, np.vstack([outside, plane])).points
    if not extra:
        return fld, R, base
    need = 4 * fld.q ** s * (k - s)
    for coeffs in projective_reps(fld, k - s):
        if coeffs[-1]:  # a point of L outside P
            points = BlockingSet.from_points(
                fld, np.vstack([base, fld.matmul_arr(coeffs[None], L)])).points
            stride = len(points) // need
            at = np.nonzero((points == fld.matmul_arr(coeffs[None], L)).all(axis=1))[0][0]
            if at % stride:
                return fld, R, points
    raise AssertionError("every point of L outside P lands on the stride")


def _strided_maps(fld, R, count):
    """R first, then `count` random hyperplane maps."""
    rng = np.random.default_rng(2)
    return np.stack([R] + [verify._sampled_map(fld, rng, 1, R.shape[1]) for _ in range(count)])


@pytest.mark.parametrize("extra", [False, True])
def test_strided_round_gives_the_exact_meet_ranks(extra):
    fld, R, points = _strided_case(extra)
    assert len(points) >= 8 * 4 * 3 * 6
    maps = _strided_maps(fld, R, 40)
    want = [_points_rank(fld, points, Q) for Q in maps]
    assert want[0] == (6 if extra else 5) and want[1:] == [6] * 40
    assert verify._meet_ranks(fld, points, maps, _free_columns(maps)).tolist() == want


def test_strided_round_sample_falls_short_where_the_set_spans():
    # L = ker R: the strided points of B in L lie in P, but all of B in L spans L
    fld, R, points = _strided_case(extra=True)
    stride = len(points) // (4 * 3 * 6)
    assert _points_rank(fld, points[::stride], R) == 5 and _points_rank(fld, points, R) == 6
    assert verify._meet_ranks(fld, points, R[None], _free_columns(R[None])).tolist() == [6]


@pytest.mark.parametrize("extra", [False, True])
def test_strided_round_images_only_the_short_subspaces_in_full(monkeypatch, extra):
    fld, R, points = _strided_case(extra)
    stride = len(points) // (4 * 3 * 6)
    maps = _strided_maps(fld, R, 40)
    short = [i for i, Q in enumerate(maps) if _points_rank(fld, points[::stride], Q) < 6]
    assert 0 in short and len(short) < len(maps)
    calls = []
    matmul = type(fld).matmul_arr

    def spy(self, a, b):
        calls.append((len(a), b.shape[1]))
        return matmul(self, a, b)
    monkeypatch.setattr(type(fld), "matmul_arr", spy)
    verify._meet_ranks(fld, points, maps, _free_columns(maps))
    assert calls == [(len(points[::stride]), len(maps)), (len(points), len(short))]


def test_sampled_chunks_do_not_change_reports(monkeypatch):
    fld = field_create(3)
    late = 0
    for k in (3, 4):
        for b in random_subsets(fld, k, seed=7):
            for s in range(1, k):
                want = json.dumps(_per_trial_sampled(b, s, 50, seed=5).to_dict())
                for step in (1, 7):  # about 1 and 7 trials per chunk: 32 flags per entry
                    chunk = step * b.size >> 5
                    per = max(1, (chunk << 5) // b.size)  # trials per chunk
                    monkeypatch.setattr(verify, "VERIFY_CHUNK", chunk)
                    rep = is_strong_blocking_sampled(b, s, 50, seed=5)
                    assert json.dumps(rep.to_dict()) == want
                    if not rep.passed and rep.counterexample.index >= per:
                        late += 1
                monkeypatch.undo()
    assert late  # some first failure lies past the first chunk


def test_sampled_matmuls_stay_within_the_chunk(monkeypatch):
    fld = field_create(3)
    b = all_projective_points(fld, 4)  # 40 points, passes for every s
    sizes = []
    matmul = type(fld).matmul_arr

    def spy(self, a, c):
        out = matmul(self, a, c)
        sizes.append(out.size)
        return out
    monkeypatch.setattr(type(fld), "matmul_arr", spy)
    for chunk, s in [(1, 2), (100, 1), (100, 3), (1 << 17, 2)]:
        monkeypatch.setattr(verify, "VERIFY_CHUNK", chunk)
        sizes.clear()
        assert is_strong_blocking_sampled(b, s, 40, seed=2).passed
        assert max(sizes) <= max(chunk, s * b.size)
        assert sum(sizes) == 40 * s * b.size  # every trial imaged once


def test_sampled_trials_of_a_large_set_go_to_one_kernel_call(monkeypatch):
    fld = field_create(3)
    b = BlockingSet.from_points(fld, projective_reps(fld, 11))  # 88,573 > 2^16 points
    calls = []
    kernel = verify._meet_ranks

    def spy(f, points, maps, coords):
        calls.append(len(maps))
        return kernel(f, points, maps, coords)
    monkeypatch.setattr(verify, "_meet_ranks", spy)
    assert b.size > 1 << 16 and is_strong_blocking_sampled(b, 2, 12, seed=3).passed
    assert calls == [12]


def test_sampled_images_keep_the_points_type(monkeypatch):
    fld = field_create(5)
    b = construct_cherry(complete_graph(6), supply_mds(fld, 4, 6))
    kinds = []
    matmul = type(fld).matmul_arr

    def spy(self, x, y):
        out = matmul(self, x, y)
        kinds.append((np.asarray(x).dtype, np.asarray(y).dtype, out.dtype))
        return out

    monkeypatch.setattr(type(fld), "matmul_arr", spy)
    is_strong_blocking_sampled(b, 2, trials=5, seed=3)
    assert kinds and all(kind == (np.uint8,) * 3 for kind in kinds)
