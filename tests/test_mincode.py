import itertools
import json
import tracemalloc

import numpy as np
import pytest

from helpers import (PINNED_CODE, enumerate_subspaces, identity_matrix, is_s_minimal_dense,
                     minimal_pair_dense, projective_point_count, random_admissible_columns,
                     zero_matrix)

from blockforge.construct import BlockingSet
from blockforge.errors import BudgetExceededError
from blockforge.expander import complete_graph, path_graph
from blockforge.gf import field_create
from blockforge.linalg import RREF_BLOCK, MatrixGF, gaussian_binomial, subspace_from_rows
from blockforge.mincode import (LinearCode, _first_contained_pair, blocking_to_code,
                                code_to_blocking, duality_check, is_s_minimal, support)
from blockforge.supply import supply_mds
from blockforge.construct import construct_cherry
from blockforge.verify import is_strong_blocking


def test_blocking_to_code_identity():
    fld = field_create(3)
    pts = np.eye(3, dtype=np.int64)
    b = BlockingSet.from_points(fld, pts)
    code = blocking_to_code(b)
    assert code.n == code.k == 3
    # points are stored sorted, so the columns are a permutation of identity
    cols = {tuple(code.generator.data[:, j]) for j in range(3)}
    assert cols == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_blocking_to_code_rank_deficient():
    fld = field_create(2)
    b = BlockingSet.from_points(fld, [[1, 0, 0], [0, 1, 0], [1, 1, 0]])
    with pytest.raises(ValueError):
        blocking_to_code(b)


def test_code_round_trip():
    fld = field_create(5)
    b = construct_cherry(complete_graph(4), supply_mds(fld, 3, 4))
    code = blocking_to_code(b)
    assert code_to_blocking(code) == b


def test_support_examples():
    fld = field_create(2)
    x = subspace_from_rows(MatrixGF(fld, [[1, 1, 0]]))
    assert support(x) == {0, 1}
    zero = subspace_from_rows(zero_matrix(fld, 1, 3))
    assert support(zero) == frozenset()


def test_support_basis_invariant():
    rng = np.random.default_rng(3)
    f3 = field_create(3)
    for _ in range(500):
        rows = rng.integers(0, 3, size=(2, 6))
        s1 = subspace_from_rows(MatrixGF(f3, rows))
        # a random invertible recombination of the same rows
        mixed = rows.copy()
        for _ in range(6):
            i, j = rng.integers(0, 2, size=2)
            if i != j:
                mixed[i] = f3.add_arr(mixed[i], f3.mul_arr(int(rng.integers(1, 3)), mixed[j]))
        s2 = subspace_from_rows(MatrixGF(f3, mixed))
        assert s1 == s2
        assert support(s1) == support(s2)
        # and the support equals the union over the original spanning rows
        union = {int(j) for j in np.nonzero(rows.any(axis=0))[0]}
        assert support(s1) == union


def test_is_s_minimal_f2_square():
    fld = field_create(2)
    code = LinearCode(identity_matrix(fld, 2))
    rep = is_s_minimal(code, 1)
    assert not rep.passed
    x, y = rep.violating_pair
    sx = set(np.nonzero(x.any(axis=0))[0])
    sy = set(np.nonzero(y.any(axis=0))[0])
    assert sx <= sy
    assert rep.subspaces_examined == 3


PINNED_REPORT = (
    '{"result": "fail", "s": 2, "subspaces_examined": 35, "violating_pair": '
    '[[[1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0], [0, 0, 1, 1, 1, 1, 0, 1, 0, 0, 1, 0]], '
    '[[1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0], [0, 1, 0, 1, 1, 0, 1, 1, 1, 0, 1, 1]]]}')


def test_is_s_minimal_pinned_violating_pair():
    # the first pair i != j in (i, j) order is (2, 1)
    code = LinearCode(MatrixGF(field_create(2), PINNED_CODE))
    rep = is_s_minimal(code, 2)
    assert json.dumps(rep.to_dict(), sort_keys=True) == PINNED_REPORT


def _report_json(rep):
    return json.dumps(rep.to_dict(), sort_keys=True)


def test_is_s_minimal_matches_dense_scan_on_random_codes():
    # q in {2, 3, 4, 5, 7}, k 3-5, every s in 1..k-1 (up to 3,000 subspaces)
    rng = np.random.default_rng(17)
    fields = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1)}
    cases = [(q, k, s) for q in fields for k in (3, 4, 5) for s in range(1, k)
             if gaussian_binomial(k, s, q) <= 3000]
    results = set()
    for index in range(260):
        q, k, s = cases[index % len(cases)]
        fld = field_create(*fields[q])
        n = int(rng.integers(k, min(projective_point_count(q, k) * 2 // 3, 4 * k) + 1))
        code = LinearCode(random_admissible_columns(fld, k, n, rng))
        rep = is_s_minimal(code, s)
        assert _report_json(rep) == _report_json(is_s_minimal_dense(code, s)), (q, k, s, n)
        results.add(rep.result)
    assert {q for q, _, _ in cases} == set(fields)
    assert {(k, s) for _, k, s in cases} == {(k, s) for k in (3, 4, 5) for s in range(1, k)}
    assert results == {"pass", "fail"}


@pytest.mark.parametrize("rows, pair", [
    # a full-support row j = 1 holds every other row; the least pair is (0, 1)
    ([[1, 0, 1], [1, 1, 1], [0, 1, 1]], (0, 1)),
    # full support only at j = 0: the least pair is (1, 0)
    ([[1, 1, 1], [1, 0, 0], [0, 1, 0]], (1, 0)),
    # two rows with equal supports hold each other
    ([[1, 1, 0], [0, 1, 1], [1, 1, 0]], (0, 2)),
    # j = 1's only zero is the last coordinate
    ([[0, 1, 1, 0], [1, 1, 1, 0], [0, 0, 1, 1]], (0, 1)),
    # every j is a candidate for itself (S[j, z_j] = 0), which is not a pair
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], None),
    ([[1, 1, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1]], (0, 3)),
    ([[1, 0]], None),
    ([[1, 1]], None),
])
def test_first_contained_pair_hand_built(rows, pair):
    supports = np.array(rows, dtype=bool)
    assert minimal_pair_dense(supports) == pair
    assert _first_contained_pair(supports, RREF_BLOCK * len(supports)) == pair
    assert _first_contained_pair(supports, 1) == pair  # one column of products at a time


def _code(q, gen):
    return lambda: LinearCode(MatrixGF(field_create(q), gen))


def _random_gf2_code(k, n, seed):
    return lambda: LinearCode(random_admissible_columns(field_create(2), k, n,
                                                        np.random.default_rng(seed)))


@pytest.mark.parametrize("build, s, examined, passed", [
    (_code(2, np.eye(3, dtype=np.int64)), 2, 7, False),  # span(e0 + e1, e1 + e2) has full support
    (_code(3, np.eye(2, dtype=np.int64)), 1, 4, False),  # <(1, 1)> and <(1, 2)> have equal supports
    (_code(5, [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]]), 1, 31, False),  # zero only at 3
    # GF(2), k = 13, s = 1: 8,191 subspaces near the budget, the densest
    # candidate sets (each coordinate vanishes on about half of them)
    (_random_gf2_code(13, 20, 4), 1, 8191, None),
    (_random_gf2_code(13, 73, 5), 1, 8191, None),
    # a failing cherry code
    (lambda: blocking_to_code(construct_cherry(path_graph(5), supply_mds(field_create(7), 4, 5))),
     2, None, False),
], ids=["full-support", "equal-supports", "last-zero", "gf2-k13-n20", "gf2-k13-n73",
        "failing-cherry"])
def test_is_s_minimal_matches_dense_scan(build, s, examined, passed):
    code = build()
    rep = is_s_minimal(code, s)
    assert _report_json(rep) == _report_json(is_s_minimal_dense(code, s))
    if examined is not None:
        assert rep.subspaces_examined == examined
    if passed is not None:
        assert rep.passed == passed


def test_is_s_minimal_whole_space_images_no_points():
    # s == k: the one subspace is the whole message space, and no point of
    # F_2^20 (there are 2^20 - 1) may be pushed through the generator
    code = _random_gf2_code(20, 40, 6)()
    tracemalloc.start()
    try:
        rep = is_s_minimal(code, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed and rep.subspaces_examined == 1
    assert _report_json(rep) == _report_json(is_s_minimal_dense(code, 20))
    assert peak < 100_000


def test_is_s_minimal_memory_is_a_few_support_matrices():
    # GF(7) K6 cherry code: 2,850 subspaces x 398 positions.  The scan may
    # hold the boolean support matrix, its complement and one product block,
    # never a float32 copy of either matrix (4 bytes per entry).
    code = blocking_to_code(construct_cherry(complete_graph(6), supply_mds(field_create(7), 4, 6)))
    support_bytes = 2850 * code.n
    assert code.n == 398
    is_s_minimal(code, 2)  # warm caches
    tracemalloc.start()
    try:
        rep = is_s_minimal(code, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak < 3 * support_bytes


def test_is_s_minimal_repetition_code():
    fld = field_create(3)
    code = LinearCode(MatrixGF(fld, [[1, 1, 1, 1]]))
    assert is_s_minimal(code, 1).passed  # a single subspace is vacuously an antichain


def test_is_s_minimal_budget():
    fld = field_create(2)
    code = LinearCode(identity_matrix(fld, 5))
    with pytest.raises(BudgetExceededError):
        is_s_minimal(code, 2, budget=10)


def test_s1_matches_classical_codeword_definition():
    # classical reading: no codeword support strictly-or-equally contains
    # another's, over projectively distinct codewords
    rng = np.random.default_rng(7)
    for _ in range(40):
        q = int(rng.choice([2, 3]))
        fld = field_create(q)
        k = int(rng.integers(2, 4))
        n = int(rng.integers(k, min(8, projective_point_count(q, k)) + 1))
        gen = random_admissible_columns(fld, k, n, rng)
        code = LinearCode(gen)
        got = is_s_minimal(code, 1).passed
        # oracle: enumerate one representative per 1-dim subspace of the code
        reps = []
        for m in enumerate_subspaces(fld, k, k - 1, budget=None):
            reps.append(fld.matmul_arr(m.basis.data, gen.data)[0])
        expected = True
        for a, b in itertools.permutations(range(len(reps)), 2):
            sa = set(np.nonzero(reps[a])[0])
            sb = set(np.nonzero(reps[b])[0])
            if sa <= sb:
                expected = False
                break
        assert got == expected


def test_duality_identity_columns():
    fld = field_create(2)
    cols = identity_matrix(fld, 3)
    assert duality_check(cols, 1) == (False, False)


def test_duality_cherry_instance():
    fld = field_create(5)
    b = construct_cherry(complete_graph(4), supply_mds(fld, 3, 4))
    cols = MatrixGF(fld, b.points.T)
    assert duality_check(cols, 2) == (True, True)


def test_duality_randomized_sweep():
    rng = np.random.default_rng(11)
    outcomes = set()
    for _ in range(40):
        q = int(rng.choice([2, 3]))
        fld = field_create(q)
        s = int(rng.choice([1, 2]))
        k = int(rng.integers(s + 1, 5))
        n_max = min(8, projective_point_count(q, k))
        n = int(rng.integers(k, n_max + 1))
        cols = random_admissible_columns(fld, k, n, rng)
        b1, b2 = duality_check(cols, s)
        assert b1 == b2
        outcomes.add(b1)
    assert outcomes == {True, False}  # the sweep saw both sides


def test_duality_rejects_inadmissible():
    fld = field_create(2)
    with pytest.raises(ValueError):
        duality_check(MatrixGF(fld, [[1, 0], [0, 0]]), 1)  # zero column
    with pytest.raises(ValueError):
        duality_check(MatrixGF(fld, [[1, 1], [1, 1]]), 1)  # repeated point
    with pytest.raises(ValueError):
        duality_check(MatrixGF(fld, [[1, 0, 1], [0, 1, 1], [0, 0, 0]]), 1)  # rank < k


def test_blocking_verifier_agrees_with_minimality_on_cherry_family():
    # duality as a library-level invariant on verified constructions
    for q, k, n in [(5, 3, 4), (7, 3, 5)]:
        fld = field_create(q)
        b = construct_cherry(complete_graph(n), supply_mds(fld, k, n))
        passed = is_strong_blocking(b, 2).passed
        minimal = is_s_minimal(blocking_to_code(b), 2).passed
        assert passed == minimal == True
