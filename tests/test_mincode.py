import itertools
import json

import numpy as np
import pytest

from helpers import (PINNED_CODE, enumerate_subspaces, identity_matrix,
                     projective_point_count, random_admissible_columns, zero_matrix)

from blockforge.construct import BlockingSet
from blockforge.errors import BudgetExceededError
from blockforge.expander import complete_graph
from blockforge.gf import field_create
from blockforge.linalg import MatrixGF, subspace_from_rows
from blockforge.mincode import (LinearCode, blocking_to_code, code_to_blocking,
                                duality_check, is_s_minimal, support)
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
