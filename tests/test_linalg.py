import io
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockforge.errors import BudgetExceededError
from blockforge.gf import field_create, parse_field_header
from blockforge import linalg
from blockforge.linalg import (MatrixGF, distinct_rows, gaussian_binomial, kernel_basis,
                               matmul, normalize_rows, projective_reps, quotient_map, rank,
                               rank_stack, read_matrix, rref, rref_blocks, rref_index, rref_stack,
                               subspace_from_rows, write_matrix)

from helpers import (enumerate_subspaces, identity_matrix, rank_product, rref_stack_int64,
                     zero_matrix)


def _naive_rank(fld, data):
    """Independent elimination oracle: forward elimination only, no
    normalization, scanning pivots column-major."""
    rows = [list(map(int, r)) for r in data]
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    r = 0
    for c in range(n_cols):
        piv = None
        for i in range(r, n_rows):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, n_rows):
            if rows[i][c]:
                f = fld.mul(rows[i][c], fld.inv(rows[r][c]))
                for j in range(c, n_cols):
                    rows[i][j] = fld.sub(rows[i][j], fld.mul(f, rows[r][j]))
        r += 1
    return r


def test_rref_identity():
    f2 = field_create(2)
    m = identity_matrix(f2, 3)
    R, r, piv = rref(m)
    assert r == 3 and piv == (0, 1, 2) and R == m


def test_rref_equal_rows_gf2():
    f2 = field_create(2)
    _, r, _ = rref(MatrixGF(f2, [[1, 1], [1, 1]]))
    assert r == 1


def test_rref_proportional_rows_gf3():
    f3 = field_create(3)
    _, r, _ = rref(MatrixGF(f3, [[1, 2], [2, 1]]))
    assert r == 1


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])
def test_rref_idempotent(p, m):
    fld = field_create(p, m)
    rng = np.random.default_rng(11)
    for _ in range(25):
        mat = MatrixGF(fld, rng.integers(0, fld.q, size=(4, 6)))
        R1, r1, p1 = rref(mat)
        R2, r2, p2 = rref(R1)
        assert (R1, r1, p1) == (R2, r2, p2)


def _check_rref_of(fld, R, r, a):
    """R, of rank r, is the reduced row echelon form of a: leading 1s in
    increasing columns, the only nonzero entries of their columns, zero rows
    last, and the row space of a (stacking a under R adds no rank)."""
    lead = [int(np.flatnonzero(row)[0]) for row in R[:r]]
    assert lead == sorted(set(lead)) and not R[r:].any()
    for i, c in enumerate(lead):
        assert R[i, c] == 1 and np.count_nonzero(R[:, c]) == 1
    assert _naive_rank(fld, np.vstack([R[:r], a])) == r


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (3, 2), (13, 1)])
def test_rref_stack_matches_naive_rank_and_single_rref(p, m):
    fld = field_create(p, m)
    rng = np.random.default_rng(100 * p + m)
    for rows, cols in [(0, 4), (4, 0), (0, 0), (1, 1), (3, 6), (6, 3), (5, 5), (8, 2)]:
        a = rng.integers(0, fld.q, size=(9, rows, cols))
        a[rng.random(a.shape) < 0.4] = 0  # sparse entries make rank-deficient members
        if rows >= 2:
            a[::3, -1] = a[::3, 0]  # a repeated row
            a[1::3, rows // 2:] = 0  # zero padding, as in the verifier's stacks
        R, ranks = rref_stack(fld, a)
        assert R.shape == a.shape and ranks.shape == (len(a),)
        for i, mat in enumerate(a):
            R1, r1, piv = rref(MatrixGF(fld, mat))
            assert ranks[i] == r1 == len(piv) == _naive_rank(fld, mat)
            assert np.array_equal(R[i], R1.data)
            _check_rref_of(fld, R[i], r1, mat)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (13, 1), (3, 2), (2, 8), (65521, 1), (2, 16)],
                         ids=["GF(2)", "GF(3)", "GF(13)", "GF(9)", "GF(2^8)", "GF(65521)",
                              "GF(2^16)"])
def test_rref_stack_in_the_storage_type_matches_the_int64_loop(p, m):
    fld = field_create(p, m)
    rng = np.random.default_rng(p + m)
    deficient = 0
    for rows, cols in [(0, 3), (3, 0), (1, 1), (2, 4), (4, 7), (7, 4), (6, 6), (18, 20)]:
        a = rng.integers(0, fld.q, size=(12, rows, cols))
        a[rng.random(a.shape) < 0.3] = 0
        a[0] = 0
        a[1] = fld.q - 1
        if rows >= 2:
            a[2::3, -1] = a[2::3, 0]  # a repeated row
            a[3::3, rows // 2:] = 0  # zero padding, as in the verifier's stacks
        want_R, want_ranks = rref_stack_int64(fld, a)
        deficient += int((want_ranks < min(rows, cols)).sum())
        for given in (a, a.astype(fld.dtype)):
            R, ranks = rref_stack(fld, given)
            assert R.dtype == np.int64 and np.array_equal(R, want_R)
            assert np.array_equal(ranks, want_ranks)
    assert deficient >= 12


@pytest.mark.parametrize("p,m", [(3, 1), (2, 8), (65521, 1)], ids=["GF(3)", "GF(2^8)", "GF(65521)"])
def test_rref_stack_rejects_entries_outside_the_field(p, m):
    fld = field_create(p, m)
    wide = np.uint16 if fld.dtype == np.uint8 else np.uint32
    for bad, dtype in [(-1, np.int64), (fld.q, np.int64), (fld.q, wide), (2 * fld.q, np.int64)]:
        a = np.ones((3, 2, 4), dtype=dtype)
        a[2, 1, 3] = bad  # in the storage type, q and 2q wrap to a field element
        with pytest.raises(ValueError, match="out of range"):
            rref_stack(fld, a)
    if fld.q < 256:
        with pytest.raises(ValueError, match="out of range"):
            rref_stack(fld, np.full((1, 2, 2), fld.q, dtype=fld.dtype))


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (3, 2), (13, 1)],
                         ids=["GF(2)", "GF(3)", "GF(4)", "GF(9)", "GF(13)"])
def test_rank_stack_matches_rref_stack(p, m):
    fld = field_create(p, m)
    rng = np.random.default_rng(7 * p + m)
    deficits = set()
    for rows, cols in [(0, 3), (3, 0), (1, 1), (3, 5), (5, 3), (6, 6), (20, 40), (40, 20)]:
        a = rng.integers(0, fld.q, size=(30, rows, cols))
        a[rng.random(a.shape) < 0.2] = 0
        if rows >= 3 and cols:  # planted: the last row a combination of the first two
            c = rng.integers(1, fld.q, size=(30, 2, 1))
            comb = fld.add_arr(fld.mul_arr(c[:, 0], a[:, 0]), fld.mul_arr(c[:, 1], a[:, 1]))
            a[::2, -1] = comb[::2]
            a[1::3, :, -1] = a[1::3, :, 0]  # and a repeated column
            a[3::4, rows // 2:] = a[3::4, :1]  # and rows repeating the first
        want = rref_stack(fld, a)[1]
        deficits.update((np.minimum(rows, cols) - want).tolist())
        for given in (a, a.astype(fld.dtype)):
            got = rank_stack(fld, given)
            assert got.dtype == np.int64 and np.array_equal(got, want)
        for i in range(3):
            assert rank(MatrixGF(fld, a[i])) == want[i]
    assert len(deficits) >= 3, deficits
    with pytest.raises(ValueError, match="out of range"):
        rank_stack(fld, np.full((1, 2, 2), fld.q))


def _distinct_rows_by_dict(rows):
    """distinct_rows from a dict of tuples: the sorted distinct rows, and the
    ascending indices of the rows seen before."""
    seen, repeats = {}, []
    for i, row in enumerate(map(tuple, rows.tolist())):
        if row in seen:
            repeats.append(i)
        seen.setdefault(row, i)
    return sorted(seen), repeats


def test_distinct_rows_packed_sort_matches_the_lexsort_path(monkeypatch):
    sorts = []
    lexsort = np.lexsort
    monkeypatch.setattr(linalg.np, "lexsort", lambda keys: sorts.append(1) or lexsort(keys))
    rng = np.random.default_rng(3)
    n = 1000
    top = (1 << 63) // n - 1  # (top + 1) * n is 2^63: the last key that packs
    pool = rng.integers(0, 3, size=(50, 20), dtype=np.uint8)
    cases = [  # (rows, whether they pack)
        (pool[rng.integers(0, 50, size=5000)], True),  # many repeats
        (rng.integers(0, 3, size=(4000, 45)), False),  # two words: lexsort
        (np.zeros((0, 4), dtype=np.int64), True),
        (np.array([[2, 0, 1]], dtype=np.uint8), True),
    ]
    for high, packs in [(top, True), (top + 1, False)]:  # key * n on both sides of 2^63
        col = rng.integers(high - 5, high + 1, size=(n, 1))
        col[-1] = high
        cases.append((col, packs))
    for rows, packs in cases:
        sorts.clear()
        got, repeats = distinct_rows(rows)
        want, want_repeats = _distinct_rows_by_dict(rows)
        assert got.dtype == rows.dtype and got.shape == (len(want), rows.shape[1])
        assert list(map(tuple, got.tolist())) == want
        assert repeats.tolist() == want_repeats
        assert bool(sorts) != packs


def test_rank_product_identity():
    f2 = field_create(2)
    i3 = identity_matrix(f2, 3)
    assert rank_product(i3, i3) == 3


def test_rank_product_dimension_mismatch():
    f2 = field_create(2)
    with pytest.raises(ValueError):
        rank_product(identity_matrix(f2, 3), identity_matrix(f2, 4))


def test_rank_product_triangular_bound():
    # full-rank (n-s+1) x n upper triangular against rank-k N gives >= k-s+1
    f5 = field_create(5)
    rng = np.random.default_rng(17)
    n, s, k = 7, 3, 4
    m_data = np.zeros((n - s + 1, n), dtype=np.int64)
    for i in range(n - s + 1):
        m_data[i, i] = 1
        m_data[i, i + 1:] = rng.integers(0, 5, size=n - i - 1)
    while True:
        n_data = rng.integers(0, 5, size=(n, k))
        if rank(MatrixGF(f5, n_data)) == k:
            break
    assert rank_product(MatrixGF(f5, m_data), MatrixGF(f5, n_data)) >= k - s + 1


def test_rank_product_matches_naive_oracle():
    f3 = field_create(3)
    rng = np.random.default_rng(19)
    for _ in range(30):
        a = MatrixGF(f3, rng.integers(0, 3, size=(4, 6)))
        b = MatrixGF(f3, rng.integers(0, 3, size=(6, 5)))
        assert rank_product(a, b) == _naive_rank(f3, matmul(a, b).data)


def test_sylvester_inequality_randomized():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        q = int(rng.choice([2, 3, 5]))
        fld = field_create(q)
        r1, inner, c2 = (int(x) for x in rng.integers(1, 6, size=3))
        a = MatrixGF(fld, rng.integers(0, q, size=(r1, inner)))
        b = MatrixGF(fld, rng.integers(0, q, size=(inner, c2)))
        assert rank_product(a, b) >= rank(a) + rank(b) - inner


def test_subspace_from_rows_normalizes():
    f2 = field_create(2)
    s = subspace_from_rows(MatrixGF(f2, [[1, 0, 0], [1, 1, 0]]))
    assert s.dim == 2 and s.pivots == (0, 1)
    assert np.array_equal(s.basis.data, [[1, 0, 0], [0, 1, 0]])


def test_subspace_from_zero_matrix():
    f2 = field_create(2)
    s = subspace_from_rows(zero_matrix(f2, 3, 4))
    assert s.dim == 0 and s.codim == 4


def test_subspace_membership_oracle():
    rng = np.random.default_rng(29)
    f3 = field_create(3)
    for _ in range(20):
        rows = rng.integers(0, 3, size=(3, 5))
        s = subspace_from_rows(MatrixGF(f3, rows))
        # every original row is a member
        for r in rows:
            assert s.contains(r)
        # random combinations are members
        coeffs = rng.integers(0, 3, size=3)
        combo = f3.matmul_arr(coeffs[None, :], rows)[0]
        assert s.contains(combo)
        # a vector outside the span is not (when the space is proper)
        if s.dim < 5:
            for _ in range(20):
                v = rng.integers(0, 3, size=5)
                if not s.contains(v):
                    stacked = np.vstack([s.basis.data, v[None, :]])
                    assert rank(MatrixGF(f3, stacked)) == s.dim + 1
                    break


def test_canonical_uniqueness_row_equivalent():
    rng = np.random.default_rng(31)
    f5 = field_create(5)
    for _ in range(20):
        rows = rng.integers(0, 5, size=(3, 5))
        s1 = subspace_from_rows(MatrixGF(f5, rows))
        # random invertible row operations
        mixed = rows.copy()
        for _ in range(10):
            i, j = rng.integers(0, 3, size=2)
            if i != j:
                mixed[i] = f5.add_arr(mixed[i], f5.mul_arr(int(rng.integers(1, 5)), mixed[j]))
        s2 = subspace_from_rows(MatrixGF(f5, mixed))
        assert s1 == s2 and hash(s1) == hash(s2)


def test_gaussian_binomial_values():
    assert gaussian_binomial(5, 0, 2) == 1
    assert gaussian_binomial(5, 2, 2) == 155
    assert gaussian_binomial(4, 2, 3) == 130
    assert gaussian_binomial(4, 2, 7) == 2850


def test_enumerate_small_counts():
    f2 = field_create(2)
    assert sum(1 for _ in enumerate_subspaces(f2, 2, 1)) == 3
    assert sum(1 for _ in enumerate_subspaces(f2, 5, 3)) == 155
    full = list(enumerate_subspaces(f2, 4, 0))
    assert len(full) == 1 and full[0].dim == 4


def test_enumerate_matches_pairwise_span_oracle():
    # independent check for dim-2 subspaces of F_2^5: canonicalize every
    # pair of independent vectors and count distinct subspaces
    f2 = field_create(2)
    vecs = [np.array([(v >> i) & 1 for i in range(5)]) for v in range(1, 32)]
    seen = set()
    for a, b in itertools.combinations(vecs, 2):
        m = MatrixGF(f2, np.vstack([a, b]))
        s = subspace_from_rows(m)
        if s.dim == 2:
            seen.add(s)
    assert len(seen) == 155
    enumerated = set(enumerate_subspaces(f2, 5, 3))
    assert enumerated == seen


def test_enumeration_count_invariant_exhaustive():
    # for every k <= 6, codim <= k, q in {2,3,4,5}: the enumeration agrees
    # with the q-binomial.  Materialize when feasible; above the cutoff,
    # check the per-pivot-cell cardinality bookkeeping instead.
    for q in (2, 3, 4, 5):
        fld = field_create(*((q, 1) if q != 4 else (2, 2)))
        for k in range(1, 7):
            for codim in range(0, k + 1):
                dim = k - codim
                expected = gaussian_binomial(k, dim, q)
                cells = 0
                for pivots in itertools.combinations(range(k), dim):
                    pivset = set(pivots)
                    nfree = sum(1 for i in range(dim)
                                for j in range(pivots[i] + 1, k) if j not in pivset)
                    cells += q ** nfree
                assert cells == expected
                if expected <= 20_000:
                    subs = list(enumerate_subspaces(fld, k, codim))
                    assert len(subs) == expected
                    assert len(set(subs)) == expected


def test_enumeration_sharding_is_a_partition():
    f3 = field_create(3)
    total = gaussian_binomial(4, 2, 3)
    whole = list(enumerate_subspaces(f3, 4, 2))
    assert len(whole) == total
    for w in (2, 3, 7):
        bounds = [total * i // w for i in range(w + 1)]
        stitched = []
        for lo, hi in zip(bounds, bounds[1:]):
            stitched.extend(enumerate_subspaces(f3, 4, 2, start=lo, stop=hi))
        assert stitched == whole


@pytest.mark.parametrize("p,m,k", [(2, 1, 5), (3, 1, 4), (2, 2, 3), (3, 2, 3), (5, 1, 3)])
def test_rref_index_inverts_rref_blocks(p, m, k):
    fld = field_create(p, m)
    for dim in range(k + 1):
        stack = np.concatenate([block for _, block in rref_blocks(fld, k, dim)])
        assert rref_index(fld, stack).tolist() == list(range(gaussian_binomial(k, dim, fld.q)))
        shuffled = np.random.default_rng(dim).permutation(len(stack))
        assert rref_index(fld, stack[shuffled]).tolist() == shuffled.tolist()


def test_enumeration_budget():
    f2 = field_create(2)
    with pytest.raises(BudgetExceededError):
        list(enumerate_subspaces(f2, 6, 3, budget=10))


def test_quotient_map_coordinate_subspace():
    f3 = field_create(3)
    L = subspace_from_rows(MatrixGF(f3, [[0, 0, 1, 0], [0, 0, 0, 1]]))
    Q = quotient_map(L)
    assert np.array_equal(Q.data, [[1, 0, 0, 0], [0, 1, 0, 0]])


def test_quotient_map_full_space_errors():
    f3 = field_create(3)
    L = subspace_from_rows(identity_matrix(f3, 3))
    with pytest.raises(ValueError):
        quotient_map(L)


def test_quotient_map_random():
    rng = np.random.default_rng(37)
    f5 = field_create(5)
    for _ in range(25):
        dim = int(rng.integers(1, 4))
        rows = rng.integers(0, 5, size=(dim, 5))
        L = subspace_from_rows(MatrixGF(f5, rows))
        if L.codim == 0:
            continue
        Q = quotient_map(L)
        assert rank(Q) == L.codim
        # Q annihilates the basis of L
        assert not f5.matmul_arr(Q.data, L.basis.data.T).any()
        # and membership agrees with basis reduction
        for _ in range(10):
            v = rng.integers(0, 5, size=5)
            in_l = not f5.matmul_arr(Q.data, v[:, None]).any()
            assert in_l == L.contains(v)


def test_kernel_basis_annihilates():
    rng = np.random.default_rng(41)
    f2 = field_create(2)
    for _ in range(20):
        m = MatrixGF(f2, rng.integers(0, 2, size=(3, 6)))
        kern = kernel_basis(m)
        assert kern.rows == 6 - rank(m)
        if kern.rows:
            assert not f2.matmul_arr(m.data, kern.data.T).any()


def test_projective_reps_cover_everything():
    f3 = field_create(3)
    pts = projective_reps(f3, 3)
    assert pts.shape == ((3 ** 3 - 1) // 2, 3) and pts.dtype == np.int64
    seen = {tuple(row) for row in pts.tolist()}
    assert len(seen) == 13
    assert np.array_equal(normalize_rows(f3, pts), pts)  # every lead is 1


def _written(m: MatrixGF) -> str:
    """The bytes `write_matrix` writes for m to a stream, as text."""
    out = io.BytesIO()
    write_matrix(out, m)
    return out.getvalue().decode()


def _read(text: str) -> MatrixGF:
    """`read_matrix` of the bytes of `text`, from a stream."""
    return read_matrix(io.BytesIO(text.encode()))


def _rows_text(data) -> str:
    """The bytes `write_rows` writes for the rows of `data` after an empty head, as text."""
    out = io.BytesIO()
    linalg.write_rows(out, "", data)
    return out.getvalue().decode()


def _read_rows(text: str) -> np.ndarray:
    """The rows that `read_field_rows` reads from the bytes of `text`, from a stream."""
    return linalg.read_field_rows(io.BytesIO(text.encode()))[1]


def _head(rows: int, cols: int) -> str:
    """The head lines of a matrix over GF(11), which holds every single digit,
    without the newline that ends the dims line."""
    return f"field 11 1 0 1\ndims {rows} {cols}"


def test_matrix_file_round_trip(tmp_path):
    f25 = field_create(5, 2)
    rng = np.random.default_rng(43)
    m = MatrixGF(f25, rng.integers(0, 25, size=(3, 4)))
    again = _read(_written(m))
    assert again == m
    assert _written(m).splitlines()[0] == "field 5 2 1 1 1"
    # no columns: the body is one blank line per row
    empty = zero_matrix(field_create(3), 3, 0)
    assert _written(empty) == "field 3 1 0 1\ndims 3 0\n\n\n\n"
    assert _read(_written(empty)) == empty
    write_matrix(tmp_path / "m.pts", empty)
    assert read_matrix(tmp_path / "m.pts") == empty


def test_format_matrix_golden_bytes():
    f13 = field_create(13)
    assert _written(MatrixGF(f13, [[12, 0, 7], [10, 11, 1]])) == (
        "field 13 1 0 1\ndims 2 3\n12 0 7\n10 11 1\n")
    f25 = field_create(5, 2)
    assert _written(MatrixGF(f25, [[24], [0], [13]])) == (
        "field 5 2 1 1 1\ndims 3 1\n24\n0\n13\n")


def test_format_rows_matches_row_loop_across_chunks(monkeypatch):
    monkeypatch.setattr(linalg, "FORMAT_CHUNK_ROWS", 3)
    data = np.random.default_rng(47).integers(0, 1000, size=(10, 4))
    reference = "".join(" ".join(str(int(v)) for v in row) + "\n" for row in data)
    assert _rows_text(data) == reference
    assert _rows_text(data[:, :0]) == "\n" * 10


def test_format_rows_matches_row_loop_for_every_width(monkeypatch):
    monkeypatch.setattr(linalg, "FORMAT_CHUNK_ROWS", 4)
    rng = np.random.default_rng(53)
    for top in (1, 9, 10, 12, 99, 255, 1000, 65520):
        data = rng.integers(0, top + 1, size=(11, 5))
        data[0, 0] = top
        reference = "".join(" ".join(str(int(v)) for v in row) + "\n" for row in data)
        for view in (data, np.asfortranarray(data), data[:, ::-1][:, ::-1]):
            assert _rows_text(view) == reference
        assert _rows_text(data[:0]) == ""


def _loadtxt_rows(body, rows, cols):
    """The rows of a matrix file's body before the byte-level grid path:
    np.loadtxt on every body."""
    if not body or body.isspace():
        data = np.zeros((0, cols), dtype=np.int64)
    else:
        data = np.loadtxt(io.StringIO(body, newline=None), dtype=np.int64,
                          ndmin=2, comments=None)
    if data.shape != (rows, cols):
        raise ValueError(f"expected {rows} rows of {cols} entries, found {data.shape}")
    return data


def _outcome(fn, *args):
    """fn(*args) as ("ok", value), or ("error", exception type, message)."""
    try:
        return ("ok", fn(*args))
    except ValueError as exc:  # UnicodeDecodeError included
        return ("error", type(exc), str(exc))


def _same(a, b):
    if a[0] != b[0]:
        return False
    if a[0] == "error":
        return a == b
    x, y = a[1], b[1]
    if isinstance(x, np.ndarray):
        return x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y)
    return x == y


@pytest.mark.parametrize("q", range(2, 10))
def test_parse_rows_grid_matches_loadtxt(q, monkeypatch):
    monkeypatch.setattr(linalg, "FORMAT_CHUNK_ROWS", 5)
    rng = np.random.default_rng(q)
    shapes = [(1, 1), (1, 8), (9, 1), (0, 4), (23, 6)]
    shapes += [tuple(int(n) for n in rng.integers(1, 30, size=2)) for _ in range(4)]
    for rows, cols in shapes:
        data = rng.integers(0, q, size=(rows, cols))
        text = _rows_text(data)
        for body in (text, "\n" + text):
            grid = linalg._grid_rows(body.encode(), rows, cols)
            assert (grid is None) == (rows == 0)
            assert grid is None or np.array_equal(grid, data)
        # in a file the body starts with the newline that ends the dims line;
        # the grid comes back as read (uint8), np.loadtxt's rows as int64
        got = _read_rows(_head(rows, cols) + "\n" + text)
        assert got.dtype == (np.uint8 if rows else np.int64) and got.shape == (rows, cols)
        assert np.array_equal(got, data)
        assert np.array_equal(got, _loadtxt_rows("\n" + text, rows, cols))


# The 2 x 3 grid "1 0 2\n2 1 0\n", changed in one place: each body is left to
# np.loadtxt, which either reads it or raises.
NEAR_GRID = {
    "no final newline": "1 0 2\n2 1 0",
    "trailing space": "1 0 2 \n2 1 0\n",
    "leading space": " 1 0 2\n2 1 0\n",
    "letter before the grid": "x1 0 2\n2 1 0\n",
    "double space": "1  0 2\n2 1 0\n",
    "crlf": "1 0 2\r\n2 1 0\r\n",
    "cr": "1 0 2\r2 1 0\r",
    "tab": "1\t0 2\n2 1 0\n",
    "blank line": "1 0 2\n\n2 1 0\n",
    "two blank lines first": "\n\n1 0 2\n2 1 0\n",
    "two-digit entry": "1 0 2\n2 10 0\n",
    "two-digit entry, same length": "10 2\n2 1 0\n\n",
    "x": "1 0 2\n2 x 0\n",
    "hash": "1 0 2\n2 # 0\n",
    "minus": "1 0 2\n2 - 0\n",
    "space for newline": "1 0 2 2 1 0\n",
    "newline for space": "1\n0 2\n2 1 0\n",
    "non-ASCII digit": "1 0 2\n2 ١ 0\n",
    "fullwidth digit": "1 0 2\n2 １ 0\n",
    "too few rows": "1 0 2\n",
    "too many rows": "1 0 2\n2 1 0\n0 0 0\n",
}


@pytest.mark.parametrize("name", sorted(NEAR_GRID))
def test_parse_rows_near_grid_takes_loadtxt(name, monkeypatch):
    calls = []
    loadtxt = np.loadtxt

    def spy(*args, **kwargs):
        calls.append(1)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    for body in (NEAR_GRID[name], "\n" + NEAR_GRID[name]):
        assert linalg._grid_rows(body.encode(), 2, 3) is None
        # in a file the body starts with the newline that ends the dims line
        want = _outcome(_loadtxt_rows, "\n" + body, 2, 3)
        calls.clear()
        got = _outcome(_read_rows, _head(2, 3) + "\n" + body)
        assert _same(got, want), (got, want)
        assert calls


def test_parse_rows_reads_the_writer_grid_without_loadtxt(monkeypatch, tmp_path):
    # the lps-sampled set's shape: 211,832 points of GF(3)^20
    f3 = field_create(3)
    data = np.random.default_rng(59).integers(0, 3, size=(211_832, 20))
    text = _rows_text(data)

    def refuse(*args, **kwargs):
        raise RuntimeError("np.loadtxt called on the writer's grid")

    monkeypatch.setattr(np, "loadtxt", refuse)
    assert np.array_equal(_read_rows(_head(*data.shape) + "\n" + text), data)
    m = MatrixGF(f3, data)
    assert _read(_written(m)) == m
    linalg.write_matrix(tmp_path / "m.pts", m, None)
    assert not (tmp_path / "m.pts.json").exists()
    path = tmp_path / "m.pts"
    assert (linalg.read_matrix(path), linalg.read_sidecar(path)) == (m, None)


def _text_mode_read(path):
    """The matrix reader before the byte-level path: a text-mode read, then
    np.loadtxt on every body."""
    with open(path) as f:
        text = f.read()
    (header, dims), body = linalg.split_head(text, 2)
    dtoks = dims.split()
    if len(dtoks) != 3 or dtoks[0] != "dims":
        raise ValueError(f"malformed dims line: {dims!r}")
    return MatrixGF(parse_field_header(header), _loadtxt_rows(body, int(dtoks[1]), int(dtoks[2])))


GRID_FILE = b"field 3 1 0 1\ndims 2 3\n1 0 2\n2 1 0\n"
FILE_VARIANTS = [
    GRID_FILE,
    GRID_FILE.replace(b"\n", b"\r\n"),
    GRID_FILE.replace(b"\n", b"\r"),
    GRID_FILE.replace(b"\n", b"\r\n", 1),          # CRLF after the field line only
    GRID_FILE.replace(b"dims 2 3\n", b"dims 2 3\r\n"),
    GRID_FILE.replace(b"dims 2 3\n", b"dims 2 3\r"),
    b"\n" + GRID_FILE,
    b"  " + GRID_FILE,
    GRID_FILE.replace(b"dims", b"\ndims"),
    GRID_FILE.replace(b"dims 2 3", b"dims 2 3 "),
    GRID_FILE.replace(b"dims 2 3", b"dims +2 3"),
    GRID_FILE.replace(b"dims 2 3", b"dims 02 3"),
    GRID_FILE.replace(b"dims 2 3", b"dims 2 x"),
    GRID_FILE.replace(b"dims 2 3", b"dims 2"),
    GRID_FILE.replace(b"dims 2 3", b"dimz 2 3"),
    GRID_FILE.replace(b"dims 2 3", b"dims 0 3"),
    GRID_FILE.replace(b"dims 2 3", b"dims -2 -3"),
    GRID_FILE.replace(b"dims 2 3", b"dims 3 2"),
    GRID_FILE.replace(b"field 3 1 0 1", b"field 3 1 0"),
    GRID_FILE.replace(b"field 3 1 0 1\ndims 2 3", b"field 3 1 0\ndims 2 x"),  # header first
    GRID_FILE.replace(b"field 3 1 0 1", b"field 5 1 0 1"),
    GRID_FILE.replace(b"2 1 0\n", b"2 5 0\n"),      # out of range for GF(3)
    GRID_FILE.replace(b"2 1 0\n", b"2 1 0"),
    GRID_FILE.replace(b"2 1 0\n", b"2 1 0\n\n"),
    GRID_FILE.replace(b"2 1 0\n", b"2\t1 0\n"),
    GRID_FILE.replace(b"2 1 0\n", b"2 \xd9\xa1 0\n"),  # U+0661 ARABIC-INDIC DIGIT ONE
    GRID_FILE.replace(b"2 1 0\n", b"2 \xff 0\n"),       # not UTF-8
    GRID_FILE.replace(b"field", b"\xef\xbb\xbffield"),  # a byte order mark
    GRID_FILE.replace(b"field", b"fi\xffeld"),
    b"field 3 1 0 1\ndims 2 3",
    b"field 3 1 0 1\n",
    b"",
]


@pytest.mark.parametrize("raw", FILE_VARIANTS, ids=range(len(FILE_VARIANTS)))
def test_read_matrix_reads_as_a_text_mode_read_did(raw, tmp_path):
    path = tmp_path / "m.pts"
    path.write_bytes(raw)
    want = _outcome(_text_mode_read, path)
    got = _outcome(linalg.read_matrix, path)
    assert _same(got, want), (got, want)
    got = _outcome(linalg.read_matrix, io.BytesIO(raw))
    assert _same(got, want), (got, want)


def test_read_matrix_matches_text_mode_read_on_mutated_files(tmp_path):
    # one byte replaced, inserted or deleted, from an alphabet of the bytes
    # that separate, end or break a grid entry
    rng = np.random.default_rng(61)
    alphabet = [bytes([c]) for c in b" \n\r\t0123456789x#-+."] + [b"\xff", b"\xd9\xa1"]
    base = bytearray(_written(MatrixGF(field_create(7), rng.integers(0, 7, size=(4, 5))))
                     .encode())
    path = tmp_path / "m.pts"
    for _ in range(400):
        raw = bytearray(base)
        at = int(rng.integers(len(raw)))
        kind = int(rng.integers(3))
        piece = alphabet[int(rng.integers(len(alphabet)))]
        if kind == 0:
            raw[at:at + 1] = piece
        elif kind == 1:
            raw[at:at] = piece
        else:
            del raw[at]
        path.write_bytes(bytes(raw))
        want = _outcome(_text_mode_read, path)
        got = _outcome(linalg.read_matrix, path)
        assert _same(got, want), (bytes(raw), got, want)


def test_matrix_parse_ignores_blank_lines_and_spacing():
    f13 = field_create(13)
    m = MatrixGF(f13, [[12, 0, 7], [10, 11, 1]])
    text = "\n  \nfield 13 1 0 1\n\ndims 2 3\n\n 12\t0  7 \r\n\n\t\n10 11 1"
    assert _read(text) == m
    assert _read(_written(m).replace("\n", "\n\n")) == m
    assert _read(_written(m).replace("\n", "\r")) == m


def test_matrix_with_zero_rows():
    f3 = field_create(3)
    m = zero_matrix(f3, 0, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _written(m) == "field 3 1 0 1\ndims 0 4\n"
        assert _read(_written(m)) == m
        assert _read(_written(m) + "\n \n") == m


@pytest.mark.parametrize("text", [
    "dims 2 2\n1 2\n3\n",       # ragged row
    "dims 3 2\n1 2\n3 4\n",     # too few rows
    "dims 1 2\n1 2\n3 4\n",     # too many rows
    "dims 0 2\n1 2\n",          # rows where none are declared
    "dims 1 2\n1 2 3\n",        # too many entries
    "dims 1 2\n1 x\n",          # non-integer token
    "dims 1 2\n1 2.0\n",
    "dims 1 2\n1 #\n",          # no comment syntax
    "dims 1 2\n1 2\n# note\n",
    "dims 1 2\n1 13\n",         # out of range
    "dims 1 2\n1 -1\n",
    "dimz 1 2\n1 2\n",          # malformed dims line
    "dims 1\n1 2\n",
    "dims 1 x\n1 2\n",
    "",                         # no dims line
])
def test_parse_matrix_rejects(text):
    with pytest.raises(ValueError):
        _read("field 13 1 0 1\n" + text)


def test_matrix_entry_validation():
    f2 = field_create(2)
    with pytest.raises(ValueError):
        MatrixGF(f2, [[0, 2]])


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3), st.integers(1, 5), st.integers(1, 5), st.integers(0, 2 ** 25 - 1))
def test_rref_preserves_row_space(q, r, c, seed):
    fld = field_create(q)
    rng = np.random.default_rng(seed)
    data = rng.integers(0, q, size=(r, c))
    m = MatrixGF(fld, data)
    R, rk, piv = rref(m)
    assert subspace_from_rows(m) == subspace_from_rows(R)
    assert rk == len(piv) == _naive_rank(fld, data)


def _lexsort_distinct_rows(rows):
    """The reference: the lexsort over all k columns that `distinct_rows` used
    before it sorted packed keys."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return ordered[first], np.sort(order[~first])


def _rows_with_repeats(rng, q, k, count):
    rows = rng.integers(0, q, (count, k))
    rows = np.vstack([rows, rows[rng.integers(0, count, count // 3)]])
    rows[rng.integers(0, len(rows))] = q - 1  # the largest entry sets the key base
    return rows[rng.permutation(len(rows))]


@pytest.mark.parametrize("k", [1, 3, 20, 41])
@pytest.mark.parametrize("q", [2, 3, 13, 256, 65521, 1 << 31, (1 << 62) + 5])
def test_distinct_rows_matches_the_column_lexsort(q, k):
    rng = np.random.default_rng(q * 100 + k)
    for rows in (_rows_with_repeats(rng, q, k, 300), np.zeros((0, k), dtype=np.int64)):
        got, want = linalg.distinct_rows(rows), _lexsort_distinct_rows(rows)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    column_major = np.asfortranarray(_rows_with_repeats(rng, q, k, 50))
    assert np.array_equal(linalg.distinct_rows(column_major)[0],
                          _lexsort_distinct_rows(column_major)[0])


@pytest.mark.parametrize("q,k,words", [(3, 20, 1), (13, 4, 1), (65521, 7, 3),
                                       (3, 41, 2), (13, 41, 3), (256, 20, 3),
                                       (65521, 20, 7), (2, 63, 1), (2, 64, 2)])
def test_row_keys_pack_digits_below_2_63(q, k, words):
    rows = np.array([[q - 1] * k, [0] * k, list(range(k))]) % q
    keys = linalg._row_keys(rows)
    assert len(keys) == words
    assert all(key.dtype == np.int64 and (key >= 0).all() for key in keys)


def test_row_keys_of_narrow_rows_hold_no_int64_copy():
    rows = np.random.default_rng(4).integers(0, 3, size=(20_000, 20)).astype(np.uint8)
    want = linalg._row_keys(rows.astype(np.int64))
    tracemalloc.start()
    try:
        got = linalg._row_keys(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert peak < rows.size * 2  # the keys (8 bytes a row), far below an int64 copy (8 a cell)
