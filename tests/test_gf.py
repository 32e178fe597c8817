import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockforge import gf
from blockforge.gf import (FieldSpec, default_modulus, field_create,
                           parse_field_header, poly_is_irreducible)

SMALL_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2),
                (2, 4), (5, 2), (2, 5), (3, 3), (2, 6), (7, 2)]


@pytest.fixture(params=SMALL_FIELDS, ids=lambda pm: f"GF({pm[0]}^{pm[1]})")
def fld(request):
    return field_create(*request.param)


def test_field_create_prime_default_modulus():
    f = field_create(2, 1)
    assert f.q == 2 and f.modulus == (0, 1)  # modulus x


def test_field_create_gf4():
    f = field_create(2, 2, [1, 1, 1])
    assert f.q == 4
    assert field_create(2, 2).modulus == (1, 1, 1)  # unique irreducible quadratic


def test_default_modulus_searched_once_per_field(monkeypatch):
    default_modulus.cache_clear()
    calls = []
    search = gf.poly_is_irreducible
    monkeypatch.setattr(gf, "poly_is_irreducible",
                        lambda coeffs, p: calls.append(p) or search(coeffs, p))
    first = field_create(3, 5)
    searched = len(calls)
    assert searched > 0
    assert field_create(3, 5) is first
    assert len(calls) == searched  # neither the search nor the field build ran again


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        field_create(2, 2, [1, 0, 1])  # x^2 + 1 = (x+1)^2


def test_nonprime_p_rejected():
    with pytest.raises(ValueError):
        field_create(4, 1)
    with pytest.raises(ValueError):
        field_create(1, 1)


def test_wrong_degree_modulus_rejected():
    with pytest.raises(ValueError):
        field_create(2, 3, [1, 1, 1])


def test_order_bound_rejected():
    with pytest.raises(ValueError):
        field_create(2, 17)


def test_gf4_multiplication_table():
    f = field_create(2, 2)
    # x * x = x + 1 under x^2 + x + 1
    assert f.mul(2, 2) == 3
    assert f.mul(2, 3) == 1  # x(x+1) = x^2+x = 1


def test_gf7_inverse():
    f = field_create(7)
    assert f.inv(3) == 5


def test_additive_identity(fld):
    for a in fld.elements():
        assert fld.add(a, 0) == a
        assert fld.sub(a, a) == 0


def test_all_inverses(fld):
    # exhaustive for every field under test (q <= 64 here)
    for a in range(1, fld.q):
        assert fld.mul(a, fld.inv(a)) == 1


def test_multiplicative_group_order(fld):
    for a in range(1, fld.q):
        assert fld.pow(a, fld.q - 1) == 1


def test_frobenius(fld):
    rng = np.random.default_rng(42)
    for _ in range(1000):
        a, b = int(rng.integers(0, fld.q)), int(rng.integers(0, fld.q))
        assert fld.pow(fld.add(a, b), fld.p) == fld.add(fld.pow(a, fld.p), fld.pow(b, fld.p))


def test_inv_zero_errors(fld):
    with pytest.raises(ZeroDivisionError):
        fld.inv(0)


def test_out_of_range_scalar_errors():
    f = field_create(3)
    with pytest.raises(ValueError):
        f.add(1, 5)  # 5 is an element of a larger field, not GF(3)
    with pytest.raises(ValueError):
        f.mul(-1, 1)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 24), st.integers(0, 24), st.integers(0, 24))
def test_gf25_ring_axioms(a, b, c):
    f = field_create(5, 2)
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)


def test_array_ops_match_scalar_ops(fld):
    rng = np.random.default_rng(3)
    a = rng.integers(0, fld.q, size=50)
    b = rng.integers(0, fld.q, size=50)
    add = fld.add_arr(a, b)
    mul = fld.mul_arr(a, b)
    neg = fld.neg_arr(a)
    for i in range(50):
        assert add[i] == fld.add(int(a[i]), int(b[i]))
        assert mul[i] == fld.mul(int(a[i]), int(b[i]))
        assert neg[i] == fld.neg(int(a[i]))


def test_matmul_arr_matches_schoolbook(fld):
    rng = np.random.default_rng(5)
    a = rng.integers(0, fld.q, size=(3, 4))
    b = rng.integers(0, fld.q, size=(4, 2))
    out = fld.matmul_arr(a, b)
    for i in range(3):
        for j in range(2):
            acc = 0
            for t in range(4):
                acc = fld.add(acc, fld.mul(int(a[i, t]), int(b[t, j])))
            assert out[i, j] == acc


def test_pow_negative_exponent():
    f = field_create(7)
    assert f.pow(3, -1) == 5
    with pytest.raises(ZeroDivisionError):
        f.pow(0, -1)


def test_header_round_trip(fld):
    assert parse_field_header(fld.header_line()) == fld


def test_default_modulus_is_lex_least():
    # lexicographic order on (c0, c1, c2) reaches x^3 + x^2 + 1 first: the
    # candidates (0,*,*) and (1,0,0) are all reducible over GF(2)
    assert default_modulus(2, 3) == (1, 0, 1, 1)
    assert poly_is_irreducible([1, 0, 1, 1], 2)
    assert poly_is_irreducible([1, 1, 0, 1], 2)  # x^3 + x + 1, the other cubic
    assert not poly_is_irreducible([1, 0, 0, 1], 2)  # x^3+1 = (x+1)(x^2+x+1)


def test_field_identity_and_cache():
    assert field_create(3, 2) is field_create(3, 2)
    assert field_create(3) != field_create(5)
    assert FieldSpec(2, 2, (1, 1, 1)) == field_create(2, 2)


def _power_walk_exp(fld):
    """The exp table as the generator search built it before the order test:
    the first g >= 2 whose powers, walked one multiplication at a time, reach
    all q - 1 nonzero elements."""
    if fld.q == 2:
        return [1]
    for g in range(2, fld.q):
        seq, e = [1], g
        while e != 1:
            seq.append(e)
            e = fld._mul_raw(e, g)
        if len(seq) == fld.q - 1:
            return seq
    raise AssertionError("no generator")


@pytest.mark.parametrize("pm", SMALL_FIELDS + [(2, 8), (3, 5)],
                         ids=lambda pm: f"GF({pm[0]}^{pm[1]})")
def test_exp_table_matches_power_walk(pm):
    fld = field_create(*pm)
    assert fld._exp.tolist() == _power_walk_exp(fld)


# One field per kernel kind: the prime kernel, the q x q tables, the Zech
# logs forced by a lowered cap, and a field above the real cap.
KERNEL_CASES = ([((13, 1), "prime")]
                + [(pm, kind) for pm in [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (2, 8)]
                   for kind in ("table", "zech")]
                + [((3, 6), "zech")])


@pytest.fixture(params=KERNEL_CASES, ids=lambda c: f"GF({c[0][0]}^{c[0][1]})-{c[1]}")
def kfld(request, monkeypatch):
    (p, m), kind = request.param
    if kind == "zech" and p ** m <= gf.TABLE_MAX_ORDER:
        # field_create caches, so the lowered cap needs a fresh FieldSpec
        monkeypatch.setattr(gf, "TABLE_MAX_ORDER", 1)
    fld = FieldSpec(p, m, default_modulus(p, m))
    got = "prime" if m == 1 else ("zech" if fld._zech is not None else "table")
    assert got == kind
    return fld


def _pairs(fld):
    """Every pair for q <= 27; otherwise a sample plus the pairs a Zech table
    gets wrong first: zeros, equal operands and a + (-a) = 0."""
    q = fld.q
    if q <= 27:
        return np.repeat(np.arange(q), q), np.tile(np.arange(q), q)
    rng = np.random.default_rng(11)
    x = rng.integers(0, q, size=1500)
    negs = np.array([fld.neg(int(v)) for v in x])
    a = np.concatenate([rng.integers(0, q, size=1500), x, x, np.zeros_like(x), x])
    b = np.concatenate([rng.integers(0, q, size=1500), negs, x, x, np.zeros_like(x)])
    return a, b


def test_array_kernels_match_scalar_ops(kfld):
    a, b = _pairs(kfld)
    a0, b0 = a.copy(), b.copy()
    pairs = list(zip(a.tolist(), b.tolist()))
    want = {
        "add_arr": [kfld.add(x, y) for x, y in pairs],
        "sub_arr": [kfld.add(x, kfld.neg(y)) for x, y in pairs],
        "mul_arr": [kfld.mul(x, y) for x, y in pairs],
    }
    for name, expected in want.items():
        got = getattr(kfld, name)(a, b)
        assert got.dtype == np.int64
        assert got.tolist() == expected, name
    neg = kfld.neg_arr(a)
    assert neg.dtype == np.int64 and neg.tolist() == [kfld.neg(x) for x in a.tolist()]
    nz = a[a != 0]
    inv = kfld.inv_arr(nz)
    assert inv.dtype == np.int64
    assert all(kfld.mul(x, y) == 1 for x, y in zip(nz.tolist(), inv.tolist()))
    with pytest.raises(ZeroDivisionError):
        kfld.inv_arr(np.array([1, 0]))
    assert np.array_equal(a, a0) and np.array_equal(b, b0)


def test_array_kernels_broadcast_and_empty(kfld):
    rng = np.random.default_rng(12)
    pts = rng.integers(0, kfld.q, size=(6, 4))
    pts0 = pts.copy()
    for lam in (0, 1, kfld.q - 1):  # scalar x 2-D, as in verify.to_affine_blocking
        got = kfld.mul_arr(lam, pts)
        assert got.dtype == np.int64 and got.shape == pts.shape
        assert got.tolist() == [[kfld.mul(lam, int(v)) for v in row] for row in pts]
    col, row = pts[:, :1], pts[:1, :]
    none = np.zeros((0, 3), dtype=np.int64)
    for name, ref in (("add_arr", kfld.add), ("sub_arr", kfld.sub), ("mul_arr", kfld.mul)):
        got = getattr(kfld, name)(col, row)
        assert got.dtype == np.int64 and got.shape == (6, 4)
        assert got.tolist() == [[ref(int(x), int(y)) for y in row[0]] for x in col[:, 0]], name
        empty = getattr(kfld, name)(none, none)
        assert empty.dtype == np.int64 and empty.shape == (0, 3)
    for name in ("neg_arr", "inv_arr"):
        empty = getattr(kfld, name)(none)
        assert empty.dtype == np.int64 and empty.shape == (0, 3)
    assert np.array_equal(pts, pts0)


@pytest.mark.parametrize("shape", [(5, 7, 4), (3, 1, 6), (0, 3, 4), (3, 3, 0), (2, 0, 3)])
def test_matmul_arr_matches_scalar_ops(kfld, shape):
    r, t, c = shape
    rng = np.random.default_rng(13)
    a = rng.integers(0, kfld.q, size=(r, t))
    b = rng.integers(0, kfld.q, size=(t, c))
    a0, b0 = a.copy(), b.copy()
    out = kfld.matmul_arr(a, b)
    assert out.dtype == np.int64 and out.shape == (r, c)
    for i in range(r):
        for j in range(c):
            acc = 0
            for k in range(t):
                acc = kfld.add(acc, kfld.mul(int(a[i, k]), int(b[k, j])))
            assert out[i, j] == acc
    assert np.array_equal(a, a0) and np.array_equal(b, b0)


# Narrow storage: each field's storage type against int64, every kernel kind.
NARROW_FIELDS = [(2, 1), (3, 1), (13, 1), (3, 2), (2, 8), (65521, 1), (2, 16)]


def _narrow_pairs(fld):
    """Every pair for q <= 16; otherwise a sample plus the extremes 0, 1 and
    q - 1 against each other, the all-(q-1) worst case included."""
    q = fld.q
    if q <= 16:
        return np.repeat(np.arange(q), q), np.tile(np.arange(q), q)
    rng = np.random.default_rng(q)
    ends = np.array([0, 1, q - 1])
    a = np.concatenate([rng.integers(0, q, size=400), np.repeat(ends, 3)])
    b = np.concatenate([rng.integers(0, q, size=400), np.tile(ends, 3)])
    return a, b


@pytest.mark.parametrize("pm", NARROW_FIELDS, ids=lambda pm: f"GF({pm[0]}^{pm[1]})")
def test_narrow_kernels_match_scalar_ops(pm):
    fld = field_create(*pm)
    assert fld.dtype == (np.uint8 if fld.q <= 256 else np.uint16)
    a, b = _narrow_pairs(fld)
    pairs = list(zip(a.tolist(), b.tolist()))
    want = {"add_arr": [fld.add(x, y) for x, y in pairs],
            "sub_arr": [fld.sub(x, y) for x, y in pairs],
            "mul_arr": [fld.mul(x, y) for x, y in pairs]}
    for dtype in (fld.dtype, np.int64):
        x, y = a.astype(dtype), b.astype(dtype)
        for name, expected in want.items():
            got = getattr(fld, name)(x, y)
            assert got.dtype == dtype and got.tolist() == expected, (name, dtype)
        neg = fld.neg_arr(x)
        assert neg.dtype == dtype and neg.tolist() == [fld.neg(v) for v in a.tolist()]
        inv = fld.inv_arr(x[x != 0])
        assert inv.dtype == dtype
        assert inv.tolist() == [fld.inv(v) for v in a[a != 0].tolist()]
    mixed = fld.mul_arr(a.astype(fld.dtype), b)  # a narrow and an int64 operand
    assert mixed.dtype == np.int64 and mixed.tolist() == want["mul_arr"]


# Inner dimensions on both sides of each accumulate threshold of the prime
# kernel, inner * (p-1)^2 against the uint8, uint16 and uint32 maxima; the
# extension fields gather from tables and take any inner dimension.
MATMUL_INNER = {(2, 1): (255, 256), (3, 1): (63, 64), (13, 1): (1, 2, 455, 456),
                (65521, 1): (1, 2), (3, 2): (1, 7), (2, 8): (1, 7), (2, 16): (1, 7)}


def test_matmul_inner_dimensions_straddle_the_thresholds():
    for (p, m), inner in MATMUL_INNER.items():
        if m == 1:
            fld = field_create(p)
            acc = [gf._accumulator(t * (p - 1) ** 2, fld.dtype) for t in inner]
            assert all(lo != hi for lo, hi in zip(acc[::2], acc[1::2])), (p, acc)


@pytest.mark.parametrize("pm,inner", [(pm, t) for pm, ts in MATMUL_INNER.items() for t in ts],
                         ids=lambda v: f"GF({v[0]}^{v[1]})" if isinstance(v, tuple) else str(v))
def test_narrow_matmul_matches_scalar_ops(pm, inner):
    fld = field_create(*pm)
    q = fld.q
    rng = np.random.default_rng(inner)
    a = rng.integers(0, q, size=(3, inner))
    b = rng.integers(0, q, size=(inner, 2))
    a[0], b[:, 0] = q - 1, q - 1  # entry (0, 0): the all-(q-1) worst case
    want = []
    for i in range(3):
        row = []
        for j in range(2):
            acc = 0
            for t in range(inner):
                acc = fld.add(acc, fld.mul(int(a[i, t]), int(b[t, j])))
            row.append(acc)
        want.append(row)
    for dtype in (fld.dtype, np.int64):
        got = fld.matmul_arr(a.astype(dtype), b.astype(dtype))
        assert got.dtype == dtype and got.tolist() == want, dtype


# (p, inner, rows, cols): products just under and just over FLOAT_MIN_MACS =
# 2^18 multiply-adds, outputs just under and just over FLOAT_BLOCK = 2^16
# entries, and row and column blocks that leave a remainder; GF(251) on both
# sides of FLOAT_EXACT = 2^24, since 268 * 250^2 < 2^24 <= 269 * 250^2.
FLOAT_CASES = [(p, 20, rows, cols) for p in (2, 3, 13)
               for rows, cols in [(256, 51), (256, 52), (255, 257), (257, 256), (3, 70_001)]]
FLOAT_CASES += [(251, inner, 257, 256) for inner in (268, 269)]


@pytest.mark.parametrize("p,inner,rows,cols", FLOAT_CASES)
def test_float_matmul_matches_an_exact_reference(monkeypatch, p, inner, rows, cols):
    assert 256 * 20 * 51 <= gf.FLOAT_MIN_MACS < 256 * 20 * 52
    assert 255 * 257 <= gf.FLOAT_BLOCK < 257 * 256
    assert 268 * 250 ** 2 < gf.FLOAT_EXACT <= 269 * 250 ** 2
    fld = field_create(p)
    rng = np.random.default_rng(p * inner + rows + cols)
    a = rng.integers(0, p, size=(rows, inner))
    b = rng.integers(0, p, size=(inner, cols))
    if p == 251:  # mostly 250: sums close to 2^24, odd and even, past it at 269
        a = np.where(rng.random(a.shape) < 0.1, 249, 250)
        b = np.where(rng.random(b.shape) < 0.1, 249, 250)
    want = a @ b % p  # int64 sums stay far below 2^63: exact, and spot-checked in Python ints
    for i, j in [(0, 0), (rows - 1, cols - 1),
                 *zip(rng.integers(0, rows, 20).tolist(), rng.integers(0, cols, 20).tolist())]:
        assert want[i, j] == sum(int(x) * int(y) for x, y in zip(a[i], b[:, j])) % p
    blocks = []  # the float route casts each block into the result with np.copyto
    copyto = np.copyto

    def spy(*args, **kw):
        blocks.append(1)
        return copyto(*args, **kw)
    monkeypatch.setattr(gf.np, "copyto", spy)
    floats = inner * (p - 1) ** 2 < gf.FLOAT_EXACT and rows * inner * cols > gf.FLOAT_MIN_MACS
    for dtype in (fld.dtype, np.int64):
        blocks.clear()
        got = fld.matmul_arr(a.astype(dtype), b.astype(dtype))
        assert got.dtype == dtype and np.array_equal(got, want), dtype
        assert len(blocks) == (-(-rows * cols // gf.FLOAT_BLOCK) if floats else 0)


# _reduce against Python ints: every bound an arithmetic kernel passes, one
# that takes exactly REDUCE_MAX_STEPS steps, one that takes more, and the
# type's largest value; sizes below, at and past one and two blocks.
REDUCE_PRIMES = (2, 3, 5, 7, 13, 251, 65521)
REDUCE_TYPES = (np.uint8, np.uint16, np.uint32, np.int64)
REDUCE_SIZES = (0, 1, gf.REDUCE_BLOCK - 1, gf.REDUCE_BLOCK, gf.REDUCE_BLOCK + 1,
                2 * gf.REDUCE_BLOCK, 2 * gf.REDUCE_BLOCK + 3)


def _reduce_bounds(p, dtype):
    top = int(np.iinfo(dtype).max)
    bounds = {p, 2 * (p - 1), (p - 1) ** 2, 20 * (p - 1) ** 2,
              (p << gf.REDUCE_MAX_STEPS) - 1, p << gf.REDUCE_MAX_STEPS, top}
    return sorted(b for b in bounds if p <= b <= top)


def _reduce_operand(rng, p, bound, size, dtype):
    """`size` values in [0, bound]: the ends, multiples of p and their
    neighbours near the bound, and uniform draws."""
    edges = [0, bound, p - 1, p, bound - bound % p, bound - bound % p - 1]
    x = rng.integers(0, bound, size=size, endpoint=True)
    x[:min(size, len(edges))] = edges[:size]
    return x.astype(dtype)


@pytest.mark.parametrize("dtype", REDUCE_TYPES, ids=lambda t: np.dtype(t).name)
@pytest.mark.parametrize("p", REDUCE_PRIMES)
def test_reduce_matches_python_ints(p, dtype):
    assert (gf.REDUCE_BLOCK, gf.REDUCE_MAX_STEPS) == (1 << 16, 8)
    rng = np.random.default_rng(p)
    for bound in _reduce_bounds(p, dtype):
        for size in REDUCE_SIZES:
            x = _reduce_operand(rng, p, bound, size, dtype)
            want = [v % p for v in x.tolist()]
            got = gf._reduce(x, p, bound)
            assert got is x, (bound, size)  # in place
            assert got.dtype == dtype and got.tolist() == want, (bound, size)


@pytest.mark.parametrize("order", ["C", "F"])
def test_reduce_in_place_on_two_dimensional_and_strided_arrays(order):
    p, bound = 13, 12 * 12
    rng = np.random.default_rng(5)
    x = np.asarray(_reduce_operand(rng, p, bound, 300 * 400, np.uint8).reshape(300, 400),
                   order=order)
    want = [[v % p for v in row] for row in x.tolist()]
    assert gf._reduce(x, p, bound) is x and x.tolist() == want
    y = _reduce_operand(rng, p, bound, 4 * gf.REDUCE_BLOCK, np.uint8).reshape(-1, 2)
    view = y[::2]  # neither C- nor F-contiguous
    want = [[v % p for v in row] for row in view.tolist()]
    untouched = y[1::2].copy()
    assert gf._reduce(view, p, bound) is view and view.tolist() == want
    assert np.array_equal(y[1::2], untouched)


@pytest.mark.parametrize("p", REDUCE_PRIMES)
def test_reduce_of_scalars_and_zero_dimensional_arrays(p):
    a = np.dtype(gf._accumulator((p - 1) ** 2))
    for v in (0, p - 1, p, (p - 1) ** 2):
        got = gf._reduce(a.type(v), p, (p - 1) ** 2)
        assert isinstance(got, np.generic) and int(got) == v % p
        x = np.array(v, dtype=a)
        assert gf._reduce(x, p, (p - 1) ** 2).tolist() == v % p


@pytest.mark.parametrize("p", REDUCE_PRIMES)
def test_prime_kernels_on_scalars_and_broadcast_operands(p):
    # the kernels' results against Python ints: storage-type and 0-d scalars,
    # Python ints, and broadcasts past REDUCE_BLOCK entries with C- and
    # F-ordered results
    fld = field_create(p)
    rng = np.random.default_rng(p + 1)
    for a, b in [(p - 1, p - 1), (0, p - 1), (p // 2, p - 1)]:
        for x, y in [(fld.dtype.type(a), fld.dtype.type(b)),
                     (np.array(a, dtype=fld.dtype), np.array(b, dtype=fld.dtype)), (a, b)]:
            assert int(fld.add_arr(x, y)) == (a + b) % p
            assert int(fld.mul_arr(x, y)) == a * b % p
            assert int(fld.neg_arr(x)) == -a % p
            assert int(fld.sub_arr(x, y)) == (a - b) % p
    col = rng.integers(0, p, size=(300, 1)).astype(fld.dtype)
    row = rng.integers(0, p, size=(1, 301)).astype(fld.dtype)
    assert 300 * 301 > gf.REDUCE_BLOCK
    full = rng.integers(0, p, size=(301, 300)).astype(fld.dtype).T
    for x, y, order in [(col, row, "C"), (full, row[:, :1], "F")]:
        shape = np.broadcast_shapes(x.shape, y.shape)
        pairs = [list(zip(u, v)) for u, v in zip(np.broadcast_to(x, shape).tolist(),
                                                  np.broadcast_to(y, shape).tolist())]
        got = fld.add_arr(x, y), fld.mul_arr(x, y), fld.neg_arr(np.broadcast_to(x, shape))
        assert all(r.dtype == fld.dtype for r in got)
        assert got[0].flags[f"{order}_CONTIGUOUS"] and got[1].flags[f"{order}_CONTIGUOUS"]
        assert got[0].tolist() == [[(u + v) % p for u, v in row] for row in pairs]
        assert got[1].tolist() == [[u * v % p for u, v in row] for row in pairs]
        assert got[2].tolist() == [[-u % p for u, _ in row] for row in pairs]
