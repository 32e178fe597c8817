"""Arithmetic in GF(p^m).

Scalars are plain integers in [0, q) encoding polynomials over GF(p) in
base p: value = a_0 + a_1*p + ... + a_{m-1}*p^(m-1).  A FieldSpec owns the
modulus and the lookup tables; it is immutable after construction and safe
to share across threads.  Scalar methods validate their operands and are the
reference for the *_arr methods, the unchecked fast path for integer arrays,
which have one kernel per kind of field: mod-p arithmetic for prime fields,
q x q add and mul tables up to TABLE_MAX_ORDER elements, and above it log/exp
tables that multiply and a Zech-log table that adds.

Dtype rule.  A field's storage type `dtype` is the smallest unsigned type
that holds [0, q): uint8 up to q = 256, uint16 above.  The *_arr methods
take arrays of any integer type holding entries in [0, q) (Python scalars
count as int64) and return `np.result_type` of the operands and `dtype`:
storage-type operands give storage-type results, int64 operands int64
results.  Prime fields compute in the smallest of uint8, uint16, uint32 and
int64 that holds both the operands and the largest unreduced value (for
matmul_arr, inner * (p-1)^2), then reduce in place without dividing:
`_reduce` subtracts p * 2^j wherever that leaves a smaller unsigned value,
one bit j of bound // p at a time (see REDUCE_BLOCK).  Table gathers widen
only their index arithmetic.  A prime-field matmul_arr of more than
FLOAT_MIN_MACS multiply-adds whose unreduced values stay below 2^24
multiplies in float32 BLAS, exact there, casting one block of at most
FLOAT_BLOCK entries at a time into that same accumulator.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

# Fields are capped at 2^16 elements: log/exp tables stay small and the
# desk-scale constructions never need more.
MAX_ORDER = 1 << 16

# q x q add and mul tables up to this order (1 MiB per field at the cap), Zech
# logs above it: a property of the kernels, not a setting.
TABLE_MAX_ORDER = 256


# A prime-field product whose sums stay below FLOAT_EXACT = 2^24 (inner *
# (p-1)^2) is exact in float32, whatever order BLAS adds in: every partial
# sum is a non-negative integer, which float32 holds exactly below 2^24.
# matmul_arr runs such a product on float32 BLAS, at most FLOAT_BLOCK output
# entries at a time, when it takes more than FLOAT_MIN_MACS multiply-adds.
# Smaller products stay on numpy's integer matmul, where each takes half a
# millisecond or less: the first float32 product big enough for BLAS to pack
# its operands leaves about 1 MB of BLAS buffer resident for the life of the
# process, which a run of only small products never pays.
FLOAT_EXACT = 1 << 24
FLOAT_BLOCK = 1 << 16
FLOAT_MIN_MACS = 1 << 18


# _reduce takes x mod p for unsigned x in [0, bound] as x = min(x, x - p 2^j)
# for each bit j of bound // p, high to low: unsigned x - p 2^j wraps above x
# when x < p 2^j.  It works REDUCE_BLOCK entries at a time, so its one
# temporary stays small.  Arrays of fewer entries, signed ones, and bounds
# needing more than REDUCE_MAX_STEPS bits reduce with `%=`, which is faster
# there: on uint8, one step over a block takes about a twentieth of `%`.
REDUCE_BLOCK = 1 << 16
REDUCE_MAX_STEPS = 8


def _reduce(acc, p: int, bound: int):
    """acc mod p, in place, for integer entries in [0, bound]; returns acc
    (a numpy scalar is not reduced in place, so use the result)."""
    steps = (bound // p).bit_length()
    if (acc.dtype.kind != "u" or acc.size < REDUCE_BLOCK or steps > REDUCE_MAX_STEPS
            or not (acc.flags.c_contiguous or acc.flags.f_contiguous)):
        acc %= p
        return acc
    flat = acc.reshape(-1, order="A")  # a view, in memory order
    spare = np.empty(REDUCE_BLOCK, dtype=acc.dtype)
    subtrahends = [acc.dtype.type(p << j) for j in range(steps - 1, -1, -1)]
    for lo in range(0, flat.size, REDUCE_BLOCK):
        x = flat[lo:lo + REDUCE_BLOCK]
        y = spare[:x.size]
        for c in subtrahends:
            np.subtract(x, c, out=y)
            np.minimum(x, y, out=x)
    return acc


@functools.lru_cache(maxsize=256)
def _widest(*dtypes) -> np.dtype:
    """The smallest type that holds every one of `dtypes`."""
    return functools.reduce(np.promote_types, dtypes)


@functools.lru_cache(maxsize=256)
def _accumulator(bound: int, *dtypes) -> np.dtype:
    """The smallest of uint8, uint16, uint32 and int64 that holds `bound`,
    widened to the operands' types."""
    acc = (np.uint8 if bound <= 0xFF else np.uint16 if bound <= 0xFFFF
           else np.uint32 if bound <= 0xFFFFFFFF else np.int64)
    return _widest(acc, *dtypes)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# ---------------------------------------------------------------------------
# polynomial helpers (coefficient lists over GF(p), low degree first)
# ---------------------------------------------------------------------------

def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a: list[int], mod: list[int], p: int) -> list[int]:
    # mod must be monic
    a = list(a)
    d = len(mod) - 1
    while len(a) - 1 >= d and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - d
            for i, c in enumerate(mod):
                a[shift + i] = (a[shift + i] - lead * c) % p
        a.pop()
    return _poly_trim(a)


def poly_is_irreducible(coeffs: list[int], p: int) -> bool:
    """Trial division against every lower-degree monic polynomial."""
    coeffs = list(coeffs)
    m = len(coeffs) - 1
    if m < 1 or coeffs[-1] != 1:
        return False
    if m == 1:
        return True
    for d in range(1, m // 2 + 1):
        for digits in itertools.product(range(p), repeat=d):
            divisor = list(digits) + [1]
            if not _poly_mod(coeffs, divisor, p):
                return False
    return True


@functools.lru_cache(maxsize=None)
def default_modulus(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree m over GF(p).

    Deterministic so that file headers written on different machines agree,
    and searched for once per (p, m).
    """
    # c0 varies slowest; for m > 1 a candidate with c0 = 0 is divisible by x
    for digits in itertools.product(range(1 if m > 1 else 0, p), *[range(p)] * (m - 1)):
        cand = list(digits) + [1]
        if poly_is_irreducible(cand, p):
            return tuple(cand)
    raise RuntimeError(f"no irreducible of degree {m} over GF({p})")  # unreachable


# ---------------------------------------------------------------------------
# FieldSpec
# ---------------------------------------------------------------------------

class FieldSpec:
    """GF(p^m) with table-driven arithmetic.  Use :func:`field_create`."""

    def __init__(self, p: int, m: int, modulus):
        if not is_prime(p):
            raise ValueError(f"p={p} is not prime")
        if m < 1:
            raise ValueError(f"extension degree m={m} must be >= 1")
        q = p ** m
        if q > MAX_ORDER:
            raise ValueError(f"field order {q} exceeds the supported bound {MAX_ORDER}")
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != m + 1 or modulus[-1] != 1:
            raise ValueError(f"modulus must be monic of degree {m}, got {modulus}")
        if not poly_is_irreducible(list(modulus), p):
            raise ValueError(f"modulus {modulus} is reducible over GF({p})")
        self.p = p
        self.m = m
        self.q = q
        self.modulus = modulus
        self.dtype = np.dtype(np.uint8 if q <= 256 else np.uint16)  # storage type
        self._build_tables()

    # -- construction helpers ------------------------------------------------

    def _decode(self, a: int) -> list[int]:
        digits = []
        for _ in range(self.m):
            a, r = divmod(a, self.p)
            digits.append(r)
        return digits

    def _encode(self, digits) -> int:
        v = 0
        for d in reversed(list(digits)):
            v = v * self.p + (d % self.p)
        return v

    def _mul_raw(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        prod = _poly_mul(self._decode(a), self._decode(b), self.p)
        prod = _poly_mod(prod, list(self.modulus), self.p)
        prod += [0] * (self.m - len(prod))
        return self._encode(prod)

    def _pow_raw(self, a: int, e: int) -> int:
        out = 1
        while e:
            if e & 1:
                out = self._mul_raw(out, a)
            a = self._mul_raw(a, a)
            e >>= 1
        return out

    def _build_tables(self):
        p, m, q = self.p, self.m, self.q
        order = q - 1
        pows = p ** np.arange(m, dtype=np.int64)
        digits = (np.arange(q, dtype=np.int64)[:, None] // pows) % p  # base p, low first
        # the least g >= 2 of order q - 1 (1 for GF(2)): g^((q-1)/r) != 1 for each prime r | q-1
        primes = [r for r in range(2, q) if order % r == 0 and is_prime(r)]
        step = next((g for g in range(2, q)
                     if all(self._pow_raw(g, order // r) != 1 for r in primes)), 1)
        exp = np.ones(1, dtype=np.int64)
        while len(exp) < order:  # exp[n:2n] = exp[:n] * g^n; x -> c x is linear on digits
            rows = digits[[self._mul_raw(int(v), step) for v in pows]]
            exp = np.concatenate([exp, ((digits[exp] @ rows) % p) @ pows])
            step = self._mul_raw(step, step)
        exp = exp[:order]
        log = np.full(q, -1, dtype=np.int64)
        log[exp] = np.arange(order, dtype=np.int64)
        self._log = log
        inv = np.zeros(q, dtype=self.dtype)
        inv[exp] = exp[(-np.arange(order)) % order]
        self._exp, self._inv = exp.astype(self.dtype), inv
        self._neg = self._add = self._mul = self._zech = None
        if m == 1:
            return
        self._neg = (((-digits) % p) @ pows).astype(self.dtype)
        if q <= TABLE_MAX_ORDER:
            self._add = (((digits[:, None] + digits[None]) % p) @ pows).astype(self.dtype).ravel()
            mul = self._exp[(log[:, None] + log[None]) % order]
            mul[0] = mul[:, 0] = 0
            self._mul = mul.ravel()
        else:
            # _zech[n] = log(1 + g^n), -1 where 1 + g^n = 0; adding 1 changes digit 0
            low = exp % p
            self._zech = log[exp - low + (low + 1) % p]

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, FieldSpec)
                and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus))

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m})"

    # -- scalar operations (validated) ---------------------------------------

    def _check(self, a: int) -> int:
        a = int(a)
        if not 0 <= a < self.q:
            raise ValueError(f"scalar {a} is not an element of {self!r}")
        return a

    def add(self, a: int, b: int) -> int:
        a, b = self._check(a), self._check(b)
        return self._encode((x + y) % self.p for x, y in zip(self._decode(a), self._decode(b)))

    def neg(self, a: int) -> int:
        a = self._check(a)
        return self._encode((-x) % self.p for x in self._decode(a))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        a, b = self._check(a), self._check(b)
        if a == 0 or b == 0:
            return 0
        return int(self._exp[(self._log[a] + self._log[b]) % (self.q - 1)])

    def inv(self, a: int) -> int:
        a = self._check(a)
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in {self!r}")
        return int(self._inv[a])

    def pow(self, a: int, e: int) -> int:
        a = self._check(a)
        e = int(e)
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("0 to a negative power")
            return 0
        return int(self._exp[(int(self._log[a]) * e) % (self.q - 1)])

    def elements(self):
        return range(self.q)

    # -- array operations (unchecked fast path) -------------------------------

    def _operands(self, *arrays):
        """The operands as arrays, and the dtype of the result (module docstring)."""
        arrays = tuple(map(np.asarray, arrays))
        return arrays, _widest(self.dtype, *[x.dtype for x in arrays])

    def _table(self, table, a, b, out):
        idx = np.multiply(a, self.q, dtype=np.intp) + b  # a * q + b overflows a narrow type
        return table[idx].astype(out, copy=False)

    def add_arr(self, a, b):
        (a, b), out = self._operands(a, b)
        if self.m == 1:
            bound = 2 * (self.p - 1)
            acc = np.add(a, b, dtype=_accumulator(bound, a.dtype, b.dtype))
            return _reduce(acc, self.p, bound).astype(out, copy=False)
        if self._zech is None:
            return self._table(self._add, a, b, out)
        la, lb = self._log[a], self._log[b]  # g^i + g^j = g^(i + zech[j - i])
        z = self._zech[(lb - la) % (self.q - 1)]
        s = np.where(z < 0, 0, self._exp[(la + z) % (self.q - 1)])
        return np.where(la < 0, b, np.where(lb < 0, a, s)).astype(out, copy=False)

    def neg_arr(self, a):
        (a,), out = self._operands(a)
        if self.m == 1:
            acc = np.subtract(self.p, a, dtype=_accumulator(self.p, a.dtype))
            return _reduce(acc, self.p, self.p).astype(out, copy=False)
        return self._neg[a].astype(out, copy=False)

    def sub_arr(self, a, b):
        return self.add_arr(a, self.neg_arr(b))

    def mul_arr(self, a, b):
        (a, b), out = self._operands(a, b)
        if self.m == 1:
            bound = (self.p - 1) ** 2
            acc = np.multiply(a, b, dtype=_accumulator(bound, a.dtype, b.dtype))
            return _reduce(acc, self.p, bound).astype(out, copy=False)
        if self._zech is None:
            return self._table(self._mul, a, b, out)
        la, lb = self._log[a], self._log[b]
        prod = np.where((la < 0) | (lb < 0), 0, self._exp[(la + lb) % (self.q - 1)])
        return prod.astype(out, copy=False)

    def inv_arr(self, a):
        (a,), out = self._operands(a)
        if (a == 0).any():
            raise ZeroDivisionError(f"0 has no inverse in {self!r}")
        return self._inv[a].astype(out, copy=False)

    def matmul_arr(self, a, b):
        """(r x t) @ (t x c) over the field."""
        (a, b), out = self._operands(np.atleast_2d(a), np.atleast_2d(b))
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"inner dimensions disagree: {a.shape} @ {b.shape}")
        if self.m == 1:
            bound = a.shape[1] * (self.p - 1) ** 2
            acc_type = _accumulator(bound, a.dtype, b.dtype)
            rows, cols = a.shape[0], b.shape[1]
            if bound >= FLOAT_EXACT or rows * a.shape[1] * cols <= FLOAT_MIN_MACS:
                acc = np.matmul(a, b, dtype=acc_type)
            else:  # float32 blocks of rows, or of columns when one row is too long
                acc = np.empty((rows, cols), dtype=acc_type)
                width = cols if cols <= FLOAT_BLOCK else max(1, FLOAT_BLOCK // rows)
                height = max(1, FLOAT_BLOCK // width)
                for c0 in range(0, cols, width):
                    right = b[:, c0:c0 + width].astype(np.float32)
                    for r0 in range(0, rows, height):
                        np.copyto(acc[r0:r0 + height, c0:c0 + width],
                                  a[r0:r0 + height].astype(np.float32) @ right,
                                  casting="unsafe")
            return _reduce(acc, self.p, bound).astype(out, copy=False)
        acc = np.zeros((a.shape[0], b.shape[1]), dtype=out)
        for t in range(a.shape[1]):
            acc = self.add_arr(acc, self.mul_arr(a[:, t:t + 1], b[t:t + 1, :]))
        return acc

    # -- file header ----------------------------------------------------------

    def header_line(self) -> str:
        return "field {} {} {}".format(self.p, self.m, " ".join(str(c) for c in self.modulus))


@functools.lru_cache(maxsize=64)
def _cached_field(p: int, m: int, modulus: tuple[int, ...]) -> FieldSpec:
    return FieldSpec(p, m, modulus)


def field_create(p: int, m: int = 1, modulus=None) -> FieldSpec:
    """Create (or fetch from cache) GF(p^m).

    When no modulus is given the lexicographically least monic irreducible of
    degree m is used, so the default field for a given (p, m) is identical
    across runs and machines.
    """
    p, m = int(p), int(m)
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if m < 1:
        raise ValueError(f"extension degree m={m} must be >= 1")
    if p ** m > MAX_ORDER:
        raise ValueError(f"field order {p ** m} exceeds the supported bound {MAX_ORDER}")
    if modulus is None:
        modulus = default_modulus(p, m)
    return _cached_field(p, m, tuple(int(c) for c in modulus))


def parse_field_header(line: str) -> FieldSpec:
    toks = line.split()
    if len(toks) < 4 or toks[0] != "field":
        raise ValueError(f"malformed field header: {line!r}")
    p, m = int(toks[1]), int(toks[2])
    modulus = [int(t) for t in toks[3:]]
    if len(modulus) != m + 1:
        raise ValueError(f"field header lists {len(modulus)} coefficients, expected {m + 1}")
    return field_create(p, m, modulus)
