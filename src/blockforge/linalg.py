"""Dense matrices, RREF, and subspace enumeration over GF(q).

Subspaces are canonicalized as the RREF of a basis together with the pivot
columns, so equality is a cheap comparison and enumeration has a stable
order (lexicographic over pivot sets, then over free entries).  The file
codec lives here too: every matrix, supply, blocking-set and graph file,
with its `<file>.json` sidecar, is read and written as bytes by
`read_rows` and `write_rows`, from and to a path or a binary stream.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import re

import numpy as np

from .gf import FieldSpec, parse_field_header


class MatrixGF:
    """An immutable dense matrix over a FieldSpec, entries int64 in [0, q)."""

    __slots__ = ("field", "data")

    def __init__(self, field: FieldSpec, data):
        arr = np.array(data, dtype=np.int64, ndmin=2)
        if arr.ndim != 2:
            raise ValueError(f"matrix data must be 2-D, got shape {arr.shape}")
        _check_entries(field, arr)
        arr.setflags(write=False)
        self.field = field
        self.data = arr

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self):
        return self.data.shape

    def __eq__(self, other):
        return (isinstance(other, MatrixGF) and self.field == other.field
                and self.data.shape == other.data.shape
                and np.array_equal(self.data, other.data))

    def __hash__(self):
        return hash((self.field, self.data.shape, self.data.tobytes()))

    def __repr__(self):
        return f"MatrixGF({self.field!r}, {self.data.tolist()})"


def _check_entries(field: FieldSpec, data: np.ndarray) -> None:
    if data.size and (data.min() < 0 or data.max() >= field.q):
        raise ValueError(f"entries out of range for {field!r}")


def matmul(a: MatrixGF, b: MatrixGF) -> MatrixGF:
    if a.field != b.field:
        raise ValueError("matrices live over different fields")
    if a.cols != b.rows:
        raise ValueError(f"inner dimensions disagree: {a.shape} @ {b.shape}")
    return MatrixGF(a.field, a.field.matmul_arr(a.data, b.data))


# ---------------------------------------------------------------------------
# RREF
# ---------------------------------------------------------------------------

def _eliminate(field: FieldSpec, a, reduce: bool) -> tuple[np.ndarray, np.ndarray]:
    """(E, ranks) for a (count, rows, cols) stack, in the field's storage
    type: each column is eliminated only in the matrices that can still take
    a pivot and only in the rows where it is nonzero, below the pivot row,
    and above it too when `reduce`, which leaves E[i] in reduced row echelon
    form (otherwise in row echelon form with unit pivots).  The sweep ends
    once every matrix has full row rank.  An entry outside [0, q) is a
    ValueError."""
    a = np.asarray(a)
    _check_entries(field, a)
    R = a.astype(field.dtype)
    _, rows, cols = R.shape
    ranks = np.zeros(len(R), dtype=np.int64)
    for c in range(cols):
        if (ranks == rows).all():
            break
        cand = (R[:, :, c] != 0) & (np.arange(rows) >= ranks[:, None])
        b = np.nonzero(cand.any(axis=1))[0]  # the matrices with a pivot in column c
        src, r = cand[b].argmax(axis=1), ranks[b]  # found in row src, moved to row r
        # Rows from the rank down are zero left of column c, so the pivot row is too.
        piv = R[b, src, c:]
        R[b, src, c:] = R[b, r, c:]
        R[b, r, c:] = piv = field.mul_arr(field.inv_arr(piv[:, 0])[:, None], piv)
        neg = field.neg_arr(R[b, :, c])
        if reduce:
            neg[np.arange(b.size), r] = 0
        else:
            neg[np.arange(rows) <= r[:, None]] = 0
        hb, hr = np.nonzero(neg)
        R[b[hb], hr, c:] = field.add_arr(R[b[hb], hr, c:],
                                         field.mul_arr(neg[hb, hr][:, None], piv[hb]))
        ranks[b] += 1
    return R, ranks


def rref_stack(field: FieldSpec, a) -> tuple[np.ndarray, np.ndarray]:
    """(R, ranks) for a (count, rows, cols) stack: R[i] is the reduced row
    echelon form of a[i] and ranks[i] its rank, R as int64.  The elimination
    (`_eliminate`) runs in the field's storage type, so an entry outside
    [0, q) is a ValueError."""
    R, ranks = _eliminate(field, a, True)
    return R.astype(np.int64), ranks


def rank_stack(field: FieldSpec, a) -> np.ndarray:
    """The rank of each matrix of a (count, rows, cols) stack: the sweep of
    `rref_stack`, clearing only the rows below each pivot."""
    return _eliminate(field, a, False)[1]


def rref(m: MatrixGF):
    """Reduced row echelon form.  Returns (MatrixGF, rank, pivot columns)."""
    R, ranks = rref_stack(m.field, m.data[None])
    R, r = R[0], int(ranks[0])
    pivots = tuple((R[:r] != 0).argmax(axis=1).tolist()) if r else ()
    return MatrixGF(m.field, R), r, pivots


def rank(m: MatrixGF) -> int:
    return int(rank_stack(m.field, m.data[None])[0])


# ---------------------------------------------------------------------------
# Subspaces
# ---------------------------------------------------------------------------

class SubspaceBasis:
    """Canonical RREF basis of a subspace of F_q^k.

    Because the RREF of a row space is unique, two SubspaceBasis objects are
    equal iff they describe the same subspace.
    """

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim: int, basis: MatrixGF, pivots: tuple[int, ...]):
        if basis.cols != ambient_dim:
            raise ValueError("basis width disagrees with ambient dimension")
        if basis.rows != len(pivots):
            raise ValueError("pivot list length disagrees with basis row count")
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivots = tuple(pivots)

    @property
    def field(self) -> FieldSpec:
        return self.basis.field

    @property
    def dim(self) -> int:
        return self.basis.rows

    @property
    def codim(self) -> int:
        return self.ambient_dim - self.dim

    def contains(self, vec) -> bool:
        """x lies in L iff x == x[pivots] @ basis (the basis has I at its pivots)."""
        x = np.asarray(vec, dtype=np.int64)
        if x.shape != (self.ambient_dim,):
            raise ValueError("vector has the wrong length")
        fld = self.field
        return np.array_equal(fld.matmul_arr(x[None, list(self.pivots)], self.basis.data)[0], x)

    def __eq__(self, other):
        return (isinstance(other, SubspaceBasis)
                and self.ambient_dim == other.ambient_dim
                and self.pivots == other.pivots
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient_dim, self.pivots, self.basis))

    def __repr__(self):
        return f"SubspaceBasis(dim={self.dim}, ambient={self.ambient_dim}, pivots={self.pivots})"


def subspace_from_rows(m: MatrixGF) -> SubspaceBasis:
    """Canonical basis of the row space (zero rows dropped)."""
    R, r, piv = rref(m)
    return SubspaceBasis(m.cols, MatrixGF(m.field, R.data[:r]), piv)


def gaussian_binomial(k: int, s: int, q: int) -> int:
    """Number of s-dimensional subspaces of F_q^k, exact integer."""
    if not 0 <= s <= k:
        raise ValueError(f"need 0 <= s <= k, got s={s}, k={k}")
    num = 1
    den = 1
    for i in range(s):
        num *= q ** (k - i) - 1
        den *= q ** (i + 1) - 1
    if num % den:
        raise ArithmeticError(f"Gaussian binomial [{k},{s}]_{q} is not an integer")
    return num // den


RREF_BLOCK = 64  # matrices per block yielded by rref_blocks


def _pivot_sets(q: int, k: int, dim: int):
    """Yield (pivots, base) for the pivot column sets of the dim x k RREF
    matrices, lexicographically, with the position of the set's first matrix
    in the canonical order: each set holds q^(number of free entries)."""
    base = 0
    for pivots in itertools.combinations(range(k), dim):
        yield pivots, base
        base += q ** (sum(k - 1 - c for c in pivots) - dim * (dim - 1) // 2)


def rref_blocks(field: FieldSpec, k: int, dim: int, start: int = 0, stop: int | None = None):
    """Yield (pivots, block) covering every dim x k RREF matrix of rank dim
    exactly once; block has shape (count, dim, k) with count <= RREF_BLOCK.

    Canonical order: pivot column sets lexicographically, then the free
    entries counted in base q (first free position, row by row, most
    significant).  Only the matrices at positions [start, stop) of that order
    are produced; the block boundaries carry no meaning.
    """
    q = field.q
    for pivots, base in _pivot_sets(q, k, dim):
        if stop is not None and base >= stop:
            return
        free = np.arange(k) > np.array(pivots, dtype=np.int64)[:, None]
        free[:, list(pivots)] = False
        rows, cols = np.nonzero(free)  # row-major: the base-q digit order
        cell = q ** len(rows)
        lo = max(start - base, 0)
        hi = cell if stop is None else min(stop - base, cell)
        weights = q ** np.arange(len(rows) - 1, -1, -1, dtype=np.int64)
        for a in range(lo, hi, RREF_BLOCK):
            offs = np.arange(a, min(a + RREF_BLOCK, hi), dtype=np.int64)
            block = np.zeros((len(offs), dim, k), dtype=np.int64)
            block[:, np.arange(dim), list(pivots)] = 1
            block[:, rows, cols] = offs[:, None] // weights % q
            yield pivots, block


def rref_index(field: FieldSpec, R) -> np.ndarray:
    """Position of each matrix of a (count, dim, k) stack of full-rank RREF
    matrices in the canonical order of `rref_blocks`, its inverse: the offset
    of the matrix's pivot set plus its free entries read in base q."""
    R = np.asarray(R, dtype=np.int64)
    count, dim, k = R.shape
    q = field.q
    piv = (R != 0).argmax(axis=2)  # (count, dim): the leading 1 of each row
    free = np.arange(k) > piv[:, :, None]
    free[np.arange(count)[:, None, None], np.arange(dim)[:, None], piv[:, None, :]] = False
    free = free.reshape(count, -1)  # row-major: the base-q digit order
    later = np.cumsum(free[:, ::-1], axis=1)[:, ::-1] - free  # free slots after each one
    offs = (np.where(free, R.reshape(count, -1), 0) * q ** later).sum(axis=1)
    sets = np.array([(sum(1 << c for c in pivots), base)
                     for pivots, base in _pivot_sets(q, k, dim)], dtype=np.int64)
    sets = sets[np.argsort(sets[:, 0])]  # by pivot-column bit mask
    return sets[np.searchsorted(sets[:, 0], np.left_shift(1, piv).sum(axis=1)), 1] + offs


def _null_space(field: FieldSpec, R: np.ndarray, pivots: tuple[int, ...]) -> np.ndarray:
    """Null-space basis read off a reduced row echelon form R with the given
    pivot columns: one row per free column j, with 1 at j and the negated
    column j of R at the pivots.  R may be a stack (..., rows, k) of forms
    sharing those pivots."""
    k = R.shape[-1]
    free = [j for j in range(k) if j not in pivots]
    out = np.zeros(R.shape[:-2] + (len(free), k), dtype=np.int64)
    out[..., free] = np.eye(len(free), dtype=np.int64)
    out[..., list(pivots)] = np.swapaxes(field.neg_arr(R[..., :len(pivots), free]), -1, -2)
    return out


def kernel_basis(m: MatrixGF) -> MatrixGF:
    """Basis of the right null space {x : m x = 0}, one row per free column."""
    R, _, piv = rref(m)
    return MatrixGF(m.field, _null_space(m.field, R.data, piv))


def quotient_map(L: SubspaceBasis) -> MatrixGF:
    """An s x k matrix Q with null space exactly L (s = codim of L), read off
    the canonical RREF basis of L.

    Membership test: x in L  <=>  Q @ x == 0.
    """
    if L.codim < 1:
        raise ValueError("the full space has no quotient map (codim 0)")
    return MatrixGF(L.field, _null_space(L.field, L.basis.data, L.pivots))


def projective_reps(field: FieldSpec, dim: int) -> np.ndarray:
    """The (N, dim) int64 array of the projective points of F_q^dim as rows.

    Every nonzero vector up to scalar appears exactly once, normalized so the
    first nonzero coordinate is 1: the 1 x dim RREF matrices of `rref_blocks`,
    in its order (leading position ascending, then the free coordinates in
    base q, first free coordinate most significant).
    """
    return np.concatenate([block[:, 0] for _, block in rref_blocks(field, dim, 1)])


def _row_keys(rows: np.ndarray) -> list[np.ndarray]:
    """Each row of an (N, k) block of non-negative integers read as big-endian
    digits in base max+1, as many digits per int64 word as stay below 2^63:
    the words, most significant first, order the rows lexicographically."""
    base = int(rows.max(initial=1)) + 1
    digits = 1
    while base ** (digits + 1) <= 1 << 63:
        digits += 1
    blocks = (rows[:, lo:lo + digits] for lo in range(0, rows.shape[1], digits))
    # einsum casts a narrow block to int64 in buffers; `@` would cast all of it first
    return [np.einsum("ij,j->i", b, base ** np.arange(b.shape[1] - 1, -1, -1, dtype=np.int64),
                      dtype=np.int64) for b in blocks]


def distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(the distinct rows in lexicographic order, the ascending indices of
    the rows that repeat an earlier row), for rows of non-negative integers.

    Rows that pack into one key word with key * n < 2^63 sort as key * n +
    index, in place, by the default sort: the index breaks ties, so equal
    rows keep input order as in the stable `np.lexsort` over the words that
    every other block takes."""
    words = _row_keys(rows)
    n = len(rows)
    if len(words) == 1 and (int(words[0].max(initial=0)) + 1) * n <= 1 << 63:
        packed = words[0]
        packed *= n
        packed += np.arange(n)
        packed.sort()
        order = np.empty_like(packed)
        np.divmod(packed, n, out=(packed, order))  # the keys in place of the packed ones
        ordered = packed[None]
    else:
        order = np.lexsort(words[::-1])  # stable, so equal rows keep input order
        ordered = np.stack(words)[:, order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
    return np.take(rows, order[first], axis=0), np.sort(order[~first])


def normalize_rows(field: FieldSpec, rows: np.ndarray) -> np.ndarray:
    """Projective points in canonical form, as a new array of the rows' type:
    every row of an (N, k) block scaled so its first nonzero coordinate is 1.
    A block already in that form is copied without a field product.  Over a
    prime field a block with an entry outside [0, p) is reduced mod p and
    scaled in int64; over an extension field such an entry is a ValueError,
    and so is the first zero row."""
    if not rows.shape[0]:
        return rows.copy()
    in_range = rows.min() >= 0 and rows.max() < field.q
    if not in_range:  # the field kernels assume [0, q)
        if field.m > 1:
            raise ValueError(f"entries of GF({field.q}) points must lie in [0, {field.q})")
        rows = rows.astype(np.int64) % field.q
    lead = rows[np.arange(rows.shape[0]), (rows != 0).argmax(axis=1)]
    if not lead.all():
        raise ValueError(f"vector {(lead == 0).argmax()} is zero, so it is not a projective point")
    if in_range and (lead == 1).all():
        return rows.copy()
    # Every row, not only those whose lead is not 1: scaling a gathered
    # subset held half-size temporaries that raised the span dump's peak RSS.
    return field.mul_arr(field.inv_arr(lead)[:, None], rows)


# ---------------------------------------------------------------------------
# File codec: matrix files (with their sidecar) and graph files
# ---------------------------------------------------------------------------

FORMAT_CHUNK_ROWS = 1 << 14  # rows per uint8 buffer in _row_chunks


def _is_path(where) -> bool:
    return isinstance(where, (str, os.PathLike))


def _row_chunks(data: np.ndarray):
    """The bytes of a 2-D array of non-negative integers, one line per row,
    entries separated by single spaces, every line ending in a newline: one
    FORMAT_CHUNK_ROWS chunk at a time, each bytes-like."""
    rows, cols = data.shape
    if not cols:
        yield b"\n" * rows
        return
    top = int(data.max(initial=0))
    width = len(str(top))
    # table[v]: the ASCII digits of v, NUL-padded to `width` bytes, then a space
    table = np.full((top + 1, width + 1), ord(" "), dtype=np.uint8)
    table[:, :width] = np.arange(top + 1).astype(f"S{width}").view(np.uint8).reshape(-1, width)
    cell = table.view(f"V{width + 1}").ravel()  # one item per value: gathers whole cells
    for lo in range(0, rows, FORMAT_CHUNK_ROWS):
        block = data[lo:lo + FORMAT_CHUNK_ROWS]
        cells = np.take(cell, block).view(np.uint8).reshape(len(block), cols, width + 1)
        cells[:, -1, -1] = ord("\n")
        yield cells[cells != 0] if width > 1 else cells


def write_rows(target, head: str, rows: np.ndarray, sidecar: dict | None = None) -> None:
    """Write `head` (whole lines) and then `rows` (a 2-D array of
    non-negative integers, any integer type) to `target`, a path or a binary
    stream.  Next to a path, `sidecar`, unless it is None, goes as JSON to
    `<path>.json`; a stream carries no sidecar."""
    if not _is_path(target):
        target.write(head.encode("ascii"))
        for chunk in _row_chunks(rows):
            target.write(chunk)
        return
    with open(target, "wb") as f:
        write_rows(f, head, rows)
    if sidecar is None:
        return
    with open(f"{target}.json", "w") as f:
        json.dump(sidecar, f, sort_keys=True, indent=2, default=str)
        f.write("\n")


def _grid_rows(body, rows: int, cols: int) -> np.ndarray | None:
    """The (rows, cols) uint8 array of a bytes-like body in the writer's
    single-digit layout: at most one newline, then every entry one digit
    followed by a space, or by a newline at the end of its row.  None for
    any other body, which leaves it to `np.loadtxt`."""
    size = rows * cols
    if rows < 1 or cols < 1 or len(body) - 2 * size not in (0, 1):
        return None
    buf = np.frombuffer(body, dtype=np.uint8)
    if len(buf) > 2 * size and buf[0] != ord("\n"):
        return None
    cells = buf[len(buf) - 2 * size:].reshape(rows, cols, 2)
    digits = cells[:, :, 0] - ord("0")  # uint8: bytes below "0" wrap past 9
    spaces = cells[:, :-1, 1]
    # reductions, not comparisons: a body-sized boolean raised the read's peak
    if (digits.max() > 9 or (spaces.size and not spaces.min() == spaces.max() == ord(" "))
            or (cells[:, -1, 1] != ord("\n")).any()):
        return None
    return digits


def split_head(text: str, count: int) -> tuple[tuple[str, ...], str]:
    """The first `count` non-blank lines of text ("" past its end), and the rest."""
    m = re.match(r"\s*([^\r\n]*)" * count, text)
    return m.groups(), text[m.end():]


def _read_bytes(source) -> bytes:
    if not _is_path(source):
        return source.read()
    with open(source, "rb") as f:
        return f.read()


def read_rows(source, count: int, shape) -> tuple[object, np.ndarray]:
    """(head, rows) of the file at the path `source`, or of the rest of the
    binary stream `source`: `count` head lines, which `shape(*lines)` turns
    into (head, rows, cols), then the rows, one per non-blank line, with no
    comments; any other shape or token is a ValueError.

    When the head lines are plain ASCII without a carriage return and the
    body is the writer's single-digit grid, the rows are that grid's uint8
    array, read from the bytes.  Any other input is decoded as a text-mode
    `open` would (locale encoding, universal newlines) and its body read by
    `np.loadtxt`, into int64; a blank body is 0 rows, or `rows` rows when
    `cols` is 0."""
    raw = _read_bytes(source)
    end = -1
    for _ in range(count):
        end = raw.find(b"\n", end + 1)
        if end < 0:
            break
    prefix = raw[:max(end, 0)]  # the head lines' bytes
    if end > 0 and prefix.isascii() and b"\r" not in prefix:
        try:  # a head that does not parse raises again, with the same error, below
            meta, rows, cols = shape(*split_head(prefix.decode("ascii"), count)[0])
        except ValueError:
            pass
        else:
            grid = _grid_rows(memoryview(raw)[end:], rows, cols)
            if grid is not None:
                return meta, grid
    text = io.TextIOWrapper(io.BytesIO(raw)).read()
    del raw  # while np.loadtxt runs, hold the text alone, as a text-mode read did
    lines, body = split_head(text, count)
    meta, rows, cols = shape(*lines)
    if not body or body.isspace():  # loadtxt warns on input without data
        data = np.zeros((rows if cols == 0 else 0, cols), dtype=np.int64)
    else:
        data = np.loadtxt(io.StringIO(body, newline=None), dtype=np.int64,
                          ndmin=2, comments=None)
    if data.shape != (rows, cols):
        raise ValueError(f"expected {rows} rows of {cols} entries, found {data.shape}")
    return meta, data


def matrix_head(field: FieldSpec, rows: int, cols: int) -> str:
    """The two head lines of a matrix file: the field, then the dims."""
    return f"{field.header_line()}\ndims {rows} {cols}\n"


def _matrix_shape(header: str, dims: str) -> tuple[FieldSpec, int, int]:
    """The field, rows and columns named by a matrix's two head lines."""
    dtoks = dims.split()
    if len(dtoks) != 3 or dtoks[0] != "dims":
        raise ValueError(f"malformed dims line: {dims!r}")
    return parse_field_header(header), int(dtoks[1]), int(dtoks[2])


def read_field_rows(source) -> tuple[FieldSpec, np.ndarray]:
    """The field and the rows (`read_rows`) of the matrix file at the path or
    in the binary stream `source`, entries checked against the field."""
    field, data = read_rows(source, 2, _matrix_shape)
    _check_entries(field, data)
    return field, data


def read_sidecar(source) -> dict | None:
    """The JSON sidecar `<path>.json` of the file at the path `source`; None
    when there is none, and for a stream."""
    if not _is_path(source):
        return None
    try:
        with open(f"{source}.json") as f:
            return json.load(f)
    except FileNotFoundError:
        return None


def write_matrix(target, m: MatrixGF, sidecar: dict | None = None) -> None:
    """Write m to `target`, a path or a binary stream (`write_rows`)."""
    write_rows(target, matrix_head(m.field, m.rows, m.cols), m.data, sidecar)


def read_matrix(source) -> MatrixGF:
    """The matrix at the path or in the binary stream `source`; its sidecar,
    if any, is not read."""
    return MatrixGF(*read_field_rows(source))
