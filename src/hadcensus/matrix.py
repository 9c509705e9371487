"""Bit-packed square ±1 matrices with Hadamard verification and .pm I/O.

Encoding: each row is a Python int used as a bit vector; bit j set means
entry -1, clear means +1.  An all-+1 row is the integer 0, so dot products
reduce to popcounts: row_i . row_j = n - 2*popcount(row_i XOR row_j).  .pm
text moves PM_BLOCK_BYTES at a time, so a read holds packed rows and one block.

Rotation shape, shared by both Paley constructions: a border of w rows
and columns around the core columns w..n-1, rows 0..w-1 unchanged when
their core bits are rotated left w places, and row i + w equal to row i so
rotated for i = w..n-w-1.  Paley I has w = 1; Paley II, C (x) [[1,1],[1,-1]]
+ I (x) [[1,-1],[-1,-1]] with C's core circulant, has w = 2.  If w | n, the
n - w core bits rotated (n - w)/w times come back, so the last w rows
rotate onto rows w..2w-1; without w | n the row-to-row step does not imply
this wrap-around.  Then the permutation s that fixes 0..w-1 and shifts the
core indices cyclically by w has H[s(i), s(j)] = H[i, j], so row s(i) .
row s(j) = row i . row j, and a power of s^-1 takes any pair of core rows
to a pair with one row in w..2w-1.  So H*H^T = n*I iff each of rows 0..2w-1
meets every other row in exactly n/2 places: O(n) exact big-int operations.
Any other matrix takes a blocked float32 Gram product, exact because the
entries are +-1 and n < 2^24, so every partial sum is an integer float32
holds exactly.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .errors import PmParseError

GRAM_BLOCK_ENTRIES = 1 << 24  # float32 entries per Gram block: 64 MB
PM_BLOCK_BYTES = 1 << 20  # .pm text per block of rows written or read


@dataclass(frozen=True, slots=True)
class PlusMinusMatrix:
    """Immutable square matrix over {+1, -1}."""

    n: int
    rows: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("order must be positive")
        rows = tuple(self.rows)
        if len(rows) != self.n:
            raise ValueError("row count does not match order")
        mask = (1 << self.n) - 1
        for r in rows:
            if r < 0 or r > mask:
                raise ValueError("row bits out of range for order")
        object.__setattr__(self, "rows", rows)

    def __repr__(self):
        return f"PlusMinusMatrix(order={self.n})"

    @classmethod
    def from_dense(cls, dense):
        """Build from an array-like of +-1 entries."""
        a = np.asarray(dense)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("dense input must be square")
        if not np.isin(a, (-1, 1)).all():
            raise ValueError("entries must be +-1")
        return cls(len(a), _pack(a == -1))

    def to_dense(self):
        """Dense int8 array of +-1 entries."""
        return _unpack(self, 0, self.n, np.int8)


def _bits(M, lo, hi):
    """Rows lo..hi - 1 of M as a uint8 array of their bits: 1 is entry -1."""
    nbytes = (M.n + 7) // 8
    buf = b"".join(r.to_bytes(nbytes, "little") for r in M.rows[lo:hi])
    bits = np.unpackbits(np.frombuffer(buf, np.uint8), bitorder="little")
    return bits.reshape(-1, 8 * nbytes)[:, : M.n]


def _unpack(M, lo, hi, dtype):
    """Rows lo..hi - 1 of M as an array of the given dtype: bit 1 is entry -1."""
    return np.where(_bits(M, lo, hi), dtype(-1), dtype(1))


def _pack(minus):
    """Row ints of a 2-D bool array, True where the entry is -1."""
    bits = np.packbits(minus, axis=1, bitorder="little")
    return [int.from_bytes(b.tobytes(), "little") for b in bits]


def _rotate(row, n, w):
    """row with its core bits w..n-1 rotated left w places; border bits kept."""
    m = n - w
    core = row >> w
    core = (core << w | core >> (m - w)) & ((1 << m) - 1)
    return row & ((1 << w) - 1) | core << w


def extend_by_rotation(top) -> PlusMinusMatrix:
    """The rotation-shape matrix (module docstring) whose first 2w rows are
    the 2w x n array of +-1 entries top: row i + w is row i rotated."""
    w, n = len(top) // 2, len(top[0])
    rows = _pack(np.asarray(top) == -1)
    for i in range(w, n - w):
        rows.append(_rotate(rows[i], n, w))
    return PlusMinusMatrix(n, rows)


def is_hadamard(M: PlusMinusMatrix) -> bool:
    """True iff M * M^T = n * I: rotation check for the Paley shapes, else Gram."""
    verdict = _rotation_verdict(M)
    return _gram_verdict(M) if verdict is None else verdict


def _rotation_verdict(M: PlusMinusMatrix):
    """Rotation-check verdict (module docstring) for w = 1 or 2, else None."""
    n, rows = M.n, M.rows
    for w in (1, 2):
        if n < 2 * w or n % w or any(_rotate(r, n, w) != r for r in rows[:w]):
            continue
        if any(_rotate(a, n, w) != b for a, b in zip(rows[w:], rows[2 * w:])):
            continue
        return all(2 * (rows[i] ^ rows[j]).bit_count() == n
                   for i in range(2 * w) for j in range(i + 1, n))
    return None


def _gram_verdict(M: PlusMinusMatrix) -> bool:
    """True iff M * M^T = n * I, by blocked float32 Gram products."""
    n = M.n
    if n > 2 and n % 4:
        return False
    # The Gram matrix is symmetric: row blocks lo <= hi cover every row pair,
    # and at most two blocks of GRAM_BLOCK_ENTRIES are unpacked at once.
    block = max(1, GRAM_BLOCK_ENTRIES // n)
    for lo in range(0, n, block):
        top = _unpack(M, lo, lo + block, np.float32)
        for hi in range(lo, n, block):
            gram = top @ (top if hi == lo else _unpack(M, hi, hi + block, np.float32)).T
            if hi == lo:
                gram[np.diag_indices(len(gram))] -= n  # gram[i, i] is row lo + i with itself
            if gram.any():
                return False
    return True


def write_matrix(M: PlusMinusMatrix, path):
    """Write the `.pm` text form: order line, then rows of '+'/'-', bit 0 first."""
    block = max(1, PM_BLOCK_BYTES // (M.n + 1))
    with open(path, "wb") as fh:
        fh.write(b"%d\n" % M.n)
        for lo in range(0, M.n, block):  # '-' is '+' + 2; a '\n' column ends the rows
            fh.write(np.insert(ord("+") + 2 * _bits(M, lo, lo + block), M.n, ord("\n"), 1))


def read_matrix(path) -> PlusMinusMatrix:
    """Parse a `.pm` file; raises PmParseError with the offending line."""
    with open(path, "rb") as fh:
        fh = fh if fh.seekable() else io.BytesIO(fh.read())  # a pipe, held whole to rewind
        size = fh.seek(0, io.SEEK_END)
        fh.seek(0)
        header = fh.readline(19)  # at most 18 digits and the newline
        n = int(header) if header[:-1].isdigit() and header.endswith(b"\n") else 0
        rows, block = [], max(1, PM_BLOCK_BYTES // (n + 1))
        if n and size >= len(header) + n * (n + 1):  # too short a file allocates no block
            for lo in range(0, n, block):
                text = np.empty((min(block, n - lo), n + 1), np.uint8)
                if (fh.readinto(text) < text.size or (text[:, n] != ord("\n")).any()
                        or not ((text[:, :n] == ord("+")) | (text[:, :n] == ord("-"))).all()):
                    break
                rows += _pack(text[:, :n] == ord("-"))
        if 0 < n == len(rows) and not fh.read().strip(b"\n"):
            return PlusMinusMatrix(n, rows)
        fh.seek(0)
        _raise_parse_error(fh.read())


def _raise_parse_error(data):
    """Raise the PmParseError for the first fault in data, a refused `.pm` file."""
    lines = data.split(b"\n")
    header = lines[0]
    if not header:
        raise PmParseError("missing order header", 1)
    if not header.isdigit() or len(header) > 18:  # int() refuses 4301 digits
        raise PmParseError(f"bad order header {repr(header)[1:]}", 1)  # drop repr's b
    n = int(header)
    if n < 1:
        raise PmParseError("order must be positive", 1)
    if len(lines) < n + 2 or lines[n + 1 :] != [b""] * (len(lines) - n - 1):
        raise PmParseError(f"expected {n} rows plus trailing newline",
                           min(len(lines), n + 1))
    for i, line in enumerate(lines[1 : n + 1], start=2):
        if len(line) != n:
            raise PmParseError(f"row length {len(line)} != order {n}", i)
        if bad := line.translate(None, b"+-"):  # what is left is not + or -
            raise PmParseError(f"invalid character {repr(bad[:1])[1:]}", i)
