"""Bit-packed square ±1 matrices with Hadamard verification and .pm I/O.

Encoding: each row is a Python int used as a bit vector; bit j set means
entry -1, clear means +1.  An all-+1 row is the integer 0, so dot products
reduce to popcounts: row_i . row_j = n - 2*popcount(row_i XOR row_j).  .pm
text moves PM_BLOCK_BYTES at a time; a read is one pass, refused or not.

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

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PmParseError

GRAM_BLOCK_ENTRIES = 1 << 24  # float32 entries per Gram block: 64 MB
PM_BLOCK_BYTES = 1 << 20  # .pm text per block of rows written or read


@dataclass(frozen=True, slots=True)
class PlusMinusMatrix:
    """Immutable square matrix over {+1, -1}."""

    n: int
    rows: tuple

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("order must be positive")
        rows = tuple(self.rows)
        if len(rows) != self.n:
            raise DomainError("row count does not match order")
        mask = (1 << self.n) - 1
        for r in rows:
            if r < 0 or r > mask:
                raise DomainError("row bits out of range for order")
        object.__setattr__(self, "rows", rows)

    def __repr__(self):
        return f"PlusMinusMatrix(order={self.n})"

    @classmethod
    def from_dense(cls, dense):
        """Build from an array-like of +-1 entries."""
        a = np.asarray(dense)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DomainError("dense input must be square")
        if not np.isin(a, (-1, 1)).all():
            raise DomainError("entries must be +-1")
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
    """Parse a `.pm` file front to back; raises PmParseError naming the line of
    the first fault, the row count and trailing newline checked before rows."""
    with open(path, "rb") as fh:
        header = fh.readline(19)  # 18 digits and a newline; more is a bad header
        order = header.removesuffix(b"\n")
        if not order:
            raise PmParseError("missing order header", 1)
        if not order.isdigit() or len(order) > 18:  # int() refuses 4301 digits
            raise PmParseError(f"bad order header {repr(order)[1:]}", 1)  # drop repr's b
        if (n := int(order)) < 1:
            raise PmParseError("order must be positive", 1)
        # line numbers the line being read (rows are lines 2..n + 1).  head keeps its
        # first n + 1 bytes, so a longer line still fails as a row; skipped counts the rest.
        line, rows, fault, head, skipped = 1 + (header != order), [], None, b"", 0
        while buf := fh.read(PM_BLOCK_BYTES // (n + 1) * (n + 1) or PM_BLOCK_BYTES):
            data = head + buf
            k = min(n + 2 - line, len(data) // (n + 1)) if fault is None else 0
            if k > 0:  # the rows owed that data holds whole, checked vectorised
                text = np.frombuffer(data, np.uint8, k * (n + 1)).reshape(k, n + 1)
                minus = text[:, :n] == ord("-")
                if (text[:, n] == ord("\n")).all() and (minus | (text[:, :n] == ord("+"))).all():
                    rows += _pack(minus)
                    line, data = line + k, data[k * (n + 1) :]
            # No whole line left can be a good row: it is past the rows, too
            # short, or in a block that holds a bad row.
            *ends, rest = data.split(b"\n")
            for piece in ends:
                length, skipped = skipped + len(piece), 0
                if line > n + 1 and length:
                    raise PmParseError(f"expected {n} rows plus trailing newline", n + 1)
                if fault is None and line <= n + 1 and length != n:
                    fault = PmParseError(f"row length {length} != order {n}", line)
                elif fault is None and line <= n + 1 and (bad := piece.translate(None, b"+-")):
                    fault = PmParseError(f"invalid character {repr(bad[:1])[1:]}", line)
                line += 1
            head, skipped = rest[: n + 1], skipped + max(0, len(rest) - n - 1)
        if line < n + 2 or head:
            raise PmParseError(f"expected {n} rows plus trailing newline", min(line, n + 1))
        if fault is not None:
            raise fault
        return PlusMinusMatrix(n, rows)
