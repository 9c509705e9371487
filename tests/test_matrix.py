import itertools
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadcensus import arith, construct, matrix
from hadcensus.cli import EXIT_OK, main
from hadcensus.errors import DomainError, PmParseError
from hadcensus.matrix import (
    PlusMinusMatrix,
    is_hadamard,
    read_matrix,
    write_matrix,
)

H1 = PlusMinusMatrix.from_dense([[1]])
H2 = PlusMinusMatrix.from_dense([[1, 1], [1, -1]])


def random_pm(rng, n):
    return PlusMinusMatrix.from_dense(rng.choice([-1, 1], size=(n, n)))


def test_is_hadamard_trivial():
    assert is_hadamard(H1)
    assert is_hadamard(H2)
    assert not is_hadamard(PlusMinusMatrix.from_dense([[1, 1], [1, 1]]))


def test_dense_round_trip():
    rng = np.random.default_rng(0)
    for n in (1, 2, 5, 17, 64, 130):
        M = random_pm(rng, n)
        assert PlusMinusMatrix.from_dense(M.to_dense()) == M


@pytest.mark.parametrize("build,message", [
    (lambda: PlusMinusMatrix(0, ()), "order must be positive"),
    (lambda: PlusMinusMatrix(2, (0,)), "row count does not match order"),
    (lambda: PlusMinusMatrix(2, (0, 4)), "row bits out of range for order"),
    (lambda: PlusMinusMatrix.from_dense([[1, -1]]), "dense input must be square"),
    (lambda: PlusMinusMatrix.from_dense([[1, 0], [1, -1]]), "entries must be \\+-1"),
])
def test_refused_arguments(build, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        build()


def test_packed_dot_matches_naive():
    # The Gram path multiplies row blocks unpacked from the packed rows;
    # blocks may run past the last row, as the final block of a pass does.
    rng = np.random.default_rng(1)
    for n in (3, 8, 33, 65):
        M = random_pm(rng, n)
        naive = [[-1 if (r >> j) & 1 else 1 for j in range(n)] for r in M.rows]
        spans = ((0, n), (0, 1), (1, 3), (n - 2, n + 5))
        for lo, hi in spans:
            top = matrix._unpack(M, lo, hi, np.float32)
            assert top.tolist() == naive[lo:hi]
            for lo2, hi2 in spans:
                gram = top @ matrix._unpack(M, lo2, hi2, np.float32).T
                assert gram.tolist() == [
                    [sum(a * b for a, b in zip(naive[i], naive[j])) for j in range(lo2, min(hi2, n))]
                    for i in range(lo, min(hi, n))
                ]


def test_paley_I_and_one_flipped_entry():
    M = construct.paley_I(211)
    assert is_hadamard(M)
    rows = list(M.rows)
    rows[7] ^= 1 << 100
    assert not is_hadamard(PlusMinusMatrix(M.n, rows))


PALEY_I_PRIMES = [q for q in range(3, 2000, 4) if arith.is_prime(q)]
PALEY_II_PRIMES = [q for q in range(5, 2000, 4) if arith.is_prime(q)]


def bordered_circulant(pattern, q):
    """Row 0 and column 0 all +1, core row i the left rotation of pattern
    by i within q bits: the shape construct.paley_I builds."""
    mask = (1 << q) - 1
    return PlusMinusMatrix(q + 1, [0] + [
        (((pattern << i) | (pattern >> (q - i))) & mask) << 1 for i in range(q)])


def test_rotation_check_agrees_with_gram():
    for q in PALEY_I_PRIMES:
        M = construct.paley_I(q)
        assert M == bordered_circulant(M.rows[1] >> 1, q)
        assert matrix._rotation_verdict(M) is True, q
        assert matrix._gram_verdict(M), q
    for q in PALEY_II_PRIMES:
        M = construct.paley_II(q)
        assert matrix._rotation_verdict(M) is True, q
        assert matrix._gram_verdict(M), q


def test_rotation_check_rejects_shape_keeping_faults():
    # Swap a -1 and a +1 of the core pattern and rotate it as before: the
    # matrix keeps its shape and row 1 its popcount, so only the pair
    # popcounts can reject it.  (At q = 7 some swaps give another
    # Hadamard matrix; from q = 11 on, none does.)
    rng = np.random.default_rng(6)
    for q in PALEY_I_PRIMES[2::5]:
        pattern = construct.paley_I(q).rows[1] >> 1
        bits = [(pattern >> d) & 1 for d in range(q)]
        swap = (1 << int(rng.choice(np.flatnonzero(bits)))) | (
            1 << int(rng.choice(np.flatnonzero(np.logical_not(bits)))))
        # the complement keeps every pair apart in n/2 places but row 0
        for fault in (pattern ^ swap, pattern ^ ((1 << q) - 1)):
            M = bordered_circulant(fault, q)
            assert matrix._rotation_verdict(M) is False, q
            assert not matrix._gram_verdict(M), q
    # Paley II: flip one entry of row 2 or 3 (border column or core) and
    # rebuild the rest by rotation; the shape holds and row 0 now meets
    # row 2 or 3 in n/2 +- 1 places.
    for q in [q for q in PALEY_II_PRIMES if q < 700][::4]:
        top = construct.paley_II(q).to_dense()[:4]
        for _ in range(3):
            fault = top.copy()
            fault[rng.integers(2, 4), rng.integers(0, 2 * q + 2)] *= -1
            M = matrix.extend_by_rotation(fault)
            assert matrix._rotation_verdict(M) is False, q
            assert not matrix._gram_verdict(M), q


@pytest.mark.parametrize(
    "q,i,j",
    [(43, 5, 9), (43, 0, 9), (43, 5, 0),
     (41, 9, 13), (41, 0, 9), (41, 1, 10), (41, 9, 0), (41, 9, 1), (41, 83, 5)],
    ids=["core", "border-row", "border-column",
         "II-core", "II-border-row-0", "II-border-row-1",
         "II-border-column-0", "II-border-column-1", "II-last-row"])
def test_shape_breaking_faults_go_to_gram(q, i, j):
    M = construct.paley_I(q) if q % 4 == 3 else construct.paley_II(q)
    rows = list(M.rows)
    rows[i] ^= 1 << j
    F = PlusMinusMatrix(M.n, rows)
    assert matrix._rotation_verdict(F) is None
    assert not matrix._gram_verdict(F)
    assert not is_hadamard(F)


def test_gram_edge_orders():
    rng = np.random.default_rng(8)
    for dense in ([[1]], [[-1]], [[1, 1], [1, -1]], [[-1, 1], [1, 1]]):
        assert matrix._gram_verdict(PlusMinusMatrix.from_dense(dense))
    for dense in ([[1, 1], [1, 1]], [[1, -1], [-1, 1]]):
        assert not matrix._gram_verdict(PlusMinusMatrix.from_dense(dense))
    for t in (2, 3):
        S = construct.sylvester(t)
        assert matrix._gram_verdict(S)
        rows = list(S.rows)
        rows[-1] ^= 1
        assert not matrix._gram_verdict(PlusMinusMatrix(S.n, rows))
    for n in (3, 6):  # odd, and 2 mod 4 above 2: no Hadamard matrix exists
        for _ in range(20):
            assert not matrix._gram_verdict(random_pm(rng, n))
        assert not matrix._gram_verdict(PlusMinusMatrix(n, [0] * n))


def test_gram_takes_several_blocks(monkeypatch):
    # order 512 in eight blocks of 64 rows; the last pairs rows 448..511
    monkeypatch.setattr(matrix, "GRAM_BLOCK_ENTRIES", 64 * 512)
    S = construct.sylvester(9)
    assert matrix._gram_verdict(S)
    flipped = list(S.rows)
    flipped[500] ^= 1 << 500
    assert not matrix._gram_verdict(PlusMinusMatrix(S.n, flipped))
    # row 511 = -row 510 stays orthogonal to every row but 510, and only
    # the last block holds the pair (510, 511)
    negated = list(S.rows)
    negated[511] = negated[510] ^ ((1 << 512) - 1)
    assert not matrix._gram_verdict(PlusMinusMatrix(S.n, negated))
    # row 3 = -row 300: only the pair of blocks 0 and 4 holds the fault
    negated = list(S.rows)
    negated[3] = negated[300] ^ ((1 << 512) - 1)
    assert not matrix._gram_verdict(PlusMinusMatrix(S.n, negated))


def shaped(rng, n, w):
    """A random matrix of the rotation shape for w, if w divides n: random
    border entries, border rows with a core of period w, random core rows."""
    top = rng.choice([-1, 1], size=(2 * w, n))
    top[:w, w:] = np.tile(rng.choice([-1, 1], size=(w, w)), n)[:, : n - w]
    return matrix.extend_by_rotation(top)


def test_small_orders_give_the_gram_verdict():
    # Every w = 1 shape up to order 8, random w = 2 shapes (n odd: the
    # row-to-row step without the wrap-around) and random matrices.
    rng = np.random.default_rng(10)
    seen = set()
    for n in list(range(1, 9)) + [9, 11, 13]:
        cases = [random_pm(rng, n) for _ in range(30)]
        if 2 <= n <= 8:  # row 0: any corner, a constant core; row 1: anything
            for corner, core, row1 in itertools.product(
                    (1, -1), (1, -1), itertools.product((1, -1), repeat=n)):
                cases.append(matrix.extend_by_rotation([[corner] + [core] * (n - 1), row1]))
        cases += [shaped(rng, n, 2) for _ in range(100 if n >= 4 else 0)]
        for M in cases:
            verdict = matrix._gram_verdict(M)
            assert is_hadamard(M) == verdict, (n, M.rows)
            seen.add((n, verdict))
    assert {(n, True) for n in (1, 2, 4, 8)} <= seen


def test_paley_I_never_reaches_gram(tmp_path, monkeypatch, capsys):
    def gram(M):
        raise AssertionError("Paley matrix sent to the Gram product")

    path = tmp_path / "p.pm"
    monkeypatch.setattr(matrix, "_gram_verdict", gram)
    for M in (construct.paley_I(4019), construct.paley_II(1009)):
        write_matrix(M, path)
        assert is_hadamard(M)
        assert main(["verify", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == f"order {M.n}: Hadamard\n"


def test_kronecker_matches_sylvester():
    # Sylvester doubling: S(t + 1) = [[S, S], [S, -S]] = H2 (x) S(t)
    for t in range(6):
        doubled = np.kron(H2.to_dense(), construct.sylvester(t).to_dense())
        assert construct.sylvester(t + 1) == PlusMinusMatrix.from_dense(doubled)


def test_kronecker_preserves_hadamard():
    # A (x) B of two Hadamard matrices is Hadamard.  23 of the 36 products
    # have no rotation shape, so is_hadamard accepts them by the Gram path.
    mats = [H1, H2, construct.sylvester(2), construct.paley_I(3),
            construct.paley_I(7), construct.paley_II(5)]
    gram = 0
    for A in mats:
        for B in mats:
            K = PlusMinusMatrix.from_dense(np.kron(A.to_dense(), B.to_dense()))
            assert is_hadamard(K)
            gram += matrix._rotation_verdict(K) is None
    assert gram == 23


def normalized(dense):
    """Negate rows, then columns, so row 0 and column 0 are all +1."""
    dense = dense * dense[:, :1]
    return dense * dense[:1, :]


def test_normalize():
    # Sylvester and Paley I matrices are built normalized
    for M in (construct.sylvester(3), construct.paley_I(3), construct.paley_I(7)):
        assert (normalized(M.to_dense()) == M.to_dense()).all()
    # Paley II is not; normalizing it keeps H * H^T = n * I
    P = construct.paley_II(5)
    N = PlusMinusMatrix.from_dense(normalized(P.to_dense().astype(int)))
    assert N != P
    assert N.rows[0] == 0  # top row all +1
    assert all(r & 1 == 0 for r in N.rows)  # first column all +1
    assert is_hadamard(N)


def test_normalize_random_hadamard():
    # Negating a row and a column keeps H * H^T = n * I but breaks the
    # rotation shape, so the Gram product must accept it, and again once
    # the signs are normalized.
    dense = construct.paley_II(13).to_dense().astype(int)
    dense[3] *= -1
    dense[:, 5] *= -1
    M = PlusMinusMatrix.from_dense(dense)
    assert matrix._rotation_verdict(M) is None
    assert is_hadamard(M)
    N = PlusMinusMatrix.from_dense(normalized(dense))
    assert is_hadamard(N)
    assert N.rows[0] == 0


def test_pm_round_trip(tmp_path):
    path = tmp_path / "s4.pm"
    # Orders 4020 and 2020 each span several blocks of PM_BLOCK_BYTES.
    for M in (construct.sylvester(2), construct.paley_II(5), H1,
              construct.paley_I(4019), construct.paley_II(1009)):
        write_matrix(M, path)
        assert read_matrix(path) == M


def test_pm_format_exact(tmp_path):
    path = tmp_path / "m.pm"
    write_matrix(H2, path)
    assert path.read_text() == "2\n++\n+-\n"


def test_pm_order_one(tmp_path):
    path = tmp_path / "one.pm"
    path.write_text("1\n+\n")
    assert read_matrix(path) == H1


def reference_pm(M):
    """The `.pm` bytes of M, spelled one entry at a time."""
    rows = ["".join("-" if (r >> j) & 1 else "+" for j in range(M.n))
            for r in M.rows]
    return "".join(f"{line}\n" for line in [str(M.n)] + rows).encode("ascii")


@st.composite
def pm_matrices(draw):
    n = draw(st.sampled_from((1, 7, 8, 9, 63, 64, 65, 130)))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    return PlusMinusMatrix(n, rows)


# the default, one row per block (1 byte), and a few rows per block at the
# small orders drawn (16 and 100 bytes)
BLOCK_BYTES = (matrix.PM_BLOCK_BYTES, 1, 16, 100)


@given(pm_matrices(), st.sampled_from(BLOCK_BYTES))
@settings(max_examples=80)
def test_pm_format_matches_reference(tmp_path_factory, M, block_bytes):
    path = tmp_path_factory.mktemp("pm") / "m.pm"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrix, "PM_BLOCK_BYTES", block_bytes)
        write_matrix(M, path)
        assert path.read_bytes() == reference_pm(M)
        assert read_matrix(path) == M


def reference_read(data):
    """The `.pm` parser that splits the whole file into lines, kept to check
    read_matrix's block reader against: a matrix, or the PmParseError."""
    lines = data.split(b"\n")
    header = lines[0]
    if not header:
        raise PmParseError("missing order header", 1)
    if not header.isdigit() or len(header) > 18:  # int() refuses 4301 digits
        raise PmParseError(f"bad order header {repr(header[:19])[1:]}", 1)  # drop repr's b
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
    # The rows are now n lines of n bytes and a newline each, after the header.
    grid = np.frombuffer(data, np.uint8, n * (n + 1), len(header) + 1)
    return PlusMinusMatrix(n, matrix._pack(grid.reshape(n, n + 1)[:, :n] == ord("-")))


def parsed(read, source):
    """read(source), or the (line, text) of the PmParseError it raises."""
    try:
        return read(source)
    except PmParseError as err:
        return err.line, str(err)


@st.composite
def mutated_pm(draw):
    """The `.pm` bytes of a drawn matrix, valid or with one fault."""
    data = reference_pm(draw(pm_matrices()))
    ends = [j for j, b in enumerate(data) if b == ord("\n")]
    i = draw(st.one_of(st.integers(0, len(data) - 1), st.sampled_from(ends)))
    byte = draw(st.sampled_from((b"+", b"-", b"\n", b"\r", b"0", b"*", b"\xff")))
    return draw(st.sampled_from((
        data,
        data[:i],                               # truncated
        data[:i] + byte + data[i:],             # one byte inserted
        data[:i] + data[i + 1 :],               # one byte deleted
        data[:i] + byte + data[i + 1 :],        # one byte replaced
        data[:-1],                              # no final newline
        data + b"\n" * draw(st.integers(1, 3)),  # trailing newlines
        data + byte,                            # one stray byte
        data.replace(b"\n", b"\r\n"),           # CRLF
    )))


def parsed_from_pipe(data):
    """parsed(read_matrix, ...) of data read from a pipe; data must fit the
    pipe's buffer (64 KiB on Linux), as it is written before the read."""
    r, w = os.pipe()
    os.write(w, data)
    os.close(w)
    try:
        return parsed(read_matrix, f"/dev/fd/{r}")
    finally:
        os.close(r)


@given(mutated_pm(), st.sampled_from(BLOCK_BYTES), st.booleans())
@settings(max_examples=400)
def test_pm_reader_matches_reference(tmp_path_factory, data, block_bytes, piped):
    # Drawn matrices take at most 17 KB of text, so each fits a pipe's buffer.
    path = tmp_path_factory.mktemp("pm") / "m.pm"
    path.write_bytes(data)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrix, "PM_BLOCK_BYTES", block_bytes)
        got = parsed_from_pipe(data) if piped else parsed(read_matrix, path)
        assert got == parsed(reference_read, data)


def test_pm_read_from_pipe():
    # A pipe cannot be rewound, and read_matrix never needs to: it reads
    # once front to back, and still names a fault by its line.
    for data in (reference_pm(construct.paley_II(5)), b"2\n++\n+*\n"):
        assert parsed_from_pipe(data) == parsed(reference_read, data)


def feed(w, data):
    """Write data to the pipe end w, then close it."""
    view = memoryview(data)
    try:
        while view:
            view = view[os.write(w, view):]
    finally:
        os.close(w)


@pytest.mark.parametrize("op", ["read", "write", "read a bad entry", "read a pipe",
                                "read no newlines", "read a long first line"])
def test_pm_io_memory(tmp_path, op):
    # Order 4096: the packed rows take n^2/8 = 2.1 MB, the text 16.8 MB.  A
    # reader that held the whole file, or a writer that built it whole,
    # would pass 8 MB; so would a reader that held a pipe whole, re-read a
    # refused file whole, or carried a line without newlines whole, header
    # or row.
    S = construct.sylvester(12)
    path = tmp_path / "s.pm"
    write_matrix(S, path)
    data = path.read_bytes()
    source, expected = path, S
    if op == "read a bad entry":  # the last entry of the last row, line 4097
        path.write_bytes(data[:-2] + b"*\n")
        expected = (4097, "line 4097: invalid character '*'")
    if op == "read no newlines":  # the header, then one 16.8 MB line
        path.write_bytes(b"4096\n" + data[5:].replace(b"\n", b""))
        expected = (2, "line 2: expected 4096 rows plus trailing newline")
    if op == "read a long first line":  # no header: the body as one 16.8 MB line
        path.write_bytes(data[5:].replace(b"\n", b""))
        expected = (1, f"line 1: bad order header '{'+' * 19}'")
    if op == "read a pipe":  # far more than a pipe's buffer, so a thread writes it
        r, w = os.pipe()
        source = f"/dev/fd/{r}"
        writer = threading.Thread(target=feed, args=(w, data))
        writer.start()
    tracemalloc.start()
    try:
        got = write_matrix(S, path) if op == "write" else parsed(read_matrix, source)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        if op == "read a pipe":
            os.close(r)
            writer.join()
    assert peak < 8 << 20
    assert op == "write" or got == expected


@pytest.mark.parametrize(
    "content,line",
    [
        (b"2\n++\n+\n", 3),        # ragged row
        (b"2\n++-\n+-\n", 2),      # row longer than order
        (b"x\n++\n+-\n", 1),       # bad header
        (b"2\n+*\n+-\n", 2),       # bad character
        (b"2\n++\n", 3),           # missing row
        (b"2\n++\n+-", 3),         # missing trailing newline
        (b"2\n+\xff\n+-\n", 2),    # byte outside ASCII
        (b" 2\n++\n+-\n", 1),      # header: space
        (b"+2\n++\n+-\n", 1),      # header: sign
        (b"1_0\n", 1),             # header: digit separator
        (b"12+", 1),               # header: no newline, a sign last
        (b"2\r\n++\r\n+-\r\n", 1),  # CRLF: the header ends in \r
        pytest.param(b"0" * 4300 + b"1\n+\n", 1,  # past int()'s digit limit
                     id="4301-digit-header"),
        # orders whose rows the file is far too short to hold; a reader
        # that sized its buffers from the header alone would fail to
        # allocate them
        (b"999999999999999999\n+\n", 3),
        (b"3000000\n+\n", 3),
    ],
)
def test_pm_parse_errors(tmp_path, content, line):
    path = tmp_path / "bad.pm"
    path.write_bytes(content)
    with pytest.raises(PmParseError) as err:
        read_matrix(path)
    assert err.value.line == line


def test_pm_fault_order(tmp_path):
    # One file with five faults, mended one at a time: the row count and
    # trailing newline are checked first, then rows in order, each for its
    # length before its characters, naming the first bad character.
    path = tmp_path / "faults.pm"
    steps = [
        (b"3\n*?\n++x\n+++\n++", 4, "expected 3 rows plus trailing newline"),
        (b"3\n*?\n++x\n+++\n", 2, "row length 2 != order 3"),
        (b"3\n*?-\n++x\n+++\n", 2, "invalid character '*'"),
        (b"3\n+--\n++x\n+++\n", 3, "invalid character 'x'"),
    ]
    for content, line, message in steps:
        path.write_bytes(content)
        with pytest.raises(PmParseError) as err:
            read_matrix(path)
        assert (err.value.line, str(err.value)) == (line, f"line {line}: {message}")
    path.write_bytes(b"3\n+--\n++-\n+++\n")
    assert read_matrix(path) == PlusMinusMatrix(3, [0b110, 0b100, 0])


def test_immutability():
    with pytest.raises(AttributeError):
        H2.n = 3
