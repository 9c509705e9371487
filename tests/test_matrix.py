import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadcensus import construct
from hadcensus.errors import PmParseError, SizeError
from hadcensus.matrix import (
    PlusMinusMatrix,
    is_hadamard,
    kronecker,
    normalize,
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


def test_packed_dot_matches_naive():
    rng = np.random.default_rng(1)
    for n in (3, 8, 33, 65):
        M = random_pm(rng, n)
        dense = M.to_dense().astype(int)
        for i in range(n):
            for j in range(n):
                assert M.row_dot(i, j) == int(dense[i] @ dense[j])


def test_dense_verifier_agrees_with_popcount_path():
    # exercise the large-n code path against the per-pair definition
    M = construct.paley_I(211)  # order 212 > threshold
    assert is_hadamard(M)
    rows = list(M.rows)
    rows[7] ^= 1 << 100
    assert not is_hadamard(PlusMinusMatrix(M.n, rows))


def test_kronecker_identity_and_orders():
    rng = np.random.default_rng(2)
    B = random_pm(rng, 5)
    assert kronecker(H1, B) == B
    assert kronecker(H2, H2).n == 4


def test_kronecker_matches_sylvester():
    assert kronecker(H2, H2) == construct.sylvester(2)


def test_kronecker_preserves_hadamard():
    mats = [H1, H2, construct.sylvester(2), construct.paley_I(3),
            construct.paley_I(7), construct.paley_II(5)]
    for A in mats:
        for B in mats:
            assert is_hadamard(kronecker(A, B))


def test_kronecker_associative():
    rng = np.random.default_rng(3)
    A, B, C = (random_pm(rng, k) for k in (2, 3, 4))
    assert kronecker(kronecker(A, B), C) == kronecker(A, kronecker(B, C))


def test_kronecker_entry_semantics():
    rng = np.random.default_rng(4)
    A, B = random_pm(rng, 3), random_pm(rng, 4)
    K = kronecker(A, B)
    expected = np.kron(A.to_dense().astype(int), B.to_dense().astype(int))
    assert np.array_equal(K.to_dense().astype(int), expected)


def test_kronecker_size_guard():
    with pytest.raises(SizeError):
        kronecker(H2, H2, max_order=3)


def test_normalize():
    neg = PlusMinusMatrix.from_dense([[-1]])
    assert normalize(neg) == H1
    S = construct.sylvester(3)
    assert normalize(S) == S  # already normalized
    P = normalize(construct.paley_I(3))
    assert P.rows[0] == 0  # top row all +1
    assert all(r & 1 == 0 for r in P.rows)  # first column all +1
    assert is_hadamard(P)
    assert normalize(P) == P  # idempotent


def test_normalize_random_hadamard():
    rng = np.random.default_rng(5)
    M = construct.paley_II(13)
    # scramble signs, then renormalize: still Hadamard, clean border
    dense = M.to_dense().astype(int)
    dense[3] *= -1
    dense[:, 5] *= -1
    N = normalize(PlusMinusMatrix.from_dense(dense))
    assert is_hadamard(N)
    assert N.rows[0] == 0


def test_pm_round_trip(tmp_path):
    path = tmp_path / "s4.pm"
    # Orders 4020 and 2020: a per-entry loop would take seconds here.
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


@given(pm_matrices())
@settings(max_examples=60)
def test_pm_format_matches_reference(tmp_path_factory, M):
    path = tmp_path_factory.mktemp("pm") / "m.pm"
    write_matrix(M, path)
    assert path.read_bytes() == reference_pm(M)
    assert read_matrix(path) == M


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
        (b"2\r\n++\r\n+-\r\n", 1),  # CRLF: the header ends in \r
        pytest.param(b"0" * 4300 + b"1\n+\n", 1,  # past int()'s digit limit
                     id="4301-digit-header"),
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
