"""GF(2) matrix tests against naive list-of-list reference implementations."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdr6.f2 import BitMatrix


# -- naive reference implementations (the oracle path) ----------------------


def naive_add(a, b):
    return [[x ^ y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def naive_mul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    out = [[0] * p for _ in range(n)]
    for i in range(n):
        for j in range(p):
            s = 0
            for l in range(m):
                s ^= a[i][l] & b[l][j]
            out[i][j] = s
    return out


def naive_rank(rows):
    mat = [row[:] for row in rows]
    n_cols = len(mat[0])
    rank = 0
    pivot_row = 0
    for col in range(n_cols):
        pivot = None
        for i in range(pivot_row, len(mat)):
            if mat[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        mat[pivot_row], mat[pivot] = mat[pivot], mat[pivot_row]
        for i in range(len(mat)):
            if i != pivot_row and mat[i][col]:
                mat[i] = [x ^ y for x, y in zip(mat[i], mat[pivot_row])]
        pivot_row += 1
        rank += 1
    return rank


def random_matrix(rng, rows, cols):
    return [[rng.randrange(2) for _ in range(cols)] for _ in range(rows)]


# -- worked examples ----------------------------------------------------------


def test_add_examples():
    eye = BitMatrix.identity(2)
    assert (eye + eye).is_zero
    b1 = BitMatrix.from_rows([[0, 1], [0, 0]])
    assert b1 + BitMatrix.zeros(2, 2) == b1
    b2 = BitMatrix.from_rows([[0, 0], [1, 0]])
    assert (b1 + b2).to_rows() == [[0, 1], [1, 0]]


def test_add_dimension_mismatch():
    with pytest.raises(ValueError):
        BitMatrix.identity(2) + BitMatrix.identity(3)


def test_mul_examples():
    m = BitMatrix.from_rows([[1, 1], [0, 1]])
    assert BitMatrix.identity(2).mul(m) == m
    assert BitMatrix.zeros(2, 2).mul(m).is_zero
    swap = BitMatrix.from_rows([[0, 1], [1, 0]])
    assert swap.mul(swap) == BitMatrix.identity(2)
    with pytest.raises(ValueError):
        m.mul(BitMatrix.identity(3))


def test_rank_examples():
    assert BitMatrix.identity(4).rank() == 4
    assert BitMatrix.zeros(3, 3).rank() == 0
    assert BitMatrix.from_rows([[1, 1], [1, 1]]).rank() == 1


def test_nonsingular_examples():
    assert BitMatrix.identity(2).is_nonsingular()
    assert not BitMatrix.zeros(2, 2).is_nonsingular()
    assert BitMatrix.from_rows([[0, 1], [1, 0]]).is_nonsingular()
    with pytest.raises(ValueError):
        BitMatrix.zeros(2, 3).is_nonsingular()


def test_invert_examples():
    eye3 = BitMatrix.identity(3)
    assert eye3.invert() == eye3
    swap = BitMatrix.from_rows([[0, 1], [1, 0]])
    assert swap.invert() == swap
    with pytest.raises(ValueError, match="matrix of rank < 2 has no inverse"):
        BitMatrix.from_rows([[1, 1], [1, 1]]).invert()


def test_submatrix_examples():
    eye4 = BitMatrix.identity(4)
    full = range(1, 5)
    assert eye4.submatrix(full, full) == eye4
    off = eye4.submatrix([1, 2], [3, 4])
    assert off.is_zero
    # upper-left data matrix of the two-data-disk code, rows {1,3} x cols {2,4}
    b1 = BitMatrix.from_rows(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    )
    picked = b1.submatrix([1, 3], [2, 4])
    assert picked == BitMatrix.identity(2)


def test_submatrix_out_of_range():
    for rows, cols, message in [
        ([1, 3], [1], "exceeds matrix bounds"),
        ([1], [0, 2], "exceeds matrix bounds"),
        ([], [1], "must be non-empty"),
    ]:
        with pytest.raises(ValueError, match=message):
            BitMatrix.identity(2).submatrix(rows, cols)


def test_count_nonzero_columns():
    assert BitMatrix.zeros(3, 5).count_nonzero_columns() == 0
    assert BitMatrix.identity(4).count_nonzero_columns() == 4
    assert BitMatrix.from_rows([[1, 0, 1], [0, 0, 1]]).count_nonzero_columns() == 2


# -- randomized agreement with the naive oracle ------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_add_mul_match_naive(seed):
    rng = random.Random(seed)
    for _ in range(20):
        n, m, p = rng.randrange(1, 9), rng.randrange(1, 9), rng.randrange(1, 9)
        a = random_matrix(rng, n, m)
        b = random_matrix(rng, n, m)
        c = random_matrix(rng, m, p)
        assert (BitMatrix.from_rows(a) + BitMatrix.from_rows(b)).to_rows() == naive_add(a, b)
        assert BitMatrix.from_rows(a).mul(BitMatrix.from_rows(c)).to_rows() == naive_mul(a, c)


@pytest.mark.parametrize("seed", range(5))
def test_rank_matches_naive(seed):
    rng = random.Random(100 + seed)
    for _ in range(30):
        n, m = rng.randrange(1, 17), rng.randrange(1, 17)
        a = random_matrix(rng, n, m)
        assert BitMatrix.from_rows(a).rank() == naive_rank(a)


def test_inverse_roundtrip_random():
    rng = random.Random(11)
    checked = 0
    while checked < 25:
        n = rng.randrange(1, 17)
        m = BitMatrix.from_rows(random_matrix(rng, n, n))
        if not m.is_nonsingular():
            continue
        assert m.mul(m.invert()) == BitMatrix.identity(n)
        assert m.invert().mul(m) == BitMatrix.identity(n)
        checked += 1


def test_rank_equals_transpose_rank():
    rng = random.Random(12)
    for _ in range(30):
        n, m = rng.randrange(1, 14), rng.randrange(1, 14)
        a = BitMatrix.from_rows(random_matrix(rng, n, m))
        assert a.rank() == a.transpose().rank()


def test_add_properties():
    rng = random.Random(13)
    for _ in range(20):
        n, m = rng.randrange(1, 10), rng.randrange(1, 10)
        a = BitMatrix.from_rows(random_matrix(rng, n, m))
        b = BitMatrix.from_rows(random_matrix(rng, n, m))
        c = BitMatrix.from_rows(random_matrix(rng, n, m))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert (a + a).is_zero


def test_column_count_partition():
    rng = random.Random(14)
    for _ in range(20):
        n, m = rng.randrange(1, 10), rng.randrange(1, 10)
        a = BitMatrix.from_rows(random_matrix(rng, n, m))
        zero_cols = sum(
            1 for j in range(m) if all(row[j] == 0 for row in a.to_rows())
        )
        assert a.count_nonzero_columns() + zero_cols == a.cols


def test_bitstring_roundtrip():
    rng = random.Random(15)
    for _ in range(10):
        n, m = rng.randrange(1, 10), rng.randrange(1, 10)
        a = BitMatrix.from_rows(random_matrix(rng, n, m))
        assert BitMatrix.from_bitstrings(a.to_bitstrings()) == a
    # leftmost character is column 1
    m = BitMatrix.from_bitstrings(["10", "01"])
    assert m.get(1, 1) == 1 and m.get(1, 2) == 0


@pytest.mark.parametrize("row", ["0_1", " 01", "+01", "1_0", "10 ", "10+", "012", "0\u06611"])
def test_from_bitstrings_rejects_non_binary_rows(row):
    # int(row[::-1], 2) takes the underscore, the space and the sign in
    # one orientation or the other, and the Arabic-Indic digit one as 1
    with pytest.raises(ValueError, match="bad row bitstring"):
        BitMatrix.from_bitstrings(["010", row])


# widths around the 30-bit digits of CPython ints, 64-bit words and
# from_bitstrings' one-int() chunk of 4096 bits
_WIDTHS = st.sampled_from([1, 2, 29, 30, 31, 59, 60, 61, 63, 64, 65, 127, 128, 129]) | st.integers(1, 140)


@st.composite
def bit_matrices(draw, max_rows=70):
    rows, cols = draw(st.integers(1, max_rows)), draw(_WIDTHS)
    masks = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows))
    return BitMatrix(rows, cols, tuple(masks))


@settings(max_examples=200, deadline=None)
@given(bit_matrices())
def test_bitstrings_roundtrip_across_word_boundaries(a):
    strings = a.to_bitstrings()
    assert [int(s[::-1], 2) for s in strings] == list(a.row_bits)
    assert BitMatrix.from_bitstrings(strings) == a


def test_bitstrings_roundtrip_wider_than_one_parse_chunk():
    rng = random.Random(16)
    a = BitMatrix(3, 5000, tuple(rng.getrandbits(5000) for _ in range(3)))
    assert BitMatrix.from_bitstrings(a.to_bitstrings()) == a


@settings(max_examples=200, deadline=None)
@given(bit_matrices(max_rows=8), st.data())
def test_from_bitstrings_rejects_one_bad_code_point(a, data):
    strings = a.to_bitstrings()
    i, j = data.draw(st.integers(0, a.rows - 1)), data.draw(st.integers(0, a.cols - 1))
    bad = data.draw(
        st.sampled_from(["\u0661", "\u0967", "\uff11", "_", " ", "+", "-", "2", "\x00"])
        | st.characters(blacklist_characters="01")
    )
    strings[i] = strings[i][:j] + bad + strings[i][j + 1 :]
    with pytest.raises(ValueError, match="bad row bitstring"):
        BitMatrix.from_bitstrings(strings)


@settings(max_examples=100, deadline=None)
@given(bit_matrices(max_rows=8).filter(lambda a: a.rows > 1 and a.cols > 1), st.data())
def test_from_bitstrings_rejects_ragged_rows_of_full_total_length(a, data):
    strings = a.to_bitstrings()
    donor, taker = data.draw(st.permutations(range(a.rows)))[:2]
    strings[taker] += strings[donor][-1]
    strings[donor] = strings[donor][:-1]
    assert len("".join(strings)) == a.rows * a.cols
    with pytest.raises(ValueError, match="bad row bitstring"):
        BitMatrix.from_bitstrings(strings)


def test_from_bitstrings_rejects_an_empty_matrix():
    for rows in ([], [""], ["", ""]):
        with pytest.raises(ValueError):
            BitMatrix.from_bitstrings(rows)


@settings(max_examples=200, deadline=None)
@given(bit_matrices(max_rows=20))
def test_rank_matches_naive_elimination(a):
    assert a.rank() == naive_rank(a.to_rows())


@pytest.mark.parametrize(
    "rows, cols, row_bits, message",
    [
        (0, 2, (), "dimensions must be positive"),
        (2, 0, (0, 0), "dimensions must be positive"),
        (2, 2, (1,), "row count does not match"),
        (2, 2, (1, 4), "wider than declared"),
        (2, 2, (1, -1), "wider than declared"),
    ],
)
def test_matrix_shape_validation(rows, cols, row_bits, message):
    with pytest.raises(ValueError, match=message):
        BitMatrix(rows, cols, row_bits)
