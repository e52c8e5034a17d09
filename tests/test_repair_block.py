"""The optimal-repair block condition is checked on row masks; these tests
hold it to its definition through explicit sub-matrices, and pin that
verifying a code document builds no sub-matrix."""

from collections import Counter
from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st

from mdr6.analysis import search_repair_optimal
from mdr6.code import (
    MdrCode,
    RepairStrategy,
    code_from_document,
    code_to_document,
    construct,
    satisfies_repair_block,
    verify_repair_optimal,
)
from mdr6.f2 import BitMatrix

KNOWN = [construct(k) for k in range(1, 4)] + list(search_repair_optimal(2, 2).found)


def reference(mats, i, strategy):
    """The definition: B_i's block non-singular, every other block zero."""
    cols = [j for j in range(1, mats[i].cols + 1) if j not in strategy.basic_rows]
    blocks = [b.submatrix(strategy.q_rows, cols) for b in mats]
    return blocks[i].is_nonsingular() and all(
        block.is_zero for j, block in enumerate(blocks) if j != i
    )


@st.composite
def invertible(draw, n):
    """L U P over GF(2): unit lower and upper triangular factors and a
    permutation, which together reach every invertible n x n matrix."""
    lower = BitMatrix(n, n, tuple((1 << p) | draw(st.integers(0, (1 << p) - 1)) for p in range(n)))
    upper = BitMatrix(
        n, n, tuple((1 << p) | draw(st.integers(0, (1 << (n - p - 1)) - 1)) << (p + 1) for p in range(n))
    )
    perm = BitMatrix(n, n, tuple(1 << c for c in draw(st.permutations(range(n)))))
    return lower @ upper @ perm


@st.composite
def block_cases(draw):
    """B matrices whose disk i meets the block condition for its strategy,
    then, in half the cases, a bit flipped in another B_j's block or a
    singular block for B_i."""
    k = draw(st.integers(1, 3))
    r = draw(st.sampled_from([2, 4, 6]))
    half = r // 2
    row_set = st.lists(st.integers(1, r), min_size=half, max_size=half, unique=True)
    strategies = tuple(
        RepairStrategy(tuple(sorted(draw(row_set))), tuple(sorted(draw(row_set))))
        for _ in range(k + 1)
    )
    i = draw(st.integers(0, k))
    q = [m - 1 for m in strategies[i].q_rows]
    comp = [c for c in range(r) if c + 1 not in strategies[i].basic_rows]
    cols = sum(1 << c for c in comp)
    rows = [draw(st.lists(st.integers(0, (1 << r) - 1), min_size=r, max_size=r)) for _ in range(k + 1)]
    for j in range(k + 1):
        for p in q:
            rows[j][p] &= ~cols
    for p, block_row in zip(q, draw(invertible(half)).row_bits):
        rows[i][p] |= sum(1 << c for n, c in enumerate(comp) if block_row >> n & 1)

    tamper = draw(st.sampled_from(["flip", "singular"]) if draw(st.booleans()) else st.none())
    if tamper == "flip":
        j = draw(st.sampled_from([j for j in range(k + 1) if j != i]))
        rows[j][draw(st.sampled_from(q))] ^= 1 << draw(st.sampled_from(comp))
    elif tamper == "singular":
        # one row of B_i's block becomes the sum of some of the others
        t = draw(st.sampled_from(q))
        acc = 0
        for p in draw(st.lists(st.sampled_from(q), unique=True)):
            if p != t:
                acc ^= rows[i][p] & cols
        rows[i][t] = (rows[i][t] & ~cols) | acc
    mats = tuple(BitMatrix(r, r, tuple(rs)) for rs in rows)
    return MdrCode(k, r, mats, strategies), i, tamper


@settings(max_examples=300, deadline=None)
@given(block_cases())
def test_mask_check_equals_submatrix_definition(case):
    code, i, tamper = case
    mats, strategies = code.b_matrices, code.strategies
    assert satisfies_repair_block(mats, i, strategies[i]) == reference(mats, i, strategies[i])
    assert reference(mats, i, strategies[i]) == (tamper is None)
    expected = [reference(mats, j, s) for j, s in enumerate(strategies)]
    assert [satisfies_repair_block(mats, j, s) for j, s in enumerate(strategies)] == expected
    assert verify_repair_optimal(code) == all(expected)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(KNOWN), st.data())
def test_verify_repair_optimal_equals_definition_on_known_codes(code, data):
    """Verified codes, and the same codes with one bit of one B flipped."""
    mats = list(code.b_matrices)
    if data.draw(st.booleans()):
        j = data.draw(st.integers(0, code.k))
        p = data.draw(st.integers(0, code.r - 1))
        bits = list(mats[j].row_bits)
        bits[p] ^= 1 << data.draw(st.integers(0, code.r - 1))
        mats[j] = BitMatrix(code.r, code.r, tuple(bits))
    mats = tuple(mats)
    expected = all(reference(mats, j, s) for j, s in enumerate(code.strategies))
    assert verify_repair_optimal(MdrCode(code.k, code.r, mats, code.strategies)) == expected
    if mats == code.b_matrices:
        assert expected


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_submatrix_equals_slicing_rows(data):
    n, m = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9))
    entries = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=m, max_size=m), min_size=n, max_size=n))
    rows = data.draw(st.lists(st.integers(1, n), min_size=1))
    cols = data.draw(st.lists(st.integers(1, m), min_size=1))
    picked = BitMatrix.from_rows(entries).submatrix(rows, cols)
    assert picked.to_rows() == [[entries[i - 1][j - 1] for j in cols] for i in rows]


def test_document_check_builds_no_submatrix(monkeypatch):
    """Counts, not times: any return of the sub-matrix path shows here.
    verify_mds takes one rank per pair of B matrices and
    verify_repair_optimal one per basic disk."""
    code = construct(6)
    doc = code_to_document(code)
    calls = Counter()
    for name in ("submatrix", "rank"):
        def counted(self, *args, _name=name, _original=getattr(BitMatrix, name)):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(BitMatrix, name, counted)
    assert code_from_document(doc) == code
    assert calls["submatrix"] == 0
    assert calls["rank"] == comb(code.k + 1, 2) + (code.k + 1) == 28
