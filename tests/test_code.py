"""Construction, verification, and serialization of the code family."""

import hashlib
import itertools
import json
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mdr6.code
from mdr6.cli import main
from mdr6.codec import build_encode_schedule, build_repair_schedule, plan, repair_plan
from mdr6.code import (
    MdrCode,
    RepairStrategy,
    code_from_document,
    code_to_document,
    construct,
    extend,
    generator_submatrices,
    initial_code,
    is_recursive_mdr,
    satisfies_p1,
    satisfies_p2,
    verify_mds,
    verify_repair_optimal,
)
from mdr6.f2 import BitMatrix


def test_initial_code_matrices():
    code = initial_code()
    assert code.k == 1 and code.r == 2
    assert code.b_matrices[0] == BitMatrix.from_rows([[0, 1], [0, 0]])
    assert code.b_matrices[1] == BitMatrix.from_rows([[0, 0], [1, 0]])
    assert [list(s.q_rows) for s in code.strategies] == [[1], [2]]
    assert verify_mds(code)
    assert verify_repair_optimal(code)


def test_extend_initial_frozen_values():
    code = extend(initial_code())
    assert (code.k, code.r) == (2, 4)
    assert code.b_matrices[0] == BitMatrix.from_rows([
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ])
    assert code.b_matrices[1] == BitMatrix.from_rows([
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
    ])
    assert code.b_matrices[2] == BitMatrix.from_rows([
        [0, 0, 0, 0],
        [0, 0, 0, 0],
        [1, 0, 0, 0],
        [0, 1, 0, 0],
    ])
    assert [list(s.q_rows) for s in code.strategies] == [[1, 3], [1, 2], [3, 4]]
    assert [list(s.basic_rows) for s in code.strategies] == [[1, 3], [1, 2], [3, 4]]


def test_extend_doubles_rows():
    assert extend(extend(initial_code())).r == 8


def test_generator_submatrices():
    assert generator_submatrices(initial_code())[0] == BitMatrix.from_rows([[0, 1], [1, 0]])
    a1 = generator_submatrices(construct(2))[0]
    assert a1 == BitMatrix.from_rows([[0, 1, 0, 0], [1, 0, 0, 0], [1, 0, 0, 1], [0, 1, 1, 0]])


def test_generator_sums_cancel_last_matrix():
    code = construct(3)
    a = generator_submatrices(code)
    b = code.b_matrices
    for i in range(code.k):
        for j in range(code.k):
            assert a[i] + a[j] == b[i] + b[j]


@lru_cache(maxsize=2)
def extended(k):
    """The seed code taken through k-1 verified extend calls."""
    return initial_code() if k == 1 else extend(extended(k - 1))


@pytest.mark.parametrize("k", range(1, 13))
def test_construct_chain_verified(k):
    # construct trusts the doubling recursion; this is its proof, k by k
    code = construct(k)
    assert code.r == 1 << k
    assert code == extended(k)
    assert verify_mds(code)
    assert verify_repair_optimal(code)
    assert satisfies_p1(code)
    assert satisfies_p2(code)


def test_only_documents_are_verified(monkeypatch):
    calls = []
    for name in ("verify_mds", "verify_repair_optimal"):
        verifier = getattr(mdr6.code, name)
        monkeypatch.setattr(mdr6.code, name, lambda code, f=verifier, n=name: calls.append(n) or f(code))
    construct.cache_clear()
    construct(6)
    assert calls == []
    code = code_from_document(code_to_document(construct(6)))
    assert sorted(calls) == ["verify_mds", "verify_repair_optimal"]
    build_encode_schedule.cache_clear()
    build_repair_schedule.cache_clear()
    plan.cache_clear()  # it holds the builders' schedules, so it goes with them
    assert is_recursive_mdr(code)
    build_encode_schedule(code)
    for disk in range(1, code.k + 3):
        repair_plan(code, disk)
    assert len(calls) == 2


def test_construct_strategy_halves():
    for k in range(2, 6):
        code = construct(k)
        r = code.r
        assert list(code.strategies[k - 1].q_rows) == list(range(1, r // 2 + 1))
        assert list(code.strategies[k].q_rows) == list(range(r // 2 + 1, r + 1))


def test_construct_range():
    assert construct(1) == initial_code()
    cached = construct.cache_info().currsize
    with pytest.raises(ValueError):
        construct(0)
    with pytest.raises(ValueError):
        construct(13)
    assert construct.cache_info().currsize == cached  # a rejected k is not cached


def test_verify_mds_rejects_degenerate():
    b1 = BitMatrix.from_rows([[0, 1], [0, 0]])
    dup = MdrCode(1, 2, (b1, b1))
    assert not verify_mds(dup)
    code = initial_code()
    clone = MdrCode(1, 2, (code.b_matrices[0], code.b_matrices[0]), code.strategies)
    assert not verify_mds(clone)


def test_verify_repair_optimal_detects_nonzero_block():
    code = construct(2)
    # flip one bit of B_2 inside (q_rows(1), complement(basic_rows(1)))
    tampered_rows = [[m >> j & 1 for j in range(4)] for m in code.b_matrices[1].row_bits]
    tampered_rows[0][1] ^= 1  # row 1 in R_1={1,3}, col 2 in complement({1,3})
    mats = (code.b_matrices[0], BitMatrix.from_rows(tampered_rows), code.b_matrices[2])
    tampered = MdrCode(2, 4, mats, code.strategies)
    assert not verify_repair_optimal(tampered)


def test_verify_repair_optimal_needs_strategies():
    bare = MdrCode(1, 2, initial_code().b_matrices, None)
    with pytest.raises(ValueError):
        verify_repair_optimal(bare)


def test_extend_rejects_bad_input():
    code = initial_code()
    swapped = MdrCode(
        1,
        2,
        code.b_matrices,
        (
            RepairStrategy((1,), (2,)),
            code.strategies[1],
        ),
    )
    assert not satisfies_p2(swapped)
    with pytest.raises(ValueError):
        extend(swapped)


def test_strategy_size_validation():
    # a strategy checks what it can without r; the code checks the rest
    for q_rows, basic_rows, message in [
        ((1, 2), (1,), "differ in size"),
        ((3, 1), (1, 3), r"rows \[3, 1\] are not positive and strictly increasing"),
        ((1, 3), (3, 3), r"rows \[3, 3\] are not positive and strictly increasing"),
        ((0, 2), (1, 2), r"rows \[0, 2\] are not positive"),
        ((1, 2), (-1, 2), r"rows \[-1, 2\] are not positive"),
    ]:
        with pytest.raises(ValueError, match=message):
            RepairStrategy(q_rows, basic_rows)
    assert RepairStrategy((1, 3), (2, 4)).basic_rows == (2, 4)


def test_code_shape_validation():
    code = construct(2)
    mats, strategies = code.b_matrices, code.strategies
    for args, message in [
        ((0, 4, mats[:1]), "k must be at least 1"),
        ((2, 3, mats), "r must be a positive even number"),
        ((2, 4, mats[:2]), "expected 3 B matrices"),
        ((2, 4, (*mats[:2], BitMatrix.identity(2))), "every B matrix must be r x r"),
        ((2, 4, mats, strategies[:2]), "expected 3 repair strategies"),
        ((2, 4, mats, construct(1).strategies + strategies[:1]), r"strategies\[0\] row sets must each hold r/2 = 2 rows"),
        ((2, 4, mats, strategies[:2] + (RepairStrategy((1, 5), (1, 2)),)), r"strategies\[2\] rows must lie in \[1, r = 4\]"),
        ((2, 4, mats, (RepairStrategy((1, 2), (2, 5)),) + strategies[1:]), r"strategies\[0\] rows must lie in \[1, r = 4\]"),
    ]:
        with pytest.raises(ValueError, match=message):
            MdrCode(*args)


def test_is_recursive_mdr():
    assert is_recursive_mdr(construct(3))
    other = MdrCode(1, 2, initial_code().b_matrices[::-1], None)
    assert not is_recursive_mdr(other)


def test_is_recursive_mdr_builds_through_construct(monkeypatch):
    # the canonical build it compares with is the one construct caches, under
    # the module name that every caller of construct goes through
    calls = []

    def counted(k):
        calls.append(k)
        return construct(k)

    monkeypatch.setattr(mdr6.code, "construct", counted)
    assert is_recursive_mdr(construct(4))
    assert calls == [4]


# SHA-256 of `mdr6 gen k` output: the built-in family, bit for bit
GEN_SHA256 = {
    1: "cc648231281612ee326911b2851c48ae482fb974b9a4b218084169384535aea1",
    2: "f47fec20d1bebb112452da9d72c812134007693993bc4c8f1fe42515d36291e1",
    3: "2d2229754b85462e83d51e7564ed957a1a1921342bf21c6e2a8ead6402bec3c3",
    4: "1a8e69d12675ce6da0b9306e7659d167705f8d743e842e77272f555d2aa250ba",
    5: "32e1c4d2ebdbce72879e9a0eace59269342a4ced60e56164b778b2b9abb2a7f4",
    6: "5508f37a3102b3be8a26d4983b4874fd118417e31379bb8309e7e2eab6390405",
    7: "38f59526df99c507214b01bab55a6e7ba2a7bda7440919d8585e114f32438587",
    8: "2b74f1b9ff8da3d9806ce1830235b63c905c49d8b9bc9110dc5a78bfcad2eced",
    9: "e91ab0c7cd21aee535d99f24e63e4a52a4f78c31f176825ff78591c6ed7f88a9",
    10: "119b2e9efc6ef1977f68549f8ccde0daa54f0de53664c9a270df447fe8b2da72",
}


@pytest.mark.parametrize("k", sorted(GEN_SHA256))
def test_document_roundtrip(capsys, k):
    # what gen writes is pinned, loads to the construction and writes back identical
    assert main(["gen", str(k)]) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == GEN_SHA256[k]
    code = code_from_document(json.loads(text))
    assert code == construct(k)
    assert json.dumps(code_to_document(code), indent=2) + "\n" == text


def test_document_rows_load_in_any_order():
    doc = code_to_document(construct(3))
    for s in doc["strategies"]:
        s["q_rows"].reverse()
        s["basic_rows"].insert(0, s["basic_rows"].pop())
    assert doc["strategies"][0]["q_rows"] == [7, 5, 3, 1]
    code = code_from_document(doc)
    # equal records: every row set is the same sorted tuple
    assert code == construct(3)
    assert code.strategies[0].q_rows == (1, 3, 5, 7)


def test_document_requires_mds():
    code = initial_code()
    doc = code_to_document(code)
    doc["b_matrices"][1] = doc["b_matrices"][0]
    doc["strategies"] = None
    with pytest.raises(ValueError):
        code_from_document(doc)


def test_document_strategies_optional_but_checked():
    doc = code_to_document(construct(2))
    doc["strategies"] = None
    loaded = code_from_document(doc)
    assert loaded.strategies is None
    bad = code_to_document(construct(2))
    bad["strategies"][0]["q_rows"] = [2, 4]  # breaks the block condition
    with pytest.raises(ValueError):
        code_from_document(bad)


def test_a_code_without_strategies_writes_null_and_round_trips():
    code = construct(3)
    bare = MdrCode(code.k, code.r, code.b_matrices, None)
    text = json.dumps(code_to_document(bare))
    assert json.loads(text) == {**code_to_document(code), "strategies": None}
    assert '"strategies": null' in text
    assert code_from_document(json.loads(text)) == bare


@pytest.mark.parametrize("key", ["q_rows", "basic_rows"])
def test_document_rejects_repeated_strategy_rows(key):
    doc = code_to_document(construct(2))
    assert doc["strategies"][0][key] == [1, 3]
    doc["strategies"][0][key] = [1, 3, 3]  # would load as (1, 3) if deduplicated
    with pytest.raises(ValueError, match=f"strategies\\[0\\] field '{key}' repeats a row"):
        code_from_document(doc)


@pytest.mark.parametrize("row", [" 100", "1_00", "100+", "1002"])
def test_document_rejects_non_binary_row(row):
    doc = code_to_document(construct(2))
    assert doc["b_matrices"][0][1] == "1000"
    # the first three would read as 1000 if only int() checked them
    doc["b_matrices"][0][1] = row
    with pytest.raises(ValueError, match="bad row bitstring"):
        code_from_document(doc)


def test_document_version_checked():
    doc = code_to_document(initial_code())
    doc["version"] = 99
    with pytest.raises(ValueError):
        code_from_document(doc)


def test_gen_one_document_rows():
    doc = code_to_document(construct(1))
    assert doc["b_matrices"][0] == ["01", "00"]
    assert doc["b_matrices"][1] == ["00", "10"]


# -- fast checks against their definitions ------------------------------------


@st.composite
def mds_candidates(draw):
    """Random B matrices, or a canonical code with one bit flipped or none."""
    if draw(st.booleans()):
        k, r = draw(st.integers(1, 4)), draw(st.sampled_from([2, 4, 6, 8]))
        mats = tuple(
            BitMatrix(r, r, tuple(draw(st.lists(st.integers(0, (1 << r) - 1), min_size=r, max_size=r))))
            for _ in range(k + 1)
        )
        return MdrCode(k, r, mats)
    code = construct(draw(st.integers(1, 5)))
    mats = list(code.b_matrices)
    if draw(st.booleans()):
        i, row, col = draw(st.integers(0, code.k)), draw(st.integers(0, code.r - 1)), draw(st.integers(0, code.r - 1))
        bits = list(mats[i].row_bits)
        bits[row] ^= 1 << col
        mats[i] = BitMatrix(code.r, code.r, tuple(bits))
    return MdrCode(code.k, code.r, tuple(mats))


@settings(max_examples=200, deadline=None)
@given(mds_candidates())
def test_verify_mds_equals_its_definition(code):
    pairs = itertools.combinations(code.b_matrices, 2)
    assert verify_mds(code) == all((a + b).is_nonsingular() for a, b in pairs)


# -- malformed documents ---------------------------------------------------------

_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=6)
    | st.sampled_from(["01", "10", "1000", "", 1, 2, 4, -1]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)


def _paths(value, prefix=()):
    """Every place in a JSON value, as the keys and indices that reach it."""
    yield prefix
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


_VALID = code_to_document(construct(2))
_PLACES = list(_paths(_VALID))[1:]


@st.composite
def documents(draw):
    """An arbitrary JSON value, or the k=2 document with one of its values
    replaced by one, or one of its keys deleted."""
    if draw(st.booleans()):
        return draw(_JSON)
    doc = json.loads(json.dumps(_VALID))
    *parent, last = draw(st.sampled_from(_PLACES))
    holder = doc
    for key in parent:
        holder = holder[key]
    if isinstance(holder, dict) and draw(st.booleans()):
        del holder[last]
    else:
        holder[last] = draw(_JSON)
    return doc


@settings(max_examples=300, deadline=None)
@given(documents())
def test_malformed_documents_raise_value_error_and_exit_1(tmp_path_factory, doc):
    doc = json.loads(json.dumps(doc))
    try:
        code = code_from_document(doc)
    except ValueError:
        path = tmp_path_factory.getbasetemp() / "document.json"
        path.write_text(json.dumps(doc))
        assert main(["encode", str(path.with_name("none.bin")), "--code", str(path)]) == 1
    else:
        assert isinstance(code, MdrCode)


_K3 = code_to_document(construct(3))


@st.composite
def strategy_row_lists(draw):
    """The k=3 document (r = 8) with each strategy row list kept, shuffled
    or replaced by any ints: in any order, repeated, 0, negative, above r,
    too few or too many."""
    doc = json.loads(json.dumps(_K3))
    for s in doc["strategies"]:
        for key in ("q_rows", "basic_rows"):
            how = draw(st.sampled_from(["keep", "shuffle", "any"]))
            if how == "shuffle":
                s[key] = draw(st.permutations(s[key]))
            elif how == "any":
                s[key] = draw(st.lists(st.integers(-2, 10) | st.integers(), max_size=6))
    return doc


@settings(max_examples=300, deadline=None)
@given(strategy_row_lists())
def test_strategy_rows_load_sorted_or_raise_value_error(doc):
    try:
        code = code_from_document(doc)
    except ValueError:
        return
    got = [(list(s.q_rows), list(s.basic_rows)) for s in code.strategies]
    assert got == [(sorted(s["q_rows"]), sorted(s["basic_rows"])) for s in doc["strategies"]]
