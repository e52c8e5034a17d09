"""Encode/decode/repair behavior, with the naive evaluator and the generic
decoder as reference paths for the optimized ones.  All of them take and
return one stripe's blocks as a {(disk, row): bytes} map."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdr6.analysis import search_repair_optimal
from mdr6.code import MdrCode, construct
from mdr6.codec import (
    IntegrityError,
    XorSchedule,
    build_encode_schedule,
    build_repair_schedule,
    decode,
    encode_naive,
    execute_repair,
    execute_schedule,
    parity_check_matrix,
    parity_schedule,
    repair_plan,
    verify_schedule,
)

BS = 16


def random_data(code, rng, block_size=BS):
    """The blocks of the k data disks of one random stripe."""
    return {
        (d, j): rng.randbytes(block_size)
        for d in range(1, code.k + 1)
        for j in range(1, code.r + 1)
    }


def column(blocks, disk):
    return [block for (d, _), block in sorted(blocks.items()) if d == disk]


def without(blocks, *disks):
    return {b: data for b, data in blocks.items() if b[0] not in disks}


# -- encode ------------------------------------------------------------------


def test_encode_naive_zero_data():
    code = construct(2)
    zero = bytes(BS)
    data = {(d, j): zero for d in (1, 2) for j in range(1, 5)}
    full = encode_naive(code, data)
    assert full == {(d, j): zero for d in range(1, 5) for j in range(1, 5)}


def test_encode_naive_k1_replication():
    code = construct(1)
    rng = random.Random(0)
    full = encode_naive(code, random_data(code, rng))
    assert column(full, 2) == column(full, 1)  # row parity of one disk
    d1 = column(full, 1)
    assert column(full, 3) == [d1[1], d1[0]]  # Q swaps the two rows


def test_encode_naive_missing_disk():
    code = construct(2)
    data = without(random_data(code, random.Random(1)), 2)
    with pytest.raises(ValueError, match="not exactly the data disks"):
        encode_naive(code, data)
    with pytest.raises(ValueError, match="not exactly the data disks"):
        encode_naive(code, {})


def test_encode_naive_rejects_parity_blocks():
    code = construct(2)
    full = encode_naive(code, random_data(code, random.Random(2)))
    with pytest.raises(ValueError, match="not exactly the data disks"):
        encode_naive(code, full)


# decode solves through H, so H must hold for every code it decodes
H_CODES = {str(k): construct(k) for k in range(1, 6)}
H_CODES.update(
    (f"found-{k}-{n}", code)
    for k in (1, 2)
    for n, code in enumerate(search_repair_optimal(k, 2).found)
)


@pytest.mark.parametrize("code", H_CODES.values(), ids=H_CODES.keys())
def test_parity_check_annihilates_codewords(code):
    rng = random.Random(20 + code.k)
    full = encode_naive(code, random_data(code, rng))
    h = parity_check_matrix(code)
    blocks = [int.from_bytes(full[block], "little") for block in sorted(full)]
    for mask in h.row_bits:
        acc = 0
        cur = mask
        while cur:
            low = cur & -cur
            acc ^= blocks[low.bit_length() - 1]
            cur ^= low
        assert acc == 0


@pytest.mark.parametrize("k", range(1, 9))
def test_encode_schedule_counts_and_soundness(k):
    code = construct(k)
    sched = build_encode_schedule(code)
    assert sched.xor_count == 2 * (k - 1) * code.r
    assert verify_schedule(code, sched)
    if k >= 2:  # every P block ends a prefix run; no op copies a block
        assert all(len(sources) > 1 for _, sources in sched.ops)


def test_encode_schedule_k1_q_is_copies():
    sched = build_encode_schedule(construct(1))
    q_ops = [sources for target, sources in sched.ops if target[:2] == ("out", 3)]
    assert all(len(sources) == 1 for sources in q_ops)
    assert sched.xor_count == 0


def test_encode_schedule_k3_q_cost():
    sched = build_encode_schedule(construct(3))
    q_xors = sum(
        len(sources) - 1 for target, sources in sched.ops if target[:2] == ("out", 5)
    )
    assert q_xors == (3 - 1) * 2**3  # 2 XORs per Q block


@pytest.mark.parametrize("k", range(1, 6))
def test_encode_matches_naive(k):
    code = construct(k)
    rng = random.Random(40 + k)
    sched = build_encode_schedule(code)
    for _ in range(3):
        data = random_data(code, rng)
        outputs, _ = execute_schedule(sched, data, BS)
        assert outputs == without(encode_naive(code, data), *range(1, k + 1))


def test_encode_executed_xor_count():
    code = construct(4)
    rng = random.Random(44)
    sched = build_encode_schedule(code)
    _, executed = execute_schedule(sched, random_data(code, rng), BS)
    assert executed == 2 * 3 * 16 == sched.xor_count


def test_encode_schedule_for_foreign_code():
    # a valid two-erasure code that is not the canonical recursion output
    code = construct(2)
    mats = (code.b_matrices[1], code.b_matrices[0], code.b_matrices[2])
    foreign = MdrCode(2, 4, mats, None)
    sched = build_encode_schedule(foreign)
    assert verify_schedule(foreign, sched)
    rng = random.Random(45)
    for _ in range(3):
        data = random_data(foreign, rng)
        outputs, _ = execute_schedule(sched, data, BS)
        assert outputs == without(encode_naive(foreign, data), 1, 2)


# -- decode ------------------------------------------------------------------


@pytest.mark.parametrize("k", range(1, 5))
def test_decode_all_patterns_roundtrip(k):
    code = construct(k)
    rng = random.Random(60 + k)
    for _ in range(3):
        full = encode_naive(code, random_data(code, rng))
        for pat in itertools.combinations(range(1, k + 3), 2):
            assert decode(code, without(full, *pat)) == full, pat
        for d in range(1, k + 3):
            assert decode(code, without(full, d)) == full, d


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        st.sampled_from([construct(k) for k in range(1, 5)]),
        st.sampled_from([code for name, code in H_CODES.items() if name.startswith("found")]),
    ),
    st.integers(1, 48),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_decode_of_the_survivors_is_the_encoded_stripe(code, block_size, seed, data):
    full = encode_naive(code, random_data(code, random.Random(seed), block_size))
    lost = data.draw(st.sets(st.integers(1, code.k + 2), max_size=2))
    assert decode(code, without(full, *lost)) == full


def test_decode_parity_erasures_reencode():
    code = construct(3)
    rng = random.Random(70)
    full = encode_naive(code, random_data(code, rng))
    assert decode(code, without(full, 4, 5)) == full


def test_decode_consistency_check():
    code = construct(2)
    rng = random.Random(71)
    full = encode_naive(code, random_data(code, rng))
    assert decode(code, full) == full
    block = bytearray(full[1, 1])
    block[0] ^= 0xFF
    with pytest.raises(IntegrityError):
        decode(code, {**full, (1, 1): bytes(block)})


def test_decode_rejects_three_lost_disks():
    code = construct(2)
    full = encode_naive(code, random_data(code, random.Random(72)))
    with pytest.raises(ValueError, match="at most two"):
        decode(code, without(full, 1, 2, 3))
    with pytest.raises(ValueError, match="at most two"):
        decode(code, {})


@pytest.mark.parametrize("block", [(9, 1), (0, 1), (1, 0), (1, 5)])
def test_reference_rejects_a_block_outside_the_stripe(block):
    code = construct(2)
    data = random_data(code, random.Random(73))
    full = encode_naive(code, data)
    with pytest.raises(ValueError, match="outside the stripe"):
        decode(code, {**full, block: bytes(BS)})
    with pytest.raises(ValueError, match="outside the stripe"):
        encode_naive(code, {**data, block: bytes(BS)})


def test_reference_rejects_a_partial_column():
    code = construct(2)
    data = random_data(code, random.Random(74))
    full = encode_naive(code, data)
    partial = {b: v for b, v in without(full, 3).items() if b != (2, 4)}
    with pytest.raises(ValueError, match="not all"):
        decode(code, partial)
    with pytest.raises(ValueError, match="not all"):
        encode_naive(code, {b: v for b, v in data.items() if b != (1, 1)})


@pytest.mark.parametrize("size", [BS - 1, BS + 1, 0])
def test_reference_rejects_blocks_of_different_sizes(size):
    code = construct(2)
    data = random_data(code, random.Random(75))
    full = encode_naive(code, data)
    with pytest.raises(ValueError, match="one positive size"):
        decode(code, {**without(full, 4), (1, 1): bytes(size)})
    with pytest.raises(ValueError, match="one positive size"):
        encode_naive(code, {**data, (2, 3): bytes(size)})


# -- repair plans -------------------------------------------------------------


@pytest.mark.parametrize("k", range(1, 8))
def test_repair_plan_read_exactness(k):
    code = construct(k)
    r = code.r
    for failed in range(1, k + 2):
        plan = repair_plan(code, failed)
        strat = code.strategies[failed - 1]
        expected = {
            (d, j) for d in range(1, k + 2) if d != failed for j in strat.basic_rows
        } | {(k + 2, j) for j in strat.q_rows}
        assert plan.reads == expected
        assert len(plan.reads) == (k + 1) * r // 2
    q_plan = repair_plan(code, k + 2)
    assert q_plan.reads == {(d, j) for d in range(1, k + 1) for j in range(1, r + 1)}


def test_repair_plan_example_counts():
    plan = repair_plan(construct(3), 1)
    assert len(plan.reads) == 16
    for d in (2, 3, 4, 5):
        assert sum(1 for dd, _ in plan.reads if dd == d) == 4
    assert len(repair_plan(construct(2), 4).reads) == 8  # Q repair reads kr
    # conventional row-parity rebuild would read kr = 24 blocks instead of 16
    assert 16 / 24 == pytest.approx(2 / 3)


def test_repair_plan_bad_disk():
    with pytest.raises(ValueError):
        repair_plan(construct(2), 5)


# -- repair execution ----------------------------------------------------------


@pytest.mark.parametrize("k", range(1, 6))
def test_execute_repair_rebuilds_every_disk(k):
    code = construct(k)
    rng = random.Random(80 + k)
    full = encode_naive(code, random_data(code, rng))
    for failed in range(1, k + 3):
        plan = repair_plan(code, failed)
        rebuilt, _ = execute_repair(plan, {b: full[b] for b in plan.reads}, BS)
        assert rebuilt == column(full, failed)


def test_execute_repair_matches_decode():
    code = construct(3)
    rng = random.Random(85)
    full = encode_naive(code, random_data(code, rng))
    for failed in range(1, code.k + 3):
        damaged = without(full, failed)
        via_decode = column(decode(code, damaged), failed)
        plan = repair_plan(code, failed)
        via_repair, _ = execute_repair(plan, {b: damaged[b] for b in plan.reads}, BS)
        assert via_repair == via_decode


def test_execute_repair_row_parity_identity():
    code = construct(2)
    rng = random.Random(86)
    full = encode_naive(code, random_data(code, rng))
    plan = repair_plan(code, 1)
    rebuilt, _ = execute_repair(plan, {b: full[b] for b in plan.reads}, BS)
    for c in code.strategies[0].basic_rows:
        assert rebuilt[c - 1] == bytes(x ^ y for x, y in zip(full[2, c], full[3, c]))


@pytest.mark.parametrize("k", range(1, 6))
def test_execute_repair_meter(k):
    # the executed XOR count is the schedule's: (k-1)r for a basic disk
    code = construct(k)
    rng = random.Random(90 + k)
    full = encode_naive(code, random_data(code, rng))
    for failed in range(1, k + 3):
        plan = repair_plan(code, failed)
        _, executed = execute_repair(plan, {b: full[b] for b in plan.reads}, BS)
        assert executed == plan.xor_count
        if failed <= k + 1:
            assert executed == (k - 1) * code.r


def test_execute_repair_stays_inside_plan():
    code = construct(2)
    rng = random.Random(95)
    full = encode_naive(code, random_data(code, rng))
    plan = repair_plan(code, 1)
    blocks = {b: full[b] for b in plan.reads}
    outside = next((2, j) for j in range(1, code.r + 1) if (2, j) not in plan.reads)
    blocks[outside] = full[outside]
    with pytest.raises(ValueError):
        execute_repair(plan, blocks, BS)


def test_execute_repair_missing_block():
    code = construct(2)
    rng = random.Random(96)
    full = encode_naive(code, random_data(code, rng))
    plan = repair_plan(code, 1)
    blocks = {b: full[b] for b in plan.reads if b[0] != 2}
    with pytest.raises(ValueError):
        execute_repair(plan, blocks, BS)


def test_execute_repair_rejects_wrong_block_size():
    code = construct(2)
    rng = random.Random(97)
    full = encode_naive(code, random_data(code, rng))
    plan = repair_plan(code, 1)
    blocks = {b: full[b] for b in plan.reads}
    first = min(blocks)
    blocks[first] = blocks[first][:-1]
    with pytest.raises(ValueError):
        execute_repair(plan, blocks, BS)


def test_execute_schedule_missing_source():
    code = construct(2)
    sched = build_repair_schedule(code, 1)
    with pytest.raises(ValueError):
        execute_schedule(sched, {(2, 1): bytes(BS)}, BS)


def test_execute_schedule_rejects_an_op_with_no_sources():
    sched = XorSchedule(1, 1, ((("out", 2, 1), (("in", 1, 1),)), (("out", 3, 1), ())))
    with pytest.raises(ValueError, match="no sources"):
        execute_schedule(sched, {(1, 1): bytes(BS)}, BS)


def test_execute_schedule_rejects_a_source_used_before_definition():
    ops = (
        (("out", 2, 1), (("in", 1, 1), ("tmp", "t"))),
        (("tmp", "t"), (("in", 1, 1),)),
    )
    with pytest.raises(ValueError, match="before definition"):
        execute_schedule(XorSchedule(1, 1, ops), {(1, 1): bytes(BS)}, BS)


def test_execute_schedule_reuses_the_slot_of_a_value_read_for_the_last_time():
    # a chain of 200 intermediates holds two values at a time, not 200
    ops = [(("tmp", 1), (("in", 1, 1), ("in", 2, 1)))]
    ops += [(("tmp", n), (("tmp", n - 1), ("in", 1 + n % 2, 1))) for n in range(2, 201)]
    ops.append((("out", 3, 1), (("tmp", 200),)))
    sched = XorSchedule(2, 1, tuple(ops))
    _, slots, _, _ = sched._program
    assert slots <= len(sched.reads) + 2
    a, b = bytes(range(BS)), bytes(range(BS, 2 * BS))
    # tmp 1, 2, 3, 4, ... cycle through a ^ b, b, 0, a, so tmp 200 is a
    assert execute_schedule(sched, {(1, 1): a, (2, 1): b}, BS) == ({(3, 1): a}, 200)


@st.composite
def random_schedules(draw):
    """A schedule with random ops over a few inputs: chains of intermediates,
    intermediates never read or first read much later, intermediates and
    outputs written again, and outputs read as sources.  Every source is
    defined before it is read."""
    inputs = draw(
        st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=6, unique=True)
    )
    defined = [("in", d, j) for d, j in inputs]
    tmps: list = []
    outs: list = []
    ops = []
    for n in range(draw(st.integers(1, 30))):
        # the newest values are read more often, so chains form
        recent = st.sampled_from(defined[-3:])
        sources = draw(st.lists(st.one_of(recent, st.sampled_from(defined)), min_size=1, max_size=4))
        kind = draw(st.sampled_from(["tmp", "tmp", "tmp again", "out", "out again"]))
        if kind == "tmp again" and tmps:
            target = draw(st.sampled_from(tmps))
        elif kind == "out again" and outs:
            target = draw(st.sampled_from(outs))
        elif kind.startswith("out"):
            target = ("out", 5 + n, draw(st.integers(1, 2)))
            outs.append(target)
        else:
            target = ("tmp", n)
            tmps.append(target)
        ops.append((target, tuple(sources)))
        if target not in defined:
            defined.append(target)
    return XorSchedule(4, 4, tuple(ops))


def evaluate(schedule, values):
    """The plain reference: every buffer by name in one dict."""
    env = {("in", *block): value for block, value in values.items()}
    for target, sources in schedule.ops:
        acc = 0
        for src in sources:
            acc ^= env[src]
        env[target] = acc
    return {buf[1:]: value for buf, value in env.items() if buf[0] == "out"}


@settings(max_examples=200, deadline=None)
@given(random_schedules(), st.integers(1, 4), st.integers(1, 8), st.data())
def test_execute_schedule_matches_a_dict_evaluator(schedule, stripes, block_size, data):
    size = stripes * block_size
    lanes = {
        block: data.draw(st.binary(min_size=size, max_size=size)) for block in sorted(schedule.reads)
    }
    expected = evaluate(schedule, {block: int.from_bytes(b, "little") for block, b in lanes.items()})
    outputs, executed = execute_schedule(schedule, lanes, block_size)
    assert outputs == {block: value.to_bytes(size, "little") for block, value in expected.items()}
    assert executed == schedule.xor_count * stripes


# -- repair schedules -----------------------------------------------------------


@pytest.mark.parametrize("k", range(1, 9))
def test_repair_schedule_counts_and_soundness(k):
    code = construct(k)
    r = code.r
    for failed in range(1, k + 2):
        sched = build_repair_schedule(code, failed)
        assert sched.xor_count == (k - 1) * r
        assert verify_schedule(code, sched)
        survivors = [d for d in range(1, k + 3) if d != failed]
        assert {d: len(rows) for d, rows in sched.rows_by_disk.items()} == dict.fromkeys(survivors, r // 2)
        if k >= 2:  # a run that meets no other ends in the rebuilt block itself
            assert all(len(sources) > 1 for _, sources in sched.ops), failed


@pytest.mark.parametrize("k, xors", enumerate([0, 6, 26, 82, 226, 578, 1410, 3330], start=1))
def test_q_repair_schedule_counts_and_soundness(k, xors):
    code = construct(k)
    sched = repair_plan(code, k + 2)
    assert sched.xor_count == xors
    assert verify_schedule(code, sched)
    assert sched.reads == {(d, j) for d in range(1, k + 1) for j in range(1, code.r + 1)}


@pytest.mark.parametrize("k", range(1, 9))
def test_parity_schedule_keeps_only_what_its_parities_need(k):
    code = construct(k)
    r = code.r
    p, q = parity_schedule(code, (k + 1,)), parity_schedule(code, (k + 2,))
    assert p.xor_count == (k - 1) * r
    assert p.writes == {(k + 1, j) for j in range(1, r + 1)}
    assert q == repair_plan(code, k + 2)
    assert all(verify_schedule(code, s) for s in (p, q))
    assert parity_schedule(code, (k + 1, k + 2)) == build_encode_schedule(code)


@pytest.mark.parametrize("k", range(2, 6))
def test_repair_schedule_executes_like_plan(k):
    code = construct(k)
    rng = random.Random(100 + k)
    full = encode_naive(code, random_data(code, rng))
    for failed in range(1, k + 2):
        sched = build_repair_schedule(code, failed)
        outputs, executed = execute_schedule(sched, {b: full[b] for b in sched.reads}, BS)
        assert outputs == {b: full[b] for b in full if b[0] == failed}
        assert executed == (k - 1) * code.r


def test_repair_schedule_k1_copies():
    sched = build_repair_schedule(construct(1), 1)
    assert sched.xor_count == 0
    assert all(len(sources) == 1 for _, sources in sched.ops)


def test_repair_schedule_k3_total():
    sched = build_repair_schedule(construct(3), 1)
    assert sched.xor_count == 16  # 2 XORs per rebuilt block, r=8


def test_repair_schedule_rejects_q_disk():
    with pytest.raises(ValueError):
        build_repair_schedule(construct(2), 4)


def test_repair_schedule_reads_match_plan():
    code = construct(4)
    for failed in range(1, code.k + 2):
        sched = build_repair_schedule(code, failed)
        plan = repair_plan(code, failed)
        touched = {
            (src[1], src[2])
            for _, sources in sched.ops
            for src in sources
            if src[0] == "in"
        }
        assert touched == plan.reads
