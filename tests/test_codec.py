"""Encode/decode/repair behavior, with the naive evaluator and the generic
decoder as reference paths for the optimized ones."""

import itertools
import random

import pytest

from mdr6.code import MdrCode, construct
from mdr6.codec import (
    ErasurePattern,
    IntegrityError,
    Stripe,
    build_encode_schedule,
    build_repair_schedule,
    decode,
    encode_naive,
    execute_repair,
    execute_schedule,
    parity_check_matrix,
    repair_plan,
    verify_encode_schedule,
    verify_repair_schedule,
    xor_blocks,
)

BS = 16


def random_stripe(code, rng, block_size=BS):
    cols = [
        [rng.randbytes(block_size) for _ in range(code.r)] for _ in range(code.k)
    ]
    return Stripe.from_data_columns(code.k, code.r, block_size, cols)


def stripes_equal(a, b):
    return all(a.column(d) == b.column(d) for d in range(1, a.k + 3))


def plan_blocks(stripe, plan):
    return {(d, j): stripe.get_block(d, j) for d, j in plan.reads}


def data_inputs(stripe):
    return {
        ("in", d, j): stripe.get_block(d, j)
        for d in range(1, stripe.k + 1)
        for j in range(1, stripe.r + 1)
    }


def parity_outputs(stripe):
    k = stripe.k
    return {
        ("out", d, j): stripe.get_block(d, j)
        for d in (k + 1, k + 2)
        for j in range(1, stripe.r + 1)
    }


# -- encode ------------------------------------------------------------------


def test_encode_naive_zero_data():
    code = construct(2)
    zero = bytes(BS)
    data = Stripe.from_data_columns(2, 4, BS, [[zero] * 4, [zero] * 4])
    full = encode_naive(code, data)
    assert all(b == zero for b in full.column(3))
    assert all(b == zero for b in full.column(4))


def test_encode_naive_k1_replication():
    code = construct(1)
    rng = random.Random(0)
    data = random_stripe(code, rng)
    full = encode_naive(code, data)
    assert full.column(2) == full.column(1)  # row parity of one disk
    d1 = full.column(1)
    assert full.column(3) == [d1[1], d1[0]]  # Q swaps the two rows


def test_encode_naive_missing_disk():
    code = construct(2)
    data = Stripe(2, 4, BS)
    with pytest.raises(ValueError):
        encode_naive(code, data)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_parity_check_annihilates_codewords(k):
    code = construct(k)
    rng = random.Random(20 + k)
    full = encode_naive(code, random_stripe(code, rng))
    h = parity_check_matrix(code)
    blocks = [
        int.from_bytes(full.get_block(d, j), "little")
        for d in range(1, k + 3)
        for j in range(1, code.r + 1)
    ]
    for mask in h.row_bits:
        acc = 0
        cur = mask
        while cur:
            low = cur & -cur
            acc ^= blocks[low.bit_length() - 1]
            cur ^= low
        assert acc == 0


@pytest.mark.parametrize("k", range(1, 7))
def test_encode_schedule_counts_and_soundness(k):
    code = construct(k)
    sched = build_encode_schedule(code)
    assert sched.xor_count == 2 * (k - 1) * code.r
    assert verify_encode_schedule(code, sched)


def test_encode_schedule_k1_q_is_copies():
    sched = build_encode_schedule(construct(1))
    q_ops = [op for op in sched.ops if op.target[:2] == ("out", 3)]
    assert all(len(op.sources) == 1 for op in q_ops)
    assert sched.xor_count == 0


def test_encode_schedule_k3_q_cost():
    sched = build_encode_schedule(construct(3))
    q_xors = sum(
        len(op.sources) - 1 for op in sched.ops if op.target[:2] == ("out", 5)
    )
    assert q_xors == (3 - 1) * 2**3  # 2 XORs per Q block


@pytest.mark.parametrize("k", range(1, 6))
def test_encode_matches_naive(k):
    code = construct(k)
    rng = random.Random(40 + k)
    sched = build_encode_schedule(code)
    for _ in range(3):
        data = random_stripe(code, rng)
        outputs, _ = execute_schedule(sched, data_inputs(data), BS)
        assert outputs == parity_outputs(encode_naive(code, data))


def test_encode_executed_xor_count():
    code = construct(4)
    rng = random.Random(44)
    data = random_stripe(code, rng)
    sched = build_encode_schedule(code)
    _, executed = execute_schedule(sched, data_inputs(data), BS)
    assert executed == 2 * 3 * 16 == sched.xor_count


def test_encode_schedule_for_foreign_code():
    # a valid two-erasure code that is not the canonical recursion output
    code = construct(2)
    mats = (code.b_matrices[1], code.b_matrices[0], code.b_matrices[2])
    foreign = MdrCode(2, 4, mats, None)
    sched = build_encode_schedule(foreign)
    assert verify_encode_schedule(foreign, sched)
    rng = random.Random(45)
    for _ in range(3):
        data = random_stripe(foreign, rng)
        outputs, _ = execute_schedule(sched, data_inputs(data), BS)
        assert outputs == parity_outputs(encode_naive(foreign, data))


# -- decode ------------------------------------------------------------------


@pytest.mark.parametrize("k", range(1, 5))
def test_decode_all_patterns_roundtrip(k):
    code = construct(k)
    rng = random.Random(60 + k)
    for _ in range(3):
        full = encode_naive(code, random_stripe(code, rng))
        for pat in itertools.combinations(range(1, k + 3), 2):
            damaged = full.copy()
            for d in pat:
                damaged.erase_disk(d)
            restored = decode(code, damaged, ErasurePattern.of(*pat))
            assert stripes_equal(restored, full), pat
        for d in range(1, k + 3):
            damaged = full.copy()
            damaged.erase_disk(d)
            restored = decode(code, damaged, ErasurePattern.of(d))
            assert stripes_equal(restored, full), d


def test_decode_parity_erasures_reencode():
    code = construct(3)
    rng = random.Random(70)
    full = encode_naive(code, random_stripe(code, rng))
    damaged = full.copy()
    damaged.erase_disk(4)
    damaged.erase_disk(5)
    assert stripes_equal(decode(code, damaged, ErasurePattern.of(4, 5)), full)


def test_decode_consistency_check():
    code = construct(2)
    rng = random.Random(71)
    full = encode_naive(code, random_stripe(code, rng))
    assert stripes_equal(decode(code, full, ErasurePattern.of()), full)
    corrupted = full.copy()
    block = bytearray(corrupted.get_block(1, 1))
    block[0] ^= 0xFF
    corrupted.set_block(1, 1, bytes(block))
    with pytest.raises(IntegrityError):
        decode(code, corrupted, ErasurePattern.of())


def test_decode_rejects_three_erasures():
    with pytest.raises(ValueError):
        ErasurePattern.of(1, 2, 3)


def test_decode_rejects_out_of_range_disk():
    code = construct(2)
    rng = random.Random(72)
    full = encode_naive(code, random_stripe(code, rng))
    with pytest.raises(ValueError):
        decode(code, full, ErasurePattern.of(9))


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
    full = encode_naive(code, random_stripe(code, rng))
    for failed in range(1, k + 3):
        plan = repair_plan(code, failed)
        column, _ = execute_repair(plan, plan_blocks(full, plan), BS)
        assert column == full.column(failed)


def test_execute_repair_matches_decode():
    code = construct(3)
    rng = random.Random(85)
    full = encode_naive(code, random_stripe(code, rng))
    for failed in range(1, code.k + 3):
        damaged = full.copy()
        damaged.erase_disk(failed)
        via_decode = decode(code, damaged, ErasurePattern.of(failed)).column(failed)
        plan = repair_plan(code, failed)
        via_repair, _ = execute_repair(plan, plan_blocks(damaged, plan), BS)
        assert via_repair == via_decode


def test_execute_repair_row_parity_identity():
    code = construct(2)
    rng = random.Random(86)
    full = encode_naive(code, random_stripe(code, rng))
    plan = repair_plan(code, 1)
    rebuilt, _ = execute_repair(plan, plan_blocks(full, plan), BS)
    for c in code.strategies[0].basic_rows:
        expect = xor_blocks(
            [full.get_block(d, c) for d in (2, 3)], full.block_size
        )
        assert rebuilt[c - 1] == expect


@pytest.mark.parametrize("k", range(1, 6))
def test_execute_repair_meter(k):
    # the executed XOR count is the schedule's: (k-1)r for a basic disk
    code = construct(k)
    rng = random.Random(90 + k)
    full = encode_naive(code, random_stripe(code, rng))
    for failed in range(1, k + 3):
        plan = repair_plan(code, failed)
        _, executed = execute_repair(plan, plan_blocks(full, plan), BS)
        assert executed == plan.schedule.xor_count
        if failed <= k + 1:
            assert executed == (k - 1) * code.r


def test_execute_repair_stays_inside_plan():
    code = construct(2)
    rng = random.Random(95)
    full = encode_naive(code, random_stripe(code, rng))
    plan = repair_plan(code, 1)
    blocks = plan_blocks(full, plan)
    outside = next((2, j) for j in range(1, code.r + 1) if (2, j) not in plan.reads)
    blocks[outside] = full.get_block(*outside)
    with pytest.raises(ValueError):
        execute_repair(plan, blocks, BS)


def test_execute_repair_missing_block():
    code = construct(2)
    rng = random.Random(96)
    full = encode_naive(code, random_stripe(code, rng))
    plan = repair_plan(code, 1)
    blocks = {key: b for key, b in plan_blocks(full, plan).items() if key[0] != 2}
    with pytest.raises(ValueError):
        execute_repair(plan, blocks, BS)


def test_execute_repair_rejects_wrong_block_size():
    code = construct(2)
    rng = random.Random(97)
    full = encode_naive(code, random_stripe(code, rng))
    plan = repair_plan(code, 1)
    blocks = plan_blocks(full, plan)
    first = min(blocks)
    blocks[first] = blocks[first][:-1]
    with pytest.raises(ValueError):
        execute_repair(plan, blocks, BS)


def test_execute_schedule_missing_source():
    code = construct(2)
    sched = build_repair_schedule(code, 1)
    with pytest.raises(ValueError):
        execute_schedule(sched, {("in", 2, 1): bytes(BS)}, BS)


# -- repair schedules -----------------------------------------------------------


@pytest.mark.parametrize("k", range(1, 7))
def test_repair_schedule_counts_and_soundness(k):
    code = construct(k)
    for failed in range(1, k + 2):
        sched = build_repair_schedule(code, failed)
        assert sched.xor_count == (k - 1) * code.r
        assert verify_repair_schedule(code, sched)


@pytest.mark.parametrize("k", range(2, 6))
def test_repair_schedule_executes_like_plan(k):
    code = construct(k)
    rng = random.Random(100 + k)
    full = encode_naive(code, random_stripe(code, rng))
    for failed in range(1, k + 2):
        sched = build_repair_schedule(code, failed)
        inputs = {
            ("in", d, j): full.get_block(d, j)
            for d in range(1, k + 3)
            if d != failed
            for j in range(1, code.r + 1)
        }
        outputs, executed = execute_schedule(sched, inputs, full.block_size)
        column = [outputs[("out", failed, j)] for j in range(1, code.r + 1)]
        assert column == full.column(failed)
        assert executed == (k - 1) * code.r


def test_repair_schedule_k1_copies():
    sched = build_repair_schedule(construct(1), 1)
    assert sched.xor_count == 0
    assert all(len(op.sources) == 1 for op in sched.ops)


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
            for op in sched.ops
            for src in op.sources
            if src[0] == "in"
        }
        assert touched == plan.reads


def test_verify_encode_schedule_rejects_tampering():
    code = construct(2)
    sched = build_encode_schedule(code)
    ops = list(sched.ops)
    last = ops[-1]
    ops[-1] = type(last)(last.target, last.sources[:-1] or (("in", 1, 1),))
    tampered = type(sched)(sched.kind, sched.k, sched.r, sched.failed_disk, tuple(ops))
    assert not verify_encode_schedule(code, tampered)
    assert not verify_encode_schedule(construct(3), sched)


def test_verify_repair_schedule_rejects_failed_disk_reads():
    code = construct(2)
    sched = build_repair_schedule(code, 1)
    ops = list(sched.ops)
    first = ops[0]
    ops[0] = type(first)(first.target, (("in", 1, 1),) + first.sources[1:])
    tampered = type(sched)(sched.kind, sched.k, sched.r, 1, tuple(ops))
    assert not verify_repair_schedule(code, tampered)
    assert not verify_repair_schedule(code, build_encode_schedule(code))


# -- stripe bookkeeping -----------------------------------------------------------


def test_stripe_block_size_checked():
    stripe = Stripe(1, 2, 4)
    with pytest.raises(ValueError):
        stripe.set_block(1, 1, b"too long for 4")


def test_stripe_presence_and_erase():
    code = construct(1)
    rng = random.Random(1)
    full = encode_naive(code, random_stripe(code, rng))
    assert full.present_disks() == [1, 2, 3]
    full.erase_disk(2)
    assert not full.disk_present(2)
    with pytest.raises(ValueError):
        full.get_block(2, 1)
