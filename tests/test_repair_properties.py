"""Property tests: every single-disk rebuild and every decode of up to
two lost disks, for canonical and search-found codes, is byte-exact and
sound; a rebuild reads exactly its plan, a decode reads no lost disk, and
every schedule runs only on exactly the blocks it reads."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdr6.analysis import search_repair_optimal
from mdr6.code import construct, is_recursive_mdr
from mdr6.codec import (
    XorOp,
    XorSchedule,
    build_decode_schedule,
    build_encode_schedule,
    decode,
    encode_naive,
    execute_repair,
    execute_schedule,
    repair_plan,
    verify_schedule,
)

CANONICAL = [construct(k) for k in range(1, 6)]
FOUND = [*search_repair_optimal(1, 2).found, *search_repair_optimal(2, 2).found]


def full_stripe(code, block_size, seed):
    """Every block of one stripe of random data, by (disk, row)."""
    rng = random.Random(seed)
    data = {(d, j): rng.randbytes(block_size) for d in range(1, code.k + 1) for j in range(1, code.r + 1)}
    return encode_naive(code, data)


def block_size_of(full):
    return len(full[1, 1])


def without(full, *lost):
    return {b: data for b, data in full.items() if b[0] not in lost}


def erasure_patterns(code):
    disks = range(1, code.k + 3)
    return [*itertools.combinations(disks, 1), *itertools.combinations(disks, 2)]


def flat_inputs(schedule):
    """Each block the schedule writes, as the set of input blocks whose XOR
    it is: the sources of the one flat op that would compute it."""
    env = {}
    for op in schedule.ops:
        acc = frozenset()
        for src in op.sources:
            acc ^= {src[1:]} if src[0] == "in" else env[src]
        env[op.target] = acc
    return {block: env[("out", *block)] for block in schedule.writes}


def flat_count(schedule):
    return sum(len(inputs) - 1 for inputs in flat_inputs(schedule).values())


@st.composite
def repair_cases(draw):
    code = draw(st.one_of(st.sampled_from(CANONICAL), st.sampled_from(FOUND)))
    disk = draw(st.integers(1, code.k + 2))
    block_size = draw(st.integers(1, 48))
    seed = draw(st.integers(0, 2**32 - 1))
    return code, disk, full_stripe(code, block_size, seed)


@pytest.mark.parametrize("code", CANONICAL + FOUND, ids=lambda c: f"k{c.k}r{c.r}")
def test_every_plan_schedule_verifies_and_reads_its_strategy(code):
    k = code.k
    for disk in range(1, k + 3):
        plan = repair_plan(code, disk)
        assert verify_schedule(code, plan)
        if disk == k + 2:
            expected = {(d, j) for d in range(1, k + 1) for j in range(1, code.r + 1)}
        else:
            strat = code.strategies[disk - 1]
            expected = {
                (d, j) for d in range(1, k + 2) if d != disk for j in strat.basic_rows
            } | {(k + 2, j) for j in strat.q_rows}
        assert plan.reads == expected
        if not is_recursive_mdr(code):
            # compiled schedules never cost more XORs than flat ones
            assert plan.xor_count <= flat_count(plan), disk
    if not is_recursive_mdr(code):
        encode = build_encode_schedule(code)
        assert encode.xor_count <= flat_count(encode)


@settings(max_examples=60, deadline=None)
@given(repair_cases())
def test_execute_repair_matches_column_and_decode(case):
    code, disk, full = case
    plan = repair_plan(code, disk)
    column, executed = execute_repair(plan, {b: full[b] for b in plan.reads}, block_size_of(full))
    assert column == [full[disk, j] for j in range(1, code.r + 1)]
    assert executed == plan.xor_count
    oracle = decode(code, without(full, disk))
    assert column == [oracle[disk, j] for j in range(1, code.r + 1)]


@st.composite
def schedule_cases(draw):
    """A code, a full stripe, one of the code's encode, single-disk repair
    or decode schedules (one that reads something), and its executor."""
    code, disk, full = draw(repair_cases())
    kind = draw(st.sampled_from(["encode", "repair", "decode"]))
    if kind == "encode":
        return code, full, build_encode_schedule(code), execute_schedule
    if kind == "repair":
        return code, full, repair_plan(code, disk), execute_repair
    data_lost = [m for m in erasure_patterns(code) if min(m) <= code.k]
    return code, full, build_decode_schedule(code, draw(st.sampled_from(data_lost))), execute_schedule


@settings(max_examples=60, deadline=None)
@given(schedule_cases(), st.data())
def test_execute_repair_refuses_a_wrong_block_map(case, data):
    code, full, schedule, execute = case
    blocks = {b: full[b] for b in schedule.reads}
    missing = data.draw(st.sampled_from(sorted(schedule.reads)))
    short = {key: b for key, b in blocks.items() if key != missing}
    with pytest.raises(ValueError):
        execute(schedule, short, block_size_of(full))
    outside = sorted(
        (d, j)
        for d in range(1, code.k + 3)
        for j in range(1, code.r + 1)
        if (d, j) not in schedule.reads
    )
    extra = data.draw(st.sampled_from(outside))
    with pytest.raises(ValueError):
        execute(schedule, {**blocks, extra: full[extra]}, block_size_of(full))


def _with_last_op(schedule, op):
    """The schedule with its last op replaced by op, or removed if op is None."""
    ops = schedule.ops[:-1] + ((op,) if op else ())
    return XorSchedule(schedule.k, schedule.r, ops)


@pytest.mark.parametrize("code", CANONICAL + FOUND, ids=lambda c: f"k{c.k}r{c.r}")
def test_verify_schedule_accepts_built_schedules_and_rejects_tampering(code):
    k = code.k
    schedules = [
        build_encode_schedule(code),
        *(repair_plan(code, disk) for disk in range(1, k + 3)),
        *(build_decode_schedule(code, missing) for missing in erasure_patterns(code)),
    ]
    other = CANONICAL[k % len(CANONICAL)]
    for schedule in schedules:
        assert verify_schedule(code, schedule)
        assert not verify_schedule(other, schedule)
        if not schedule.ops:
            continue
        last = schedule.ops[-1]
        # a dropped source changes the block the last op writes
        assert not verify_schedule(code, _with_last_op(schedule, XorOp(last.target, last.sources[:-1])))
        # an op removed leaves its column partly written
        assert not verify_schedule(code, _with_last_op(schedule, None))
        # a block of the output disk added twice cancels out, so only the read is wrong
        own = ("in", min(schedule.writes)[0], 1)
        doubled = XorOp(last.target, (*last.sources, own, own))
        assert not verify_schedule(code, _with_last_op(schedule, doubled))


@pytest.mark.parametrize("code", CANONICAL + FOUND, ids=lambda c: f"k{c.k}r{c.r}")
def test_every_decode_schedule_rebuilds_exactly_the_lost_data(code):
    k, r = code.k, code.r
    for missing in erasure_patterns(code):
        schedule = build_decode_schedule(code, missing)
        assert verify_schedule(code, schedule), missing
        assert schedule.writes == {(d, j) for d in missing if d <= k for j in range(1, r + 1)}
        assert not any(d in missing for d, _ in schedule.reads), missing
        # building from earlier outputs never costs an XOR or a read more than flat ops
        assert schedule.xor_count <= flat_count(schedule), missing
        assert schedule.reads == set().union(*flat_inputs(schedule).values()), missing
        if code in CANONICAL and len(missing) == 1 and missing[0] <= k:
            assert schedule.xor_count == (k - 1) * r, missing


@pytest.mark.parametrize(
    "k, missing, flat, xors",
    [(3, (2, 3), 68, 36), (6, (2, 5), 2400, 1248), (6, (1, 2), 2368, 960), (6, (1, 7), 1600, 1534)],
)
def test_decode_xor_counts_are_pinned(k, missing, flat, xors):
    schedule = build_decode_schedule(construct(k), missing)
    assert flat_count(schedule) == flat
    assert schedule.xor_count == xors


@st.composite
def decode_cases(draw):
    code = draw(st.one_of(st.sampled_from(CANONICAL), st.sampled_from(FOUND)))
    missing = draw(st.sampled_from(erasure_patterns(code)))
    block_size = draw(st.integers(1, 48))
    seed = draw(st.integers(0, 2**32 - 1))
    return code, missing, full_stripe(code, block_size, seed)


@settings(max_examples=60, deadline=None)
@given(decode_cases())
def test_decode_schedule_matches_stripe_and_oracle(case):
    code, missing, full = case
    schedule = build_decode_schedule(code, missing)
    outputs, executed = execute_schedule(schedule, {b: full[b] for b in schedule.reads}, block_size_of(full))
    assert executed == schedule.xor_count
    oracle = decode(code, without(full, *missing))
    assert outputs == {b: full[b] for b in full if b[0] in missing and b[0] <= code.k}
    assert all(data == oracle[block] for block, data in outputs.items())
