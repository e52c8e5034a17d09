"""Property tests: every single-disk rebuild and every decode of up to
two lost disks, for canonical and search-found codes, is byte-exact and
sound; a rebuild reads exactly its plan and a decode reads no lost disk."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdr6.analysis import search_repair_optimal
from mdr6.code import construct
from mdr6.codec import (
    ErasurePattern,
    Stripe,
    _data_coefficients,
    _evaluate_symbolic,
    build_decode_schedule,
    decode,
    encode_naive,
    execute_repair,
    execute_schedule,
    repair_plan,
    verify_repair_schedule,
)

CANONICAL = [construct(k) for k in range(1, 6)]
FOUND = [*search_repair_optimal(1, 2).found, *search_repair_optimal(2, 2).found]


def full_stripe(code, block_size, seed):
    rng = random.Random(seed)
    cols = [[rng.randbytes(block_size) for _ in range(code.r)] for _ in range(code.k)]
    return encode_naive(code, Stripe.from_data_columns(code.k, code.r, block_size, cols))


def erasure_patterns(code):
    disks = range(1, code.k + 3)
    return [*itertools.combinations(disks, 1), *itertools.combinations(disks, 2)]


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
        assert verify_repair_schedule(code, plan.schedule)
        if disk == k + 2:
            expected = {(d, j) for d in range(1, k + 1) for j in range(1, code.r + 1)}
        else:
            strat = code.strategies[disk - 1]
            expected = {
                (d, j) for d in range(1, k + 2) if d != disk for j in strat.basic_rows
            } | {(k + 2, j) for j in strat.q_rows}
        assert plan.reads == expected


@settings(max_examples=60, deadline=None)
@given(repair_cases())
def test_execute_repair_matches_column_and_decode(case):
    code, disk, full = case
    plan = repair_plan(code, disk)
    blocks = {(d, j): full.get_block(d, j) for d, j in plan.reads}
    column, executed = execute_repair(plan, blocks, full.block_size)
    assert column == full.column(disk)
    assert executed == plan.schedule.xor_count
    damaged = full.copy()
    damaged.erase_disk(disk)
    assert column == decode(code, damaged, ErasurePattern.of(disk)).column(disk)


@settings(max_examples=60, deadline=None)
@given(repair_cases(), st.data())
def test_execute_repair_refuses_a_wrong_block_map(case, data):
    code, disk, full = case
    plan = repair_plan(code, disk)
    blocks = {(d, j): full.get_block(d, j) for d, j in plan.reads}
    missing = data.draw(st.sampled_from(sorted(plan.reads)))
    short = {key: b for key, b in blocks.items() if key != missing}
    with pytest.raises(ValueError):
        execute_repair(plan, short, full.block_size)
    outside = sorted(
        (d, j)
        for d in range(1, code.k + 3)
        for j in range(1, code.r + 1)
        if (d, j) not in plan.reads
    )
    extra = data.draw(st.sampled_from(outside))
    with pytest.raises(ValueError):
        execute_repair(plan, {**blocks, extra: full.get_block(*extra)}, full.block_size)


@pytest.mark.parametrize("code", CANONICAL + FOUND, ids=lambda c: f"k{c.k}r{c.r}")
def test_every_decode_schedule_rebuilds_exactly_the_lost_data(code):
    k, r = code.k, code.r
    coeffs = _data_coefficients(code)
    for missing in erasure_patterns(code):
        schedule = build_decode_schedule(code, missing)
        lost = {
            ("out", d, j): coeffs[("in", d, j)] for d in missing if d <= k for j in range(1, r + 1)
        }
        assert _evaluate_symbolic(code, schedule) == lost, missing
        assert not any(
            src[0] == "in" and src[1] in missing for op in schedule.ops for src in op.sources
        ), missing
        if code in CANONICAL and len(missing) == 1 and missing[0] <= k:
            assert schedule.xor_count == (k - 1) * r, missing


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
    inputs = {
        ("in", d, j): full.get_block(d, j)
        for d in range(1, code.k + 3)
        if d not in missing
        for j in range(1, code.r + 1)
    }
    schedule = build_decode_schedule(code, missing)
    outputs, executed = execute_schedule(schedule, inputs, full.block_size)
    assert executed == schedule.xor_count
    damaged = full.copy()
    for d in missing:
        damaged.erase_disk(d)
    oracle = decode(code, damaged, ErasurePattern(frozenset(missing)))
    assert outputs == {
        ("out", d, j): full.get_block(d, j)
        for d in missing
        if d <= code.k
        for j in range(1, code.r + 1)
    }
    assert all(data == oracle.get_block(*buf[1:]) for buf, data in outputs.items())
