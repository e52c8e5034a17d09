"""Oracles, bounds, update I/O, XOR accounting, and the code search."""

import random
from fractions import Fraction

import pytest

from mdr6.analysis import (
    check_lower_bounds,
    count_schedule_xors,
    min_io_bruteforce,
    plan_meets_bounds,
    search_repair_optimal,
    update_io,
)
from mdr6.code import construct, generator_submatrices, initial_code, verify_mds, verify_repair_optimal
from mdr6.codec import XorOp, XorSchedule, build_encode_schedule, build_repair_schedule, repair_plan
from mdr6.f2 import BitMatrix


# -- exhaustive minimum-I/O oracle --------------------------------------------


def test_oracle_initial_code():
    code = initial_code()
    assert min_io_bruteforce(code, 1).total == 2  # (k+1)r/2
    assert min_io_bruteforce(code, 2).total == 2
    assert min_io_bruteforce(code, 3).total == 2  # kr


def test_oracle_matches_plans_small():
    for code in (initial_code(), construct(2)):
        for disk in range(1, code.k + 2):
            assert min_io_bruteforce(code, disk).total == len(repair_plan(code, disk).reads)
        assert min_io_bruteforce(code, code.k + 2).total == len(
            repair_plan(code, code.k + 2).reads
        )


def test_oracle_matches_plans_on_search_found_codes():
    found = search_repair_optimal(2, 2).found
    assert found
    for code in found[:5]:
        for disk in range(1, code.k + 3):
            oracle = min_io_bruteforce(code, disk)
            assert oracle.total == len(repair_plan(code, disk).reads)


def test_oracle_reports_search_space_and_witness():
    rep = min_io_bruteforce(initial_code(), 1)
    assert rep.search_space == 16
    assert isinstance(rep.witness, BitMatrix)
    assert sum(rep.per_disk.values()) == rep.total
    doc = rep.to_document()
    assert doc["total"] == 2


def test_oracle_guards_large_r():
    with pytest.raises(ValueError):
        min_io_bruteforce(construct(3), 1)


def test_zero_column_pair_bound():
    # for any X and i != j, zero-columns(I+XA_i) + zero-columns(I+XA_j) <= r
    code = construct(2)
    r = code.r
    a_mats = generator_submatrices(code)
    eye = BitMatrix.identity(r)
    rng = random.Random(5)
    for _ in range(200):
        x = BitMatrix.from_rows(
            [[rng.randrange(2) for _ in range(r)] for _ in range(r)]
        )
        zero_cols = [
            r - (eye + x.mul(a)).count_nonzero_columns() for a in a_mats
        ]
        for i in range(len(zero_cols)):
            for j in range(i + 1, len(zero_cols)):
                assert zero_cols[i] + zero_cols[j] <= r


# -- bound checks ---------------------------------------------------------------


@pytest.mark.parametrize("k", range(1, 9))
def test_lower_bounds_met(k):
    assert check_lower_bounds(construct(k))


def test_plan_with_extra_read_fails_bounds():
    code = construct(2)
    plan = repair_plan(code, 1)
    first = plan.ops[0]
    padded = XorSchedule(plan.k, plan.r, (XorOp(first.target, (*first.sources, ("in", 2, 2))), *plan.ops[1:]))
    assert padded.reads == plan.reads | {(2, 2)}
    assert not plan_meets_bounds(code, padded)


def test_skewed_per_disk_reads_fail_bounds():
    code = construct(2)
    plan = repair_plan(code, 1)
    # same total, but r/2+1 from disk 2 and r/2-1 from disk 3: every op
    # reading the first disk-3 row reads an unused disk-2 row instead
    moved = min(row for d, row in plan.reads if d == 3)
    extra_row = next(j for j in range(1, code.r + 1) if (2, j) not in plan.reads)
    swap = {("in", 3, moved): ("in", 2, extra_row)}
    ops = tuple(XorOp(op.target, tuple(swap.get(s, s) for s in op.sources)) for op in plan.ops)
    skewed = XorSchedule(plan.k, plan.r, ops)
    assert skewed.reads == plan.reads - {(3, moved)} | {(2, extra_row)}
    assert not plan_meets_bounds(code, skewed)


# -- update I/O -------------------------------------------------------------------


def test_update_io_values():
    assert update_io(construct(1)) == 2
    assert update_io(construct(2)) == Fraction(9, 4)
    assert update_io(construct(5)) == 3
    for k in range(2, 9):
        assert update_io(construct(k)) == Fraction(k + 7, 4)


# -- XOR accounting ----------------------------------------------------------------


def test_count_encode_schedule():
    code = construct(3)
    report = count_schedule_xors(build_encode_schedule(code), code)
    assert report.average_per_block == 2
    assert report.total == 2 * 2 * 8


def test_count_encode_k1():
    code = construct(1)
    report = count_schedule_xors(build_encode_schedule(code), code)
    assert report.total == report.average_per_block == 0


def test_count_repair_schedule():
    code = construct(4)
    report = count_schedule_xors(build_repair_schedule(code, 2), code)
    assert report.average_per_block == 3


def test_count_rejects_mismatched_schedule():
    sched = build_encode_schedule(construct(2))
    with pytest.raises(ValueError):
        count_schedule_xors(sched, construct(3))


# -- strip-size search ---------------------------------------------------------------


def test_search_k1_contains_initial_code():
    result = search_repair_optimal(1, 2)
    assert result.exhausted
    assert initial_code() in result.found


def test_search_k2_r2_finds_codes():
    result = search_repair_optimal(2, 2)
    assert result.exhausted
    assert len(result.found) >= 1
    for code in result.found:
        assert verify_mds(code)
        assert verify_repair_optimal(code)


def test_search_k3_r2_empty():
    result = search_repair_optimal(3, 2)
    assert result.exhausted
    assert result.found == ()


def test_search_budget_gives_partial_result():
    result = search_repair_optimal(2, 2, limit=10)
    assert not result.exhausted
    assert result.examined <= 11


def test_search_document_reports_exhaustion():
    doc = search_repair_optimal(1, 2).to_document()
    assert doc["exhausted"] is True


def test_search_rejects_odd_r():
    with pytest.raises(ValueError):
        search_repair_optimal(2, 3)
