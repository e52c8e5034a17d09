"""Acceptance criteria for the toolkit, one test per criterion.

Each test prints a single pass/fail line (run with -s to see them) and
enforces the stated numeric tolerances, which are exact integer or exact
rational equalities except where a runtime budget is given.
"""

import itertools
import random
import time
from fractions import Fraction

from mdr6.analysis import min_io_bruteforce, search_repair_optimal, update_io
from mdr6.code import construct, verify_mds, verify_repair_optimal
from mdr6.codec import (
    build_encode_schedule,
    build_repair_schedule,
    decode,
    encode_naive,
    execute_schedule,
    repair_plan,
    verify_schedule,
)
from mdr6.sim import DiskModel, SimConfig, compare, simulate


def report(number: int, name: str, ok: bool) -> None:
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")


def random_data(code, rng, block_size):
    """The blocks of the k data disks of one random stripe, by (disk, row)."""
    return {
        (d, j): rng.randbytes(block_size)
        for d in range(1, code.k + 1)
        for j in range(1, code.r + 1)
    }


def test_criterion_1_construction_soundness():
    ok = True
    for k in range(1, 9):
        start = time.perf_counter()
        code = construct(k)
        ok = ok and verify_mds(code) and verify_repair_optimal(code)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"k={k} took {elapsed:.1f}s"
    report(1, "construction soundness k=1..8", ok)
    assert ok


def test_criterion_2_mds_roundtrip():
    start = time.perf_counter()
    rng = random.Random(2024)
    ok = True
    for k in range(1, 6):
        code = construct(k)
        patterns = list(itertools.combinations(range(1, k + 3), 2))
        for _ in range(100):
            full = encode_naive(code, random_data(code, rng, 16))
            for pat in patterns:
                survivors = {b: data for b, data in full.items() if b[0] not in pat}
                if decode(code, survivors) != full:
                    ok = False
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"round-trip sweep took {elapsed:.1f}s"
    report(2, "two-erasure round-trip k=1..5", ok)
    assert ok


def test_criterion_3_repair_io_exactness():
    ok = True
    for k in range(1, 9):
        code = construct(k)
        r = code.r
        for failed in range(1, k + 2):
            plan = repair_plan(code, failed)
            ok = ok and len(plan.reads) == (k + 1) * (1 << (k - 1))
            per_disk: dict[int, list[int]] = {}
            for d, row in plan.reads:
                per_disk.setdefault(d, []).append(row)
            ok = ok and all(len(rows) == 1 << (k - 1) for rows in per_disk.values())
            basic_rows = {
                tuple(sorted(rows)) for d, rows in per_disk.items() if d <= k + 1
            }
            ok = ok and len(basic_rows) == 1
        q_plan = repair_plan(code, k + 2)
        ok = ok and len(q_plan.reads) == k * (1 << k)
        ratio = Fraction((k + 1) * r // 2, k * r)
        ok = ok and ratio == Fraction(k + 1, 2 * k)
    ok = ok and Fraction(4, 6) == Fraction(
        len(repair_plan(construct(3), 1).reads), 3 * 8
    )
    ok = ok and float(Fraction(9, 16)) == 0.5625
    report(3, "repair reads (k+1)2^(k-1), ratio (k+1)/2k", ok)
    assert ok


def test_criterion_4_oracle_agreement():
    start = time.perf_counter()
    code = construct(2)
    ok = True
    for disk, expected in ((1, 6), (2, 6), (3, 6), (4, 8)):
        oracle = min_io_bruteforce(code, disk)
        ok = ok and oracle.total == expected
        ok = ok and oracle.search_space == 1 << 16
        ok = ok and len(repair_plan(code, disk).reads) == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"oracle sweep took {elapsed:.1f}s"
    report(4, "exhaustive oracle = plan reads = bounds (6/6/6/8)", ok)
    assert ok


def test_criterion_5_xor_optimality():
    rng = random.Random(5)
    ok = True
    for k in range(1, 7):
        code = construct(k)
        r = code.r
        data = random_data(code, rng, 8)
        schedule = build_encode_schedule(code)
        _, executed = execute_schedule(schedule, data, 8)
        ok = ok and executed == 2 * (k - 1) * (1 << k) == schedule.xor_count

        full = encode_naive(code, data)
        for failed in range(1, k + 2):
            rsched = build_repair_schedule(code, failed)
            outputs, rexecuted = execute_schedule(rsched, {b: full[b] for b in rsched.reads}, 8)
            ok = ok and rexecuted == (k - 1) * (1 << k) == rsched.xor_count
            ok = ok and outputs == {(failed, j): full[failed, j] for j in range(1, r + 1)}
    report(5, "encode 2(k-1)2^k XORs, repair (k-1)2^k XORs, k=1..6", ok)
    assert ok


def test_criterion_6_update_io():
    ok = update_io(construct(1)) == Fraction(2)
    for k in range(2, 9):
        ok = ok and update_io(construct(k)) == Fraction(k + 7, 4)
    report(6, "update I/O = (k+7)/4 exactly", ok)
    assert ok


def test_criterion_7_strip_size_search():
    start = time.perf_counter()
    found_22 = search_repair_optimal(2, 2)
    empty_32 = search_repair_optimal(3, 2)
    ok = (
        found_22.exhausted
        and len(found_22.found) >= 1
        and all(
            verify_mds(c) and verify_repair_optimal(c) for c in found_22.found
        )
        and empty_32.exhausted
        and len(empty_32.found) == 0
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"searches took {elapsed:.1f}s"
    report(7, "strip search: codes at (2,2), none at (3,2)", ok)
    assert ok


def test_criterion_8_simulation_trends():
    model = DiskModel()
    ok = True
    for k in (2, 3, 8):
        stripes = 6
        conv = SimConfig(k=k, stripe_count=stripes, strategy="conventional")
        mdr = SimConfig(k=k, stripe_count=stripes, strategy="mdr")
        comp = compare(conv, mdr, model)
        r = 1 << k
        ok = ok and all(
            n == stripes * r // 2 for n in comp.other.blocks_read_per_disk.values()
        )
        ok = ok and comp.read_ratio == Fraction(k + 1, 2 * k)
        ok = ok and comp.access_time_ratio < 1.0
    for block_size in (512, 4096):
        comp = compare(
            SimConfig(k=4, stripe_count=5, strategy="conventional", block_size=block_size),
            SimConfig(k=4, stripe_count=5, strategy="mdr", block_size=block_size),
            DiskModel(seek_ms=3.0, rotational_ms=2.0, transfer_bytes_per_ms=50_000.0),
        )
        ok = ok and comp.access_time_ratio < 1.0
    cfg = SimConfig(k=3, stripe_count=8, strategy="mdr", background_rate=300.0, seed=77)
    ok = ok and simulate(cfg, model) == simulate(cfg, model)
    report(8, "sim: exact read ratio (k+1)/2k, access ratio < 1, deterministic", ok)
    assert ok


def test_criterion_9_schedule_soundness():
    ok = True
    for k in range(1, 7):
        code = construct(k)
        ok = ok and verify_schedule(code, build_encode_schedule(code))
        for failed in range(1, k + 2):
            ok = ok and verify_schedule(code, build_repair_schedule(code, failed))
    report(9, "symbolic schedules reproduce generator coefficients, k=1..6", ok)
    assert ok
