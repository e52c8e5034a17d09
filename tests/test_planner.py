"""``codec.plan``, the one choice of schedule, reads and checks behind
encode, decode and repair, against the choices recorded at fdf6c4e, when
each command still made its own: for k = 1..6, every encode, every decode
with 0, 1 or 2 disks lost and every single-disk repair reads the same rows
of each disk, writes the same blocks at the same XOR count and checks the
same blocks.  ``plans_recorded.json`` keeps each set of blocks as
{disk: bitmask of rows}, row j at bit j-1.  The rules hold in one place
for any code: ``repair_plan`` is ``plan``'s choice for one lost disk, and
``build_repair_schedule`` builds every basic-disk rebuild."""

import json
from itertools import combinations
from pathlib import Path

import pytest

from mdr6.code import code_from_document, code_to_document, construct
from mdr6.codec import build_encode_schedule, build_repair_schedule, plan, repair_plan, verify_schedule
from test_shards_cli import swapped_document

RECORDED = json.loads((Path(__file__).parent / "plans_recorded.json").read_text())


def masks(blocks) -> dict[str, int]:
    out: dict[str, int] = {}
    for d, j in blocks:
        out[str(d)] = out.get(str(d), 0) | 1 << (j - 1)
    return out


def commands(k: int):
    """(name, missing, want) of every command the record covers."""
    yield "encode", (k + 1, k + 2), (k + 1, k + 2)
    for n in range(3):
        for missing in combinations(range(1, k + 3), n):
            yield "decode:" + ",".join(map(str, missing)), missing, tuple(range(1, k + 1))
    for d in range(1, k + 3):
        yield f"repair:{d}", (d,), (d,)


@pytest.mark.parametrize("k", range(1, 7))
def test_plans_match_the_recorded_choices(k):
    code = construct(k)
    got = {}
    for name, missing, want in commands(k):
        schedule, rows, checked = plan(code, missing, want)
        got[name] = {
            "rows": masks((d, j) for d, js in rows.items() for j in js),
            "writes": masks(schedule.writes),
            "xors": schedule.xor_count,
            "checked": masks(checked),
        }
    assert got == RECORDED[str(k)]


def test_a_plan_is_built_once_and_reads_a_wanted_present_disk_whole():
    code = construct(4)
    encode = plan(code, (5, 6), (5, 6))
    assert encode is plan(code, (5, 6), (5, 6))
    assert encode[0] == build_encode_schedule(code) and encode[2] == ()
    # one lost disk still takes its repair plan when a present disk is also wanted
    schedule, rows, checked = plan(code, (1,), (1, 3))
    assert schedule is repair_plan(code, 1) and checked == ()
    assert rows == {**repair_plan(code, 1).rows_by_disk, 3: tuple(range(1, code.r + 1))}


def null_strategies_document(k):
    doc = code_to_document(construct(k))
    doc["strategies"] = None
    return doc


CODES = {
    "built-in": construct,
    "swapped": lambda k: code_from_document(swapped_document(k)),
    "null strategies": lambda k: code_from_document(null_strategies_document(k)),
}


@pytest.mark.parametrize("name", CODES)
@pytest.mark.parametrize("k", range(2, 5))
def test_repair_plan_is_the_planners_choice_for_one_lost_disk(name, k):
    code = CODES[name](k)
    for d in range(1, k + 3):
        schedule = plan(code, (d,), (d,))[0]
        assert repair_plan(code, d) == schedule
        if d <= k + 1:  # a basic disk's rebuild is built once; Q's is the uncached part of the encode
            assert repair_plan(code, d) is schedule is build_repair_schedule(code, d)


@pytest.mark.parametrize("name", CODES)
@pytest.mark.parametrize("k", range(2, 5))
def test_every_basic_disk_is_rebuilt_from_its_strategys_rows(name, k):
    code = CODES[name](k)
    r, every = code.r, tuple(range(1, code.r + 1))
    for d in range(1, k + 2):
        schedule = build_repair_schedule(code, d)
        assert verify_schedule(code, schedule)
        assert schedule.writes == {(d, j) for j in every}
        if code.strategies is None:  # row parity: every row of the other basic disks, nothing of Q
            basic_rows, q_rows = every, ()
        else:
            basic_rows, q_rows = code.strategies[d - 1].basic_rows, code.strategies[d - 1].q_rows
        expected = {e: tuple(basic_rows) for e in range(1, k + 2) if e != d}
        assert schedule.rows_by_disk == expected | ({k + 2: tuple(q_rows)} if q_rows else {})
        assert len(schedule.reads) == ((k + 1) * r // 2 if q_rows else k * r)


@pytest.mark.parametrize("name", CODES)
@pytest.mark.parametrize("k", range(2, 5))
def test_a_plan_with_nothing_lost_or_wanted_reads_every_disk_and_checks_both_parities(name, k):
    code = CODES[name](k)
    every = tuple(range(1, code.r + 1))
    schedule, rows, checked = plan(code, (), ())
    assert rows == dict.fromkeys(range(1, k + 3), every)
    assert checked == tuple((p, j) for p in (k + 1, k + 2) for j in every)
    assert schedule == build_encode_schedule(code)


@pytest.mark.parametrize("name", CODES)
@pytest.mark.parametrize("k", range(2, 5))
def test_no_plan_reads_a_lost_disk(name, k):
    # every loss of up to two disks, against every want of up to two disks
    code = CODES[name](k)
    disks = range(1, k + 3)
    sets = [s for n in range(3) for s in combinations(disks, n)]
    for missing in sets:
        for want in sets:
            schedule, rows, _ = plan(code, missing, want)
            assert not rows.keys() & set(missing), (missing, want)
            assert verify_schedule(code, schedule), (missing, want)
