"""``codec.plan``, the one choice of schedule, reads and checks behind
encode, decode and repair, against the choices recorded at fdf6c4e, when
each command still made its own: for k = 1..6, every encode, every decode
with 0, 1 or 2 disks lost and every single-disk repair reads the same rows
of each disk, writes the same blocks at the same XOR count and checks the
same blocks.  ``plans_recorded.json`` keeps each set of blocks as
{disk: bitmask of rows}, row j at bit j-1."""

import json
from itertools import combinations
from pathlib import Path

import pytest

from mdr6.code import construct
from mdr6.codec import build_encode_schedule, plan, repair_plan

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
