"""Batch boundaries of the shard paths: encode, decode and repair run their
schedules over batches of n stripes, so stripe counts around multiples of
n, with a ragged last stripe, must give the same bytes and the same
per-stripe counts as one stripe at a time."""

import itertools
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdr6 import shards
from mdr6.code import construct
from mdr6.codec import (
    build_encode_schedule,
    encode_naive,
    execute_schedule,
    parity_schedule,
    plan,
    repair_plan,
)

CODES = {k: construct(k) for k in range(1, 5)}


@st.composite
def batch_cases(draw):
    k = draw(st.integers(1, 4))
    r = CODES[k].r
    block_size = draw(st.sampled_from([1, 8, 24]))
    stripe_bytes = k * r * block_size
    n = draw(st.integers(1, 4))
    stripes = draw(st.sampled_from(sorted({0, 1, n - 1, n, n + 1, 2 * n + 1})))
    size = 0 if not stripes else (stripes - 1) * stripe_bytes + draw(st.integers(1, stripe_bytes))
    batch_bytes = n * stripe_bytes + draw(st.integers(0, stripe_bytes - 1))
    missing = draw(st.sampled_from(list(itertools.combinations(range(1, k + 3), 2))))
    return k, block_size, n, stripes, size, batch_bytes, missing, draw(st.integers(0, 2**32 - 1))


def expected_shards(code, payload, block_size, stripes):
    """Every shard file's bytes, encoded one stripe at a time by the oracle."""
    k, r = code.k, code.r
    strip = r * block_size
    padded = payload.ljust(stripes * k * strip, b"\x00")
    files = {
        d: shards.ShardHeader(k, r, d, block_size, stripes, len(payload)).pack()
        for d in range(1, k + 3)
    }
    for s in range(stripes):
        base = s * k * strip
        blocks = (padded[base + i * block_size : base + (i + 1) * block_size] for i in range(k * r))
        data = {(d, j): next(blocks) for d in range(1, k + 1) for j in range(1, r + 1)}
        for (d, _), block in sorted(encode_naive(code, data).items()):
            files[d] += block
    return files


@settings(max_examples=60, deadline=None)
@given(batch_cases())
def test_batches_match_one_stripe_at_a_time(case):
    k, block_size, n, stripes, size, batch_bytes, missing, seed = case
    code = CODES[k]
    r = code.r
    payload = random.Random(seed).randbytes(size)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(shards, "BATCH_BYTES", batch_bytes)
        assert shards._batch_stripes(stripes, k * r * block_size) == max(1, min(n, stripes))
        src, sh, out = Path(tmp) / "in.bin", Path(tmp) / "sh", Path(tmp) / "out.bin"
        src.write_bytes(payload)

        report = shards.encode_file(src, sh, k, block_size)
        assert report.stripe_count == stripes
        assert report.xor_count == build_encode_schedule(code).xor_count * stripes
        files = expected_shards(code, payload, block_size, stripes)
        assert {d: (sh / shards.shard_name(d)).read_bytes() for d in files} == files

        for lost in ((), missing[:1], missing):
            for d in lost:
                (sh / shards.shard_name(d)).unlink()
            decoded = shards.decode_file(sh, out)
            assert out.read_bytes() == payload, lost
            # with no data shard lost every surviving parity is read whole and checked
            data_lost = any(d <= k for d in lost)
            checked = tuple(d for d in (k + 1, k + 2) if d not in lost)
            schedule = plan(code, lost, tuple(range(1, k + 1)))[0]
            assert data_lost or schedule == parity_schedule(code, checked)
            assert decoded.xor_count == schedule.xor_count * stripes
            reads = schedule.reads if data_lost else set()
            per_stripe = {
                d: r if d <= k or not data_lost else sum(1 for disk, _ in reads if disk == d)
                for d in range(1, k + 3)
                if d not in lost
            }
            assert decoded.blocks_read_per_shard == {d: c * stripes for d, c in per_stripe.items()}
            for d in lost:
                (sh / shards.shard_name(d)).write_bytes(files[d])

        for victim in range(1, k + 3):
            (sh / shards.shard_name(victim)).unlink()
            repaired = shards.repair_shard(sh)
            assert (sh / shards.shard_name(victim)).read_bytes() == files[victim]
            repair = repair_plan(code, victim)
            assert repaired.xor_count == repair.xor_count * stripes
            per_stripe = {d: sum(1 for disk, _ in repair.reads if disk == d) for d in files if d != victim}
            assert repaired.blocks_read_per_shard == {d: c * stripes for d, c in per_stripe.items()}


def test_execute_schedule_over_lanes_of_stripes():
    code = construct(3)
    schedule = build_encode_schedule(code)
    rng = random.Random(5)
    stripes = [
        {(d, j): rng.randbytes(16) for d in range(1, 4) for j in range(1, code.r + 1)}
        for _ in range(3)
    ]
    lanes = {block: b"".join(s[block] for s in stripes) for block in stripes[0]}
    outputs, executed = execute_schedule(schedule, lanes, 16)
    one_by_one = [execute_schedule(schedule, s, 16) for s in stripes]
    assert outputs == {
        block: b"".join(out[block] for out, _ in one_by_one) for block in one_by_one[0][0]
    }
    assert executed == 3 * schedule.xor_count == sum(n for _, n in one_by_one)
    lanes[(1, 1)] = lanes[(1, 1)][:32]  # two stripes, not three
    with pytest.raises(ValueError):
        execute_schedule(schedule, lanes, 16)
