"""Batch boundaries of the shard paths: encode, decode and repair run their
schedules over batches of n stripes, so stripe counts around multiples of
n, with a ragged last stripe, must give the same bytes and the same
per-stripe counts as one stripe at a time."""

import itertools
import os
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


def test_writes_cover_each_output_once_in_calls_of_up_to_iov_max(tmp_path, monkeypatch):
    """Every pwritev of an encode, of decodes with 0, 1 and 2 shards lost and of each
    single-disk repair, recorded on a set of several batches whose last stripe ends
    mid-block: the calls cover each output file's body exactly once, in file order.
    Every sink writes whole rows, so each batch is one run of the file, written in
    calls of IOV_MAX iovecs but its last: no block is written alone or twice.  A full
    batch passes the very views the first one did, so none is cut per batch."""
    k, block_size, n = 3, 8, 2
    code = CODES[k]
    r = code.r
    stripes = 2 * n + 1  # two full batches and a short one
    size = (stripes - 1) * k * r * block_size + 3 * block_size + 5
    iov_max = 7  # small enough that a batch's run takes several calls
    payload = random.Random(9).randbytes(size)
    src, sh, out = tmp_path / "in.bin", tmp_path / "sh", tmp_path / "out.bin"
    src.write_bytes(payload)
    calls: dict[int, list] = {}
    original = os.pwritev

    def recorded(fd, buffers, offset):
        written = original(fd, buffers, offset)
        calls.setdefault(fd, []).append((offset, written, list(buffers)))
        return written

    def check(bodies, per_stripe):
        """bodies: (first byte, end) of each output file's body, one per file written,
        a file of per_stripe bytes per stripe."""
        assert sorted((c[0][0], c[-1][0] + c[-1][1]) for c in calls.values()) == sorted(bodies)
        for written in calls.values():
            base = written[0][0]
            assert [o for o, _, _ in written] == sorted(o for o, _, _ in written)
            for (at, nbytes, bufs), (after, _, _) in zip(written, written[1:] + [(None, 0, [])]):
                assert after is None or at + nbytes == after  # no gap and no overlap
                assert len(bufs) <= iov_max and sum(map(len, bufs)) == nbytes
                if after is not None and (after - base) % (n * per_stripe):
                    assert len(bufs) == iov_max  # only a batch's last call is short
            batches = [[bufs for at, _, bufs in written if (at - base) // (n * per_stripe) == b] for b in (0, 1)]
            assert len(batches[0]) == len(batches[1])
            assert all(x is y for a, b in zip(*batches) for x, y in zip(a, b))

    shards._shape.cache_clear()
    monkeypatch.setattr(shards, "_IOV_MAX", iov_max)
    monkeypatch.setattr(shards, "BATCH_BYTES", n * k * r * block_size)
    monkeypatch.setattr(shards, "_PROCESSES", 1)  # a forked child's calls would not be recorded
    monkeypatch.setattr(os, "pwritev", recorded)
    body = (shards.HEADER_SIZE, shards.HEADER_SIZE + stripes * r * block_size)
    try:
        shards.encode_file(src, sh, k, block_size)
        check([body] * (k + 2), r * block_size)
        files = {d: (sh / shards.shard_name(d)).read_bytes() for d in range(1, k + 3)}
        assert files == expected_shards(code, payload, block_size, stripes)
        for lost in ((), (2,), (k + 1,), (1, 3), (2, k + 2)):
            for d in lost:
                (sh / shards.shard_name(d)).unlink()
            calls.clear()
            shards.decode_file(sh, out)
            assert out.read_bytes() == payload, lost
            check([(0, size)], k * r * block_size)
            for d in lost:
                (sh / shards.shard_name(d)).write_bytes(files[d])
        for victim in range(1, k + 3):
            (sh / shards.shard_name(victim)).unlink()
            calls.clear()
            shards.repair_shard(sh)
            assert (sh / shards.shard_name(victim)).read_bytes() == files[victim]
            check([body], r * block_size)
    finally:
        shards._shape.cache_clear()


class Spans:
    """A stand-in buffer whose cut items are the (start, stop) of each slice taken."""

    def __getitem__(self, key):
        return key.start, key.stop


@st.composite
def file_sets(draw):
    """(files, sources, r) as ``shards._shape`` takes them: disks 1..D dealt out to files,
    so that a file may hold disks that others lie between, in any order; a source file
    reads any rows of its disks, a sink file writes its disks whole, each either read
    whole by a one-disk source or output by the schedule."""
    r = draw(st.sampled_from([2, 4, 8]))
    whole = tuple(range(1, r + 1))
    disks = draw(st.integers(1, 5))
    owners = draw(st.lists(st.integers(0, disks - 1), min_size=disks, max_size=disks))
    groups = [draw(st.permutations([d for d in range(1, disks + 1) if owners[d - 1] == g])) for g in set(owners)]
    sources, sinks = [], []
    for group in groups:
        if draw(st.booleans()):
            rows = st.sets(st.integers(1, r), min_size=1).map(lambda js: tuple(sorted(js)))
            sources.append(tuple((d, draw(rows)) for d in group))
        else:
            sinks.append(tuple((d, whole) for d in group))
            sources += [((d, whole),) for d in group if draw(st.booleans())]
    return (*sources, *sinks), len(sources), r


@settings(max_examples=200, deadline=None)
@given(file_sets(), st.integers(1, 5), st.sampled_from([1, 3, 8]), st.sampled_from([1, 2, 3, 1024]),
       st.sampled_from([1, 2, 3, None]))
def test_one_layout_moves_every_block_of_every_file_once(case, m, size, iov_max, cap_blocks):
    files, sources, r = case
    cap = shards._RW_MAX if cap_blocks is None else cap_blocks * size
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(shards, "_IOV_MAX", iov_max)
        patch.setattr(shards, "_RW_MAX", cap)
        shards._shape.cache_clear()
        try:
            layout, made, lanes, moves = shards._shape(files, sources, r, m, size)
        finally:
            shards._shape.cache_clear()
    index = {b: i for i, b in enumerate(layout)}
    read = {(d, j) for runs in files[:sources] for d, rows in runs for j in rows}
    assert made == tuple(b for b in layout if b not in read)
    assert lanes(Spans()) == tuple((i * m * size, (i + 1) * m * size) for i in range(len(layout)))
    for runs, (iovecs, transfers) in zip(files, moves):
        # where block_index puts each held block of each stripe, in bytes from the batch's first
        where = {
            shards.block_index(s, n * r + j, len(runs) * r) * size: ((d, j), s)
            for s in range(m) for n, (d, rows) in enumerate(runs) for j in rows
        }
        spans, positions, last = iovecs(Spans()), [], -1
        for at, part, nbytes in transfers:
            assert at > last  # ascending
            views = spans[part]
            assert 1 <= len(views) <= iov_max and nbytes <= cap
            pos = at
            for start, stop in views:
                for off in range(start, stop, size):
                    (d, j), s = where[pos]
                    assert off == index[d, j] * m * size + s * size
                    positions.append(pos)
                    pos += size
            assert pos - at == nbytes
            last = pos - 1
        assert positions == sorted(where)  # every byte of every held block once, in file order


def test_one_layout_entry_per_file_set(tmp_path):
    """An encode, a full decode and a Q repair, each of one batch, lay out three file
    sets: files of one shape given their rows as a range or a tuple add no entry."""
    k = 6
    src, sh = tmp_path / "in.bin", tmp_path / "sh"
    src.write_bytes(random.Random(14).randbytes(64 << 10))
    shards._shape.cache_clear()
    try:
        shards.encode_file(src, sh, k, 512)
        shards.decode_file(sh, tmp_path / "out.bin")
        (sh / shards.shard_name(k + 2)).unlink()
        shards.repair_shard(sh)
        assert shards._shape.cache_info().currsize == 3
    finally:
        shards._shape.cache_clear()
    assert (tmp_path / "out.bin").read_bytes() == src.read_bytes()


def test_no_call_moves_more_than_the_byte_cap(tmp_path, monkeypatch):
    """With the per-call byte cap at 3 blocks, encode, decodes and repairs stay exact and
    no preadv or pwritev moves more: a transfer that would pass the cap starts a new one."""
    k, block_size = 3, 8
    code = CODES[k]
    stripes = 3
    payload = random.Random(13).randbytes(stripes * k * code.r * block_size - 5)
    src, sh, out = tmp_path / "in.bin", tmp_path / "sh", tmp_path / "out.bin"
    src.write_bytes(payload)
    moved = []

    def recorded(original):
        def call(fd, buffers, offset):
            moved.append(sum(map(len, buffers)))
            return original(fd, buffers, offset)

        return call

    shards._shape.cache_clear()
    monkeypatch.setattr(shards, "_RW_MAX", 3 * block_size)
    monkeypatch.setattr(shards, "BATCH_BYTES", 1)  # one stripe a batch
    monkeypatch.setattr(shards, "_PROCESSES", 1)  # a forked child's calls would not be recorded
    monkeypatch.setattr(os, "preadv", recorded(os.preadv))
    monkeypatch.setattr(os, "pwritev", recorded(os.pwritev))
    try:
        shards.encode_file(src, sh, k, block_size)
        files = expected_shards(code, payload, block_size, stripes)
        assert {d: (sh / shards.shard_name(d)).read_bytes() for d in files} == files
        for lost in ((), (1,), (k + 1,), (2, k + 2)):
            for d in lost:
                (sh / shards.shard_name(d)).unlink()
            shards.decode_file(sh, out)
            assert out.read_bytes() == payload, lost
            for d in lost:
                (sh / shards.shard_name(d)).write_bytes(files[d])
        for victim in range(1, k + 3):
            (sh / shards.shard_name(victim)).unlink()
            shards.repair_shard(sh)
            assert (sh / shards.shard_name(victim)).read_bytes() == files[victim]
    finally:
        shards._shape.cache_clear()
    assert moved and max(moved) == 3 * block_size
