"""File sharding round-trips and the command-line front end."""

import itertools
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mdr6 import cli, shards
from mdr6.cli import main
from mdr6.analysis import search_repair_optimal
from mdr6.code import code_from_document, code_to_document, construct, is_recursive_mdr
from mdr6.codec import build_repair_schedule, plan, repair_plan, verify_schedule
from mdr6.shards import ShardHeader, TooManyErasuresError
from mdr6.sim import DiskModel, SimConfig, simulate

BS = 32


def make_file(tmp_path, size, seed=0) -> Path:
    path = tmp_path / f"input_{size}.bin"
    path.write_bytes(random.Random(seed).randbytes(size))
    return path


# -- shard headers ------------------------------------------------------------


def test_header_roundtrip():
    h = ShardHeader(k=3, r=8, disk_index=2, block_size=512, stripe_count=7, payload_length=80000)
    assert ShardHeader.unpack(h.pack()) == h


def test_header_rejects_bad_magic():
    raw = bytearray(ShardHeader(1, 2, 1, 512, 1, 10).pack())
    raw[:4] = b"XXXX"
    with pytest.raises(shards.IntegrityError):
        ShardHeader.unpack(bytes(raw))


def test_header_rejects_oversized_payload():
    raw = ShardHeader(1, 2, 1, 512, 1, 10**9).pack()
    with pytest.raises(shards.IntegrityError):
        ShardHeader.unpack(raw)


# -- encode / decode / repair round-trips --------------------------------------


@pytest.mark.parametrize(
    "size",
    [0, 1, 100, 3 * 8 * BS, 3 * 8 * BS + 1, 10_000],
)
def test_encode_decode_roundtrip_sizes(tmp_path, size):
    src = make_file(tmp_path, size, seed=size)
    shards.encode_file(src, tmp_path / "sh", k=3, block_size=BS)
    out = tmp_path / "out.bin"
    report = shards.decode_file(tmp_path / "sh", out)
    assert out.read_bytes() == src.read_bytes()
    assert report.payload_length == size


@pytest.mark.parametrize("block_size", [0, -1, 0x7FFFF001, 5_000_000_000])
def test_block_size_out_of_range_is_a_usage_error(tmp_path, capsys, block_size):
    src = make_file(tmp_path, 100)
    out = tmp_path / "sh"
    with pytest.raises(ValueError, match="block size"):
        shards.encode_file(src, out, k=2, block_size=block_size)
    argv = ["encode", str(src), "--k", "2", "--block-size", str(block_size), "--out-dir", str(out)]
    assert main(argv) == 1
    assert "usage error: block size" in capsys.readouterr().err
    assert not out.exists()


def test_an_input_that_does_not_open_makes_no_output_directory(tmp_path, capsys):
    out = tmp_path / "y"
    argv = ["encode", str(tmp_path / "nofile.bin"), "--k", "3", "--out-dir", str(out)]
    assert main(argv) == 1
    assert "nofile.bin" in capsys.readouterr().err
    assert not out.exists()


def test_empty_file_zero_stripes(tmp_path):
    src = make_file(tmp_path, 0)
    report = shards.encode_file(src, tmp_path / "sh", k=2, block_size=BS)
    assert report.stripe_count == 0
    assert report.xor_count == 0
    for p in report.shard_paths:
        assert Path(p).stat().st_size == shards.HEADER_SIZE


def test_encode_xor_count(tmp_path):
    src = make_file(tmp_path, 5000, seed=5)
    report = shards.encode_file(src, tmp_path / "sh", k=3, block_size=BS)
    r = 8
    assert report.xor_count == 2 * (3 - 1) * r * report.stripe_count


@pytest.mark.parametrize("k", [1, 2, 3])
def test_decode_survives_any_two_losses(tmp_path, k):
    src = make_file(tmp_path, 2500, seed=k)
    sh = tmp_path / f"sh{k}"
    shards.encode_file(src, sh, k=k, block_size=BS)
    originals = {p.name: p.read_bytes() for p in sh.glob("*.mdr")}
    for pat in itertools.combinations(range(1, k + 3), 2):
        for name, blob in originals.items():
            (sh / name).write_bytes(blob)
        for d in pat:
            os.remove(sh / shards.shard_name(d))
        out = tmp_path / "out.bin"
        shards.decode_file(sh, out)
        assert out.read_bytes() == src.read_bytes(), pat


def test_decode_rejects_three_losses(tmp_path):
    src = make_file(tmp_path, 1000, seed=9)
    sh = tmp_path / "sh"
    shards.encode_file(src, sh, k=2, block_size=BS)
    for d in (1, 2, 3):
        os.remove(sh / shards.shard_name(d))
    with pytest.raises(TooManyErasuresError):
        shards.decode_file(sh, tmp_path / "out.bin")


def test_decode_detects_corruption(tmp_path):
    src = make_file(tmp_path, 1000, seed=10)
    sh = tmp_path / "sh"
    shards.encode_file(src, sh, k=2, block_size=BS)
    target = sh / shards.shard_name(1)
    blob = bytearray(target.read_bytes())
    blob[shards.HEADER_SIZE] ^= 0xFF
    target.write_bytes(bytes(blob))
    with pytest.raises(shards.IntegrityError):
        shards.decode_file(sh, tmp_path / "out.bin")
    assert not (tmp_path / "out.bin").exists()


@pytest.mark.parametrize("lost", [4, 5])
def test_decode_with_a_parity_lost_checks_the_other(tmp_path, lost):
    src = make_file(tmp_path, 3000, seed=12)
    sh = tmp_path / "sh"
    shards.encode_file(src, sh, k=3, block_size=BS)
    target = sh / shards.shard_name(1)
    blob = bytearray(target.read_bytes())
    blob[shards.HEADER_SIZE] ^= 0x01
    target.write_bytes(bytes(blob))
    (sh / shards.shard_name(lost)).unlink()
    out = tmp_path / "out.bin"
    with pytest.raises(shards.IntegrityError):
        shards.decode_file(sh, out)
    assert main(["decode", str(sh), "--out", str(out)]) == 2
    assert not out.exists()


def test_truncated_shard_is_an_integrity_error(tmp_path):
    src = make_file(tmp_path, 3000, seed=15)
    sh = tmp_path / "sh"
    shards.encode_file(src, sh, k=3, block_size=BS)
    target = sh / shards.shard_name(1)
    target.write_bytes(target.read_bytes()[:-BS])
    out = tmp_path / "out.bin"
    with pytest.raises(shards.IntegrityError, match="truncated"):
        shards.decode_file(sh, out)
    assert main(["decode", str(sh), "--out", str(out)]) == 2
    assert not out.exists()
    q_shard = sh / shards.shard_name(5)  # Q repair reads every data block
    q_shard.unlink()
    with pytest.raises(shards.IntegrityError, match="truncated"):
        shards.repair_shard(sh)
    assert not q_shard.exists()  # the failed repair leaves no partial shard
    assert main(["repair", str(sh)]) == 2


@pytest.mark.parametrize(
    "disk, resize, match",
    [
        (2, lambda blob: blob + bytes(512), "longer than its header"),
        # rebuilding disk 1 never reads Q's last block, so only the size shows this
        (5, lambda blob: blob[:-512], "truncated"),
    ],
    ids=["overlong-data", "short-q"],
)
def test_shard_of_the_wrong_size_is_an_integrity_error(tmp_path, disk, resize, match):
    src = make_file(tmp_path, 5000, seed=16)
    sh = tmp_path / "sh"
    shards.encode_file(src, sh, k=3, block_size=512)
    target = sh / shards.shard_name(disk)
    target.write_bytes(resize(target.read_bytes()))
    out = tmp_path / "out.bin"
    with pytest.raises(shards.IntegrityError, match=match):
        shards.decode_file(sh, out)
    lost = sh / shards.shard_name(1)
    lost.unlink()
    with pytest.raises(shards.IntegrityError, match=match):
        shards.decode_file(sh, out)
    assert main(["decode", str(sh), "--out", str(out)]) == 2
    assert not out.exists()
    with pytest.raises(shards.IntegrityError, match=match):
        shards.repair_shard(sh)
    assert main(["repair", str(sh)]) == 2
    assert not lost.exists()


def test_shard_opens_do_not_grow_with_stripes(tmp_path, monkeypatch):
    k, r = 3, 8
    opened = []
    original_open = Path.open

    def counted_open(self, *args, **kwargs):
        opened.append(self)
        return original_open(self, *args, **kwargs)

    opens = {}
    for stripes in (2, 40):
        src = make_file(tmp_path, k * r * BS * stripes, seed=stripes)
        sh = tmp_path / f"sh{stripes}"
        assert shards.encode_file(src, sh, k=k, block_size=BS).stripe_count == stripes
        os.remove(sh / shards.shard_name(1))
        opened.clear()
        with monkeypatch.context() as patch:
            patch.setattr(Path, "open", counted_open)
            shards.decode_file(sh, tmp_path / "out.bin")
            decode_opens = len(opened)
            shards.repair_shard(sh)
        opens[stripes] = (decode_opens, len(opened) - decode_opens)
    assert opens[2] == opens[40]


@pytest.mark.parametrize("lost", [(), (2,), (4,), (2, 5), (1, 2)])
def test_each_shard_is_opened_once(tmp_path, monkeypatch, lost):
    """decode and repair read lanes through the handle each header came
    from: one open per present shard, plus the output."""
    k = 3
    src = make_file(tmp_path, k * 8 * BS * 3 + 5, seed=60)
    sh = tmp_path / "sh"
    shards.encode_file(src, sh, k=k, block_size=BS)
    for d in lost:
        os.remove(sh / shards.shard_name(d))
    present = sorted(sh / shards.shard_name(d) for d in range(1, k + 3) if d not in lost)
    opened = []
    original_open = Path.open

    def counted_open(self, *args, **kwargs):
        opened.append(self)
        return original_open(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counted_open)
    out = tmp_path / "out.bin"
    shards.decode_file(sh, out)
    assert sorted(opened[:-1]) == present and opened[-1].name == f".{out.name}.tmp"
    assert out.read_bytes() == src.read_bytes()
    if len(lost) == 1:
        opened.clear()
        report = shards.repair_shard(sh)
        assert sorted(opened[:-1]) == present and opened[-1].name == f".{Path(report.shard_path).name}.tmp"


@pytest.mark.parametrize("k, pair, pair_xors", [(3, (2, 3), 36), (6, (2, 5), 1248)])
def test_decode_xor_count_per_stripe(tmp_path, k, pair, pair_xors):
    r = construct(k).r
    src = make_file(tmp_path, k * r * 8 * 2 + 1, seed=50 + k)
    sh = tmp_path / "sh"
    stripes = shards.encode_file(src, sh, k=k, block_size=8).stripe_count
    out = tmp_path / "out.bin"
    assert shards.decode_file(sh, out).xor_count == 2 * (k - 1) * r * stripes  # the re-encode check
    os.remove(sh / shards.shard_name(2))
    report = shards.decode_file(sh, out)
    assert out.read_bytes() == src.read_bytes()
    assert report.xor_count == (k - 1) * r * stripes
    for d in pair:
        if d != 2:
            os.remove(sh / shards.shard_name(d))
    report = shards.decode_file(sh, out)
    assert out.read_bytes() == src.read_bytes()
    assert report.xor_count == pair_xors * stripes


def test_encode_that_fails_leaves_no_shard(tmp_path, monkeypatch):
    src = make_file(tmp_path, 3 * 8 * BS * 5, seed=52)
    calls = []
    original = shards.execute_schedule

    def fail_second(schedule, lanes, block_size):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("executor failed")
        return original(schedule, lanes, block_size)

    monkeypatch.setattr(shards, "BATCH_BYTES", 3 * 8 * BS * 2)
    # calls counts the batches of one process; tests/test_batch_processes.py covers a split run
    monkeypatch.setattr(shards, "_PROCESSES", 1)
    monkeypatch.setattr(shards, "execute_schedule", fail_second)
    out = tmp_path / "fresh"
    with pytest.raises(RuntimeError, match="executor failed"):
        shards.encode_file(src, out, k=3, block_size=BS)
    assert len(calls) == 2
    assert list(out.iterdir()) == []


def test_a_short_write_fails_the_encode_and_leaves_no_shard(tmp_path, monkeypatch, capsys):
    src = make_file(tmp_path, 3 * 8 * BS * 5, seed=53)
    out = tmp_path / "fresh"
    original, calls = os.pwritev, []

    def short_first(fd, iovecs, offset):  # writes every byte, but the first call reports one fewer
        calls.append(offset)
        return original(fd, iovecs, offset) - (len(calls) == 1)

    monkeypatch.setattr(os, "pwritev", short_first)
    temporary = rf"{re.escape(str(out))}/\.shard_0[1-5]\.mdr\.tmp"
    with pytest.raises(shards.TransferError, match=rf"^short write to {temporary} at byte \d+$"):
        shards.encode_file(src, out, k=3, block_size=BS)
    assert list(out.iterdir()) == []
    calls.clear()
    assert main(["encode", str(src), "--k", "3", "--block-size", str(BS), "--out-dir", str(out)]) == 4
    assert re.fullmatch(rf"I/O error: short write to {temporary} at byte \d+\n", capsys.readouterr().err)
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("k", [3, 6])
def test_decode_reads_only_what_its_schedule_uses(tmp_path, k):
    r = construct(k).r
    src = make_file(tmp_path, k * r * BS * 3 + 5, seed=60 + k)
    sh = tmp_path / "sh"
    stripes = shards.encode_file(src, sh, k=k, block_size=BS).stripe_count
    os.remove(sh / shards.shard_name(2))
    out = tmp_path / "out.bin"
    report = shards.decode_file(sh, out)
    assert out.read_bytes() == src.read_bytes()
    # one lost data disk is rebuilt through its repair plan: every data survivor
    # is output whole, and P and Q give only the plan's r/2 rows each
    plan = repair_plan(construct(k), 2).rows_by_disk
    assert len(plan[k + 1]) == len(plan[k + 2]) == r // 2
    expected = {d: r * stripes for d in range(1, k + 1) if d != 2}
    expected |= {d: len(plan[d]) * stripes for d in (k + 1, k + 2)}
    assert report.blocks_read_per_shard == expected
    assert report.xor_count == (k - 1) * r * stripes


@pytest.mark.parametrize("k, q_xors", [(3, 26), (6, 578)])
def test_decode_checks_a_lone_parity_with_only_its_own_ops(tmp_path, k, q_xors):
    r = construct(k).r
    src = make_file(tmp_path, k * r * BS * 2 + 3, seed=65 + k)
    sh = tmp_path / "sh"
    stripes = shards.encode_file(src, sh, k=k, block_size=BS).stripe_count
    # with Q lost, P is re-encoded by its row-parity chain; with P lost, Q as Q repair does
    for lost, xors in ((k + 2, (k - 1) * r), (k + 1, q_xors)):
        shard = sh / shards.shard_name(lost)
        blob = shard.read_bytes()
        shard.unlink()
        out = tmp_path / f"out_{lost}.bin"
        report = shards.decode_file(sh, out)
        assert out.read_bytes() == src.read_bytes()
        assert report.xor_count == xors * stripes
        assert report.blocks_read_per_shard == {d: r * stripes for d in range(1, k + 3) if d != lost}
        shard.write_bytes(blob)


@pytest.mark.parametrize("k", [3, 6])
def test_repair_reads_exactly_its_plan_at_the_read_call(tmp_path, monkeypatch, k):
    r = construct(k).r
    src = make_file(tmp_path, k * r * BS * 5 + 7, seed=70 + k)
    sh = tmp_path / "sh"
    stripes = shards.encode_file(src, sh, k=k, block_size=BS).stripe_count
    returned = []
    original = os.preadv

    def counted(fd, buffers, offset):
        n = original(fd, buffers, offset)
        returned.append(n)
        return n

    monkeypatch.setattr(os, "preadv", counted)
    for victim in (1, k + 1):
        shard = sh / shards.shard_name(victim)
        blob = shard.read_bytes()
        shard.unlink()
        returned.clear()
        report = shards.repair_shard(sh)
        assert shard.read_bytes() == blob
        assert sum(returned) == (k + 1) * r // 2 * BS * stripes
        assert sum(report.bytes_read_per_shard.values()) == sum(returned)


@pytest.mark.parametrize("k", [3, 6])
def test_encode_repair_and_decode_write_exactly_their_output(tmp_path, monkeypatch, k):
    r = construct(k).r
    src = make_file(tmp_path, k * r * BS * 5 + 7, seed=90 + k)
    written = []
    original = os.pwritev

    def counted(fd, buffers, offset):
        n = original(fd, buffers, offset)
        written.append(n)
        return n

    monkeypatch.setattr(os, "pwritev", counted)
    sh = tmp_path / "sh"
    stripes = shards.encode_file(src, sh, k=k, block_size=BS).stripe_count
    body = stripes * r * BS
    assert sum(written) == (k + 2) * body
    for victim in (1, k + 1, k + 2):
        shard = sh / shards.shard_name(victim)
        blob = shard.read_bytes()
        shard.unlink()
        written.clear()
        shards.repair_shard(sh)
        assert shard.read_bytes() == blob
        assert sum(written) == body
    written.clear()
    shards.decode_file(sh, tmp_path / "out.bin")  # no padding past the payload's end
    assert (tmp_path / "out.bin").read_bytes() == src.read_bytes()
    assert sum(written) == src.stat().st_size


def test_simulator_and_shards_place_blocks_with_one_function(tmp_path, monkeypatch):
    """Simulated LBAs and shard block positions both come from
    shards.block_index: with the slots after the first of every stripe laid
    out in reverse, the simulator's writes and the shard writes both follow
    it, and the shards still round-trip."""
    k, r = 2, 4
    src = make_file(tmp_path, k * r * BS * 3 - 5, seed=80)

    def reversed_tail(stripe, slot, per_stripe):
        return stripe * per_stripe + (0 if slot == 1 else per_stripe + 1 - slot)

    offsets = []
    original = os.pwritev

    def recorded(fd, buffers, offset):
        offsets.append(offset)
        return original(fd, buffers, offset)

    shards._shape.cache_clear()
    monkeypatch.setattr(shards, "block_index", reversed_tail)
    monkeypatch.setattr(os, "pwritev", recorded)
    try:
        trace: list = []
        simulate(SimConfig(k=k, stripe_count=2, strategy="mdr"), DiskModel(), trace=trace)
        writes = [lba for _, _, kind, lba, _ in trace if kind == "write"]
        assert writes == [reversed_tail(s, j, r) for s in range(2) for j in range(1, r + 1)]
        plans = [repair_plan(construct(k), s % (k + 1) + 1).rows_by_disk for s in range(2)]
        reads = [reversed_tail(s, j, r) for s in range(2) for rows in plans[s].values() for j in rows]
        assert sorted(lba for _, _, kind, lba, _ in trace if kind == "read") == sorted(reads)

        sh = tmp_path / "sh"
        stripes = shards.encode_file(src, sh, k=k, block_size=BS).stripe_count
        shard = sh / shards.shard_name(1)
        blob = shard.read_bytes()
        shard.unlink()
        offsets.clear()
        shards.repair_shard(sh)
        assert shard.read_bytes() == blob
        assert offsets == [
            shards.HEADER_SIZE + reversed_tail(s, j, r) * BS for s in range(stripes) for j in range(1, r + 1)
        ]
        for d in (2, k + 2):
            (sh / shards.shard_name(d)).unlink()
        shards.decode_file(sh, tmp_path / "out.bin")
        assert (tmp_path / "out.bin").read_bytes() == src.read_bytes()
    finally:
        shards._shape.cache_clear()


@pytest.mark.parametrize("victim", [1, 2, 4, 5])
def test_repair_rebuilds_identical_shard(tmp_path, victim):
    k, r = 3, 8
    src = make_file(tmp_path, 7000, seed=victim)
    sh = tmp_path / "sh"
    report = shards.encode_file(src, sh, k=k, block_size=BS)
    original = (sh / shards.shard_name(victim)).read_bytes()
    os.remove(sh / shards.shard_name(victim))
    rrep = shards.repair_shard(sh)
    assert rrep.disk_index == victim
    assert (sh / shards.shard_name(victim)).read_bytes() == original
    stripes = report.stripe_count
    if victim <= k + 1:
        expected = {(r // 2) * stripes}
        assert set(rrep.blocks_read_per_shard.values()) == expected
        assert set(rrep.bytes_read_per_shard.values()) == {(r // 2) * BS * stripes}
    else:
        assert all(
            rrep.blocks_read_per_shard[d] == r * stripes for d in range(1, k + 1)
        )
        assert rrep.blocks_read_per_shard.get(k + 1, 0) == 0


def swapped_document(k):
    """The built-in code's document with data disks 1 and 2 swapped: MDS and
    repair-optimal, but not the recursion's own code."""
    doc = code_to_document(construct(k))
    for key in ("b_matrices", "strategies"):
        doc[key][0], doc[key][1] = doc[key][1], doc[key][0]
    return doc


@pytest.mark.parametrize("k, plan_xors", [(3, {16, 18}), (6, {384, 400, 424})])
def test_a_lone_data_disk_of_a_loaded_code_takes_its_repair_plan(tmp_path, k, plan_xors):
    code = code_from_document(swapped_document(k))
    r = code.r
    assert {repair_plan(code, d).xor_count for d in range(1, k + 1)} == plan_xors
    assert build_repair_schedule(code, 1) == repair_plan(code, 1)
    src = make_file(tmp_path, k * r * BS * 2 + 3, seed=70 + k)
    sh, out = tmp_path / "sh", tmp_path / "out.bin"
    stripes = shards.encode_file(src, sh, k, BS, code=code).stripe_count
    for d in range(1, k + 1):
        repair = repair_plan(code, d)
        assert plan(code, (d,), tuple(range(1, k + 1)))[0] == repair
        shard = sh / shards.shard_name(d)
        blob = shard.read_bytes()
        shard.unlink()
        report = shards.decode_file(sh, out, code=code)
        assert out.read_bytes() == src.read_bytes()
        assert report.xor_count == repair.xor_count * stripes
        # r/2 rows each of P and Q, as repair reads, instead of every row of P
        expected = {e: r * stripes for e in range(1, k + 1) if e != d}
        expected |= {p: r // 2 * stripes for p in (k + 1, k + 2)}
        assert report.blocks_read_per_shard == expected
        assert {p: len(repair.rows_by_disk[p]) for p in (k + 1, k + 2)} == {k + 1: r // 2, k + 2: r // 2}
        shard.write_bytes(blob)


@pytest.mark.parametrize(
    "k, swap, q_xors",
    [(1, False, 0), (2, False, 6), (3, False, 26), (4, False, 82), (5, False, 226), (6, False, 578),
     (3, True, 28), (4, True, 92), (5, True, 272), (6, True, 744)],
)
def test_repair_xor_count_per_stripe(tmp_path, capsys, k, swap, q_xors):
    doc = swapped_document(k) if swap else code_to_document(construct(k))
    code = code_from_document(doc)
    assert is_recursive_mdr(code) != swap
    code_path = tmp_path / "code.json"
    code_path.write_text(json.dumps(doc))
    r = code.r
    src = make_file(tmp_path, k * r * 8 * 2 + 1, seed=40 + k)
    sh = tmp_path / "sh"
    stripes = shards.encode_file(src, sh, k=k, block_size=8, code=code).stripe_count
    q_plan = repair_plan(code, k + 2)
    assert q_plan.xor_count == q_xors
    assert verify_schedule(code, q_plan)
    assert q_plan.reads == {(d, j) for d in range(1, k + 1) for j in range(1, r + 1)}
    for victim in range(1, k + 3):
        original = (sh / shards.shard_name(victim)).read_bytes()
        os.remove(sh / shards.shard_name(victim))
        assert main(["repair", str(sh), "--code", str(code_path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (sh / shards.shard_name(victim)).read_bytes() == original
        if victim == k + 2:
            per_stripe = q_xors
        else:
            per_stripe = repair_plan(code, victim).xor_count if swap else (k - 1) * r
        assert report["xor_count"] == per_stripe * stripes, victim


def test_repair_rejects_two_missing(tmp_path):
    src = make_file(tmp_path, 1000, seed=11)
    sh = tmp_path / "sh"
    shards.encode_file(src, sh, k=2, block_size=BS)
    os.remove(sh / shards.shard_name(1))
    os.remove(sh / shards.shard_name(2))
    with pytest.raises(TooManyErasuresError, match="decode"):
        shards.repair_shard(sh)


def test_repair_wrong_missing_index(tmp_path, capsys):
    src = make_file(tmp_path, 1000, seed=12)
    sh = tmp_path / "sh"
    shards.encode_file(src, sh, k=1, block_size=BS)
    os.remove(sh / shards.shard_name(2))
    with pytest.raises(ValueError, match="shard 1 is present"):
        shards.repair_shard(sh, missing_index=1)
    for index in (0, 4, 99, -1):
        with pytest.raises(ValueError, match=rf"^disk index {index} outside \[1, 3\]$"):
            shards.repair_shard(sh, missing_index=index)
    assert main(["repair", str(sh), "--missing", "99"]) == 1
    assert capsys.readouterr().err == "usage error: disk index 99 outside [1, 3]\n"
    assert sorted(p.name for p in sh.iterdir()) == [shards.shard_name(1), shards.shard_name(3)]


def test_cli_repair_refuses_to_replace_a_survivor_under_the_missing_name(tmp_path, capsys):
    # disk 2's only copy sits under Q's name; rebuilding Q there would destroy it
    src = make_file(tmp_path, 3000, seed=15)
    sh = tmp_path / "sh"
    shards.encode_file(src, sh, k=3, block_size=BS)
    os.remove(sh / shards.shard_name(5))
    os.rename(sh / shards.shard_name(2), sh / shards.shard_name(5))
    before = {p.name: p.read_bytes() for p in sh.iterdir()}
    for args in ([], ["--missing", "5"]):
        assert main(["repair", str(sh), *args]) == 2
        assert capsys.readouterr().err == (
            f"integrity error: shard {sh / shards.shard_name(5)} holds disk 2, so it must be named shard_02.mdr\n"
        )
        assert {p.name: p.read_bytes() for p in sh.iterdir()} == before
    assert sorted(tmp_path.iterdir()) == [src, sh]


def test_cli_decode_refuses_an_output_among_the_shards(tmp_path, capsys):
    # a *.mdr output in the shard directory, under any spelling of it, would
    # replace a shard or be read back as one by every later command on the set
    src = make_file(tmp_path, 3000, seed=16)
    sh = tmp_path / "sh"
    shards.encode_file(src, sh, k=3, block_size=BS)
    os.symlink(sh, tmp_path / "alias")
    before = {p.name: p.read_bytes() for p in sh.iterdir()}
    for out in (sh / shards.shard_name(1), sh / "restored.mdr", tmp_path / "alias" / shards.shard_name(6)):
        assert main(["decode", str(sh), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"usage error: output {out} would be taken for a shard of {sh}; write it elsewhere\n"
        )
        assert {p.name: p.read_bytes() for p in sh.iterdir()} == before
    assert main(["decode", str(sh), "--out", str(tmp_path / "restored.mdr")]) == 0
    assert (tmp_path / "restored.mdr").read_bytes() == src.read_bytes()


def test_cli_decode_into_a_missing_directory_names_the_output(tmp_path, capsys):
    src = make_file(tmp_path, 3000, seed=18)
    sh = tmp_path / "sh"
    shards.encode_file(src, sh, k=3, block_size=BS)
    (sh / shards.shard_name(2)).unlink()
    before = sorted(tmp_path.rglob("*"))
    shard_bytes = {p.name: p.read_bytes() for p in sh.iterdir()}
    out = tmp_path / "nodir" / "x.bin"
    assert main(["decode", str(sh), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"usage error: [Errno 2] No such file or directory: '{out}'\n"
    assert sorted(tmp_path.rglob("*")) == before
    assert {p.name: p.read_bytes() for p in sh.iterdir()} == shard_bytes


def test_cli_decode_names_a_temp_file_that_cannot_be_opened(tmp_path, capsys):
    src = make_file(tmp_path, 3000, seed=19)
    sh = tmp_path / "sh"
    shards.encode_file(src, sh, k=3, block_size=BS)
    tmp = tmp_path / ".x.bin.tmp"
    tmp.mkdir()
    # the directory is there, so the fault is the temp file's and its name is given
    assert main(["decode", str(sh), "--out", str(tmp_path / "x.bin")]) == 1
    assert capsys.readouterr().err == f"usage error: [Errno 21] Is a directory: '{tmp}'\n"
    assert tmp.is_dir() and not (tmp_path / "x.bin").exists()


def test_cli_repair_of_a_complete_set_is_a_usage_error(tmp_path, capsys):
    src = make_file(tmp_path, 3000, seed=17)
    sh = tmp_path / "sh"
    shards.encode_file(src, sh, k=3, block_size=BS)
    before = {p.name: p.read_bytes() for p in sh.iterdir()}
    for args, named in (([], ""), (["--missing", "2"], "shard 2 is present; ")):
        assert main(["repair", str(sh), *args]) == 1
        assert capsys.readouterr().err == f"usage error: {named}no shard is missing, so there is nothing to repair\n"
        assert {p.name: p.read_bytes() for p in sh.iterdir()} == before


def test_sibling_header_mismatch(tmp_path):
    src = make_file(tmp_path, 1000, seed=13)
    sh = tmp_path / "sh"
    shards.encode_file(src, sh, k=1, block_size=BS)
    target = sh / shards.shard_name(1)
    other = shards.encode_file(make_file(tmp_path, 400, seed=14), tmp_path / "sh2", k=1, block_size=BS)
    target.write_bytes(Path(other.shard_paths[0]).read_bytes())
    with pytest.raises(shards.IntegrityError):
        shards.decode_file(sh, tmp_path / "out.bin")


# -- CLI ------------------------------------------------------------------------


def test_cli_gen_document(capsys):
    assert main(["gen", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["b_matrices"][0] == ["01", "00"]
    loaded = code_from_document(doc)
    assert (loaded.k, loaded.r) == (1, 2)


def test_cli_gen_k3(capsys):
    assert main(["gen", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["k"], doc["r"]) == (3, 8)


@pytest.mark.parametrize("k", ["0", "13"])
def test_cli_gen_invalid_k(capsys, k):
    assert main(["gen", k]) == 1
    assert capsys.readouterr().err == f"usage error: k must be in [1, 12], got {k}\n"


def test_cli_unknown_command():
    assert main(["frobnicate"]) == 1


def test_cli_encode_repair_decode_flow(tmp_path, capsys):
    src = make_file(tmp_path, 4096, seed=20)
    sh = tmp_path / "sh"
    assert main(["encode", str(src), "--k", "2", "--block-size", "64",
                 "--out-dir", str(sh), "--json"]) == 0
    enc = json.loads(capsys.readouterr().out)
    assert enc["xor_count"] == 2 * 1 * 4 * enc["stripes"]

    os.remove(sh / shards.shard_name(3))
    assert main(["repair", str(sh), "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["disk_index"] == 3
    assert rep["xor_count"] == (2 - 1) * 4 * enc["stripes"]
    assert set(rep["bytes_read_per_shard"].values()) == {2 * 64 * enc["stripes"]}

    out = tmp_path / "restored.bin"
    assert main(["decode", str(sh), "--out", str(out)]) == 0
    assert out.read_bytes() == src.read_bytes()


def test_cli_decode_meter(tmp_path, capsys):
    # decode reports the blocks and bytes it read per shard, as repair does
    src = make_file(tmp_path, 3000, seed=30)
    sh = tmp_path / "sh"
    assert main(["encode", str(src), "--k", "2", "--block-size", "32",
                 "--out-dir", str(sh)]) == 0
    capsys.readouterr()
    out = tmp_path / "out.bin"
    assert main(["decode", str(sh), "--out", str(out), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    stripes = doc["stripes"]
    # full decode reads every block of every present shard
    assert all(n == 4 * 32 * stripes for n in doc["bytes_read_per_shard"].values())
    assert all(n == 4 * stripes for n in doc["blocks_read_per_shard"].values())
    assert doc["xor_count"] == 2 * (2 - 1) * 4 * stripes  # the re-encode check
    assert main(["decode", str(sh), "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert f"read from shard 1: {4 * stripes} blocks ({4 * 32 * stripes} bytes)" in text
    assert f"{8 * stripes} block XORs" in text


def cli_stdout(tmp_path, monkeypatch, capsys) -> dict[str, str]:
    """The standard output of each command of a short session, in text and --json
    modes, run from tmp_path so that every path printed is relative."""
    monkeypatch.chdir(tmp_path)
    Path("in.bin").write_bytes(random.Random(31).randbytes(3000))
    got = {}

    def run(name, *argv):
        assert main(list(argv)) == 0, name
        got[name] = capsys.readouterr().out

    for mode in ((), ("--json",)):
        tag = "json" if mode else "text"
        run(f"encode {tag}", "encode", "in.bin", "--k", "3", "--block-size", "32", "--out-dir", "sh", *mode)
        os.remove(Path("sh", shards.shard_name(2)))
        run(f"repair {tag}", "repair", "sh", *mode)
        os.remove(Path("sh", shards.shard_name(1)))
        os.remove(Path("sh", shards.shard_name(5)))
        run(f"decode {tag}", "decode", "sh", "--out", "out.bin", *mode)
        assert Path("out.bin").read_bytes() == Path("in.bin").read_bytes()
        run(f"analyze {tag}", "analyze", "--k", "3", *mode)
        run(f"simulate {tag}", "simulate", "--k", "3", "--stripes", "4", *mode)
    return got


# recorded at e809c94, before the shard commands shared one output path
CLI_STDOUT = {
    'encode text': 'encoded in.bin: 4 stripes, 5 shards, 128 block XORs\n',
    'repair text': (
        'repaired shard 2 -> sh/shard_02.mdr: 4 stripes, 64 block XORs\n'
        '  read from shard 1: 16 blocks (512 bytes)\n'
        '  read from shard 3: 16 blocks (512 bytes)\n'
        '  read from shard 4: 16 blocks (512 bytes)\n'
        '  read from shard 5: 16 blocks (512 bytes)\n'
    ),
    'decode text': (
        'decoded 3000 bytes from sh (missing shards: 1, 5), 64 block XORs\n'
        '  read from shard 2: 32 blocks (1024 bytes)\n'
        '  read from shard 3: 32 blocks (1024 bytes)\n'
        '  read from shard 4: 32 blocks (1024 bytes)\n'
    ),
    'analyze text': (
        'code: k=3, r=8\n'
        'update disk I/O: 5/2 (2.5 parity blocks per update)\n'
        'repair plans meet the I/O bounds exactly: True\n'
        'encode schedule: 32 XORs/stripe (4 per coded block pair)\n'
        'repair schedule: 16 XORs per rebuilt strip\n'
        'decode schedules: at most 42 XORs/stripe with up to two disks lost\n'
    ),
    'simulate text': (
        "[conventional] disks modeled as independent FIFO servers (no bus contention); the failed disk's logical role rotates across the basic roles per stripe\n"
        '  recovery time: 24.20 ms; summed read time per survivor, mean over survivors: 96.55 ms\n'
        '  blocks read: 96 (ratio vs conventional 1.0000); background requests: 0\n'
        "[mdr] disks modeled as independent FIFO servers (no bus contention); the failed disk's logical role rotates across the basic roles per stripe\n"
        '  recovery time: 24.18 ms; summed read time per survivor, mean over survivors: 48.20 ms\n'
        '  blocks read: 64 (ratio vs conventional 0.6667); background requests: 0\n'
        '  read ratio 0.6667, access-time ratio 0.4993, recovery-time ratio 0.9992\n'
    ),
    'encode json': '{"stripes": 4, "xor_count": 128, "shards": ["sh/shard_01.mdr", "sh/shard_02.mdr", "sh/shard_03.mdr", "sh/shard_04.mdr", "sh/shard_05.mdr"]}\n',
    'repair json': '{"disk_index": 2, "shard": "sh/shard_02.mdr", "stripes": 4, "xor_count": 64, "blocks_read_per_shard": {"1": 16, "3": 16, "4": 16, "5": 16}, "bytes_read_per_shard": {"1": 512, "3": 512, "4": 512, "5": 512}}\n',
    'decode json': '{"missing": [1, 5], "stripes": 4, "bytes": 3000, "xor_count": 64, "blocks_read_per_shard": {"2": 32, "3": 32, "4": 32}, "bytes_read_per_shard": {"2": 1024, "3": 1024, "4": 1024}}\n',
    'analyze json': '{"k": 3, "r": 8, "update_io": [5, 2], "lower_bounds_met": true, "encode_xors": 32, "repair_xors": 16, "decode_xors": 42}\n',
    'simulate json': '{"conventional": {"strategy": "conventional", "notes": "disks modeled as independent FIFO servers (no bus contention); the failed disk\'s logical role rotates across the basic roles per stripe", "total_time_ms": 24.204800000000045, "per_disk_access_ms": {"2": 96.55296000000013, "3": 96.55296000000004, "4": 96.55296000000004, "5": 96.55296000000018}, "avg_access_ms": 96.5529600000001, "blocks_read_per_disk": {"2": 24, "3": 24, "4": 24, "5": 24}, "total_blocks_read": 96, "read_volume_ratio": [1, 1], "background_requests": 0}, "mdr": {"strategy": "mdr", "notes": "disks modeled as independent FIFO servers (no bus contention); the failed disk\'s logical role rotates across the basic roles per stripe", "total_time_ms": 24.184320000000046, "per_disk_access_ms": {"2": 48.204799999999985, "3": 48.204799999999985, "4": 48.204799999999985, "5": 48.204799999999985}, "avg_access_ms": 48.204799999999985, "blocks_read_per_disk": {"2": 16, "3": 16, "4": 16, "5": 16}, "total_blocks_read": 64, "read_volume_ratio": [2, 3], "background_requests": 0}, "read_ratio": [2, 3], "access_time_ratio": 0.4992576095025977, "recovery_time_ratio": 0.9991538868323638}\n',
}


def test_cli_stdout_matches_the_recorded_text(tmp_path, monkeypatch, capsys):
    assert cli_stdout(tmp_path, monkeypatch, capsys) == CLI_STDOUT


def test_cli_decode_with_losses_and_exit_codes(tmp_path):
    src = make_file(tmp_path, 2000, seed=21)
    sh = tmp_path / "sh"
    assert main(["encode", str(src), "--k", "2", "--block-size", "32",
                 "--out-dir", str(sh)]) == 0
    os.remove(sh / shards.shard_name(1))
    os.remove(sh / shards.shard_name(4))
    out = tmp_path / "out.bin"
    assert main(["decode", str(sh), "--out", str(out)]) == 0
    assert out.read_bytes() == src.read_bytes()
    os.remove(sh / shards.shard_name(2))
    assert main(["decode", str(sh), "--out", str(out)]) == 3
    assert main(["repair", str(sh)]) == 3


def test_cli_corrupt_header_exit_code(tmp_path):
    src = make_file(tmp_path, 512, seed=22)
    sh = tmp_path / "sh"
    assert main(["encode", str(src), "--k", "1", "--block-size", "32",
                 "--out-dir", str(sh)]) == 0
    target = sh / shards.shard_name(1)
    blob = bytearray(target.read_bytes())
    blob[0] ^= 0xFF
    target.write_bytes(bytes(blob))
    assert main(["decode", str(sh), "--out", str(tmp_path / "o.bin")]) == 2


def test_cli_zero_block_size_header_exit_code(tmp_path):
    # header-only shards of block size 0 pass the size check at open, so
    # the header itself must refuse them before a batch size divides by 0
    sh = tmp_path / "sh"
    sh.mkdir()
    for d in range(1, 6):
        (sh / shards.shard_name(d)).write_bytes(ShardHeader(3, 8, d, 0, 0, 0).pack())
    with pytest.raises(shards.IntegrityError):
        ShardHeader.unpack((sh / shards.shard_name(1)).read_bytes())
    (sh / shards.shard_name(2)).unlink()
    before = sorted(sh.iterdir())
    assert main(["decode", str(sh), "--out", str(tmp_path / "o.bin")]) == 2
    assert main(["repair", str(sh)]) == 2
    assert sorted(sh.iterdir()) == before
    assert sorted(tmp_path.iterdir()) == [sh]


@pytest.mark.parametrize("k", [0, 13, 20])
def test_cli_header_k_outside_the_built_in_codes_exit_code(tmp_path, capsys, k):
    # consistent header-only shards whose k no built-in code has: with no
    # --code document that is corrupt data, not a bad command line
    sh = tmp_path / "sh"
    sh.mkdir()
    for d in range(1, min(k + 2, 5) + 1):
        (sh / shards.shard_name(d)).write_bytes(ShardHeader(k, 8, d, 16, 0, 0).pack())
    before = sorted(sh.iterdir())
    assert main(["decode", str(sh), "--out", str(tmp_path / "o.bin")]) == 2
    assert main(["repair", str(sh)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("integrity error: ") and f"k={k}" in line for line in err)
    assert sorted(sh.iterdir()) == before
    assert sorted(tmp_path.iterdir()) == [sh]


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"version": 1}, "'k'"),
        ([1, 2], "code document"),
        ({"version": 1, "k": 1, "r": 2, "b_matrices": [[1, 2], [0, 0]]}, "b_matrices[0]"),
        ({"version": 1, "k": 1, "r": 2, "b_matrices": [[], []]}, "b_matrices[0]"),
        ({"version": 1, "k": "1", "r": 2, "b_matrices": []}, "'k'"),
        ({"version": 1, "k": 1, "r": 2, "b_matrices": [["01", "00"], ["00", "10"]],
          "strategies": [{"q_rows": [1]}, {"q_rows": [2], "basic_rows": [2]}]}, "'basic_rows'"),
    ],
)
def test_cli_malformed_code_document_is_a_usage_error(tmp_path, capsys, doc, field):
    path = tmp_path / "code.json"
    path.write_text(json.dumps(doc))
    assert main(["encode", str(tmp_path / "none.bin"), "--code", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and field in err


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    built = []
    original_init = cli._Parser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted_init)
    cli.build_parser.cache_clear()
    for _ in range(3):
        assert main(["analyze", "--k", "1", "--json"]) == 0
    # the top-level parser and one per subcommand, all on the first call
    assert len(built) == 1 + 6
    assert main(["analyze", "--bogus"]) == 1
    assert len(built) == 1 + 6


def _src_env() -> dict:
    root = Path(__file__).resolve().parent.parent
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))


def test_importing_the_cli_builds_no_parser():
    proc = subprocess.run(
        [sys.executable, "-c", "import mdr6.cli as c; print(c.build_parser.cache_info().currsize)"],
        env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (0, "0\n"), proc.stderr


def test_importing_the_cli_loads_no_offline_tool_or_introspection_module():
    # what every encode, decode and repair process pays before its first byte;
    # mmap loads with the first lane arena
    unwanted = ["dataclasses", "inspect", "mmap", "mdr6.analysis", "mdr6.sim"]
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, mdr6.cli; print([m for m in {unwanted!r} if m in sys.modules])"],
        env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


@pytest.fixture(scope="module")
def fresh_analyze():
    command = ["analyze", "--k", "2", "--json"]
    proc = subprocess.run(
        [sys.executable, "-m", "mdr6.cli", *command],
        env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    return command, proc


@pytest.mark.parametrize(
    "first", [["--help"], ["encode", "--help"], ["analyze", "--bogus"], ["analyze", "--k", "x"], ["nope"], []]
)
def test_shared_parser_after_usage_error_or_help_matches_a_fresh_process(fresh_analyze, capsys, first):
    command, fresh = fresh_analyze
    try:
        main(first)
    except SystemExit as exc:
        assert exc.code == 0 and "help" in first[-1]
    capsys.readouterr()
    assert main(command) == fresh.returncode == 0
    out = capsys.readouterr()
    assert (out.out, out.err) == (fresh.stdout, fresh.stderr)


def test_cli_encode_with_code_document(tmp_path, capsys):
    assert main(["gen", "2", "--out", str(tmp_path / "code.json")]) == 0
    capsys.readouterr()
    src = make_file(tmp_path, 900, seed=23)
    sh = tmp_path / "sh"
    assert main(["encode", str(src), "--code", str(tmp_path / "code.json"),
                 "--block-size", "32", "--out-dir", str(sh)]) == 0
    out = tmp_path / "out.bin"
    assert main(["decode", str(sh), "--out", str(out),
                 "--code", str(tmp_path / "code.json")]) == 0
    assert out.read_bytes() == src.read_bytes()


def _counted_documents(monkeypatch) -> list:
    """Every code_from_document call the CLI makes, from an empty cache on."""
    calls = []
    original = cli.code_from_document

    def counted(doc):
        calls.append(doc["k"])
        return original(doc)

    monkeypatch.setattr(cli, "code_from_document", counted)
    cli._verified_code.cache_clear()
    return calls


def test_cli_verifies_one_document_once_per_process(tmp_path, monkeypatch, capsys):
    calls = _counted_documents(monkeypatch)
    code_path = tmp_path / "code.json"
    code_path.write_text(json.dumps(code_to_document(construct(2))))
    src = make_file(tmp_path, 900, seed=25)
    sh, out = tmp_path / "sh", tmp_path / "out.bin"
    assert main(["encode", str(src), "--code", str(code_path), "--block-size", "32",
                 "--out-dir", str(sh)]) == 0
    os.remove(sh / shards.shard_name(1))
    assert main(["repair", str(sh), "--code", str(code_path)]) == 0
    assert main(["decode", str(sh), "--out", str(out), "--code", str(code_path)]) == 0
    assert main(["analyze", "--code", str(code_path), "--k", "2", "--json"]) == 0
    assert out.read_bytes() == src.read_bytes()
    assert calls == [2]


def _not_mds_document(k: int) -> dict:
    doc = code_to_document(construct(k))
    doc["b_matrices"][1] = doc["b_matrices"][0]  # B1 + B2 = 0: disks 1 and 2 together are lost
    return doc


def test_cli_document_rewritten_as_not_mds_is_verified_again(tmp_path, monkeypatch, capsys):
    calls = _counted_documents(monkeypatch)
    code_path = tmp_path / "code.json"
    code_path.write_text(json.dumps(code_to_document(construct(2))))
    src = make_file(tmp_path, 900, seed=26)
    sh = tmp_path / "sh"
    assert main(["encode", str(src), "--code", str(code_path), "--block-size", "32",
                 "--out-dir", str(sh)]) == 0
    code_path.write_text(json.dumps(_not_mds_document(2)))
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main(["decode", str(sh), "--out", str(tmp_path / "out.bin"), "--code", str(code_path)]) == 1
    assert main(["encode", str(src), "--code", str(code_path), "--out-dir", str(tmp_path / "sh2")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["usage error: document describes a code without the MDS property"] * 2
    assert sorted(tmp_path.rglob("*")) == before
    assert calls == [2, 2, 2]


def test_cli_rejected_document_is_rejected_on_every_call(tmp_path, monkeypatch, capsys):
    calls = _counted_documents(monkeypatch)
    code_path = tmp_path / "code.json"
    code_path.write_text(json.dumps(_not_mds_document(3)))
    for _ in range(3):
        assert main(["analyze", "--code", str(code_path)]) == 1
        assert capsys.readouterr().err == "usage error: document describes a code without the MDS property\n"
    assert calls == [3, 3, 3]
    assert cli._verified_code.cache_info().currsize == 0


def test_cli_alternating_documents_each_use_their_own_code(tmp_path, monkeypatch, capsys):
    calls = _counted_documents(monkeypatch)
    docs = {"built_in": code_to_document(construct(3)), "swapped": swapped_document(3)}
    src = make_file(tmp_path, 3 * 8 * 16 * 3 + 5, seed=27)
    expected = {}
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        ref = tmp_path / f"ref_{name}"
        shards.encode_file(src, ref, k=3, block_size=16, code=code_from_document(doc))
        expected[name] = {d: (ref / shards.shard_name(d)).read_bytes() for d in range(1, 6)}
    assert expected["built_in"][5] != expected["swapped"][5]
    for round_ in range(2):
        for name in docs:
            sh = tmp_path / f"{name}_{round_}"
            code_arg = ["--code", str(tmp_path / f"{name}.json")]
            assert main(["encode", str(src), *code_arg, "--block-size", "16", "--out-dir", str(sh)]) == 0
            assert {d: (sh / shards.shard_name(d)).read_bytes() for d in range(1, 6)} == expected[name]
        for name in docs:
            sh, out = tmp_path / f"{name}_{round_}", tmp_path / f"{name}_{round_}.bin"
            code_arg = ["--code", str(tmp_path / f"{name}.json")]
            for victim in (5, 1):
                os.remove(sh / shards.shard_name(victim))
                assert main(["repair", str(sh), *code_arg]) == 0
                assert (sh / shards.shard_name(victim)).read_bytes() == expected[name][victim]
            os.remove(sh / shards.shard_name(1))
            os.remove(sh / shards.shard_name(2))
            assert main(["decode", str(sh), "--out", str(out), *code_arg]) == 0
            assert out.read_bytes() == src.read_bytes()
    assert calls == [3, 3]


@pytest.mark.parametrize("command", ["encode", "analyze"])
def test_cli_k_that_conflicts_with_the_code_document_is_a_usage_error(tmp_path, capsys, command):
    code_path = tmp_path / "k3.json"
    code_path.write_text(json.dumps(code_to_document(construct(3))))
    src = make_file(tmp_path, 500, seed=28)
    sh = tmp_path / "sh"
    argv = {"encode": ["encode", str(src), "--out-dir", str(sh)], "analyze": ["analyze"]}[command]
    assert main([*argv, "--k", "4", "--code", str(code_path)]) == 1
    assert capsys.readouterr().err == f"usage error: --k 4 conflicts with --code {code_path}, whose k is 3\n"
    assert not sh.exists()
    assert main([*argv, "--k", "3", "--code", str(code_path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["xor_count" if command == "encode" else "k"] > 0


def test_cli_round_trip_with_search_found_code(tmp_path, capsys):
    assert main(["analyze", "--k", "2", "--search", "2", "--limit", "5000", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)["search"]["found"][0]
    code_path = tmp_path / "code.json"
    code_path.write_text(json.dumps(doc))
    src = make_file(tmp_path, 1000, seed=24)
    sh = tmp_path / "sh"
    assert main(["encode", str(src), "--code", str(code_path), "--block-size", "16",
                 "--out-dir", str(sh)]) == 0
    originals = {d: (sh / shards.shard_name(d)).read_bytes() for d in range(1, 5)}
    out = tmp_path / "out.bin"
    for victim in range(1, 5):
        os.remove(sh / shards.shard_name(victim))
        assert main(["repair", str(sh), "--code", str(code_path)]) == 0
        assert (sh / shards.shard_name(victim)).read_bytes() == originals[victim]
        assert main(["decode", str(sh), "--out", str(out), "--code", str(code_path)]) == 0
        assert out.read_bytes() == src.read_bytes()
    for pair in itertools.combinations(range(1, 5), 2):
        for d in pair:
            os.remove(sh / shards.shard_name(d))
        assert main(["decode", str(sh), "--out", str(out), "--code", str(code_path)]) == 0
        assert out.read_bytes() == src.read_bytes()
        for d in pair:
            (sh / shards.shard_name(d)).write_bytes(originals[d])


def test_cli_analyze_oracle(tmp_path, capsys):
    assert main(["analyze", "--k", "2", "--oracle", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["update_io"] == [9, 4]
    mins = {d: doc["min_io"][d]["total"] for d in doc["min_io"]}
    assert mins == {"1": 6, "2": 6, "3": 6, "4": 8}


def test_cli_analyze_has_no_large_oracle_flag(capsys):
    # past r=4 the oracle has at least 2^36 candidates, so no such run could finish
    assert main(["analyze", "--k", "3", "--oracle", "--allow-large-oracle"]) == 1
    assert "unrecognized arguments: --allow-large-oracle" in capsys.readouterr().err


def test_cli_analyze_with_code_document(tmp_path, capsys):
    assert main(["gen", "2", "--out", str(tmp_path / "code.json")]) == 0
    capsys.readouterr()
    assert main(["analyze", "--code", str(tmp_path / "code.json"), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["update_io"] == [9, 4]
    assert doc["encode_xors"] == 8  # loaded document matches the built family
    assert doc["repair_xors"] == 4
    assert doc["decode_xors"] == 8  # disks 1 and 2 lost; 16 as flat XORs of survivors
    found = search_repair_optimal(2, 2).found[0]
    (tmp_path / "found.json").write_text(json.dumps(code_to_document(found)))
    assert main(["analyze", "--code", str(tmp_path / "found.json"), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    # CSHR builds its second Q block from the second P block: one XOR instead of two
    assert (doc["encode_xors"], doc["repair_xors"], doc["decode_xors"]) == (4, 2, 4)


def test_cli_analyze_update_io_k5(capsys):
    assert main(["analyze", "--k", "5", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["update_io"] == [3, 1]


def test_cli_analyze_search_no_code(capsys):
    assert main(["analyze", "--k", "3", "--search", "2"]) == 0
    out = capsys.readouterr().out
    assert "decode schedules: at most 42 XORs/stripe with up to two disks lost" in out
    assert "no repair-optimal code exists" in out


def test_cli_analyze_requires_k_or_code(capsys):
    assert main(["analyze"]) == 1


def test_cli_simulate_deterministic_and_csv(tmp_path, capsys):
    args = ["simulate", "--k", "3", "--stripes", "6", "--seed", "5",
            "--rate", "100", "--strategy", "compare"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    assert "read ratio 0.6667" in first

    csv_path = tmp_path / "trace.csv"
    assert main(["simulate", "--k", "2", "--stripes", "3", "--strategy", "mdr",
                 "--csv", str(csv_path)]) == 0
    capsys.readouterr()
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("completion_ms")
    assert len(lines) > 3 * 4  # reads plus writes


def test_cli_simulate_refuses_load_the_survivors_cannot_serve(capsys):
    args = ["simulate", "--k", "1", "--stripes", "3", "--rate", "300", "--seek-ms", "30",
            "--rotational-ms", "0.5", "--transfer", "1e6", "--seq-window", "2"]
    assert main(args) == 1
    assert "usage error: background rate 300 req/s" in capsys.readouterr().err


def test_cli_simulate_csv_needs_one_strategy(tmp_path, capsys):
    csv_path = tmp_path / "trace.csv"
    assert main(["simulate", "--k", "2", "--stripes", "3", "--csv", str(csv_path)]) == 1
    assert "pick --strategy conventional or mdr" in capsys.readouterr().err
    assert not csv_path.exists()


def test_cli_simulate_of_one_strategy_prints_its_report_document(capsys):
    assert main(["simulate", "--k", "3", "--stripes", "4", "--strategy", "mdr", "--rate", "50",
                 "--seed", "2", "--json"]) == 0
    config = SimConfig(k=3, stripe_count=4, strategy="mdr", background_rate=50.0, seed=2)
    assert capsys.readouterr().out == json.dumps(simulate(config, DiskModel()).to_document()) + "\n"


def test_cli_simulate_k8_ratio(capsys):
    assert main(["simulate", "--k", "8", "--stripes", "4", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["read_ratio"] == [9, 16]


def test_benchmark_tracer_binds_every_name_it_wraps():
    """perfbench/tracer.py wraps names bound in mdr6 modules; one that is
    gone makes every traced benchmark run fail."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", "from tracer import ProcIO, Tracer; Tracer(ProcIO()).install()"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_public_api_resolves():
    import mdr6

    assert [name for name in mdr6.__all__ if not hasattr(mdr6, name)] == []
    for gone in (
        "RepairPlan",
        "verify_encode_schedule",
        "verify_repair_schedule",
        "Stripe",
        "ErasurePattern",
        "xor_blocks",
        "IndexSet",
        "SingularMatrixError",
        "decode",
        "encode_naive",
        "execute_repair",
    ):
        assert gone not in mdr6.__all__
        assert not hasattr(mdr6, gone)
