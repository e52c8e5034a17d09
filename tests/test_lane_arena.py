"""Each thread's lane arena, kept across calls: it must hand no bytes from
one call to the next, be shared with no other thread or forked process, and
be kept only up to its bound."""

import os
import random
import signal
import sys
import threading
import time

import pytest

from mdr6 import shards
from mdr6.code import construct
from test_shard_batches import expected_shards

K, BS = 3, 32
STRIPE = K * construct(K).r * BS
PER_BATCH = 2  # stripes per batch, with BATCH_BYTES patched to fit them
STRIPES = 33  # seventeen batches, the last of one stripe
ROUNDS = 6  # decodes per thread or process, so that theirs overlap


@pytest.fixture
def batches(monkeypatch):
    monkeypatch.setattr(shards, "BATCH_BYTES", PER_BATCH * STRIPE)


@pytest.fixture
def lost_data(tmp_path, batches):
    """A set whose data shard 1 is lost, so its decodes check no parity, and its payload."""
    src = tmp_path / "in.bin"
    src.write_bytes(random.Random(11).randbytes(STRIPES * STRIPE - 5))
    sh = tmp_path / "sh"
    shards.encode_file(src, sh, K, BS)
    (sh / shards.shard_name(1)).unlink()
    return sh, src.read_bytes()


def exact_decodes(sh, out, payload):
    """How many of ROUNDS decodes of sh into out gave payload."""
    exact = 0
    for _ in range(ROUNDS):
        shards.decode_file(sh, out)
        exact += out.read_bytes() == payload
    return exact


def test_a_forked_process_and_its_parent_decode_at_once(tmp_path, monkeypatch, lost_data):
    sh, payload = lost_data
    monkeypatch.setattr(shards, "_PROCESSES", 1)  # the two processes, no batch children
    shards.decode_file(sh, tmp_path / "warm.bin")  # so the parent holds an arena when it forks
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            status = 0 if exact_decodes(sh, tmp_path / "child.bin", payload) == ROUNDS else 3
        finally:
            os._exit(status)
    try:
        exact = exact_decodes(sh, tmp_path / "parent.bin", payload)
        deadline = time.monotonic() + 60
        while not (reaped := os.waitpid(pid, os.WNOHANG))[0]:
            assert time.monotonic() < deadline, "the forked decode did not finish"
            time.sleep(0.01)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    assert exact == ROUNDS
    assert os.waitstatus_to_exitcode(reaped[1]) == 0


def test_threads_decode_at_once(tmp_path, lost_data):
    sh, payload = lost_data
    exact = {}

    def work(t):
        exact[t] = exact_decodes(sh, tmp_path / f"thread{t}.bin", payload)

    threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert exact == {t: ROUNDS for t in range(4)}


def test_a_kept_arena_hands_no_bytes_to_the_next_call(tmp_path, monkeypatch, batches):
    """Every call of a split run starts on an arena of 0xFF bytes, the same mapping
    each time, and gives what the oracle gives: an encode whose last stripe ends
    mid-block, decodes with 0, 1 and 2 shards lost and each single-disk repair."""
    monkeypatch.setattr(shards, "_PROCESSES", 2)
    payload = random.Random(12).randbytes(STRIPES * STRIPE - 5)
    src, sh, out = tmp_path / "in.bin", tmp_path / "sh", tmp_path / "out.bin"
    src.write_bytes(payload)
    shards.encode_file(src, tmp_path / "first", K, BS)
    arena = shards._kept.arena

    def poisoned(call, *args):
        arena[:] = b"\xff" * len(arena)
        call(*args)
        assert shards._kept.arena is arena

    poisoned(shards.encode_file, src, sh, K, BS)
    files = {d: (sh / shards.shard_name(d)).read_bytes() for d in range(1, K + 3)}
    assert files == expected_shards(construct(K), payload, BS, STRIPES)
    for lost in ((), (1,), (2, K + 2)):
        for d in lost:
            (sh / shards.shard_name(d)).unlink()
        poisoned(shards.decode_file, sh, out)
        assert out.read_bytes() == payload, lost
        for d in lost:
            (sh / shards.shard_name(d)).write_bytes(files[d])
    for d in range(1, K + 3):
        (sh / shards.shard_name(d)).unlink()
        poisoned(shards.repair_shard, sh)
        assert (sh / shards.shard_name(d)).read_bytes() == files[d], d


def test_a_call_above_the_keep_bound_keeps_no_arena(tmp_path, monkeypatch):
    src = tmp_path / "in.bin"
    src.write_bytes(random.Random(13).randbytes(3 * STRIPE - 5))
    shards.encode_file(src, tmp_path / "kept", K, BS)
    assert shards._kept.arena is not None
    # one stripe a batch: an encode's 5 * r lanes of one block need more than 4 * BATCH_BYTES
    monkeypatch.setattr(shards, "BATCH_BYTES", STRIPE // 4)
    shards.encode_file(src, tmp_path / "sh", K, BS)
    assert shards._kept.arena is None
    shards.decode_file(tmp_path / "sh", tmp_path / "out.bin")
    assert shards._kept.arena is None
    assert (tmp_path / "out.bin").read_bytes() == src.read_bytes()
