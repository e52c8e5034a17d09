"""Runs of several batches split across forked processes, which claim the
batches one at a time: the same shards, payloads, reports and read counters
as one process, failures anywhere reaching the caller with nothing published
and no process left, and one process wherever forking is unsafe or would
not repay its cost."""

import itertools
import mmap
import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdr6 import _forked, shards
from mdr6.cli import main
from mdr6.code import construct
from mdr6.codec import IntegrityError

K, BS = 3, 32
R = construct(K).r
STRIPE = K * R * BS
PER_BATCH = 2  # stripes per batch, with BATCH_BYTES patched to fit them
STRIPES = 4 * PER_BATCH - 1  # four batches, the last one short


@pytest.fixture
def split(monkeypatch):
    """Batches of two stripes, split across two processes however small the call."""
    monkeypatch.setattr(shards, "BATCH_BYTES", PER_BATCH * STRIPE)
    monkeypatch.setattr(shards, "_PROCESSES", 2)
    monkeypatch.setattr(shards, "_SPLIT_BYTES", 0)


@pytest.fixture
def payload(tmp_path):
    src = tmp_path / "in.bin"
    src.write_bytes(random.Random(7).randbytes(STRIPES * STRIPE - 5))
    return src


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def wait_until(done):
    deadline = time.monotonic() + 30
    while not done():
        assert time.monotonic() < deadline, "the other process did not get there"
        time.sleep(0.001)


def in_child(monkeypatch, then, otherwise, child_calls=1):
    """Patch the executor to run then in a forked child and otherwise in the caller,
    and os.fork so that the caller, once it has forked, waits until its child has
    started child_calls calls: however fast the caller is, the child claims that
    many batches before the caller claims any."""
    parent, started, fork = os.getpid(), mmap.mmap(-1, 1), os.fork

    def call(*args):
        if os.getpid() == parent:
            return otherwise(*args)
        started[0] += 1
        return then(*args)

    def fork_then_wait():
        started[0] = 0
        pid = fork()
        if pid:
            wait_until(lambda: started[0] >= child_calls)
        return pid

    monkeypatch.setattr(shards, "execute_schedule", call)
    monkeypatch.setattr(os, "fork", fork_then_wait)


def raise_runtime(*args):
    raise RuntimeError("executor failed in a child")


def kill_self(*args):
    os.kill(os.getpid(), signal.SIGKILL)


def run_op(op, tmp_path, src):
    """The shard directory op runs on: src encoded into it, disk 1 removed for a repair."""
    sh = tmp_path / "sh"
    shards.encode_file(src, sh, K, BS)
    if op == "repair":
        (sh / shards.shard_name(1)).unlink()
    return sh


CALLS = {
    "encode": lambda src, sh, out: shards.encode_file(src, sh.with_name("fresh"), K, BS),
    "decode": lambda src, sh, out: shards.decode_file(sh, out),
    "repair": lambda src, sh, out: shards.repair_shard(sh),
}


def assert_nothing_published(op, tmp_path, sh, before):
    """No shard, temporary or output file beyond what was there before the call."""
    if op == "encode":
        assert list(sh.with_name("fresh").iterdir()) == []
    assert sorted(sh.iterdir()) == before
    assert not (tmp_path / "out.bin").exists()
    assert not any(p.name.endswith(".tmp") for p in tmp_path.rglob("*"))


@pytest.mark.parametrize("op", ["encode", "decode", "repair"])
@pytest.mark.parametrize(
    "failure, error, match",
    [(raise_runtime, RuntimeError, "^executor failed in a child$"),
     (kill_self, ChildProcessError, r"was killed by signal 9 ")],
)
def test_a_failure_in_a_childs_batch_reaches_the_caller(
    tmp_path, monkeypatch, split, payload, op, failure, error, match
):
    sh = run_op(op, tmp_path, payload)
    before = sorted(sh.iterdir())
    in_child(monkeypatch, failure, shards.execute_schedule)
    with pytest.raises(error, match=match):
        CALLS[op](payload, sh, tmp_path / "out.bin")
    assert_nothing_published(op, tmp_path, sh, before)
    assert no_child_left()


@pytest.mark.parametrize("op", ["encode", "decode", "repair"])
def test_a_failure_in_the_parents_batch_kills_and_reaps_the_child(tmp_path, monkeypatch, split, payload, op):
    sh = run_op(op, tmp_path, payload)
    before = sorted(sh.iterdir())

    def stall(*args):
        time.sleep(60)  # only a kill ends the child within the 30 s bound below

    def fail(*args):
        raise RuntimeError("executor failed in the parent")

    in_child(monkeypatch, stall, fail)  # the child reaches its stall before the parent fails
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="^executor failed in the parent$"):
        CALLS[op](payload, sh, tmp_path / "out.bin")
    assert time.monotonic() - start < 30
    assert_nothing_published(op, tmp_path, sh, before)
    assert no_child_left()


def test_a_flipped_parity_byte_in_the_last_stripe_is_an_integrity_error(tmp_path, monkeypatch, split, payload):
    sh = run_op("decode", tmp_path, payload)
    p = sh / shards.shard_name(K + 1)
    raw = bytearray(p.read_bytes())
    raw[-1] ^= 1
    p.write_bytes(bytes(raw))
    before = sorted(sh.iterdir())
    out = tmp_path / "out.bin"
    batches = -(-STRIPES // PER_BATCH)
    in_child(monkeypatch, shards.execute_schedule, shards.execute_schedule, batches)  # the child checks every batch
    with pytest.raises(IntegrityError, match="^surviving blocks violate the parity relations$"):
        shards.decode_file(sh, out)
    assert main(["decode", str(sh), "--out", str(out)]) == 2
    assert_nothing_published("decode", tmp_path, sh, before)
    assert no_child_left()


def test_a_killed_child_of_a_command_is_an_error_not_a_usage_error(tmp_path, monkeypatch, capsys, split, payload):
    sh = run_op("repair", tmp_path, payload)
    before = sorted(sh.iterdir())
    in_child(monkeypatch, kill_self, shards.execute_schedule)
    assert main(["repair", str(sh)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: forked process ") and "was killed by signal 9 " in err
    assert "usage error" not in err
    assert_nothing_published("repair", tmp_path, sh, before)
    assert no_child_left()


def test_an_exception_that_does_not_pickle_arrives_by_name(tmp_path, monkeypatch, split, payload):
    class Local(Exception):  # a local class pickles by a name that does not resolve
        pass

    def fail(*args):
        raise Local("not picklable")

    sh = run_op("decode", tmp_path, payload)
    in_child(monkeypatch, fail, shards.execute_schedule)
    with pytest.raises(RuntimeError, match=r"Local\('not picklable'\)"):
        shards.decode_file(sh, tmp_path / "out.bin")
    assert no_child_left()


def files_under(base):
    return {p.relative_to(base): p.read_bytes() for p in base.rglob("*") if p.is_file()}


@pytest.mark.parametrize("op", ["encode", "decode", "repair"])
def test_a_child_that_claims_no_batch_leaves_the_one_process_report(tmp_path, monkeypatch, split, payload, op):
    sh = run_op(op, tmp_path, payload)
    monkeypatch.setattr(shards, "_PROCESSES", 1)
    one = CALLS[op](payload, sh, tmp_path / "out.bin")
    made = files_under(tmp_path)
    if op == "repair":
        (sh / shards.shard_name(1)).unlink()
    monkeypatch.setattr(shards, "_PROCESSES", 2)
    batches, ran, fork, execute = -(-STRIPES // PER_BATCH), mmap.mmap(-1, 2), os.fork, shards.execute_schedule
    parent = os.getpid()

    def counted(*args):
        ran[os.getpid() != parent] += 1
        return execute(*args)

    def fork_late():
        pid = fork()
        if not pid:
            wait_until(lambda: ran[0] == batches)  # the caller has run every batch
        return pid

    monkeypatch.setattr(shards, "execute_schedule", counted)
    monkeypatch.setattr(os, "fork", fork_late)
    assert CALLS[op](payload, sh, tmp_path / "out.bin") == one
    assert (ran[0], ran[1]) == (batches, 0)
    assert files_under(tmp_path) == made
    assert no_child_left()


def round_trip(tmp_path, src):
    """Encode, repair disk 1 and decode with disks 2 and 4 lost, all checked."""
    sh = tmp_path / "sh"
    shards.encode_file(src, sh, K, BS)
    blob = (sh / shards.shard_name(1)).read_bytes()
    (sh / shards.shard_name(1)).unlink()
    shards.repair_shard(sh)
    assert (sh / shards.shard_name(1)).read_bytes() == blob
    for d in (2, 4):
        (sh / shards.shard_name(d)).unlink()
    shards.decode_file(sh, tmp_path / "out.bin")
    assert (tmp_path / "out.bin").read_bytes() == src.read_bytes()


def refuse_fork():
    raise AssertionError("forked")


def test_a_threaded_caller_runs_in_one_process(tmp_path, monkeypatch, split, payload):
    monkeypatch.setattr(os, "fork", refuse_fork)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        round_trip(tmp_path, payload)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_without_fork_runs_in_one_process(tmp_path, monkeypatch, split, payload):
    monkeypatch.delattr(os, "fork")
    round_trip(tmp_path, payload)


def test_one_batch_runs_in_one_process(tmp_path, monkeypatch, payload):
    monkeypatch.setattr(shards, "_PROCESSES", 2)
    monkeypatch.setattr(os, "fork", refuse_fork)
    assert shards._batch_stripes(STRIPES, STRIPE) == STRIPES
    round_trip(tmp_path, payload)


@pytest.mark.parametrize("stripes, forks", [(511, 0), (512, 1)])
def test_only_a_call_of_the_split_threshold_forks(tmp_path, monkeypatch, stripes, forks):
    """At k=3 and 512 B blocks a stripe holds 12 KiB of data: 512 stripes reach the
    threshold, and 511, in as many batches, stay in one process."""
    stripe = K * R * 512
    assert shards._SPLIT_BYTES == 512 * stripe
    src = tmp_path / "in.bin"
    src.write_bytes(random.Random(8).randbytes(stripes * stripe - 5))
    assert -(-stripes // shards._batch_stripes(stripes, stripe)) == 7
    monkeypatch.setattr(shards, "_PROCESSES", 2)
    forked, fork = [], os.fork

    def counted_fork():
        assert forks, "forked"
        forked.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    sh = tmp_path / "sh"
    shards.encode_file(src, sh, K, 512)
    (sh / shards.shard_name(1)).unlink()
    shards.repair_shard(sh)
    (sh / shards.shard_name(2)).unlink()
    shards.decode_file(sh, tmp_path / "out.bin")
    assert (tmp_path / "out.bin").read_bytes() == src.read_bytes()
    assert len(forked) == 3 * forks


@pytest.mark.parametrize("procs", [2, 3])
def test_claims_are_distinct_and_gap_free(procs):
    tasks = 10**5

    def work(i, claims):
        seen, count = bytearray(tasks // 8 + 1), 0  # a bit per task
        for t in claims:
            seen[t >> 3] |= 1 << (t & 7)
            count += 1
        return bytes(seen), count

    results = _forked.run_forked(work, procs, range(tasks))
    claimed = [int.from_bytes(seen, "little") for seen, _ in results]
    assert all(count == bin(c).count("1") for (_, count), c in zip(results, claimed))
    assert sum(count for _, count in results) == tasks
    union = 0
    for c in claimed:
        union |= c
    assert union == (1 << tasks) - 1
    assert no_child_left()


def read_bytes_counted(call):
    """The bytes that call's read calls, and those of every child it reaped, moved, as
    /proc/self/io counts them."""
    fd = os.open("/proc/self/io", os.O_RDONLY)
    try:
        before = os.pread(fd, 4096, 0)
        call()
        after = os.pread(fd, 4096, 0)
    finally:
        os.close(fd)
    rchar = [int(raw.split(b"rchar: ")[1].split()[0]) for raw in (before, after)]
    return rchar[1] - rchar[0] - len(before)  # the first read of the counters counts too


@pytest.mark.skipif(not os.path.exists("/proc/self/io"), reason="no /proc/self/io")
@pytest.mark.parametrize("procs", [2, 3])
def test_a_split_repair_reads_what_one_process_reads(tmp_path, monkeypatch, split, payload, procs):
    sh = run_op("repair", tmp_path, payload)
    shards.repair_shard(sh)  # every module a split call loads is loaded before the counts
    forked, fork = [], os.fork

    def counted_fork():
        forked.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    counted = {}
    for n in (1, procs):
        (sh / shards.shard_name(1)).unlink()
        monkeypatch.setattr(shards, "_PROCESSES", n)
        counted[n] = read_bytes_counted(lambda: shards.repair_shard(sh))
    assert len(forked) == procs - 1
    assert counted[procs] == counted[1] > 0


def test_without_sched_getaffinity_one_process():
    code = "import os; del os.sched_getaffinity; from mdr6 import shards; print(shards._PROCESSES)"
    env = {**os.environ, "PYTHONPATH": str(Path(shards.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "1"


CODES = {k: construct(k) for k in range(1, 5)}


def every_result(tmp_path, src, k, block_size, lost):
    """Shards, payloads decoded with 0, 1 and 2 lost, repaired shards and every report."""
    sh, out = tmp_path / "sh", tmp_path / "out.bin"
    results = {"encode": shards.encode_file(src, sh, k, block_size)}
    files = {d: (sh / shards.shard_name(d)).read_bytes() for d in range(1, k + 3)}
    results["shards"] = files
    for n in range(3):
        for d in lost[:n]:
            (sh / shards.shard_name(d)).unlink()
        results[("decode", n)] = shards.decode_file(sh, out), out.read_bytes()
        for d in lost[:n]:
            (sh / shards.shard_name(d)).write_bytes(files[d])
    for d in range(1, k + 3):
        (sh / shards.shard_name(d)).unlink()
        results[("repair", d)] = shards.repair_shard(sh), (sh / shards.shard_name(d)).read_bytes()
    return results


@st.composite
def split_cases(draw):
    k = draw(st.integers(1, 4))
    stripe = k * CODES[k].r * 8
    batches, per_batch = draw(st.sampled_from([1, 2, 3, 5])), draw(st.integers(1, 3))
    stripes = (batches - 1) * per_batch + draw(st.integers(1, per_batch))
    size = (stripes - 1) * stripe + draw(st.integers(1, stripe))
    lost = draw(st.sampled_from(list(itertools.combinations(range(1, k + 3), 2))))
    return k, draw(st.sampled_from([1, 2, 3])), batches, per_batch, size, lost, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=30, deadline=None)
@given(split_cases())
@example((3, 3, 5, 2, 8 * 3 * 8 * 8 + 100, (1, 4), 5))  # three processes on two CPUs, nine stripes
def test_several_processes_give_what_one_gives(tmp_path_factory, case):
    k, procs, batches, per_batch, size, lost, seed = case
    stripe = k * CODES[k].r * 8
    tmp_path = tmp_path_factory.mktemp("procs")
    src = tmp_path / "in.bin"
    src.write_bytes(random.Random(seed).randbytes(size))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(shards, "BATCH_BYTES", per_batch * stripe)
        patch.setattr(shards, "_SPLIT_BYTES", 0)
        stripes = -(-size // stripe)
        assert len(range(0, stripes, shards._batch_stripes(stripes, stripe))) == batches
        patch.setattr(shards, "_PROCESSES", 1)
        one = every_result(tmp_path, src, k, 8, lost)
        patch.setattr(shards, "_PROCESSES", procs)
        several = every_result(tmp_path, src, k, 8, lost)
    assert several == one
    assert no_child_left()
