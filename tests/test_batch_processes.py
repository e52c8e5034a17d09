"""Runs of several batches split across forked processes: the same shards,
payloads and reports as one process, failures anywhere reaching the caller
with nothing published and no process left, and one process wherever
forking is unsafe."""

import itertools
import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdr6 import shards
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
    """Batches of two stripes, split across two processes."""
    monkeypatch.setattr(shards, "BATCH_BYTES", PER_BATCH * STRIPE)
    monkeypatch.setattr(shards, "_PROCESSES", 2)


@pytest.fixture
def payload(tmp_path):
    src = tmp_path / "in.bin"
    src.write_bytes(random.Random(7).randbytes(STRIPES * STRIPE - 5))
    return src


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def in_child(parent, then, otherwise):
    """A stand-in for an executor that runs then in a forked child and
    otherwise in the parent."""
    def call(*args):
        return then(*args) if os.getpid() != parent else otherwise(*args)
    return call


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
    "encode": ("execute_schedule", lambda src, sh, out: shards.encode_file(src, sh.with_name("fresh"), K, BS)),
    "decode": ("execute_schedule", lambda src, sh, out: shards.decode_file(sh, out)),
    "repair": ("execute_schedule", lambda src, sh, out: shards.repair_shard(sh)),
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
def test_a_failure_in_a_childs_range_reaches_the_caller(
    tmp_path, monkeypatch, split, payload, op, failure, error, match
):
    sh = run_op(op, tmp_path, payload)
    before = sorted(sh.iterdir())
    name, call = CALLS[op]
    monkeypatch.setattr(shards, name, in_child(os.getpid(), failure, getattr(shards, name)))
    with pytest.raises(error, match=match):
        call(payload, sh, tmp_path / "out.bin")
    assert_nothing_published(op, tmp_path, sh, before)
    assert no_child_left()


@pytest.mark.parametrize("op", ["encode", "decode", "repair"])
def test_a_failure_in_the_parents_range_kills_and_reaps_the_child(tmp_path, monkeypatch, split, payload, op):
    sh = run_op(op, tmp_path, payload)
    before = sorted(sh.iterdir())
    name, call = CALLS[op]

    def stall(*args):
        time.sleep(60)  # only a kill ends the child within the 30 s bound below

    def fail(*args):
        time.sleep(0.2)  # let the child reach its stall
        raise RuntimeError("executor failed in the parent")

    monkeypatch.setattr(shards, name, in_child(os.getpid(), stall, fail))
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="^executor failed in the parent$"):
        call(payload, sh, tmp_path / "out.bin")
    assert time.monotonic() - start < 30
    assert_nothing_published(op, tmp_path, sh, before)
    assert no_child_left()


def test_a_flipped_parity_byte_in_the_last_stripe_is_an_integrity_error(tmp_path, split, payload):
    sh = run_op("decode", tmp_path, payload)
    p = sh / shards.shard_name(K + 1)
    raw = bytearray(p.read_bytes())
    raw[-1] ^= 1  # the last stripe is in the child's range
    p.write_bytes(bytes(raw))
    before = sorted(sh.iterdir())
    out = tmp_path / "out.bin"
    with pytest.raises(IntegrityError, match="^surviving blocks violate the parity relations$"):
        shards.decode_file(sh, out)
    assert main(["decode", str(sh), "--out", str(out)]) == 2
    assert_nothing_published("decode", tmp_path, sh, before)
    assert no_child_left()


def test_a_killed_child_of_a_command_is_an_error_not_a_usage_error(tmp_path, monkeypatch, capsys, split, payload):
    sh = run_op("repair", tmp_path, payload)
    before = sorted(sh.iterdir())
    monkeypatch.setattr(shards, "execute_schedule", in_child(os.getpid(), kill_self, shards.execute_schedule))
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
    monkeypatch.setattr(shards, "execute_schedule", in_child(os.getpid(), fail, shards.execute_schedule))
    with pytest.raises(RuntimeError, match=r"Local\('not picklable'\)"):
        shards.decode_file(sh, tmp_path / "out.bin")
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
def test_several_processes_give_what_one_gives(tmp_path_factory, case):
    k, procs, batches, per_batch, size, lost, seed = case
    stripe = k * CODES[k].r * 8
    tmp_path = tmp_path_factory.mktemp("procs")
    src = tmp_path / "in.bin"
    src.write_bytes(random.Random(seed).randbytes(size))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(shards, "BATCH_BYTES", per_batch * stripe)
        stripes = -(-size // stripe)
        assert len(range(0, stripes, shards._batch_stripes(stripes, stripe))) == batches
        patch.setattr(shards, "_PROCESSES", 1)
        one = every_result(tmp_path, src, k, 8, lost)
        patch.setattr(shards, "_PROCESSES", procs)
        several = every_result(tmp_path, src, k, 8, lost)
    assert several == one
    assert no_child_left()
