"""Every ``os.preadv`` and ``os.pwritev`` the shard commands make, against the
stream recorded at e809c94: at k = 2 and 3 with 32-byte blocks, a payload of
5 stripes less 5 bytes, batches of 2 stripes (so the last one is partial) and
IOV_MAX patched to 7, the encode, the decodes with each recorded set of disks
lost and the repair of every disk each make the same calls, in the same order,
on the same files at the same offsets, with the same iovec lengths and the
same byte counts returned.  ``io_recorded.json`` keeps each call as
[kind, file name, offset, iovec lengths, bytes moved]."""

import json
import os
import random
from pathlib import Path

import pytest

from mdr6 import shards
from mdr6.code import construct

RECORDED = json.loads((Path(__file__).parent / "io_recorded.json").read_text())
BLOCK = 32

pytestmark = pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="names a call's file through /proc/self/fd")


def lost_sets(k: int) -> list[tuple[int, ...]]:
    return [(), (1,), (k + 1,), (k + 2,), (1, 2), (2, k + 1), (k + 1, k + 2)]


def io_stream(tmp: Path, k: int) -> dict[str, list]:
    """The calls of each command on one shard set, by command name."""
    r = construct(k).r
    stripe = k * r * BLOCK
    payload = random.Random(k).randbytes(5 * stripe - 5)
    src, sh, out = tmp / "in.bin", tmp / "sh", tmp / "out.bin"
    src.write_bytes(payload)
    calls: list = []

    def recorded(kind, original):
        def call(fd, buffers, offset):
            got = original(fd, buffers, offset)
            name = Path(os.readlink(f"/proc/self/fd/{fd}")).name
            calls.append([kind, name, offset, [len(b) for b in buffers], got])
            return got

        return call

    def run(command, *args) -> list:
        calls.clear()
        command(*args)
        return list(calls)

    streams = {}
    shards._shape.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(shards, "BATCH_BYTES", 2 * stripe)
            patch.setattr(shards, "_IOV_MAX", 7)
            patch.setattr(shards, "_PROCESSES", 1)  # a forked child's calls would not be recorded
            patch.setattr(os, "preadv", recorded("preadv", os.preadv))
            patch.setattr(os, "pwritev", recorded("pwritev", os.pwritev))
            streams["encode"] = run(shards.encode_file, src, sh, k, BLOCK)
            files = {d: (sh / shards.shard_name(d)).read_bytes() for d in range(1, k + 3)}
            for lost in lost_sets(k):
                for d in lost:
                    (sh / shards.shard_name(d)).unlink()
                streams["decode:" + ",".join(map(str, lost))] = run(shards.decode_file, sh, out)
                assert out.read_bytes() == payload, lost
                for d in lost:
                    (sh / shards.shard_name(d)).write_bytes(files[d])
            for d in range(1, k + 3):
                (sh / shards.shard_name(d)).unlink()
                streams[f"repair:{d}"] = run(shards.repair_shard, sh)
                assert (sh / shards.shard_name(d)).read_bytes() == files[d]
    finally:
        shards._shape.cache_clear()
    return streams


@pytest.mark.parametrize("k", [2, 3])
def test_io_stream_matches_the_recorded_calls(tmp_path, k):
    assert io_stream(tmp_path, k) == RECORDED[str(k)]
