"""Decode with one data shard lost rebuilds it through the disk's repair
plan: (k+1)r/2 blocks per stripe go into the XOR engine instead of the kr
of row parity, at the same (k-1)r XORs, with r/2 rows each read from P and
Q instead of every row of P."""

import random

import pytest

from mdr6 import shards
from mdr6.code import construct
from mdr6.codec import plan, repair_plan

CODES = {k: construct(k) for k in range(1, 7)}


@pytest.mark.parametrize("k", range(1, 7))
def test_a_lone_data_disk_decodes_through_its_repair_plan(tmp_path, k):
    code = CODES[k]
    r = code.r
    src = tmp_path / "in.bin"
    src.write_bytes(random.Random(k).randbytes(2 * k * r * 8 + 5))
    sh, out = tmp_path / "sh", tmp_path / "out.bin"
    stripes = shards.encode_file(src, sh, k, 8).stripe_count
    for d in range(1, k + 1):
        repair = repair_plan(code, d)
        assert plan(code, (d,), tuple(range(1, k + 1)))[0] == repair
        assert repair.xor_count == (k - 1) * r
        shard = sh / shards.shard_name(d)
        blob = shard.read_bytes()
        shard.unlink()
        report = shards.decode_file(sh, out)
        assert out.read_bytes() == src.read_bytes()
        assert report.xor_count == (k - 1) * r * stripes
        for p in (k + 1, k + 2):
            assert len(repair.rows_by_disk[p]) == r // 2
            assert report.blocks_read_per_shard[p] == r // 2 * stripes
        shard.write_bytes(blob)

