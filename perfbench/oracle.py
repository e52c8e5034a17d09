"""Reference shard files, computed independently of ``mdr6.codec``.

The only input taken from the program is the code document (the B
matrices in their published bitstring form).  P is the XOR of the data
blocks of a row; Q row j is the XOR over data disks i of the blocks that
row j of A_i = B_i + B_{k+1} selects.  Shard files follow the v1 layout:
a 34-byte little-endian header, then r blocks per stripe.  A change to the
shard format must update this module.
"""

from __future__ import annotations

import struct
from pathlib import Path

_HEADER = struct.Struct("<4sHHIHIQQ")


def _q_sources(doc: dict) -> list[list[list[int]]]:
    """For data disk i and row j, the 0-based rows of d_i that Q row j sums."""
    mats = doc["b_matrices"]
    last = mats[-1]
    return [
        [
            [col for col, (a, b) in enumerate(zip(row, last_row)) if a != b]
            for row, last_row in zip(mat, last)
        ]
        for mat in mats[:-1]
    ]


def shard_name(disk: int) -> str:
    return f"shard_{disk:02d}.mdr"


def write_reference_shards(payload: bytes, doc: dict, block_size: int, out_dir: Path) -> int:
    """Write the k+2 shard files the encoder must produce; returns the
    stripe count."""
    k, r, bs = doc["k"], doc["r"], block_size
    sources = _q_sources(doc)
    strip = r * bs
    stripe_bytes = k * strip
    stripes = -(-len(payload) // stripe_bytes)
    out_dir.mkdir(parents=True, exist_ok=True)
    handles = [(out_dir / shard_name(d)).open("wb") for d in range(1, k + 3)]
    try:
        for d, fh in enumerate(handles, start=1):
            fh.write(_HEADER.pack(b"MDR1", 1, k, r, d, bs, stripes, len(payload)))
        for s in range(stripes):
            chunk = payload[s * stripe_bytes : (s + 1) * stripe_bytes].ljust(stripe_bytes, b"\0")
            cols = []
            for i in range(k):
                handles[i].write(chunk[i * strip : (i + 1) * strip])
                cols.append(
                    [
                        int.from_bytes(chunk[i * strip + j * bs : i * strip + (j + 1) * bs], "little")
                        for j in range(r)
                    ]
                )
            p = []
            q = []
            for j in range(r):
                p_acc = q_acc = 0
                for i in range(k):
                    p_acc ^= cols[i][j]
                    for row in sources[i][j]:
                        q_acc ^= cols[i][row]
                p.append(p_acc.to_bytes(bs, "little"))
                q.append(q_acc.to_bytes(bs, "little"))
            handles[k].write(b"".join(p))
            handles[k + 1].write(b"".join(q))
    finally:
        for fh in handles:
            fh.close()
    return stripes
