"""Shard files: one file per disk column, a fixed little-endian header
followed by r * stripe_count blocks."""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

from .code import MdrCode, construct
from .codec import (
    ErasurePattern,
    IntegrityError,
    Stripe,
    build_encode_schedule,
    decode,
    execute_repair,
    execute_schedule,
    repair_plan,
)

MAGIC = b"MDR1"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHHIHIQQ")
HEADER_SIZE = _HEADER.size
SHARD_SUFFIX = ".mdr"


class TooManyErasuresError(Exception):
    """More shards are missing than the requested operation tolerates."""


@dataclass(frozen=True)
class ShardHeader:
    k: int
    r: int
    disk_index: int
    block_size: int
    stripe_count: int
    payload_length: int

    def pack(self) -> bytes:
        return _HEADER.pack(
            MAGIC,
            FORMAT_VERSION,
            self.k,
            self.r,
            self.disk_index,
            self.block_size,
            self.stripe_count,
            self.payload_length,
        )

    @classmethod
    def unpack(cls, raw: bytes) -> "ShardHeader":
        if len(raw) < HEADER_SIZE:
            raise IntegrityError("shard file shorter than its header")
        magic, version, k, r, disk_index, block_size, stripe_count, payload_length = (
            _HEADER.unpack(raw[:HEADER_SIZE])
        )
        if magic != MAGIC:
            raise IntegrityError(f"bad shard magic {magic!r}")
        if version != FORMAT_VERSION:
            raise IntegrityError(f"unsupported shard format version {version}")
        header = cls(k, r, disk_index, block_size, stripe_count, payload_length)
        if not 1 <= disk_index <= k + 2:
            raise IntegrityError(f"disk index {disk_index} outside [1, {k + 2}]")
        if payload_length > stripe_count * r * block_size * k:
            raise IntegrityError("payload length exceeds shard-set capacity")
        return header

    def siblings_key(self) -> tuple:
        return (self.k, self.r, self.block_size, self.stripe_count, self.payload_length)


def shard_name(disk_index: int) -> str:
    return f"shard_{disk_index:02d}{SHARD_SUFFIX}"


def _scan_shards(directory: Path) -> dict[int, tuple[Path, ShardHeader]]:
    headers: dict[int, tuple[Path, ShardHeader]] = {}
    for path in sorted(directory.glob(f"*{SHARD_SUFFIX}")):
        with path.open("rb") as fh:
            header = ShardHeader.unpack(fh.read(HEADER_SIZE))
        if header.disk_index in headers:
            raise IntegrityError(f"duplicate shard for disk {header.disk_index}")
        headers[header.disk_index] = (path, header)
    if not headers:
        raise IntegrityError(f"no shard files found in {directory}")
    keys = {h.siblings_key() for _, h in headers.values()}
    if len(keys) > 1:
        raise IntegrityError("shard headers disagree on code parameters")
    return headers


def _resolve_code(k: int, r: int, code: MdrCode | None) -> MdrCode:
    if code is None:
        code = construct(k)
    if (code.k, code.r) != (k, r):
        raise IntegrityError(
            f"code is ({code.k},{code.r}) but shards need ({k},{r})"
        )
    return code


@dataclass(frozen=True)
class EncodeReport:
    stripe_count: int
    xor_count: int
    shard_paths: tuple[str, ...]


def encode_file(
    input_path: str | os.PathLike,
    out_dir: str | os.PathLike,
    k: int,
    block_size: int = 512,
    code: MdrCode | None = None,
) -> EncodeReport:
    """Shard a file into k+2 shard files, parities via the optimal schedule."""
    if code is None:
        code = construct(k)
    if code.k != k:
        raise ValueError("supplied code does not match k")
    r = code.r
    schedule = build_encode_schedule(code)
    payload = Path(input_path).read_bytes()
    strip_bytes = r * block_size
    stripe_bytes = k * strip_bytes
    stripe_count = (len(payload) + stripe_bytes - 1) // stripe_bytes

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / shard_name(d) for d in range(1, k + 3)]
    handles = [p.open("wb") for p in paths]
    xor_total = 0
    try:
        for d, fh in enumerate(handles, start=1):
            fh.write(ShardHeader(k, r, d, block_size, stripe_count, len(payload)).pack())
        for s in range(stripe_count):
            # data disk d stores the d-th strip of r blocks; the last
            # stripe is zero-padded
            chunk = payload[s * stripe_bytes : (s + 1) * stripe_bytes].ljust(stripe_bytes, b"\x00")
            inputs = {}
            for d in range(1, k + 1):
                base = (d - 1) * strip_bytes
                handles[d - 1].write(chunk[base : base + strip_bytes])
                for j in range(1, r + 1):
                    off = base + (j - 1) * block_size
                    inputs[("in", d, j)] = chunk[off : off + block_size]
            outputs, executed = execute_schedule(schedule, inputs, block_size)
            xor_total += executed
            for d in (k + 1, k + 2):
                for j in range(1, r + 1):
                    handles[d - 1].write(outputs[("out", d, j)])
    finally:
        for fh in handles:
            fh.close()
    return EncodeReport(stripe_count, xor_total, tuple(str(p) for p in paths))


def _read_column(path: Path, header: ShardHeader, stripe: int) -> list[bytes]:
    r, bs = header.r, header.block_size
    with path.open("rb") as fh:
        fh.seek(HEADER_SIZE + stripe * r * bs)
        raw = fh.read(r * bs)
    if len(raw) != r * bs:
        raise IntegrityError(f"shard {path} truncated at stripe {stripe}")
    return [raw[j * bs : (j + 1) * bs] for j in range(r)]


def _read_blocks(path: Path, header: ShardHeader, stripe: int, rows: list[int]) -> list[bytes]:
    r, bs = header.r, header.block_size
    out = []
    with path.open("rb") as fh:
        for row in rows:
            fh.seek(HEADER_SIZE + (stripe * r + row - 1) * bs)
            block = fh.read(bs)
            if len(block) != bs:
                raise IntegrityError(f"shard {path} truncated at stripe {stripe}")
            out.append(block)
    return out


@dataclass(frozen=True)
class DecodeReport:
    missing: tuple[int, ...]
    stripe_count: int
    payload_length: int
    blocks_read_per_shard: dict[int, int]
    bytes_read_per_shard: dict[int, int]


def decode_file(
    shard_dir: str | os.PathLike,
    out_path: str | os.PathLike,
    code: MdrCode | None = None,
) -> DecodeReport:
    """Rebuild the original file, tolerating up to two missing shards.

    With nothing missing the parity relations are still checked stripe by
    stripe, so silent corruption is reported instead of propagated.
    """
    headers = _scan_shards(Path(shard_dir))
    any_header = next(iter(headers.values()))[1]
    k, r, bs = any_header.k, any_header.r, any_header.block_size
    code = _resolve_code(k, r, code)
    missing = tuple(d for d in range(1, k + 3) if d not in headers)
    if len(missing) > 2:
        raise TooManyErasuresError(
            f"{len(missing)} shards missing; RAID-6 tolerates at most 2"
        )
    pattern = ErasurePattern(frozenset(missing))

    blocks_read: dict[int, int] = {d: 0 for d in headers}
    pieces: list[bytes] = []
    for s in range(any_header.stripe_count):
        stripe = Stripe(k, r, bs)
        for d, (path, header) in headers.items():
            stripe.set_column(d, _read_column(path, header, s))
            blocks_read[d] += r
        restored = decode(code, stripe, pattern)
        for d in range(1, k + 1):
            pieces.extend(restored.column(d))
    payload = b"".join(pieces)[: any_header.payload_length]
    Path(out_path).write_bytes(payload)
    return DecodeReport(
        missing,
        any_header.stripe_count,
        any_header.payload_length,
        blocks_read,
        {d: n * bs for d, n in blocks_read.items()},
    )


@dataclass(frozen=True)
class RepairReport:
    disk_index: int
    shard_path: str
    stripe_count: int
    blocks_read_per_shard: dict[int, int]
    bytes_read_per_shard: dict[int, int]
    xor_count: int


def repair_shard(
    shard_dir: str | os.PathLike,
    missing_index: int | None = None,
    code: MdrCode | None = None,
) -> RepairReport:
    """Regenerate exactly one missing shard, reading only its plan's blocks."""
    directory = Path(shard_dir)
    headers = _scan_shards(directory)
    any_header = next(iter(headers.values()))[1]
    k, r, bs = any_header.k, any_header.r, any_header.block_size
    code = _resolve_code(k, r, code)
    missing = [d for d in range(1, k + 3) if d not in headers]
    if len(missing) != 1:
        raise TooManyErasuresError(
            f"repair needs exactly one missing shard, found {len(missing)}; "
            "use decode for multi-shard loss"
        )
    if missing_index is not None and missing_index != missing[0]:
        raise ValueError(
            f"shard {missing_index} is present; the missing shard is {missing[0]}"
        )
    failed = missing[0]
    plan = repair_plan(code, failed)
    rows_by_disk: dict[int, list[int]] = {}
    for disk, row in sorted(plan.reads):
        rows_by_disk.setdefault(disk, []).append(row)
    header = ShardHeader(k, r, failed, bs, any_header.stripe_count, any_header.payload_length)
    out_path = directory / shard_name(failed)
    blocks_read: dict[int, int] = {d: 0 for d in headers}
    xor_total = 0
    with out_path.open("wb") as fh:
        fh.write(header.pack())
        for s in range(any_header.stripe_count):
            blocks: dict[tuple[int, int], bytes] = {}
            for d, rows in rows_by_disk.items():
                path, hdr = headers[d]
                for row, block in zip(rows, _read_blocks(path, hdr, s, rows)):
                    blocks[(d, row)] = block
                blocks_read[d] += len(rows)
            column, executed = execute_repair(plan, blocks, bs)
            xor_total += executed
            fh.writelines(column)
    return RepairReport(
        failed,
        str(out_path),
        any_header.stripe_count,
        blocks_read,
        {d: n * bs for d, n in blocks_read.items()},
        xor_total,
    )
