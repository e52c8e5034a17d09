"""Shard files: one file per disk column, a fixed little-endian header
followed by r * stripe_count blocks."""

from __future__ import annotations

import os
import struct
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Sequence

from .code import MdrCode, construct
from .codec import (
    IntegrityError,
    build_decode_schedule,
    build_encode_schedule,
    decode,  # noqa: F401  unused here, but perfbench/tracer.py wraps mdr6.shards.decode
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
    xor_total = 0
    with ExitStack() as stack:
        handles = [stack.enter_context(p.open("wb")) for p in paths]
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
    return EncodeReport(stripe_count, xor_total, tuple(str(p) for p in paths))


def _read_rows(fh: BinaryIO, header: ShardHeader, stripe: int, rows: Sequence[int]) -> list[bytes]:
    """Read ascending rows of one stripe from an open shard, one read per run of rows."""
    r, bs = header.r, header.block_size
    out: list[bytes] = []
    first = 0
    for n, row in enumerate(rows, start=1):
        if n < len(rows) and rows[n] == row + 1:
            continue
        count = n - first
        fh.seek(HEADER_SIZE + (stripe * r + rows[first] - 1) * bs)
        raw = fh.read(count * bs)
        if len(raw) != count * bs:
            raise IntegrityError(f"shard {fh.name} truncated at stripe {stripe}")
        out += [raw] if count == 1 else [raw[i : i + bs] for i in range(0, len(raw), bs)]
        first = n
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
    # with nothing missing, re-encoding checks the stored P and Q
    schedule = build_decode_schedule(code, missing) if missing else build_encode_schedule(code)
    rows = range(1, r + 1)

    blocks_read: dict[int, int] = {d: 0 for d in headers}
    pieces: list[bytes] = []
    with ExitStack() as stack:
        handles = {d: stack.enter_context(path.open("rb")) for d, (path, _) in headers.items()}
        for s in range(any_header.stripe_count):
            inputs = {}
            for d, fh in handles.items():
                for j, block in zip(rows, _read_rows(fh, any_header, s, rows)):
                    inputs[("in", d, j)] = block
                blocks_read[d] += r
            outputs, _ = execute_schedule(schedule, inputs, bs)
            if not missing and any(
                outputs[("out", d, j)] != inputs[("in", d, j)] for d in (k + 1, k + 2) for j in rows
            ):
                raise IntegrityError("surviving blocks violate the parity relations")
            for d in range(1, k + 1):
                if d in missing:
                    pieces.extend(outputs[("out", d, j)] for j in rows)
                else:
                    pieces.extend(inputs[("in", d, j)] for j in rows)
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
    with ExitStack() as stack:
        handles = {d: stack.enter_context(headers[d][0].open("rb")) for d in rows_by_disk}
        fh = stack.enter_context(out_path.open("wb"))
        fh.write(header.pack())
        for s in range(any_header.stripe_count):
            blocks: dict[tuple[int, int], bytes] = {}
            for d, rows in rows_by_disk.items():
                for row, block in zip(rows, _read_rows(handles[d], any_header, s, rows)):
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
