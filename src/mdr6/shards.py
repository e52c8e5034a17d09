"""Shard files: one file per disk column, a fixed little-endian header
followed by r * stripe_count blocks.

Encode, decode and repair run their XOR schedule once per batch of
stripes, over lanes: one lane is the same (disk, row) block of every
stripe in the batch, laid end to end.  A batch holds about BATCH_BYTES of
stripe data, so memory is bounded by the batch and not by the file.
Repair reads exactly the blocks its schedule reads, and decode those plus
every block it outputs or checks; each lane goes to the schedule keyed by
its (disk, row).  Every shard or output file is written beside its place
and renamed into it only once the whole run has succeeded.
"""

from __future__ import annotations

import os
import struct
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, Sequence

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
# stripe data (k * r blocks per stripe) per batch; a batch holds at least one stripe
BATCH_BYTES = 1 << 20
_IOV_MAX = os.sysconf("SC_IOV_MAX")


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


def _open_shard_set(
    stack: ExitStack, directory: Path, code: MdrCode | None
) -> tuple[dict[int, tuple[BinaryIO, ShardHeader]], ShardHeader, MdrCode, tuple[int, ...]]:
    """The shards in a directory by disk, each as the open file its header
    was read from (the stack closes it), one of their headers (they agree
    on every field but the disk index), the code they need (the given
    one, or the built-in construction) and the missing disks.  Each file
    must be exactly as long as its header says.  Lanes are read through
    the same files, so every byte used comes from a shard whose header
    and size were checked, and each shard is opened once."""
    headers: dict[int, tuple[BinaryIO, ShardHeader]] = {}
    for path in sorted(directory.glob(f"*{SHARD_SUFFIX}")):
        fh = stack.enter_context(path.open("rb", buffering=0))
        header = ShardHeader.unpack(fh.read(HEADER_SIZE))
        size = os.fstat(fh.fileno()).st_size
        expected = HEADER_SIZE + header.stripe_count * header.r * header.block_size
        if size != expected:
            state = "truncated" if size < expected else "longer than its header says"
            raise IntegrityError(f"shard {path} is {state}: {size} bytes, not {expected}")
        if header.disk_index in headers:
            raise IntegrityError(f"duplicate shard for disk {header.disk_index}")
        headers[header.disk_index] = (fh, header)
    if not headers:
        raise IntegrityError(f"no shard files found in {directory}")
    keys = {h.siblings_key() for _, h in headers.values()}
    if len(keys) > 1:
        raise IntegrityError("shard headers disagree on code parameters")
    any_header = next(iter(headers.values()))[1]
    k, r = any_header.k, any_header.r
    if code is None:
        code = construct(k)
    if (code.k, code.r) != (k, r):
        raise IntegrityError(
            f"code is ({code.k},{code.r}) but shards need ({k},{r})"
        )
    missing = tuple(d for d in range(1, k + 3) if d not in headers)
    return headers, any_header, code, missing


def _batch_stripes(stripe_count: int, stripe_data_bytes: int) -> int:
    """Stripes per batch: about BATCH_BYTES of stripe data, at least one
    stripe and at most all of them."""
    return max(1, min(stripe_count, BATCH_BYTES // stripe_data_bytes))


@lru_cache(maxsize=16)
def _cutter(count: int, size: int) -> Callable[[memoryview], tuple]:
    """Split a buffer into a tuple of its first count blocks of size bytes."""
    cut = itemgetter(*(slice(i * size, (i + 1) * size) for i in range(count)))
    return cut if count > 1 else lambda buf: (cut(buf),)


def _interleave(lanes: Sequence[bytes], m: int, size: int) -> bytes:
    """The blocks of m stripes in file order: block s of every lane in
    turn, for s in range(m)."""
    if m == 1:
        return b"".join(lanes)
    cut = _cutter(m, size)
    return b"".join(chain.from_iterable(zip(*(cut(memoryview(lane)) for lane in lanes))))


def _deinterleave(data: bytes, lanes: int, m: int, size: int) -> list[bytes]:
    """Undo ``_interleave``: split m * lanes blocks in file order into lanes."""
    blocks = _cutter(m * lanes, size)(memoryview(data))
    if m == 1:
        return list(blocks)
    return [b"".join(blocks[i::lanes]) for i in range(lanes)]


@contextmanager
def _replace_on_success(path: Path) -> Iterator[BinaryIO]:
    """Write to a temporary file beside path, renamed over path only if the
    block completes and removed on any error.  Its name does not end in
    SHARD_SUFFIX, so a half-written shard is never taken for a shard."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with tmp.open("wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# (offset in the batch, the lane blocks it fills, their byte count)
_Read = tuple[int, list[memoryview], int]


class _LaneReader:
    """Reads chosen rows of one shard, batch by batch, each row into its
    own lane.  Every run of wanted blocks that lie next to each other in
    the file is one ``os.preadv`` that scatters each block straight to its
    place in its lane, so exactly the wanted bytes are read."""

    def __init__(self, fh: BinaryIO, header: ShardHeader, rows: Sequence[int], n: int):
        self.fh = fh
        self.r, self.block_size = header.r, header.block_size
        self.rows, self.n = rows, n
        # lane i (row rows[i]) holds block s of the batch at block i*n + s
        buf = memoryview(bytearray(len(rows) * n * self.block_size))
        self._lanes = _cutter(len(rows), n * self.block_size)(buf)
        self._blocks = _cutter(len(rows) * n, self.block_size)(buf)
        self._layouts: dict[int, tuple[list[_Read], dict[int, memoryview]]] = {}
        self.bytes_read = 0

    def _layout(self, m: int) -> tuple[list[_Read], dict[int, memoryview]]:
        """The reads of a batch of m stripes, and its lanes by row."""
        bs, n, rows = self.block_size, self.n, self.rows
        row_runs: list[list[int]] = []  # [i, count]: rows[i : i + count] are consecutive
        for i, j in enumerate(rows):
            if i and rows[i - 1] == j - 1:
                row_runs[-1][1] += 1
            else:
                row_runs.append([i, 1])
        runs: list[tuple[int, list[memoryview]]] = []
        end = -1
        for s in range(m):
            for i, count in row_runs:
                offset = (s * self.r + rows[i] - 1) * bs
                blocks = self._blocks[i * n + s : (i + count) * n : n]
                if offset == end:  # continues the previous run, as whole strips do
                    runs[-1][1].extend(blocks)
                else:
                    runs.append((offset, list(blocks)))
                end = offset + count * bs
        reads: list[_Read] = []
        for offset, blocks in runs:
            for i in range(0, len(blocks), _IOV_MAX):
                part = blocks[i : i + _IOV_MAX]
                reads.append((offset + i * bs, part, len(part) * bs))
        lanes = self._lanes if m == n else [lane[: m * bs] for lane in self._lanes]
        return reads, dict(zip(rows, lanes))

    def read(self, first: int, m: int) -> dict[int, memoryview]:
        """Read stripes first .. first+m-1 (m at most the batch size) and
        return their lanes by row, valid until the next read."""
        layout = self._layouts.get(m)
        if layout is None:
            layout = self._layouts[m] = self._layout(m)
        reads, lanes = layout
        fd, preadv = self.fh.fileno(), os.preadv
        base = HEADER_SIZE + first * self.r * self.block_size
        total = 0
        for offset, blocks, nbytes in reads:
            got = preadv(fd, blocks, base + offset)
            if got != nbytes:
                stripe = first + (offset + got) // (self.r * self.block_size)
                raise IntegrityError(f"shard {self.fh.name} truncated at stripe {stripe}")
            total += got
        self.bytes_read += total
        return lanes


def _read_lanes(readers: dict[int, _LaneReader], first: int, m: int) -> dict[tuple[int, int], memoryview]:
    return {(d, j): lane for d, reader in readers.items() for j, lane in reader.read(first, m).items()}


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
    """Shard a file into k+2 shard files, parities via the optimal schedule.

    The shards appear only once every stripe has been encoded."""
    if code is None:
        code = construct(k)
    if code.k != k:
        raise ValueError("supplied code does not match k")
    r = code.r
    schedule = build_encode_schedule(code)
    strip_bytes = r * block_size
    stripe_bytes = k * strip_bytes

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / shard_name(d) for d in range(1, k + 3)]
    xor_total = 0
    with ExitStack() as stack:
        src = stack.enter_context(Path(input_path).open("rb"))
        payload_length = os.fstat(src.fileno()).st_size
        stripe_count = (payload_length + stripe_bytes - 1) // stripe_bytes
        handles = [stack.enter_context(_replace_on_success(p)) for p in paths]
        for d, fh in enumerate(handles, start=1):
            fh.write(ShardHeader(k, r, d, block_size, stripe_count, payload_length).pack())
        n = _batch_stripes(stripe_count, stripe_bytes)
        for first in range(0, stripe_count, n):
            m = min(n, stripe_count - first)
            # data disk d stores the d-th strip of r blocks of each stripe;
            # the last stripe is zero-padded
            chunk = src.read(m * stripe_bytes).ljust(m * stripe_bytes, b"\x00")
            inputs = {}
            for d, strips in enumerate(_deinterleave(chunk, k, m, strip_bytes), start=1):
                handles[d - 1].write(strips)
                for j, lane in enumerate(_deinterleave(strips, r, m, block_size), start=1):
                    inputs[(d, j)] = lane
            outputs, executed = execute_schedule(schedule, inputs, block_size)
            xor_total += executed
            for d in (k + 1, k + 2):
                column = [outputs[(d, j)] for j in range(1, r + 1)]
                handles[d - 1].write(_interleave(column, m, block_size))
    return EncodeReport(stripe_count, xor_total, tuple(str(p) for p in paths))


@dataclass(frozen=True)
class DecodeReport:
    missing: tuple[int, ...]
    stripe_count: int
    payload_length: int
    blocks_read_per_shard: dict[int, int]
    bytes_read_per_shard: dict[int, int]
    xor_count: int


def _read_counts(
    headers: dict[int, tuple[BinaryIO, ShardHeader]], readers: dict[int, _LaneReader], block_size: int
) -> tuple[dict[int, int], dict[int, int]]:
    """Blocks and bytes read from every surviving shard, as the reads returned them."""
    nbytes = {d: readers[d].bytes_read if d in readers else 0 for d in headers}
    return {d: n // block_size for d, n in nbytes.items()}, nbytes


def decode_file(
    shard_dir: str | os.PathLike,
    out_path: str | os.PathLike,
    code: MdrCode | None = None,
) -> DecodeReport:
    """Rebuild the original file, tolerating up to two missing shards.

    With no data shard missing the surviving P and Q are still checked
    against the data batch by batch, so silent corruption is reported
    instead of propagated.  The output appears only once every stripe has
    been decoded.
    """
    with ExitStack() as stack:
        headers, any_header, code, missing = _open_shard_set(stack, Path(shard_dir), code)
        k, r, bs = any_header.k, any_header.r, any_header.block_size
        if len(missing) > 2:
            raise TooManyErasuresError(
                f"{len(missing)} shards missing; RAID-6 tolerates at most 2"
            )
        # with no data shard missing, nothing is rebuilt, so re-encoding checks
        # every surviving parity instead
        checked = ()
        if all(d > k for d in missing):
            checked = tuple(d for d in (k + 1, k + 2) if d in headers)
        schedule = build_encode_schedule(code) if checked else build_decode_schedule(code, missing)
        rows = tuple(range(1, r + 1))
        # every block of a surviving data disk is output; of P and Q, read only
        # what the schedule uses, or all of each checked one
        wanted = {d: rows for d in headers if d <= k or d in checked}
        for d, used in schedule.rows_by_disk.items():
            wanted.setdefault(d, used)
        stripe_count, left = any_header.stripe_count, any_header.payload_length
        n = _batch_stripes(stripe_count, k * r * bs)
        xor_total = 0
        readers = {d: _LaneReader(*headers[d], used, n) for d, used in wanted.items()}
        sink = stack.enter_context(_replace_on_success(Path(out_path)))
        for first in range(0, stripe_count, n):
            m = min(n, stripe_count - first)
            lanes = _read_lanes(readers, first, m)
            outputs, executed = execute_schedule(schedule, {block: lanes[block] for block in schedule.reads}, bs)
            xor_total += executed
            # bytes against a memoryview compares byte by byte in Python; tobytes() makes it a memcmp
            if any(outputs[(d, j)] != lanes[(d, j)].tobytes() for d in checked for j in rows):
                raise IntegrityError("surviving blocks violate the parity relations")
            data = [
                outputs[(d, j)] if d in missing else lanes[(d, j)]
                for d in range(1, k + 1)
                for j in rows
            ]
            chunk = memoryview(_interleave(data, m, bs))[:left]
            sink.write(chunk)
            left -= len(chunk)
    blocks_read, bytes_read = _read_counts(headers, readers, bs)
    return DecodeReport(
        missing, stripe_count, any_header.payload_length, blocks_read, bytes_read, xor_total
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
    """Regenerate exactly one missing shard, reading only the blocks its
    rebuild schedule reads.

    The shard appears only once every stripe has been rebuilt."""
    directory = Path(shard_dir)
    with ExitStack() as stack:
        headers, any_header, code, missing = _open_shard_set(stack, directory, code)
        k, r, bs = any_header.k, any_header.r, any_header.block_size
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
        schedule = repair_plan(code, failed)
        stripe_count = any_header.stripe_count
        header = ShardHeader(k, r, failed, bs, stripe_count, any_header.payload_length)
        out_path = directory / shard_name(failed)
        n = _batch_stripes(stripe_count, k * r * bs)
        xor_total = 0
        readers = {d: _LaneReader(*headers[d], rows, n) for d, rows in schedule.rows_by_disk.items()}
        fh = stack.enter_context(_replace_on_success(out_path))
        fh.write(header.pack())
        for first in range(0, stripe_count, n):
            m = min(n, stripe_count - first)
            column, executed = execute_repair(schedule, _read_lanes(readers, first, m), bs)
            xor_total += executed
            fh.write(_interleave(column, m, bs))
    blocks_read, bytes_read = _read_counts(headers, readers, bs)
    return RepairReport(failed, str(out_path), stripe_count, blocks_read, bytes_read, xor_total)
