"""Shard files: one file per disk column, a fixed little-endian header
followed by r * stripe_count blocks, so a file of stripes of r blocks;
the payload is one of k * r blocks, data disk d's strip the d-th r.
``block_index`` places each block of such a file, and ``_LaneIO`` moves
chosen blocks between one and lanes, a lane being the same block of
every stripe in a batch of about BATCH_BYTES of stripe data.  Each run of
chosen blocks adjacent in the file is one ``os.preadv`` or ``os.pwritev``,
so repair reads exactly the blocks its schedule reads, and decode those
plus every block it outputs or checks.  Every shard or output file is
written beside its place and renamed into it only once the whole run has
succeeded.

Encode, decode and repair run one batch loop, ``_run_batches``: each batch
reads the lanes of its source files, runs ``execute_schedule`` on them,
checks the blocks decode re-encodes and writes the lanes of its sink files.
A run of several batches is split into contiguous ranges of batches, one
per process, up to one per CPU this process may run on (``_PROCESSES``):
the caller runs the first range and a forked child each other one, all
through the files already opened and checked, each moving its own stripes
at their own offsets with its own lane buffers.  A child hands back its
XOR and read-byte counts, or its exception, through shared memory, and the
reports sum every process's counts.  A run of one batch, a threaded
caller or a platform without ``os.fork`` runs in one process.
"""

from __future__ import annotations

import os
import struct
import threading
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from pathlib import Path
from typing import BinaryIO, Callable, Collection, Iterator, Sequence

from .code import MdrCode, construct
from .codec import (
    IntegrityError,
    XorSchedule,
    build_decode_schedule,
    build_encode_schedule,
    decode,  # noqa: F401  unused here, but perfbench/tracer.py wraps mdr6.shards.decode
    execute_repair,  # noqa: F401  unused here, but perfbench/tracer.py wraps mdr6.shards.execute_repair
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
# processes a run of several batches is split across, at most one per batch
_PROCESSES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


class TooManyErasuresError(Exception):
    """More shards are missing than the requested operation tolerates."""


def block_index(stripe: int, slot: int, per_stripe: int) -> int:
    """Block ``slot`` (from 1) of a stripe (from 0) of a file of stripes of
    per_stripe blocks, counted in blocks from the file's body.  Format v1 lays stripes
    end to end; batches move by offsets from stripe 0, so a layout must repeat per stripe."""
    return stripe * per_stripe + slot - 1


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
        if payload_length > block_index(stripe_count, 1, k * r) * block_size:
            raise IntegrityError("payload length exceeds shard-set capacity")
        return header

    def siblings_key(self) -> tuple:
        return (self.k, self.r, self.block_size, self.stripe_count, self.payload_length)

    def file_size(self) -> int:
        return HEADER_SIZE + block_index(self.stripe_count, 1, self.r) * self.block_size

    def lane_io(self, rows: tuple[int, ...] | range, n: int) -> _LaneIO:
        """The given rows of shards with this header: files of r blocks per stripe after it."""
        return _LaneIO(HEADER_SIZE, self.r, self.block_size, rows, n, self.file_size())


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
        expected = header.file_size()
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


def _cutter(slices: Sequence[slice]) -> Callable[[memoryview], tuple]:
    """Cut a buffer into the tuple of its given slices."""
    cut = itemgetter(*slices)
    return cut if len(slices) > 1 else lambda buf: (cut(buf),)


@lru_cache(maxsize=32)
def _shape(per_stripe: int, slots: tuple[int, ...] | range, m: int, size: int) -> tuple:
    """How m stripes move between a file of stripes and lanes of m blocks of size bytes
    end to end in a buffer, lane i holding slot slots[i]: the lanes and iovecs, as cutters
    of the buffer, and the transfers as (file offset from the batch's first stripe, first
    iovec, iovec count, byte count).  An iovec spans blocks adjacent both in the file
    and in the buffer, so at m = 1 a run of consecutive slots is one iovec."""
    iovecs, moves, end = [], [], None  # [start, end] in the buffer; [file offset, first iovec, iovecs, bytes]
    for s in range(m):
        for i, slot in enumerate(slots):
            at, start = block_index(s, slot, per_stripe) * size, (i * m + s) * size
            if at == end and iovecs[-1][1] == start:
                iovecs[-1][1] += size
            else:
                if at != end or moves[-1][2] == _IOV_MAX:
                    moves.append([at, len(iovecs), 0, 0])
                iovecs.append([start, start + size])
                moves[-1][2] += 1
            moves[-1][3] += size
            end = at + size
    lanes = [slice(i * m * size, (i + 1) * m * size) for i in range(len(slots))]
    return _cutter(lanes), _cutter([slice(*span) for span in iovecs]), tuple(map(tuple, moves))


class _LaneIO:
    """Chosen slots of files of stripes, moved batch by batch between a file and lanes
    of up to n stripes.  Such a file holds per_stripe blocks of block_size bytes per
    stripe after base bytes and ends at byte end: past it a read gives zeros and a
    write is cut off.  Lane i holds slot slots[i] of each stripe of a batch, and a
    batch's lanes lie end to end in one buffer that every transfer reuses."""

    def __init__(self, base: int, per_stripe: int, block_size: int,
                 slots: tuple[int, ...] | range, n: int, end: int):
        self.base, self.per_stripe, self.block_size, self.slots, self.end = base, per_stripe, block_size, slots, end
        self.buf = memoryview(bytearray(len(slots) * n * block_size))
        self._batches: dict[int, tuple[Callable, list]] = {}
        self.bytes_read = 0

    def _transfers(self, m: int) -> tuple[Callable, list[tuple[int, tuple, int]]]:
        """The lane cutter and (file offset, iovecs, byte count) transfers of m stripes."""
        if m not in self._batches:
            lanes, iovecs, moves = _shape(self.per_stripe, self.slots, m, self.block_size)
            views = iovecs(self.buf)
            self._batches[m] = lanes, [(at, views[lo : lo + count], nbytes) for at, lo, count, nbytes in moves]
        return self._batches[m]

    def read(self, fh: BinaryIO, first: int, m: int) -> tuple:
        """Read stripes first .. first+m-1 of fh into their lanes, returned valid until the next transfer."""
        lanes, moves = self._transfers(m)
        fd, preadv, total = fh.fileno(), os.preadv, 0
        start = self.base + block_index(first, 1, self.per_stripe) * self.block_size
        end = self.end - start
        if end < block_index(m, 1, self.per_stripe) * self.block_size:  # lanes past the end read as zeros
            self.buf[:] = bytes(len(self.buf))
        for at, iovecs, nbytes in moves:
            got = preadv(fd, iovecs, start + at)
            total += got
            # only the end of the file may cut a read short
            if (got != nbytes or at + nbytes > end) and got != max(0, min(nbytes, end - at)):
                raise IntegrityError(f"{fh.name} was truncated or grew: read to byte {start + at + got}")
        self.bytes_read += total
        return lanes(self.buf)

    def write(self, fh: BinaryIO, first: int, m: int, lanes: Sequence[bytes]) -> None:
        """Write stripes first .. first+m-1 of fh, up to its end, from their lanes in slot order."""
        self.buf[: len(lanes) * m * self.block_size] = b"".join(lanes)
        fd, start = fh.fileno(), self.base + block_index(first, 1, self.per_stripe) * self.block_size
        for at, iovecs, nbytes in self._transfers(m)[1]:
            if start + at + nbytes > self.end:
                iovecs = [b"".join(iovecs)[: max(0, self.end - start - at)]]
                nbytes = len(iovecs[0])
            if os.pwritev(fd, iovecs, start + at) != nbytes:
                raise OSError(f"short write to {fh.name} at byte {start + at}")


@lru_cache(maxsize=16)
def _payload_blocks(k: int, r: int) -> tuple[tuple[int, int], ...]:
    """The (disk, row) block in each payload slot: data disk d's strip is the d-th r slots."""
    return tuple((d, j) for d in range(1, k + 1) for j in range(1, r + 1))


@contextmanager
def _replace_on_success(path: Path) -> Iterator[BinaryIO]:
    """Write to an unbuffered temporary file beside path, renamed over path
    only if the block completes and removed on any error.  Its name does not
    end in SHARD_SUFFIX, so a half-written shard is never taken for one."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with tmp.open("wb", buffering=0) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _run_batches(schedule: XorSchedule, sources: Collection[tuple], sinks: Collection[tuple],
                 checked: Collection[tuple[int, int]], stripe_count: int, n: int, block_size: int) -> int:
    """Run schedule on every batch of up to n stripes and return the XORs executed.

    Sources and sinks are (file, ``_LaneIO``, the (disk, row) block of each of its
    lanes) triples.  A batch reads every source, runs ``execute_schedule`` on exactly
    the blocks the schedule reads, raises IntegrityError where a checked block read
    differs from the one output, and writes every sink from the blocks read or output.
    Each source's ``_LaneIO`` then counts the bytes that every process read through it.

    The batches are cut into contiguous ranges, one per process: this process runs
    the first range and a forked child each other one (see ``_forked.run_forked``)."""
    firsts = range(0, stripe_count, n)
    procs = max(1, min(_PROCESSES, len(firsts)))
    if not hasattr(os, "fork") or threading.active_count() > 1:
        procs = 1  # a forked child holds only the forking thread, and whatever locks the others held

    def run_range(i: int) -> tuple[int, list[int]]:
        xors = 0
        for first in firsts[len(firsts) * i // procs : len(firsts) * (i + 1) // procs]:
            m, lanes = min(n, stripe_count - first), {}
            for fh, io, blocks in sources:
                lanes.update(zip(blocks, io.read(fh, first, m)))
            # sources cover the reads, so as many lanes as reads are exactly them
            inputs = lanes if len(lanes) == len(schedule.reads) else {b: lanes[b] for b in schedule.reads}
            outputs, executed = execute_schedule(schedule, inputs, block_size)
            # bytes against a memoryview compares byte by byte in Python; tobytes() makes it a memcmp
            if any(outputs[b] != lanes[b].tobytes() for b in checked):
                raise IntegrityError("surviving blocks violate the parity relations")
            lanes.update(outputs)
            for fh, io, blocks in sinks:
                io.write(fh, first, m, [lanes[b] for b in blocks])
            xors += executed
        return xors, [io.bytes_read for _, io, _ in sources]  # a child's own: it forked before any read

    if procs == 1:
        return run_range(0)[0]
    from ._forked import run_forked  # pickle, mmap and signal load only for a split run

    results = run_forked(run_range, procs)
    for _, bytes_read in results[1:]:
        for (_, io, _), nbytes in zip(sources, bytes_read):
            io.bytes_read += nbytes
    return sum(xors for xors, _ in results)


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
    if not 1 <= block_size < 1 << 32:  # the header stores it in 32 bits
        raise ValueError(f"block size {block_size} outside [1, {(1 << 32) - 1}]")
    if code is None:
        code = construct(k)
    if code.k != k:
        raise ValueError("supplied code does not match k")
    r = code.r
    schedule = build_encode_schedule(code)
    stripe_bytes = k * r * block_size

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / shard_name(d) for d in range(1, k + 3)]
    with ExitStack() as stack:
        src = stack.enter_context(Path(input_path).open("rb", buffering=0))
        payload_length = os.fstat(src.fileno()).st_size
        stripe_count = (payload_length + stripe_bytes - 1) // stripe_bytes
        n = _batch_stripes(stripe_count, stripe_bytes)
        payload = _LaneIO(0, k * r, block_size, range(1, k * r + 1), n, payload_length)
        handles = [stack.enter_context(_replace_on_success(p)) for p in paths]
        for d, fh in enumerate(handles, start=1):
            header = ShardHeader(k, r, d, block_size, stripe_count, payload_length)
            fh.write(header.pack())
        shard = header.lane_io(range(1, r + 1), n)  # every shard has the same layout
        sinks = [(fh, shard, [(d, j) for j in range(1, r + 1)]) for d, fh in enumerate(handles, start=1)]
        source = (src, payload, _payload_blocks(k, r))
        xor_total = _run_batches(schedule, [source], sinks, (), stripe_count, n, block_size)
    return EncodeReport(stripe_count, xor_total, tuple(str(p) for p in paths))


@dataclass(frozen=True)
class DecodeReport:
    missing: tuple[int, ...]
    stripe_count: int
    payload_length: int
    blocks_read_per_shard: dict[int, int]
    bytes_read_per_shard: dict[int, int]
    xor_count: int


def _read_counts(headers: dict, sources: dict[int, tuple], block_size: int) -> tuple[dict, dict]:
    """Blocks and bytes read from every surviving shard, as the reads returned them."""
    nbytes = {d: sources[d][1].bytes_read if d in sources else 0 for d in headers}
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
        rows = range(1, r + 1)
        # every block of a surviving data disk is output; of P and Q, read only
        # what the schedule uses, or all of each checked one
        wanted = {d: rows for d in headers if d <= k or d in checked}
        for d, used in schedule.rows_by_disk.items():
            wanted.setdefault(d, used)
        stripe_count = any_header.stripe_count
        n = _batch_stripes(stripe_count, k * r * bs)
        sources = {d: (headers[d][0], headers[d][1].lane_io(js, n), [(d, j) for j in js]) for d, js in wanted.items()}
        sink = stack.enter_context(_replace_on_success(Path(out_path)))
        payload = _LaneIO(0, k * r, bs, range(1, k * r + 1), n, any_header.payload_length)
        checked_blocks = [(d, j) for d in checked for j in rows]
        xor_total = _run_batches(schedule, sources.values(), [(sink, payload, _payload_blocks(k, r))], checked_blocks,
                                 stripe_count, n, bs)
    blocks_read, bytes_read = _read_counts(headers, sources, bs)
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
        sources = {d: (headers[d][0], headers[d][1].lane_io(js, n), [(d, j) for j in js])
                   for d, js in schedule.rows_by_disk.items()}
        fh = stack.enter_context(_replace_on_success(out_path))
        fh.write(header.pack())
        shard = (fh, header.lane_io(range(1, r + 1), n), sorted(schedule.writes))
        xor_total = _run_batches(schedule, sources.values(), [shard], (), stripe_count, n, bs)
    blocks_read, bytes_read = _read_counts(headers, sources, bs)
    return RepairReport(failed, str(out_path), stripe_count, blocks_read, bytes_read, xor_total)
