"""Shard files: one file per disk column, named ``shard_name(disk)``, a
fixed little-endian header followed by r * stripe_count blocks, so a file
of stripes of r blocks; the payload is one of k * r blocks, data disk d's
strip the d-th r.  A shard set is the ``*.mdr`` files of one directory,
each named for the disk its header gives: a file under any other name is
an integrity error, so no shard is ever taken for another disk's.
``block_index`` places each block of such a file, and ``_LaneIO`` moves
chosen blocks between one and lanes, a lane being the same block of
every stripe in a batch of about BATCH_BYTES of stripe data.  Each run of
chosen blocks adjacent in the file is one ``os.preadv`` or ``os.pwritev``
of up to IOV_MAX iovecs, so repair reads exactly the blocks its schedule
reads, and decode those plus every block it outputs or checks.  A write
joins nothing: its iovecs are views, cut once per batch size, of the
buffers the lanes live in for the whole run.  Every shard or output file
is written beside its place and renamed into it only once the whole run
has succeeded.

Encode, decode and repair each ask ``codec.plan`` for their schedule, the
rows they read and the blocks they check, and then differ only in their
source and sink files.  They run one batch loop, ``_run_batches``: each
batch reads the lanes of its sources, runs ``execute_schedule`` on them,
checks the blocks the plan names and writes the lanes of its sinks.  A
block read is written from its source's read buffer, and a block the
schedule outputs from the one buffer of output lanes it is copied into.
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
from functools import lru_cache
from itertools import accumulate, chain
from operator import itemgetter
from pathlib import Path
from typing import BinaryIO, Callable, Collection, Iterator, Sequence

from ._record import record
from .code import DEFAULT_MAX_K, MdrCode, construct
from .codec import IntegrityError, execute_schedule, plan

# unused here, but perfbench/tracer.py wraps these names where shards binds them
from .codec import build_encode_schedule, decode, execute_repair, repair_plan  # noqa: F401

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


@record
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
        if not block_size:
            raise IntegrityError("shard block size is 0")
        if payload_length > block_index(stripe_count, 1, k * r) * block_size:
            raise IntegrityError("payload length exceeds shard-set capacity")
        return header

    def siblings_key(self) -> tuple:
        return (self.k, self.r, self.block_size, self.stripe_count, self.payload_length)

    def file_size(self) -> int:
        return HEADER_SIZE + block_index(self.stripe_count, 1, self.r) * self.block_size

    def lane_io(self, rows: tuple[int, ...] | range) -> _LaneIO:
        """The given rows of shards with this header: files of r blocks per stripe after it."""
        return _LaneIO(HEADER_SIZE, self.r, self.block_size, rows, self.file_size())


def shard_name(disk_index: int) -> str:
    return f"shard_{disk_index:02d}{SHARD_SUFFIX}"


def _open_shard_set(
    stack: ExitStack, directory: Path, code: MdrCode | None
) -> tuple[dict[int, BinaryIO], ShardHeader, MdrCode, tuple[int, ...]]:
    """The shards in a directory as open files by disk (the stack closes
    them), their one header (they agree on every field but the disk index),
    the code they need (the given one, or the built-in construction) and the
    missing disks.  A ``*.mdr`` file is the shard of the disk it is named
    for: its header must give that disk, and its length must be exactly the
    one its header says.  Lanes are read through the same files, so every
    byte used comes from a shard whose header, name and size were checked,
    and each shard is opened once."""
    files: dict[int, BinaryIO] = {}
    header = None
    for path in sorted(directory.glob(f"*{SHARD_SUFFIX}")):
        fh = stack.enter_context(path.open("rb", buffering=0))
        own = ShardHeader.unpack(fh.read(HEADER_SIZE))
        name = shard_name(own.disk_index)
        if path.name != name:
            raise IntegrityError(f"shard {path} holds disk {own.disk_index}, so it must be named {name}")
        size = os.fstat(fh.fileno()).st_size
        expected = own.file_size()
        if size != expected:
            state = "truncated" if size < expected else "longer than its header says"
            raise IntegrityError(f"shard {path} is {state}: {size} bytes, not {expected}")
        if header is None:
            header = own
        elif own.siblings_key() != header.siblings_key():
            raise IntegrityError("shard headers disagree on code parameters")
        files[own.disk_index] = fh
    if header is None:
        if not directory.is_dir():
            raise ValueError(f"no shard directory {directory}")
        raise IntegrityError(f"no shard files found in {directory}")
    k, r = header.k, header.r
    if code is None:
        if not 1 <= k <= DEFAULT_MAX_K:  # construct would call it a bad argument
            raise IntegrityError(f"shard headers give k={k}, outside the built-in codes' [1, {DEFAULT_MAX_K}]")
        code = construct(k)
    if (code.k, code.r) != (k, r):
        raise IntegrityError(f"code is ({code.k},{code.r}) but shards need ({k},{r})")
    missing = tuple(d for d in range(1, k + 3) if d not in files)
    return files, header, code, missing


def _batch_stripes(stripe_count: int, stripe_data_bytes: int) -> int:
    """The stripes in one batch: about BATCH_BYTES of stripe data, at least one
    stripe and at most all of them."""
    return max(1, min(stripe_count, BATCH_BYTES // stripe_data_bytes))


def _cutter(keys: Sequence) -> Callable[[Sequence], tuple]:
    """Cut a buffer, or pick from a tuple, the tuple of its items at the given keys."""
    cut = itemgetter(*keys)
    return cut if len(keys) > 1 else lambda buf: (cut(buf),)


@lru_cache(maxsize=32)
def _shape(per_stripe: int, slots: tuple[int, ...] | range, m: int, size: int, breaks: tuple[int, ...]) -> tuple:
    """How m stripes move between a file of stripes and lanes of m blocks of size bytes,
    lane i holding slot slots[i].  The lanes lie end to end in segments, one from each
    lane in breaks (the first is 0) to the next, each in a buffer of its own.  Returns the
    lanes, as a cutter of a buffer holding all of them; the iovecs, as a cutter of the
    buffers each segment starts; and the transfers as (file offset from the batch's first
    stripe, first iovec, iovec count, byte count).  An iovec spans blocks adjacent both in
    the file and in one segment, so at m = 1 a run of consecutive slots is one iovec."""
    homes = [(g, i - first) for g, first in enumerate(breaks) for i in range(first, (*breaks, len(slots))[g + 1])]
    # lists of ints, which the garbage collector does not track: each segment's iovec
    # starts and stops, each iovec's segment, and each transfer's fields
    starts, stops = [[] for _ in breaks], [[] for _ in breaks]
    segments, offsets, firsts, counts, sizes, end = [], [], [], [], [], None
    for s in range(m):
        for slot, (g, j) in zip(slots, homes):
            at, start = block_index(s, slot, per_stripe) * size, (j * m + s) * size
            if at == end and segments[-1] == g and stops[g][-1] == start:
                stops[g][-1] += size
            else:
                if at != end or counts[-1] == _IOV_MAX:
                    offsets.append(at), firsts.append(len(segments)), counts.append(0), sizes.append(0)
                segments.append(g), starts[g].append(start), stops[g].append(start + size)
                counts[-1] += 1
            sizes[-1] += size
            end = at + size
    lanes = _cutter([slice(i * m * size, (i + 1) * m * size) for i in range(len(slots))])
    moves = tuple(zip(offsets, firsts, counts, sizes))
    cuts = [_cutter(list(map(slice, *spans))) for spans in zip(starts, stops)]
    if len(cuts) == 1:
        return lanes, lambda bases: cuts[0](bases[0]), moves
    taken, order = list(accumulate(map(len, starts), initial=0)), []
    for g in segments:  # each iovec's place among the views of the segments end to end
        order.append(taken[g])
        taken[g] += 1
    in_order = _cutter(order)
    return lanes, lambda bases: in_order(tuple(chain.from_iterable(cut(base) for cut, base in zip(cuts, bases)))), moves


def _split(iovecs: Sequence[memoryview], nbytes: int) -> tuple[list, list]:
    """The views of the first nbytes bytes of iovecs, and of the rest."""
    head, tail = [], []
    for view in iovecs:
        cut = min(len(view), max(0, nbytes))
        head.append(view[:cut]), tail.append(view[cut:])
        nbytes -= len(view)
    return head, tail


class _LaneIO:
    """Chosen slots of files of stripes, moved batch by batch between a file and lanes.
    Such a file holds per_stripe blocks of block_size bytes per stripe after base bytes
    and ends at byte end: past it a read gives zeros and a write is cut off.  Lane i
    holds slot slots[i] of each stripe of a batch.  A read puts a batch's lanes end to
    end in one buffer, made by the process at its first read and sized for that batch:
    a process reads its batches in order, and only a run's last batch is short.  A
    write takes its transfers already cut, by ``transfers``, from the buffers its lanes
    live in for the whole run, and cuts views only where the file ends within them."""

    def __init__(self, base: int, per_stripe: int, block_size: int, slots: tuple[int, ...] | range, end: int):
        self.base, self.per_stripe, self.block_size, self.slots, self.end = base, per_stripe, block_size, slots, end
        self.buf: memoryview | None = None
        self._reads: dict[int, tuple[tuple, list]] = {}
        self.bytes_read = 0

    def transfers(self, m: int, breaks: tuple[int, ...], bases: Sequence[memoryview]) -> list:
        """The (file offset from the batch's first stripe, iovecs, byte count) transfers of a
        batch of m stripes whose lanes lie in segments from the lanes in breaks on, segment g
        in buffer bases[g] (see ``_shape``)."""
        _, iovecs, moves = _shape(self.per_stripe, self.slots, m, self.block_size, breaks)
        views = iovecs(bases)
        return [(at, views[lo : lo + count], nbytes) for at, lo, count, nbytes in moves]

    def read(self, fh: BinaryIO, first: int, m: int) -> tuple:
        """Read stripes first .. first+m-1 of fh into their lanes, returned valid until the next read."""
        if m not in self._reads:
            if self.buf is None:
                self.buf = memoryview(bytearray(len(self.slots) * m * self.block_size))
            lanes = _shape(self.per_stripe, self.slots, m, self.block_size, (0,))[0]
            self._reads[m] = lanes(self.buf), self.transfers(m, (0,), [self.buf])
        lanes, moves = self._reads[m]
        fd, preadv, total = fh.fileno(), os.preadv, 0
        start = self.base + block_index(first, 1, self.per_stripe) * self.block_size
        end = self.end - start
        for at, iovecs, nbytes in moves:
            got = preadv(fd, iovecs, start + at)
            total += got
            if got != nbytes or at + nbytes > end:  # only the end of the file may cut a read short
                if got != max(0, min(nbytes, end - at)):
                    raise IntegrityError(f"{fh.name} was truncated or grew: read to byte {start + at + got}")
                for view in _split(iovecs, got)[1]:  # lanes past the end read as zeros
                    view[:] = bytes(len(view))
        self.bytes_read += total
        return lanes

    def write(self, fh: BinaryIO, first: int, transfers: Sequence[tuple]) -> None:
        """Write the given transfers of stripes first on of fh, up to its end."""
        fd, start = fh.fileno(), self.base + block_index(first, 1, self.per_stripe) * self.block_size
        for at, iovecs, nbytes in transfers:
            if start + at + nbytes > self.end:
                nbytes = max(0, self.end - start - at)
                iovecs = _split(iovecs, nbytes)[0]
            if nbytes and os.pwritev(fd, iovecs, start + at) != nbytes:
                raise OSError(f"short write to {fh.name} at byte {start + at}")


@lru_cache(maxsize=64)
def _blocks(disks: tuple[tuple[int, Sequence[int]], ...]) -> tuple[tuple[int, int], ...]:
    """The (disk, row) block of each lane of (disk, rows) runs."""
    return tuple((d, j) for d, rows in disks for j in rows)


def _payload_disks(k: int, r: int) -> tuple[tuple[int, range], ...]:
    """The payload's lanes as (disk, rows) runs: data disk d's strip is the d-th r slots."""
    return tuple((d, range(1, r + 1)) for d in range(1, k + 1))


def _shard_sink(fh: BinaryIO, header: ShardHeader) -> tuple:
    """fh, with header written, as the sink of every block of the header's disk."""
    fh.write(header.pack())
    rows = range(1, header.r + 1)
    return fh, header.lane_io(rows), ((header.disk_index, rows),)


@contextmanager
def _replace_on_success(path: Path) -> Iterator[BinaryIO]:
    """Write to an unbuffered temporary file beside path, renamed over path
    only if the block completes and removed on any error.  Its name does not
    end in SHARD_SUFFIX, so a half-written shard is never taken for one.  A
    missing directory is reported under path, the only name the caller knows."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        fh = tmp.open("wb", buffering=0)
    except FileNotFoundError as exc:
        raise FileNotFoundError(exc.errno, exc.strerror, str(path)) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _run_batches(planned: tuple, sources: Collection[tuple], sinks: Collection[tuple],
                 stripe_count: int, n: int, block_size: int) -> int:
    """Run a ``codec.plan`` on every batch of up to n stripes and return the XORs executed.

    Sources and sinks are (file, ``_LaneIO``, its lanes as (disk, rows) runs) triples,
    a sink's runs whole disks.  A batch reads every source, runs ``execute_schedule`` on exactly
    the blocks the plan's schedule reads, raises IntegrityError where a block the plan
    checks differs from the one output, and writes every sink from the blocks read or output.
    Each source's ``_LaneIO`` then counts the bytes that every process read through it.

    Every lane a sink writes lies in a buffer a process keeps for its whole run: a disk
    read whole in its source's read buffer, any other in one buffer of output lanes, made
    at the process's first batch, that each batch copies the schedule's outputs into.  So
    each sink's transfers are cut once per batch size, and kept only while a later batch
    of the process can write through them.

    The batches are cut into contiguous ranges, one per process: this process runs
    the first range and a forked child each other one (see ``_forked.run_forked``)."""
    schedule, _, checked = planned
    firsts = range(0, stripe_count, n)
    procs = max(1, min(_PROCESSES, len(firsts)))
    if not hasattr(os, "fork") or threading.active_count() > 1:
        procs = 1  # a forked child holds only the forking thread, and whatever locks the others held
    held = [_blocks(disks) for _, _, disks in sources]
    read_at = {}  # disk: its source, first lane there and rows
    for g, (_, _, disks) in enumerate(sources):
        lane = 0
        for d, rows in disks:
            read_at[d] = g, lane, tuple(rows)
            lane += len(rows)
    # each sink's segments, one from each of its disks on: a disk read whole lies in its
    # source's buffer, any other in the output lanes, the buffer after the sources'
    made, placed = [], []
    for _, _, disks in sinks:
        breaks, starts, lane = [], [], 0
        for d, rows in disks:
            g, at, got = read_at.get(d, (None, 0, ()))
            if got != tuple(rows):
                g, at = len(held), len(made)
                made.extend((d, j) for j in rows)
            breaks.append(lane)
            starts.append((g, at))
            lane += len(rows)
        placed.append((tuple(breaks), starts))

    def run_range(i: int) -> tuple[int, list[int]]:
        xors, out, cut = 0, None, {}  # cut: by batch size, each sink's transfers
        mine = firsts[len(firsts) * i // procs : len(firsts) * (i + 1) // procs]
        for first in mine:
            m, lanes = min(n, stripe_count - first), {}
            for (fh, io, _), blocks in zip(sources, held):
                lanes.update(zip(blocks, io.read(fh, first, m)))
            # sources cover the reads, so as many lanes as reads are exactly them
            inputs = lanes if len(lanes) == len(schedule.reads) else {b: lanes[b] for b in schedule.reads}
            outputs, executed = execute_schedule(schedule, inputs, block_size)
            # bytes against a memoryview compares byte by byte in Python; tobytes() makes it a memcmp
            if any(outputs[b] != lanes[b].tobytes() for b in checked):
                raise IntegrityError("surviving blocks violate the parity relations")
            span = m * block_size
            if out is None:
                out = memoryview(bytearray(len(made) * span))
            for j, b in enumerate(made):
                out[j * span : (j + 1) * span] = outputs[b]
            transfers = cut.get(m)
            if transfers is None:  # cut each sink's just before its write
                bufs = [io.buf for _, io, _ in sources] + [out]
                transfers = (io.transfers(m, breaks, [bufs[g][j * span :] for g, j in starts])
                             for (_, io, _), (breaks, starts) in zip(sinks, placed))
                if first != mine[-1]:  # and keep them for the batches after, which write through the same views
                    transfers = cut[m] = list(transfers)
            for (fh, io, _), moves in zip(sinks, transfers):
                io.write(fh, first, moves)
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


@record
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
    planned = plan(code, (k + 1, k + 2), (k + 1, k + 2))
    stripe_bytes = k * r * block_size

    out = Path(out_dir)
    paths = [out / shard_name(d) for d in range(1, k + 3)]
    for path in sorted(out.glob(f"*{SHARD_SUFFIX}")):  # any other shard left beside the new set stops it decoding
        if path not in paths:
            raise ValueError(f"{out} holds {path.name}, which is no shard of a k={k} set; remove it or encode elsewhere")
    with ExitStack() as stack:
        src = stack.enter_context(Path(input_path).open("rb", buffering=0))
        out.mkdir(parents=True, exist_ok=True)  # once the input is open: a failed open makes none
        payload_length = os.fstat(src.fileno()).st_size
        stripe_count = (payload_length + stripe_bytes - 1) // stripe_bytes
        sinks = [_shard_sink(stack.enter_context(_replace_on_success(p)),
                             ShardHeader(k, r, d, block_size, stripe_count, payload_length))
                 for d, p in enumerate(paths, start=1)]
        source = (src, _LaneIO(0, k * r, block_size, range(1, k * r + 1), payload_length), _payload_disks(k, r))
        xor_total = _run_batches(planned, [source], sinks, stripe_count,
                                 _batch_stripes(stripe_count, stripe_bytes), block_size)
    return EncodeReport(stripe_count, xor_total, tuple(str(p) for p in paths))


@record
class DecodeReport:
    missing: tuple[int, ...]
    stripe_count: int
    payload_length: int
    blocks_read_per_shard: dict[int, int]
    bytes_read_per_shard: dict[int, int]
    xor_count: int


def _run_from_shards(files: dict[int, BinaryIO], header: ShardHeader, planned: tuple, sink: tuple) -> tuple:
    """Run a ``codec.plan`` on every batch of the stripes of the shard set in files,
    reading the rows it names of each disk and writing the sink, a (file, ``_LaneIO``,
    runs) triple as ``_run_batches`` takes.  Returns the blocks and the bytes read
    from each shard in files, as the reads returned them, and the XORs executed."""
    bs, stripe_count = header.block_size, header.stripe_count
    n = _batch_stripes(stripe_count, header.k * header.r * bs)
    _, rows, _ = planned
    sources = {d: (files[d], header.lane_io(js), ((d, js),)) for d, js in rows.items()}
    xor_total = _run_batches(planned, sources.values(), [sink], stripe_count, n, bs)
    nbytes = {d: sources[d][1].bytes_read if d in sources else 0 for d in files}
    return {d: b // bs for d, b in nbytes.items()}, nbytes, xor_total


def decode_file(
    shard_dir: str | os.PathLike,
    out_path: str | os.PathLike,
    code: MdrCode | None = None,
) -> DecodeReport:
    """Rebuild the original file, tolerating up to two missing shards.

    With no data shard missing the surviving P and Q are still checked
    against the data batch by batch, so silent corruption is reported
    instead of propagated.  The output appears only once every stripe has
    been decoded, and never as a shard file of the set itself.
    """
    out_path = Path(out_path)
    try:  # only a *.mdr name is read back as a shard, and a missing directory holds none
        clash = out_path.name.endswith(SHARD_SUFFIX) and os.path.samefile(out_path.parent, shard_dir)
    except OSError:
        clash = False
    if clash:
        raise ValueError(f"output {out_path} would be taken for a shard of {shard_dir}; write it elsewhere")
    with ExitStack() as stack:
        files, header, code, missing = _open_shard_set(stack, Path(shard_dir), code)
        k, r = header.k, header.r
        if len(missing) > 2:
            raise TooManyErasuresError(f"{len(missing)} shards missing; RAID-6 tolerates at most 2")
        planned = plan(code, missing, tuple(range(1, k + 1)))
        out = stack.enter_context(_replace_on_success(out_path))
        payload = _LaneIO(0, k * r, header.block_size, range(1, k * r + 1), header.payload_length)
        counts = _run_from_shards(files, header, planned, (out, payload, _payload_disks(k, r)))
    return DecodeReport(missing, header.stripe_count, header.payload_length, *counts)


@record
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
        files, header, code, missing = _open_shard_set(stack, directory, code)
        k, r = header.k, header.r
        if missing_index is not None and not 1 <= missing_index <= k + 2:
            raise ValueError(f"disk index {missing_index} outside [1, {k + 2}]")
        if not missing:
            present = "" if missing_index is None else f"shard {missing_index} is present; "
            raise ValueError(f"{present}no shard is missing, so there is nothing to repair")
        if len(missing) != 1:
            raise TooManyErasuresError(
                f"repair needs exactly one missing shard, found {len(missing)}; "
                "use decode for multi-shard loss"
            )
        if missing_index is not None and missing_index != missing[0]:
            raise ValueError(f"shard {missing_index} is present; the missing shard is {missing[0]}")
        failed = missing[0]
        out_path = directory / shard_name(failed)
        planned = plan(code, missing, missing)
        fh = stack.enter_context(_replace_on_success(out_path))
        own = ShardHeader(k, r, failed, header.block_size, header.stripe_count, header.payload_length)
        counts = _run_from_shards(files, header, planned, _shard_sink(fh, own))
    return RepairReport(failed, str(out_path), header.stripe_count, *counts)
