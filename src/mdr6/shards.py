"""Shard files: one file per disk column, named ``shard_name(disk)``, a
fixed little-endian header followed by r * stripe_count blocks, so a file
of stripes of r blocks; the payload is one of k * r blocks, data disk d's
strip the d-th r.  A shard set is the ``*.mdr`` files of one directory,
each named for the disk its header gives: a file under any other name is
an integrity error, so no shard is ever taken for another disk's.

Every file of stripes is described once, as (file, body offset, file end,
(disk, rows) runs), and ``_shape`` lays out each set of them: the lanes, a
lane being the same block of every stripe in a batch of about BATCH_BYTES
of stripe data, and each file's transfers, ``block_index`` placing every
block.  Each run of blocks adjacent in the file is one ``os.preadv`` or
``os.pwritev`` (``_read``, ``_write``) of up to IOV_MAX iovecs and
``_RW_MAX`` bytes, so repair reads exactly the blocks its schedule reads,
and decode those plus every block it outputs or checks.  A read or a write
joins nothing: its iovecs are views, cut once per batch size, of the lanes
themselves.  Every shard or output file is written beside its place and
renamed into it only once the whole run has succeeded.

Encode, decode and repair each ask ``codec.plan`` for their schedule, the
rows they read and the blocks they check, and then differ only in their
source and sink files.  They run one batch loop, ``_run_batches``: each
batch reads the lanes of its sources, runs ``execute_schedule`` on them,
checks the blocks the plan names and writes the lanes of its sinks.  The
lanes live in the calling thread's lane arena, one shared mapping kept
across calls, every block at its lane's offset.  A run of several batches
and at least ``_SPLIT_BYTES`` of stripe data is split across processes, up
to one per CPU this process may run on (``_PROCESSES``): the caller and a
forked child per other CPU each claim the next batch no process has taken,
until none is left, all through the files already opened and checked, each
in its own part of the arena.  Each process hands back its XOR and
read-byte counts (a child its exception, too) through shared memory, and
the reports sum them.  A smaller run, a threaded caller or a platform
without ``os.fork`` or ``os.memfd_create`` runs in one process.
"""

from __future__ import annotations

import os
import stat
import struct
import threading
from contextlib import ExitStack, contextmanager
from functools import lru_cache
from operator import itemgetter
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, Sequence

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
_RW_MAX = 0x7FFFF000  # the most bytes Linux's read(2) and write(2) move in one call
# processes a run of several batches is split across, at most one per batch
_PROCESSES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
# stripe data below which a run stays in one process, as each process's fixed cost (its
# fork, page faults and first touch of its lanes) outweighs its share of the work: on a
# 2-CPU VM, at k=3 and 6 with 512 B and 4 KiB blocks, a split and one process cross
# between 4 and 6 MiB, and a split wins from 8 MiB
_SPLIT_BYTES = 6 << 20
# each thread's lane arena; a forked child drops the forking thread's, which it would
# share with its parent, and a batch child keeps its part through the call's own view
_kept = threading.local()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=lambda: vars(_kept).clear())


class TooManyErasuresError(Exception):
    """More shards are missing than the requested operation tolerates."""


class TransferError(OSError):
    """A block read or write that failed or came up short, named by file and byte offset;
    its args, as an OSError's, pickle, so a batch process hands it back whole."""


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
        if not 1 <= block_size <= _RW_MAX:  # one block must fit one read or write call
            raise IntegrityError(f"shard block size {block_size} outside [1, {_RW_MAX}]")
        if payload_length > block_index(stripe_count, 1, k * r) * block_size:
            raise IntegrityError("payload length exceeds shard-set capacity")
        return header

    def siblings_key(self) -> tuple:
        return (self.k, self.r, self.block_size, self.stripe_count, self.payload_length)

    def file_size(self) -> int:
        return HEADER_SIZE + block_index(self.stripe_count, 1, self.r) * self.block_size


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


@lru_cache(maxsize=64)
def _shape(files: tuple, sources: int, r: int, m: int, size: int) -> tuple:
    """How batches of m stripes of size-byte blocks move between a set of files of stripes
    and one buffer of lanes, lane i the m blocks of one (disk, row) end to end from byte
    i * m * size.  files gives each file's (disk, rows) runs, the first sources of them read
    and the rest written: such a file holds len(runs) * r blocks per stripe, run n's row j
    in slot n * r + j, placed by ``block_index``.  Returns:
    - the lanes' blocks, every block the files hold in disk-major order;
    - the blocks no source holds, which a sink writes from the schedule's outputs;
    - the lane cutter of the buffer;
    - each file's iovecs, as a cutter of the buffer, and its transfers, as (file offset
      from the batch's first stripe, slice of the iovecs, byte count).
    An iovec spans blocks adjacent both in the file and in the buffer, and a transfer is
    one run of the file in up to IOV_MAX iovecs and _RW_MAX bytes."""
    read = {(d, j) for runs in files[:sources] for d, rows in runs for j in rows}
    layout = sorted({(d, j) for runs in files for d, rows in runs for j in rows})
    lane = {b: i * m for i, b in enumerate(layout)}  # each block's lane, as its first block in the buffer
    edges = list(range(0, (len(layout) * m + 1) * size, size))  # one int per block boundary, shared by its slices
    moves, shared = [], {}  # shared: one of each distinct transfers tuple, for files of one shape
    for runs in files:
        placed = [(n * r + j, lane[d, j]) for n, (d, rows) in enumerate(runs) for j in rows]
        # lists of ints, which the garbage collector does not track
        starts, stops, offsets, firsts, sizes, end = [], [], [], [], [], None
        for s in range(m):
            for slot, first in placed:
                at, start = block_index(s, slot, len(runs) * r) * size, first + s
                if at == end and stops[-1] == start and sizes[-1] + size <= _RW_MAX:
                    stops[-1] += 1
                else:
                    if at != end or len(starts) - firsts[-1] == _IOV_MAX or sizes[-1] + size > _RW_MAX:
                        offsets.append(at), firsts.append(len(starts)), sizes.append(0)
                    starts.append(start), stops.append(start + 1)
                sizes[-1] += size
                end = at + size
        transfers = tuple(zip(offsets, map(slice, firsts, firsts[1:] + [len(starts)]), sizes))
        iovecs = map(slice, map(edges.__getitem__, starts), map(edges.__getitem__, stops))
        moves.append((_cutter(list(iovecs)), shared.setdefault((len(starts), *offsets, *firsts, *sizes), transfers)))
    lanes = _cutter([slice(edges[i], edges[i + m]) for i in range(0, len(layout) * m, m)])
    return tuple(layout), tuple(b for b in layout if b not in read), lanes, tuple(moves)


def _split(iovecs: Sequence[memoryview], nbytes: int) -> tuple[list, list]:
    """The views of the first nbytes bytes of iovecs, and of the rest."""
    head, tail = [], []
    for view in iovecs:
        cut = min(len(view), max(0, nbytes))
        head.append(view[:cut]), tail.append(view[cut:])
        nbytes -= len(view)
    return head, tail


def _read(fh: BinaryIO, start: int, end: int, transfers: Sequence[tuple]) -> int:
    """Read the (offset from byte start, iovecs, byte count) transfers of fh, which ends at
    byte end: past it they read zeros.  Returns the bytes read."""
    fd, preadv, total = fh.fileno(), os.preadv, 0
    end -= start
    for at, iovecs, nbytes in transfers:
        try:
            got = preadv(fd, iovecs, start + at)
        except OSError as exc:
            raise TransferError(exc.errno, f"{exc.strerror}: reading {fh.name} at byte {start + at}") from None
        total += got
        if got != nbytes or at + nbytes > end:  # only the end of the file may cut a read short
            if got != max(0, min(nbytes, end - at)):
                raise IntegrityError(f"{fh.name} was truncated or grew: read to byte {start + at + got}")
            for view in _split(iovecs, got)[1]:  # lanes past the end read as zeros
                view[:] = bytes(len(view))
    return total


def _write(fh: BinaryIO, start: int, end: int, transfers: Sequence[tuple]) -> None:
    """Write the (offset from byte start, iovecs, byte count) transfers of fh up to byte end."""
    fd = fh.fileno()
    for at, iovecs, nbytes in transfers:
        if start + at + nbytes > end:
            nbytes = max(0, end - start - at)
            iovecs = _split(iovecs, nbytes)[0]
        try:
            short = nbytes and os.pwritev(fd, iovecs, start + at) != nbytes
        except OSError as exc:
            raise TransferError(exc.errno, f"{exc.strerror}: writing {fh.name} at byte {start + at}") from None
        if short:
            raise TransferError(f"short write to {fh.name} at byte {start + at}")


def _shard_sink(fh: BinaryIO, header: ShardHeader) -> tuple:
    """fh, with header written, as the sink of every block of the header's disk."""
    fh.write(header.pack())
    return fh, HEADER_SIZE, header.file_size(), ((header.disk_index, range(1, header.r + 1)),)


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


def _arena(need: int) -> memoryview:
    """A view of this thread's lane arena, an anonymous shared mapping of at least need
    bytes, in which the processes of a split call write their own parts with no
    copy-on-write.  It is kept for the thread's later calls, and grown when one needs
    more, unless need exceeds 4 * BATCH_BYTES; a forked child drops it (see ``_kept``)."""
    arena = getattr(_kept, "arena", None)
    if arena is None or len(arena) < need:
        from mmap import mmap  # loads only with the first arena

        arena = mmap(-1, need)
    _kept.arena = arena if need <= 4 * BATCH_BYTES else None
    return memoryview(arena)


def _run_batches(planned: tuple, sources: Sequence[tuple], sinks: Sequence[tuple],
                 stripe_count: int, size: int) -> list[int]:
    """Run a ``codec.plan`` on every batch of stripes and return the XORs executed, then
    the bytes read from each source.

    Sources and sinks are files of stripes, each (file, body offset, file end, (disk,
    rows) runs), a sink's runs whole disks.  A batch, of ``_batch_stripes`` stripes, reads
    every source, zeros past a file's end, runs ``execute_schedule`` on exactly the blocks
    the plan's schedule reads, raises IntegrityError where a block the plan checks differs
    from the one output, and writes every sink, up to its end, from the blocks read or output.

    Each process holds its lanes in its own part of this thread's lane arena (see
    ``_arena``), laid out by ``_shape``: a source reads into its lanes, the schedule's
    outputs that a sink writes are copied into theirs, and a sink writes from its lanes.
    The lanes, their (disk, row) map and every transfer are cut once per batch size.

    A run of at least _SPLIT_BYTES of stripe data is split: this process, in the arena's
    first part, and each forked child i, in part i, claim the next batch no process has
    taken, in file order, until none is left (see ``_forked.run_forked``).  Every batch
    moves at its own offsets, so the order in which they run does not matter; each
    process hands back its own counts, which are summed."""
    schedule, _, checked = planned
    r = schedule.r
    n = _batch_stripes(stripe_count, schedule.k * r * size)
    firsts = range(0, stripe_count, n)
    procs = max(1, min(_PROCESSES, len(firsts)))
    if stripe_count * schedule.k * r * size < _SPLIT_BYTES:
        procs = 1  # a fork's fixed cost would outweigh the time it saves
    if not hasattr(os, "fork") or not hasattr(os, "memfd_create") or threading.active_count() > 1:
        procs = 1  # a forked child holds only the forking thread, and whatever locks the others held
    files = (*sources, *sinks)
    runs = tuple(runs for *_, runs in files)
    shape = _shape(runs, len(sources), r, n, size)  # of a full batch
    need = len(shape[0]) * n * size  # one process's lanes
    arena = _arena(procs * need)

    def run_claims(i: int, claims: Iterator[int]) -> list[int]:
        counts, cut, buf = [0] * (1 + len(sources)), {}, arena[i * need :]  # cut: by batch size
        for first in claims:
            m = min(n, stripe_count - first)
            if m not in cut:
                layout, made, lanes, moves = shape if m == n else _shape(runs, len(sources), r, m, size)
                lanes = dict(zip(layout, lanes(buf)))
                moves = ((iovecs(buf), transfers) for iovecs, transfers in moves)
                moves = ([(at, views[part], nbytes) for at, part, nbytes in transfers] for views, transfers in moves)
                # kept only while a later batch may move through the same views; the last batch,
                # claimed last of all, cuts each file's transfers just before its move, so one
                # holds few at a time
                moves = list(moves) if first != firsts[-1] else moves
                pick = lanes.__getitem__
                cut[m] = lanes, dict(zip(schedule.reads, map(pick, schedule.reads))), list(map(pick, made)), moves
            lanes, inputs, outs, moves = cut[m]
            moves = iter(moves)  # the sources' transfers, then the sinks'
            starts = [base + block_index(first, 1, len(held) * r) * size for _, base, _, held in files]
            for j, ((fh, _, end, _), start, transfers) in enumerate(zip(sources, starts, moves), start=1):
                counts[j] += _read(fh, start, end, transfers)
            outputs, executed = execute_schedule(schedule, inputs, size)
            # bytes against a memoryview compares byte by byte in Python; tobytes() makes it a memcmp
            if any(outputs[b] != lanes[b].tobytes() for b in checked):
                raise IntegrityError("surviving blocks violate the parity relations")
            for view, b in zip(outs, made):
                view[:] = outputs[b]
            for (fh, _, end, _), start, transfers in zip(sinks, starts[len(sources):], moves):
                _write(fh, start, end, transfers)
            counts[0] += executed
        return counts

    if procs == 1:
        return run_claims(0, iter(firsts))
    from ._forked import run_forked  # pickle and signal load only for a split run

    return list(map(sum, zip(*run_forked(run_claims, procs, firsts))))


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
    if not 1 <= block_size <= _RW_MAX:  # one block must fit one read or write call
        raise ValueError(f"block size {block_size} outside [1, {_RW_MAX}]")
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
        source = (src, 0, payload_length, tuple((d, range(1, r + 1)) for d in range(1, k + 1)))
        xor_total = _run_batches(planned, [source], sinks, stripe_count, block_size)[0]
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
    reading the rows it names of each disk and writing the sink, a file of stripes as
    ``_run_batches`` takes.  Returns the blocks and the bytes read from each shard in
    files, as the reads returned them, and the XORs executed."""
    bs, end, rows = header.block_size, header.file_size(), planned[1]
    sources = [(files[d], HEADER_SIZE, end, ((d, js),)) for d, js in rows.items()]
    xor_total, *counts = _run_batches(planned, sources, [sink], header.stripe_count, bs)
    nbytes = dict.fromkeys(files, 0) | dict(zip(rows, counts))
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
    been decoded, never as a shard file of the set itself, and never in
    place of an entry that is not a regular file.
    """
    out_path = Path(out_path)
    try:  # only a *.mdr name is read back as a shard, and a missing directory holds none
        clash = out_path.name.endswith(SHARD_SUFFIX) and os.path.samefile(out_path.parent, shard_dir)
    except OSError:
        clash = False
    if clash:
        raise ValueError(f"output {out_path} would be taken for a shard of {shard_dir}; write it elsewhere")
    try:  # the finished output is renamed over this name, which would replace a FIFO, link or device
        mode = os.lstat(out_path).st_mode
    except FileNotFoundError:  # nothing there: the output is a new file
        mode = stat.S_IFREG
    if not stat.S_ISREG(mode):
        raise ValueError(f"output {out_path} exists and is not a regular file; write to a new name")
    with ExitStack() as stack:
        files, header, code, missing = _open_shard_set(stack, Path(shard_dir), code)
        k, r = header.k, header.r
        if len(missing) > 2:
            raise TooManyErasuresError(f"{len(missing)} shards missing; RAID-6 tolerates at most 2")
        planned = plan(code, missing, tuple(range(1, k + 1)))
        out = stack.enter_context(_replace_on_success(out_path))
        payload = (out, 0, header.payload_length, tuple((d, range(1, r + 1)) for d in range(1, k + 1)))
        counts = _run_from_shards(files, header, planned, payload)
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
