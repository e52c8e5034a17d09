"""Desk-scale rebuild simulator: conventional row-parity recovery versus
minimum-I/O recovery under a simplified parametric disk model.

Disks are modeled as independent FIFO servers (no bus contention).  The
rebuild pipelines stripes: the recovered blocks of stripe t are written
while the reads of stripe t+1 are in flight.  Read requests per stripe
are exactly the codec's repair-plan read set, so block counts here are
the codec's counts, not re-derived ones.

There is no event queue.  A stripe's requests are dispatched when the
previous stripe's last read ends, so every dispatch time is known once
the requests before it are served, and a FIFO disk ends each request at
the closed form max(arrival, disk free time) + service time.  Serving
requests in arrival order with that recurrence gives the same times as
an event-driven simulation.

Block addresses come from ``shards.block_index``, the layout of the shard
files, and background load the survivors cannot serve is refused: past
it the backlog, and with it the run, grows without bound.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Mapping, Sequence

from . import shards
from ._record import record
from .code import construct
from .codec import repair_plan

FAILED_DISK = 1  # physical index of the disk every simulation rebuilds
HEADER_NOTE = (
    "disks modeled as independent FIFO servers (no bus contention); "
    "the failed disk's logical role rotates across the basic roles per stripe"
)


@record
class DiskModel:
    """Three-parameter disk: repositioning cost, rotational delay, and a
    linear transfer rate.

    Positioning charge for a request skipping g blocks forward from the
    previous access: free while g < seq_window_blocks (read-ahead), then
    min(g * transfer, seek + rotational) - the head sweeps past skipped
    blocks at transfer speed or repositions, whichever is cheaper.
    Backward jumps and first accesses pay seek + rotational.  A forward
    skip therefore never costs more than reading through the gap, so a
    rebuild that reads a subset of each strip is never slower per disk
    than one reading whole strips.
    """

    seek_ms: float = 8.0
    rotational_ms: float = 4.0
    transfer_bytes_per_ms: float = 100_000.0
    seq_window_blocks: int = 512

    def __post_init__(self) -> None:
        if min(self.seek_ms, self.rotational_ms, self.transfer_bytes_per_ms) <= 0:
            raise ValueError("disk model parameters must be positive")
        if self.seq_window_blocks < 1:
            raise ValueError("sequential window must be at least one block")


@record
class SimConfig:
    k: int
    stripe_count: int
    strategy: str  # "conventional" | "mdr"
    block_size: int = 512
    background_rate: float = 0.0  # requests/s against surviving disks; 0 = offline
    seed: int = 0

    def __post_init__(self) -> None:
        if self.strategy not in ("conventional", "mdr"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.stripe_count < 1:
            raise ValueError("stripe_count must be at least 1")
        if self.block_size < 1 or self.k < 1:
            raise ValueError("bad code parameters")
        if self.background_rate < 0:
            raise ValueError("background rate cannot be negative")


@record
class SimReport:
    """One simulated rebuild.  per_disk_access_ms sums each survivor's
    rebuild-read response times; avg_access_ms is the mean of those sums
    over the survivors, not the mean response time of one read."""

    strategy: str
    notes: str
    total_time_ms: float
    per_disk_access_ms: dict[int, float]
    avg_access_ms: float
    blocks_read_per_disk: dict[int, int]
    total_blocks_read: int
    read_volume_ratio: Fraction  # vs conventional row-parity baseline
    background_requests: int

    def to_document(self) -> dict:
        return {
            "strategy": self.strategy,
            "notes": self.notes,
            "total_time_ms": self.total_time_ms,
            "per_disk_access_ms": {str(d): t for d, t in sorted(self.per_disk_access_ms.items())},
            "avg_access_ms": self.avg_access_ms,
            "blocks_read_per_disk": {str(d): n for d, n in sorted(self.blocks_read_per_disk.items())},
            "total_blocks_read": self.total_blocks_read,
            "read_volume_ratio": [self.read_volume_ratio.numerator, self.read_volume_ratio.denominator],
            "background_requests": self.background_requests,
        }


def _read_rows(code, strategy: str, failed_role: int) -> Mapping[int, Sequence[int]]:
    """Logical (disk -> rows) read to rebuild failed_role in one stripe."""
    k, r = code.k, code.r
    if strategy == "mdr":
        return repair_plan(code, failed_role).rows_by_disk
    # conventional: whole strips from the surviving basic disks, Q idle
    return {d: list(range(1, r + 1)) for d in range(1, k + 2) if d != failed_role}


def simulate(
    config: SimConfig,
    model: DiskModel,
    trace: list[tuple[float, int, str, int, float]] | None = None,
) -> SimReport:
    """Deterministic rebuild of one failed physical disk, served in arrival
    order by the FIFO recurrence of the module docstring.

    If ``trace`` is a list, it receives one sorted (completion_ms, disk,
    kind, lba, response_ms) row per request ended by the end of the rebuild.
    Raises ValueError when the background rate would keep the k+1
    survivors busy all the time: rate * (seek + rotational + transfer)
    / (k+1) reaches 1.
    """
    transfer = config.block_size / model.transfer_bytes_per_ms
    reposition = model.seek_ms + model.rotational_ms
    load = config.background_rate / 1000.0 * (reposition + transfer) / (config.k + 1)
    if load >= 1:
        limit = 1000.0 * (config.k + 1) / (reposition + transfer)
        raise ValueError(
            f"background rate {config.background_rate:g} req/s is more than the {config.k + 1}"
            f" surviving disks can serve (utilisation {load:.2f}; it must stay below {limit:.4g} req/s)"
        )
    code = construct(config.k)
    k, r = code.k, code.r
    n_disks = k + 2
    rng = random.Random(config.seed)
    rebuild_region = shards.block_index(config.stripe_count, 1, r)

    survivors_phys = [d for d in range(1, n_disks + 1) if d != FAILED_DISK]
    role_reads = {
        role: _read_rows(code, config.strategy, role) for role in range(1, k + 2)
    }
    free = dict.fromkeys(range(1, n_disks + 1), 0.0)
    head: dict[int, int] = {}
    served: list[tuple[float, int, str, int, float]] = []  # kept only for a trace

    def serve(disk: int, lba: int, kind: str, arrival: float) -> float:
        gap = lba - head.get(disk, lba) - 1  # a first access repositions
        if gap < 0:
            position = reposition
        elif gap < model.seq_window_blocks:
            position = 0.0
        else:
            position = min(gap * transfer, reposition)
        done = free[disk] = max(arrival, free[disk]) + (position + transfer)
        head[disk] = lba
        if trace is not None:
            served.append((done, disk, kind, lba, done - arrival))
        return done

    bg_rate = config.background_rate / 1000.0
    next_bg = rng.expovariate(bg_rate) if bg_rate else math.inf
    bg_count = 0

    def serve_background(until: float) -> None:
        # a background request that arrived before a dispatch is ahead of
        # that dispatch in its disk's queue, so this keeps every disk FIFO
        nonlocal next_bg, bg_count
        while next_bg < until:
            bg_count += 1
            disk = rng.choice(survivors_phys)
            serve(disk, rng.randrange(rebuild_region), "bg", next_bg)
            next_bg += rng.expovariate(bg_rate)

    access_ms = {d: 0.0 for d in survivors_phys}
    blocks_read = {d: 0 for d in survivors_phys}
    dispatch = 0.0  # stripe t's reads and t-1's writes start when t-1's reads end
    for stripe in range(config.stripe_count):
        serve_background(dispatch)
        failed_role = (stripe % (k + 1)) + 1
        logical_survivors = [d for d in range(1, n_disks + 1) if d != failed_role]
        reads_done = dispatch
        for idx, logical in enumerate(logical_survivors):
            disk = survivors_phys[(idx + stripe) % (k + 1)]
            for row in role_reads[failed_role].get(logical, ()):
                done = serve(disk, shards.block_index(stripe, row, r), "read", dispatch)
                access_ms[disk] += done - dispatch
                blocks_read[disk] += 1
                reads_done = max(reads_done, done)
        for row in range(1, r + 1):
            finish_time = serve(FAILED_DISK, shards.block_index(stripe, row, r), "write", reads_done)
        dispatch = reads_done
    serve_background(finish_time)
    if trace is not None:
        trace.extend(sorted(row for row in served if row[0] <= finish_time))

    total_read = sum(blocks_read.values())
    baseline = config.stripe_count * k * r
    return SimReport(
        strategy=config.strategy,
        notes=HEADER_NOTE,
        total_time_ms=finish_time,
        per_disk_access_ms=dict(access_ms),
        avg_access_ms=sum(access_ms.values()) / len(access_ms),
        blocks_read_per_disk=dict(blocks_read),
        total_blocks_read=total_read,
        read_volume_ratio=Fraction(total_read, baseline),
        background_requests=bg_count,
    )


@record
class ComparisonReport:
    base: SimReport
    other: SimReport
    read_ratio: Fraction
    access_time_ratio: float
    recovery_time_ratio: float


def compare(
    base_config: SimConfig, other_config: SimConfig, model: DiskModel
) -> ComparisonReport:
    """Run two configs that differ only in strategy; ratios are other/base."""
    for name in ("k", "stripe_count", "block_size", "background_rate", "seed"):
        if getattr(base_config, name) != getattr(other_config, name):
            raise ValueError(f"configs differ in {name}, not only in strategy")
    base = simulate(base_config, model)
    other = simulate(other_config, model)
    return ComparisonReport(
        base=base,
        other=other,
        read_ratio=Fraction(other.total_blocks_read, base.total_blocks_read),
        access_time_ratio=other.avg_access_ms / base.avg_access_ms,
        recovery_time_ratio=other.total_time_ms / base.total_time_ms,
    )
