"""Desk-scale rebuild simulator: conventional row-parity recovery versus
minimum-I/O recovery under a simplified parametric disk model.

Disks are modeled as independent FIFO servers (no bus contention).  The
rebuild pipelines stripes: the recovered blocks of stripe t are written
while the reads of stripe t+1 are in flight.  Read requests per stripe
are exactly the codec's repair-plan read set, so block counts here are
the codec's counts, not re-derived ones.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .code import construct
from .codec import repair_plan

FAILED_DISK = 1  # physical index of the disk every simulation rebuilds
HEADER_NOTE = (
    "disks modeled as independent FIFO servers (no bus contention); "
    "the failed disk's logical role rotates across the basic roles per stripe"
)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class SimReport:
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


@dataclass
class _Request:
    disk: int
    lba: int
    kind: str  # "read" | "write" | "bg"
    stripe: int
    arrival: float = 0.0


@dataclass
class _DiskState:
    pending: deque = field(default_factory=deque)
    active: _Request | None = None
    last_lba: int | None = None


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
    """Deterministic event-driven rebuild of one failed physical disk.

    If ``trace`` is a list, it receives one
    (completion_ms, disk, kind, lba, response_ms) row per served request.
    """
    code = construct(config.k)
    k, r = code.k, code.r
    n_disks = k + 2
    rng = random.Random(config.seed)
    rebuild_region = config.stripe_count * r

    survivors_phys = [d for d in range(1, n_disks + 1) if d != FAILED_DISK]
    role_reads = {
        role: _read_rows(code, config.strategy, role) for role in range(1, k + 2)
    }

    def stripe_requests(stripe: int) -> list[_Request]:
        failed_role = (stripe % (k + 1)) + 1
        logical_survivors = [d for d in range(1, n_disks + 1) if d != failed_role]
        phys_of = {
            logical: survivors_phys[(idx + stripe) % (k + 1)]
            for idx, logical in enumerate(logical_survivors)
        }
        reqs = []
        for logical, rows in sorted(role_reads[failed_role].items()):
            for row in rows:
                reqs.append(
                    _Request(phys_of[logical], stripe * r + row - 1, "read", stripe)
                )
        return reqs

    disks = {d: _DiskState() for d in range(1, n_disks + 1)}
    events: list[tuple[float, int, str, object]] = []
    seq = 0
    transfer = config.block_size / model.transfer_bytes_per_ms

    def push(t: float, tag: str, payload: object) -> None:
        nonlocal seq
        heapq.heappush(events, (t, seq, tag, payload))
        seq += 1

    reposition = model.seek_ms + model.rotational_ms

    def service_time(state: _DiskState, lba: int) -> float:
        if state.last_lba is None:
            return reposition + transfer
        gap = lba - state.last_lba - 1
        if gap < 0:
            return reposition + transfer
        if gap < model.seq_window_blocks:
            return transfer
        return min(gap * transfer, reposition) + transfer

    def start_next(disk: int, now: float) -> None:
        state = disks[disk]
        if state.active is not None or not state.pending:
            return
        req = state.pending.popleft()
        state.active = req
        done = now + service_time(state, req.lba)
        state.last_lba = req.lba
        push(done, "done", req)

    def enqueue(req: _Request, now: float) -> None:
        req.arrival = now
        disks[req.disk].pending.append(req)
        start_next(req.disk, now)

    reads_left: dict[int, int] = {}
    writes_left: dict[int, int] = {}
    access_ms = {d: 0.0 for d in survivors_phys}
    blocks_read = {d: 0 for d in survivors_phys}
    bg_count = 0
    finished = False
    finish_time = 0.0

    def dispatch_reads(stripe: int, now: float) -> None:
        reqs = stripe_requests(stripe)
        reads_left[stripe] = len(reqs)
        for req in reqs:
            enqueue(req, now)

    def dispatch_writes(stripe: int, now: float) -> None:
        writes_left[stripe] = r
        for row in range(1, r + 1):
            enqueue(
                _Request(FAILED_DISK, stripe * r + row - 1, "write", stripe),
                now,
            )

    dispatch_reads(0, 0.0)
    if config.background_rate > 0:
        push(rng.expovariate(config.background_rate / 1000.0), "bg", None)

    while events and not finished:
        now, _, tag, payload = heapq.heappop(events)
        if tag == "bg":
            bg_count += 1
            target = rng.choice(survivors_phys)
            enqueue(_Request(target, rng.randrange(rebuild_region), "bg", -1), now)
            push(now + rng.expovariate(config.background_rate / 1000.0), "bg", None)
            continue
        req = payload
        state = disks[req.disk]
        state.active = None
        if trace is not None:
            trace.append((now, req.disk, req.kind, req.lba, now - req.arrival))
        if req.kind == "read":
            access_ms[req.disk] += now - req.arrival
            blocks_read[req.disk] += 1
            reads_left[req.stripe] -= 1
            if reads_left[req.stripe] == 0:
                dispatch_writes(req.stripe, now)
                if req.stripe + 1 < config.stripe_count:
                    dispatch_reads(req.stripe + 1, now)
        elif req.kind == "write":
            writes_left[req.stripe] -= 1
            if req.stripe == config.stripe_count - 1 and writes_left[req.stripe] == 0:
                finished = True
                finish_time = now
        start_next(req.disk, now)

    if not finished:
        raise RuntimeError("simulation ended before the rebuild completed")

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


@dataclass(frozen=True)
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
