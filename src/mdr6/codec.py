"""Stripe encode/decode/repair for MDR codes.

Blocks are byte strings of one fixed size per stripe.  Two execution
paths coexist on purpose:

* ``encode_naive`` evaluates the generator relations directly and
  ``decode`` solves the parity checks H d = 0 with ``BitMatrix.invert``;
  both are the test reference for everything else;
* every other linear map is an ``XorSchedule`` run by ``execute_schedule``,
  one op per lane of blocks (the same block of a whole batch of stripes):
  ``build_encode_schedule`` fills P and Q (the minimum 2(k-1) XORs per
  stripe row for recursion-built codes), ``build_decode_schedule`` rebuilds
  the data of up to two lost disks, and ``repair_plan`` picks the schedule
  that rebuilds one disk from the minimum read set (the minimum (k-1)
  average XORs per lost block for recursion-built codes).

Schedules that are not hand-derived are compiled by GF(2) elimination,
which gives each target block as a flat XOR of input blocks, and then by
code-specific hybrid reconstruction (CSHR): a minimum spanning tree over
the targets lets a target start from an already-built one and XOR in only
the inputs where the two differ.  That never adds an XOR or a read; two
lost data disks at k=6 (disks 2 and 5) cost 1248 XORs per stripe instead
of 2400.

Each schedule compiles once into a slot program: its inputs, ops and
outputs as indexes into one flat list of lane values, where a slot is
reused once the value in it has been read for the last time.  A
schedule's buffer ids stay inside this module: callers see the
(disk, row) blocks it reads and writes, worked out from its ops, and pass
and get lanes keyed by (disk, row).  ``verify_schedule`` checks any
schedule symbolically against a code.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .code import MdrCode, generator_submatrices, is_recursive_mdr
from .f2 import BitMatrix, IndexSet

Buffer = tuple  # ("in", disk, row) | ("tmp", ...) | ("out", disk, row)


class IntegrityError(Exception):
    """Surviving blocks contradict the parity relations."""


def xor_blocks(blocks: Iterable[bytes], size: int) -> bytes:
    acc = 0
    for b in blocks:
        acc ^= int.from_bytes(b, "little")
    return acc.to_bytes(size, "little")


class Stripe:
    """One r x (k+2) block array.  Disk columns are present or absent as a
    whole."""

    def __init__(self, k: int, r: int, block_size: int):
        if k < 1 or r < 1 or block_size < 1:
            raise ValueError("stripe dimensions must be positive")
        self.k = k
        self.r = r
        self.block_size = block_size
        self._cols: list[list[bytes | None]] = [[None] * r for _ in range(k + 2)]

    @classmethod
    def from_data_columns(
        cls, k: int, r: int, block_size: int, columns: Sequence[Sequence[bytes]]
    ) -> "Stripe":
        if len(columns) != k:
            raise ValueError(f"expected {k} data columns")
        stripe = cls(k, r, block_size)
        for disk, col in enumerate(columns, start=1):
            stripe.set_column(disk, col)
        return stripe

    def _check_pos(self, disk: int, row: int) -> None:
        if not (1 <= disk <= self.k + 2 and 1 <= row <= self.r):
            raise ValueError(f"block ({disk},{row}) outside stripe")

    def set_block(self, disk: int, row: int, data: bytes) -> None:
        self._check_pos(disk, row)
        if len(data) != self.block_size:
            raise ValueError(
                f"block size {len(data)} != stripe block size {self.block_size}"
            )
        self._cols[disk - 1][row - 1] = bytes(data)

    def set_column(self, disk: int, blocks: Sequence[bytes]) -> None:
        if len(blocks) != self.r:
            raise ValueError(f"column must contain {self.r} blocks")
        for row, b in enumerate(blocks, start=1):
            self.set_block(disk, row, b)

    def get_block(self, disk: int, row: int) -> bytes:
        self._check_pos(disk, row)
        data = self._cols[disk - 1][row - 1]
        if data is None:
            raise ValueError(f"block ({disk},{row}) is missing")
        return data

    def column(self, disk: int) -> list[bytes]:
        return [self.get_block(disk, row) for row in range(1, self.r + 1)]

    def disk_present(self, disk: int) -> bool:
        self._check_pos(disk, 1)
        return all(b is not None for b in self._cols[disk - 1])

    def present_disks(self) -> list[int]:
        return [d for d in range(1, self.k + 3) if self.disk_present(d)]

    def erase_disk(self, disk: int) -> None:
        self._check_pos(disk, 1)
        self._cols[disk - 1] = [None] * self.r

    def copy(self) -> "Stripe":
        dup = Stripe(self.k, self.r, self.block_size)
        dup._cols = [list(col) for col in self._cols]
        return dup


@dataclass(frozen=True)
class ErasurePattern:
    failed: frozenset[int]

    def __post_init__(self) -> None:
        if len(self.failed) > 2:
            raise ValueError("RAID-6 tolerates at most two erasures")

    @classmethod
    def of(cls, *disks: int) -> "ErasurePattern":
        return cls(frozenset(disks))


@dataclass(frozen=True)
class XorOp:
    """target := XOR of sources (a single source is a block copy)."""

    target: Buffer
    sources: tuple[Buffer, ...]


@dataclass(frozen=True)
class XorSchedule:
    """Ordered XOR operations with named shared intermediates.

    Buffer ids: ("in", disk, row) for input blocks, ("tmp", ...) for
    intermediates and ("out", disk, row) for produced blocks.  Every
    source is defined (or is an input) before its first use.
    """

    k: int
    r: int
    ops: tuple[XorOp, ...]

    @cached_property
    def xor_count(self) -> int:
        return sum(len(op.sources) - 1 for op in self.ops)

    @cached_property
    def reads(self) -> frozenset[tuple[int, int]]:
        """The (disk, row) of every input block the ops use."""
        return frozenset(
            (src[1], src[2]) for op in self.ops for src in op.sources if src[0] == "in"
        )

    @cached_property
    def writes(self) -> frozenset[tuple[int, int]]:
        """The (disk, row) of every block the schedule outputs."""
        return frozenset(
            (op.target[1], op.target[2]) for op in self.ops if op.target[0] == "out"
        )

    @cached_property
    def rows_by_disk(self) -> Mapping[int, tuple[int, ...]]:
        """The rows read from each disk, in ascending order, by disk."""
        rows: dict[int, list[int]] = {}
        for disk, row in sorted(self.reads):
            rows.setdefault(disk, []).append(row)
        return MappingProxyType({disk: tuple(js) for disk, js in rows.items()})

    @cached_property
    def _program(self) -> tuple:
        return _slot_program(self)


def _slot_program(schedule: XorSchedule) -> tuple:
    """The schedule with every buffer turned into an index into one list of
    values: (inputs, slots, steps, outputs).  Slots 0 .. len(inputs)-1
    start with the lanes of the (disk, row) blocks in inputs; each step
    (target, first, rest) sets slot target to the XOR of slot first and the
    slots in rest; outputs pairs each (disk, row) written with its slot.
    A slot is reused as soon as the value in it has been read for the last
    time, so the live values, not the ops, bound the number of slots."""
    ops = schedule.ops
    # backwards: which values each op reads for the last time, and whether
    # the value it writes is ever read (outputs are, at the end)
    live: set[Buffer] = {("out", disk, row) for disk, row in schedule.writes}
    last_reads: list[tuple[set[Buffer], bool]] = []
    for op in reversed(ops):
        read = op.target in live
        live.discard(op.target)
        last_reads.append(({src for src in op.sources if src not in live}, read))
        live.update(op.sources)
    inputs = tuple(sorted(schedule.reads))
    slot_of: dict[Buffer, int] = {("in", *block): n for n, block in enumerate(inputs)}
    free: list[int] = []
    slots = len(inputs)
    steps = []
    for op, (done, read) in zip(ops, reversed(last_reads)):
        if not op.sources:
            raise ValueError("schedule op with no sources")
        try:
            first, *rest = (slot_of[src] for src in op.sources)
        except KeyError as exc:
            raise ValueError(f"schedule source {exc.args[0]} used before definition") from None
        free.extend(slot_of.pop(src) for src in done)
        if free:
            target = free.pop()
        else:
            target, slots = slots, slots + 1
        if read:
            slot_of[op.target] = target
        else:
            free.append(target)
        steps.append((target, first, tuple(rest)))
    outputs = tuple((block, slot_of[("out", *block)]) for block in sorted(schedule.writes))
    return inputs, slots, tuple(steps), outputs


# -- direct (reference) encoding -------------------------------------------


def _column_ints(stripe: Stripe, disk: int) -> list[int]:
    return [int.from_bytes(b, "little") for b in stripe.column(disk)]


def _apply(matrix: BitMatrix, blocks: Sequence[int]) -> list[int]:
    """Multiply a binary matrix by a column vector of block payloads."""
    out = []
    for mask in matrix.row_bits:
        acc = 0
        cur = mask
        while cur:
            low = cur & -cur
            acc ^= blocks[low.bit_length() - 1]
            cur ^= low
        out.append(acc)
    return out


def _ints_to_blocks(vals: Sequence[int], size: int) -> list[bytes]:
    return [v.to_bytes(size, "little") for v in vals]


def encode_naive(code: MdrCode, data: Stripe) -> Stripe:
    """Fill P and Q by direct evaluation of the generator relations."""
    if (data.k, data.r) != (code.k, code.r):
        raise ValueError("stripe shape does not match code")
    for disk in range(1, code.k + 1):
        if not data.disk_present(disk):
            raise ValueError(f"data disk {disk} is missing")
    k, r, size = code.k, code.r, data.block_size
    cols = [_column_ints(data, d) for d in range(1, k + 1)]

    p = [0] * r
    for col in cols:
        for j in range(r):
            p[j] ^= col[j]
    q = [0] * r
    for a, col in zip(generator_submatrices(code), cols):
        contrib = _apply(a, col)
        for j in range(r):
            q[j] ^= contrib[j]

    out = data.copy()
    out.set_column(k + 1, _ints_to_blocks(p, size))
    out.set_column(k + 2, _ints_to_blocks(q, size))
    return out


def parity_check_matrix(code: MdrCode) -> BitMatrix:
    """The 2r x (k+2)r parity-check matrix H with H d = 0."""
    k, r = code.k, code.r
    eye = BitMatrix.identity(r)
    zero = BitMatrix.zeros(r, r)
    top = [eye] * (k + 1) + [zero]
    bottom = list(generator_submatrices(code)) + [zero, eye]
    return BitMatrix.from_blocks([top, bottom])


# -- XOR schedules ----------------------------------------------------------


def _q_sources(t: int, base: int, prefix_ref) -> dict[int, list[Buffer]]:
    """Source lists computing the Q column of the level-t sub-code on rows
    base+1 .. base+2^t.

    The doubling structure of the code family makes both halves of the Q
    column equal to the Q column of the half-size code plus one extra
    block: the upper half adds the last data disk's lower row, the lower
    half adds the running row-parity prefix.  Unfolding gives one copy
    source plus t-1 XOR sources per Q row.
    """
    if t == 0:
        return {base + 1: []}
    half = 1 << (t - 1)
    upper = _q_sources(t - 1, base, prefix_ref)
    lower = _q_sources(t - 1, base + half, prefix_ref)
    out: dict[int, list[Buffer]] = {}
    for row, srcs in upper.items():
        out[row] = srcs + [("in", t, row + half)]
    for row, srcs in lower.items():
        out[row] = srcs + [prefix_ref(t, row - half)]
    return out


@lru_cache(maxsize=256)
def build_encode_schedule(code: MdrCode) -> XorSchedule:
    """Encode schedule for any code.

    Recursion-built codes get the minimum-XOR schedule: P by left-to-right
    prefix sums whose intermediates are retained and reused by the Q
    recursion, for a total of 2(k-1) XORs per stripe row.  Any other code
    gets each P and Q block as the XOR of the data blocks it covers.
    """
    k, r = code.k, code.r
    if not is_recursive_mdr(code):
        return _parity_schedule(code, (k + 1, k + 2))

    def prefix_ref(t: int, row: int) -> Buffer:
        if t == 1:
            return ("in", 1, row)
        if t == k:
            return ("out", k + 1, row)
        return ("tmp", "pfx", t, row)

    ops: list[XorOp] = []
    for row in range(1, r + 1):
        if k == 1:
            ops.append(XorOp(("out", 2, row), (("in", 1, row),)))
        else:
            for t in range(2, k + 1):
                ops.append(
                    XorOp(prefix_ref(t, row), (prefix_ref(t - 1, row), ("in", t, row)))
                )
    qmap = _q_sources(k, 0, prefix_ref)
    for row in range(1, r + 1):
        ops.append(XorOp(("out", k + 2, row), tuple(qmap[row])))
    return XorSchedule(k, r, tuple(ops))


def execute_schedule(
    schedule: XorSchedule, lanes: Mapping[tuple[int, int], bytes], block_size: int
) -> tuple[dict[tuple[int, int], bytes], int]:
    """Run a schedule over lanes of blocks.

    lanes maps exactly the (disk, row) blocks in schedule.reads to their
    lanes.  A lane is the same (disk, row) block of n stripes laid end to
    end, so a bytes-like value of n * block_size bytes, with n >= 1 and
    the same for every lane (a single block is the lane of one stripe).
    Every op XORs whole lanes at once.  Returns the lane of each block in
    schedule.writes by (disk, row), and the number of two-input XORs
    executed, counted per block: the schedule's XORs times n.
    """
    if lanes.keys() != schedule.reads:
        extra = sorted(lanes.keys() - schedule.reads)
        absent = sorted(schedule.reads - lanes.keys())
        raise ValueError(
            f"lanes do not match the schedule's reads: extra {extra}, missing {absent}"
        )
    inputs, slots, steps, outputs = schedule._program
    lane_size = None
    for (disk, row), data in lanes.items():
        size = len(data)
        if lane_size is None:
            lane_size = size
        if size != lane_size or not size or size % block_size:
            raise ValueError(
                f"lane ({disk}, {row}) has {size} bytes; lanes are the same positive"
                f" multiple of {block_size} bytes"
            )
    env = [0] * slots
    for slot, block in enumerate(inputs):
        env[slot] = int.from_bytes(lanes[block], "little")
    for target, first, rest in steps:
        acc = env[first]
        for src in rest:
            acc ^= env[src]
        env[target] = acc
    lanes_out = {block: env[slot].to_bytes(lane_size, "little") for block, slot in outputs}
    return lanes_out, schedule.xor_count * (lane_size or 0) // block_size


def _compile_ops(
    code: MdrCode, candidates: Sequence[Buffer], targets: Sequence[tuple[int, int]]
) -> tuple[XorOp, ...]:
    """One op per target block (disk, row), rebuilding it from a subset of
    the candidate input blocks and possibly one earlier target.

    GF(2) elimination over the data coefficients first writes each target
    as a flat XOR of candidates; candidates become pivots in list order,
    so blocks listed first are preferred as sources.  Then CSHR orders the
    targets by a minimum spanning tree (Prim) in which a target costs its
    flat XORs from scratch, or the number of candidates where it differs
    from an already-built target.  Each target takes the cheaper of the
    two, and the flat op on a tie, so no count rises and the blocks read
    stay those of the flat ops.
    """
    coeffs = _data_coefficients(code)
    # leading bit -> (coefficient vector, bitmask of the candidates summed)
    pivots: dict[int, tuple[int, int]] = {}

    def reduce(vec: int, combo: int) -> tuple[int, int]:
        while vec:
            lead = vec.bit_length() - 1
            if lead not in pivots:
                break
            pvec, pcombo = pivots[lead]
            vec ^= pvec
            combo ^= pcombo
        return vec, combo

    for n, buf in enumerate(candidates):
        vec, combo = reduce(coeffs[buf], 1 << n)
        if vec:
            pivots[vec.bit_length() - 1] = (vec, combo)
    combos = []
    for d, j in targets:
        vec, combo = reduce(coeffs[("in", d, j)], 0)
        if vec:
            raise ValueError(f"block ({d},{j}) is not an XOR of the candidate blocks")
        combos.append(combo)

    def sources(combo: int) -> list[Buffer]:
        out = []
        while combo:
            low = combo & -combo
            out.append(candidates[low.bit_length() - 1])
            combo ^= low
        return out

    # cost and origin (an earlier target, or None for scratch) of each target left
    cost = {t: combo.bit_count() - 1 for t, combo in enumerate(combos)}
    origin: dict[int, int | None] = dict.fromkeys(cost)
    ops = []
    while cost:
        t = min(cost, key=cost.__getitem__)
        del cost[t]
        base, combo = origin[t], combos[t]
        if base is None:
            ops.append(XorOp(("out", *targets[t]), tuple(sources(combo))))
        else:
            diff = sources(combo ^ combos[base])
            ops.append(XorOp(("out", *targets[t]), (("out", *targets[base]), *diff)))
        for u, c in cost.items():
            w = (combo ^ combos[u]).bit_count()
            if w < c:
                cost[u], origin[u] = w, t
    return tuple(ops)


def _parity_schedule(code: MdrCode, disks: Sequence[int]) -> XorSchedule:
    """The schedule compiled from every data block that fills the given
    parity disks."""
    k, r = code.k, code.r
    data = [("in", d, j) for d in range(1, k + 1) for j in range(1, r + 1)]
    targets = [(d, j) for d in disks for j in range(1, r + 1)]
    return XorSchedule(k, r, _compile_ops(code, data, targets))


@lru_cache(maxsize=256)
def build_decode_schedule(code: MdrCode, missing: tuple[int, ...]) -> XorSchedule:
    """Schedule that rebuilds the data blocks of the missing disks from
    every block of the surviving ones.

    Data disks and P come before Q among the candidates, so a lost data
    disk is rebuilt from row parity at the minimum k-1 XORs per block.
    """
    k, r = code.k, code.r
    rows = range(1, r + 1)
    candidates = [("in", d, j) for d in range(1, k + 3) if d not in missing for j in rows]
    targets = [(d, j) for d in missing if d <= k for j in rows]
    return XorSchedule(k, r, _compile_ops(code, candidates, targets))


# -- reference decoding ------------------------------------------------------


@lru_cache(maxsize=256)
def _erasure_solver(code: MdrCode, erased: tuple[int, ...]) -> BitMatrix:
    """Left-solve operator L with u = L b, where u stacks the erased
    columns and b = H d is the syndrome with those columns zero.

    H d = 0 gives H_E u = b, with H_E the columns of H at the erased
    disks.  For two disks H_E is square, and invertible by the MDS
    property.  One lost disk is read off the P rows (a data or P disk)
    or the Q rows (the Q disk), where its block of H is the identity."""
    k, r = code.k, code.r
    if len(erased) == 2:
        cols = IndexSet.of(((d - 1) * r + j for d in erased for j in range(1, r + 1)), (k + 2) * r)
        return parity_check_matrix(code).submatrix(IndexSet.full(2 * r), cols).invert()
    eye, zero = BitMatrix.identity(r), BitMatrix.zeros(r, r)
    return BitMatrix.from_blocks([[zero, eye] if erased == (k + 2,) else [eye, zero]])


def decode(code: MdrCode, stripe: Stripe, erased: ErasurePattern) -> Stripe:
    """Reconstruct up to two missing columns by solving H d = 0.

    With nothing erased this is a consistency check: a parity violation
    raises IntegrityError.
    """
    if (stripe.k, stripe.r) != (code.k, code.r):
        raise ValueError("stripe shape does not match code")
    k, r = code.k, code.r
    missing = sorted(erased.failed)
    for d in missing:
        if not 1 <= d <= k + 2:
            raise ValueError(f"erased disk {d} outside [1, {k + 2}]")
    for d in range(1, k + 3):
        if d not in erased.failed and not stripe.disk_present(d):
            raise ValueError(f"disk {d} is not marked erased but has missing blocks")

    cols = [[0] * r if d in erased.failed else _column_ints(stripe, d) for d in range(1, k + 3)]
    b = _apply(parity_check_matrix(code), [v for col in cols for v in col])
    if not missing:
        if any(b):
            raise IntegrityError("surviving blocks violate the parity relations")
        return stripe.copy()

    u = _apply(_erasure_solver(code, tuple(missing)), b)
    out = stripe.copy()
    for pos, d in enumerate(missing):
        blocks = _ints_to_blocks(u[pos * r : (pos + 1) * r], stripe.block_size)
        out.set_column(d, blocks)
    return out


# -- single-disk repair ------------------------------------------------------


@lru_cache(maxsize=256)
def repair_plan(code: MdrCode, failed: int) -> XorSchedule:
    """Pick the rebuild schedule for one disk; its reads are the blocks
    the rebuild needs.

    The Q disk of a recursion-built code is rebuilt by the part of the
    encode schedule that Q needs, and a basic disk by the minimum-XOR
    ``build_repair_schedule``.  Any other code gets schedules compiled
    from the data blocks (Q) or from the blocks its repair strategy
    reads (a basic disk).
    """
    k, r = code.k, code.r
    if not 1 <= failed <= k + 2:
        raise ValueError(f"disk index {failed} outside [1, {k + 2}]")
    if failed == k + 2:
        return _q_repair_schedule(code) if is_recursive_mdr(code) else _parity_schedule(code, (k + 2,))
    if is_recursive_mdr(code):
        return build_repair_schedule(code, failed)
    if code.strategies is None:
        raise ValueError("basic-disk repair needs strategies")
    strat = code.strategies[failed - 1]
    candidates: list[Buffer] = [
        ("in", d, j) for d in range(1, k + 2) if d != failed for j in strat.basic_rows
    ]
    candidates += [("in", k + 2, j) for j in strat.q_rows]
    targets = [(failed, j) for j in range(1, r + 1)]
    return XorSchedule(k, r, _compile_ops(code, candidates, targets))


def _q_repair_schedule(code: MdrCode) -> XorSchedule:
    """The ops of the encode schedule that Q's outputs depend on, with P's
    outputs turned into intermediates, so Q reuses the P prefix sums."""
    k = code.k

    def as_tmp(buf: Buffer) -> Buffer:
        return ("tmp", "p", buf[2]) if buf[:2] == ("out", k + 1) else buf

    needed: set[Buffer] = set()
    kept: list[XorOp] = []
    for op in reversed(build_encode_schedule(code).ops):
        if op.target[:2] == ("out", k + 2) or op.target in needed:
            needed.update(op.sources)
            kept.append(XorOp(as_tmp(op.target), tuple(map(as_tmp, op.sources))))
    return XorSchedule(k, code.r, tuple(reversed(kept)))


def execute_repair(
    schedule: XorSchedule, lanes: Mapping[tuple[int, int], bytes], block_size: int
) -> tuple[list[bytes], int]:
    """Run a single-disk rebuild schedule (see ``repair_plan``) as
    ``execute_schedule`` does; returns the rebuilt column's lanes in row
    order and the number of two-input block XORs executed."""
    outputs, executed = execute_schedule(schedule, lanes, block_size)
    return [outputs[block] for block in sorted(schedule.writes)], executed


def build_repair_schedule(code: MdrCode, failed: int) -> XorSchedule:
    """Minimum-XOR rebuild schedule for one basic disk.

    Row-parity rows accumulate the survivors in two runs meeting at the
    failed disk; the run intermediates are exactly the row-parity
    prefixes the solve recursion needs, so the complement rows each cost
    one XOR per recursion level plus the Q block.  Total: (k-1) XORs per
    rebuilt block on average.
    """
    k, r = code.k, code.r
    if not is_recursive_mdr(code):
        raise ValueError("repair schedules exist only for recursion-built codes")
    if not 1 <= failed <= k + 1:
        raise ValueError("repair schedules cover basic disks only")
    strat = code.strategies[failed - 1]
    c_rows = list(strat.basic_rows)
    q_sorted = list(strat.q_rows)
    comp_sorted = list(strat.basic_rows.complement())

    def u_ref(s: int, row: int) -> Buffer:
        # running XOR of data disks 1..s at this row
        return ("in", 1, row) if s == 1 else ("tmp", "u", s, row)

    def w_ref(s: int, row: int) -> Buffer:
        # running XOR of basic disks s..k+1 at this row; equals the
        # row-parity prefix over disks 1..s-1 once the row is complete
        return ("in", k + 1, row) if s == k + 1 else ("tmp", "w", s, row)

    ops: list[XorOp] = []
    for c in c_rows:
        for s in range(2, failed):
            ops.append(XorOp(u_ref(s, c), (u_ref(s - 1, c), ("in", s, c))))
        for s in range(k, failed, -1):
            ops.append(XorOp(w_ref(s, c), (w_ref(s + 1, c), ("in", s, c))))
        srcs: list[Buffer] = []
        if failed > 1:
            srcs.append(u_ref(failed - 1, c))
        if failed < k + 1:
            srcs.append(w_ref(failed + 1, c))
        ops.append(XorOp(("out", failed, c), tuple(srcs)))

    def s_sources(t: int, base: int) -> dict[int, list[Buffer]]:
        half = 1 << (t - 1)
        if failed == t:
            return _q_sources(t - 1, base, u_ref)
        if failed == t + 1:
            return _q_sources(t - 1, base + half, u_ref)
        upper = s_sources(t - 1, base)
        lower = s_sources(t - 1, base + half)
        out_map: dict[int, list[Buffer]] = {}
        for row, sources in upper.items():
            out_map[row] = sources + [("in", t, row + half)]
        for row, sources in lower.items():
            out_map[row] = sources + [w_ref(t + 1, row - half)]
        return out_map

    smap = s_sources(k, 0)
    for a, comp_row in enumerate(comp_sorted):
        q_row = q_sorted[a]
        ops.append(
            XorOp(("out", failed, comp_row), (("in", k + 2, q_row), *smap[q_row]))
        )
    return XorSchedule(k, r, tuple(ops))


# -- symbolic schedule verification -----------------------------------------


def _data_coefficients(code: MdrCode) -> dict[Buffer, int]:
    """Map every input buffer to its coefficient vector over the k*r data
    blocks, encoded as a bitmask with bit (i-1)*r + (j-1) for d_{i,j}."""
    k, r = code.k, code.r
    coeffs: dict[Buffer, int] = {}
    for i in range(1, k + 1):
        for j in range(1, r + 1):
            coeffs[("in", i, j)] = 1 << ((i - 1) * r + (j - 1))
    for j in range(1, r + 1):
        coeffs[("in", k + 1, j)] = sum(
            1 << ((i - 1) * r + (j - 1)) for i in range(1, k + 1)
        )
    a_mats = generator_submatrices(code)
    for j in range(1, r + 1):
        mask = 0
        for i, a in enumerate(a_mats, start=1):
            row = a.row_bits[j - 1]
            mask ^= row << ((i - 1) * r)
        coeffs[("in", k + 2, j)] = mask
    return coeffs


def verify_schedule(code: MdrCode, schedule: XorSchedule) -> bool:
    """True iff the schedule rebuilds whole columns of the code from blocks
    of other disks: by symbolic evaluation, every block it writes equals
    that block's combination of the data blocks; it writes every row of
    each disk it writes to; and it reads no block of such a disk."""
    k, r = code.k, code.r
    if (schedule.k, schedule.r) != (k, r):
        return False
    disks = {disk for disk, _ in schedule.writes}
    if schedule.writes != {(disk, j) for disk in disks for j in range(1, r + 1)}:
        return False
    if any(disk in disks for disk, _ in schedule.reads):
        return False
    expected = _data_coefficients(code)
    env = dict(expected)
    for op in schedule.ops:
        acc = 0
        for src in op.sources:
            if src not in env:
                return False
            acc ^= env[src]
        env[op.target] = acc
    return all(
        env[("out", disk, j)] == expected.get(("in", disk, j)) for disk, j in schedule.writes
    )
