"""Stripe encode/decode/repair for MDR codes.

Blocks are byte strings of one fixed size per stripe.  Two execution
paths coexist on purpose:

* ``encode_naive`` / ``decode`` evaluate the generator relations directly
  and are the test reference for everything else;
* every other linear map is an ``XorSchedule`` run by ``execute_schedule``:
  ``build_encode_schedule`` fills P and Q (the minimum 2(k-1) XORs per
  stripe row for recursion-built codes), ``build_decode_schedule`` rebuilds
  the data of up to two lost disks, and ``repair_plan`` pairs the schedule
  that rebuilds one disk with the minimum read set it consumes (the
  minimum (k-1) average XORs per lost block for recursion-built codes).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .code import MdrCode, generator_submatrices, is_recursive_mdr
from .f2 import BitMatrix

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

    kind: str  # "encode", "repair" or "decode"
    k: int
    r: int
    failed_disk: int | None
    ops: tuple[XorOp, ...]

    @property
    def xor_count(self) -> int:
        return sum(len(op.sources) - 1 for op in self.ops)


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
        data = [("in", d, j) for d in range(1, k + 1) for j in range(1, r + 1)]
        parity = [(d, j) for d in (k + 1, k + 2) for j in range(1, r + 1)]
        return XorSchedule("encode", k, r, None, _compile_ops(code, data, parity))

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
    return XorSchedule("encode", k, r, None, tuple(ops))


def execute_schedule(
    schedule: XorSchedule, inputs: Mapping[Buffer, bytes], block_size: int
) -> tuple[dict[Buffer, bytes], int]:
    """Run a schedule over byte blocks; returns outputs and the number of
    two-input XORs actually executed."""
    env: dict[Buffer, int] = {}
    for buf, data in inputs.items():
        if len(data) != block_size:
            raise ValueError(f"input {buf} has {len(data)} bytes, not {block_size}")
        env[buf] = int.from_bytes(data, "little")
    executed = 0
    for op in schedule.ops:
        sources = op.sources
        if not sources:
            raise ValueError("schedule op with no sources")
        try:
            acc = env[sources[0]]
            for src in sources[1:]:
                acc ^= env[src]
        except KeyError as exc:
            raise ValueError(
                f"schedule source {exc.args[0]} not supplied or used before definition"
            ) from None
        executed += len(sources) - 1
        env[op.target] = acc

    outputs = {
        buf: val.to_bytes(block_size, "little")
        for buf, val in env.items()
        if buf[0] == "out"
    }
    return outputs, executed


def _compile_ops(
    code: MdrCode, candidates: Sequence[Buffer], targets: Sequence[tuple[int, int]]
) -> tuple[XorOp, ...]:
    """One op per target block (disk, row): its XOR over a subset of the
    candidate input blocks, found by GF(2) elimination over their data
    coefficients.

    Candidates become pivots in list order, so blocks listed first are
    preferred as sources.
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
    ops = []
    for d, j in targets:
        vec, combo = reduce(coeffs[("in", d, j)], 0)
        if vec:
            raise ValueError(f"block ({d},{j}) is not an XOR of the candidate blocks")
        sources = tuple(buf for n, buf in enumerate(candidates) if combo >> n & 1)
        ops.append(XorOp(("out", d, j), sources))
    return tuple(ops)


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
    return XorSchedule("decode", k, r, None, _compile_ops(code, candidates, targets))


# -- generic two-erasure decoding -------------------------------------------


@lru_cache(maxsize=256)
def _erasure_solver(code: MdrCode, erased: tuple[int, ...]) -> BitMatrix:
    """Left-solve operator L with u = L b, where u stacks the erased
    columns and b is the parity syndrome of the surviving blocks."""
    k, r = code.k, code.r
    a_mats = generator_submatrices(code)
    eye = BitMatrix.identity(r)
    zero = BitMatrix.zeros(r, r)

    def top(d: int) -> BitMatrix:
        return eye if d <= k + 1 else zero

    def bottom(d: int) -> BitMatrix:
        if d <= k:
            return a_mats[d - 1]
        return zero if d == k + 1 else eye

    m = BitMatrix.from_blocks(
        [[top(d) for d in erased], [bottom(d) for d in erased]]
    )
    n_rows, n_cols = 2 * r, len(erased) * r
    work = list(m.row_bits)
    aug = [1 << i for i in range(n_rows)]
    done = 0
    pivot_of_col: dict[int, int] = {}
    for col in range(n_cols):
        probe = 1 << col
        pivot = None
        for i in range(done, n_rows):
            if work[i] & probe:
                pivot = i
                break
        if pivot is None:
            raise ValueError("erasure pattern is not solvable")
        work[done], work[pivot] = work[pivot], work[done]
        aug[done], aug[pivot] = aug[pivot], aug[done]
        for i in range(n_rows):
            if i != done and work[i] & probe:
                work[i] ^= work[done]
                aug[i] ^= aug[done]
        pivot_of_col[col] = done
        done += 1
    return BitMatrix(n_cols, n_rows, tuple(aug[pivot_of_col[c]] for c in range(n_cols)))


def _syndrome(code: MdrCode, stripe: Stripe, absent: frozenset[int]) -> list[int]:
    """b = H d restricted to the present columns."""
    k, r = code.k, code.r
    b = [0] * (2 * r)
    a_mats = generator_submatrices(code)
    for d in range(1, k + 3):
        if d in absent:
            continue
        col = _column_ints(stripe, d)
        if d <= k + 1:
            for j in range(r):
                b[j] ^= col[j]
        if d <= k:
            contrib = _apply(a_mats[d - 1], col)
            for j in range(r):
                b[r + j] ^= contrib[j]
        elif d == k + 2:
            for j in range(r):
                b[r + j] ^= col[j]
    return b


def decode(code: MdrCode, stripe: Stripe, erased: ErasurePattern) -> Stripe:
    """Reconstruct up to two missing columns from the parity relations.

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

    if not missing:
        if any(_syndrome(code, stripe, frozenset())):
            raise IntegrityError("surviving blocks violate the parity relations")
        return stripe.copy()

    b = _syndrome(code, stripe, erased.failed)
    solver = _erasure_solver(code, tuple(missing))
    u = _apply(solver, b)
    out = stripe.copy()
    for pos, d in enumerate(missing):
        blocks = _ints_to_blocks(u[pos * r : (pos + 1) * r], stripe.block_size)
        out.set_column(d, blocks)
    return out


# -- single-disk repair ------------------------------------------------------


@dataclass(frozen=True)
class RepairPlan:
    """The schedule that rebuilds one disk and the blocks it reads: reads
    is exactly the set of the schedule's ("in", disk, row) sources."""

    failed_disk: int
    reads: frozenset[tuple[int, int]]
    schedule: XorSchedule


@lru_cache(maxsize=256)
def repair_plan(code: MdrCode, failed: int) -> RepairPlan:
    """Pick the rebuild schedule for one disk.

    The Q disk is rebuilt by the part of the encode schedule that Q needs.
    A basic disk of a recursion-built code gets the minimum-XOR
    ``build_repair_schedule``; of any other code, the schedule compiled
    from the blocks its repair strategy reads.
    """
    k, r = code.k, code.r
    if not 1 <= failed <= k + 2:
        raise ValueError(f"disk index {failed} outside [1, {k + 2}]")
    if failed == k + 2:
        schedule = _q_repair_schedule(code)
    elif is_recursive_mdr(code):
        schedule = build_repair_schedule(code, failed)
    elif code.strategies is None:
        raise ValueError("basic-disk repair needs strategies")
    else:
        strat = code.strategies[failed - 1]
        candidates: list[Buffer] = [
            ("in", d, j) for d in range(1, k + 2) if d != failed for j in strat.basic_rows
        ]
        candidates += [("in", k + 2, j) for j in strat.q_rows]
        targets = [(failed, j) for j in range(1, r + 1)]
        schedule = XorSchedule("repair", k, r, failed, _compile_ops(code, candidates, targets))
    reads = frozenset(
        (src[1], src[2]) for op in schedule.ops for src in op.sources if src[0] == "in"
    )
    return RepairPlan(failed, reads, schedule)


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
    return XorSchedule("repair", k, code.r, k + 2, tuple(reversed(kept)))


def execute_repair(
    plan: RepairPlan, blocks: Mapping[tuple[int, int], bytes], block_size: int
) -> tuple[list[bytes], int]:
    """Rebuild the failed column from a {(disk, row): bytes} map holding
    exactly the blocks in plan.reads; returns the column and the number of
    two-input XORs executed."""
    if blocks.keys() != plan.reads:
        extra = sorted(blocks.keys() - plan.reads)
        absent = sorted(plan.reads - blocks.keys())
        raise ValueError(
            f"block map does not match the plan: extra {extra}, missing {absent}"
        )
    inputs = {("in", d, j): data for (d, j), data in blocks.items()}
    outputs, executed = execute_schedule(plan.schedule, inputs, block_size)
    failed = plan.failed_disk
    column = [outputs[("out", failed, j)] for j in range(1, plan.schedule.r + 1)]
    return column, executed


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
    return XorSchedule("repair", k, r, failed, tuple(ops))


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


def _evaluate_symbolic(code: MdrCode, schedule: XorSchedule) -> dict[Buffer, int]:
    env = _data_coefficients(code)
    for op in schedule.ops:
        acc = 0
        for src in op.sources:
            if src not in env:
                raise ValueError(f"schedule source {src} used before definition")
            acc ^= env[src]
        env[op.target] = acc
    return {buf: v for buf, v in env.items() if buf[0] == "out"}


def verify_encode_schedule(code: MdrCode, schedule: XorSchedule) -> bool:
    """True iff symbolic evaluation reproduces the generator relations."""
    if schedule.kind != "encode" or (schedule.k, schedule.r) != (code.k, code.r):
        return False
    env = _evaluate_symbolic(code, schedule)
    expected = _data_coefficients(code)
    k, r = code.k, code.r
    for j in range(1, r + 1):
        if env.get(("out", k + 1, j)) != expected[("in", k + 1, j)]:
            return False
        if env.get(("out", k + 2, j)) != expected[("in", k + 2, j)]:
            return False
    return len(env) == 2 * r


def verify_repair_schedule(code: MdrCode, schedule: XorSchedule) -> bool:
    """True iff the schedule rebuilds exactly the failed column."""
    if schedule.kind != "repair" or (schedule.k, schedule.r) != (code.k, code.r):
        return False
    failed = schedule.failed_disk
    if failed is None or not 1 <= failed <= code.k + 2:
        return False
    for op in schedule.ops:
        for src in op.sources:
            if src[0] == "in" and src[1] == failed:
                return False
    env = _evaluate_symbolic(code, schedule)
    expected = _data_coefficients(code)
    for j in range(1, code.r + 1):
        if env.get(("out", failed, j)) != expected[("in", failed, j)]:
            return False
    return len(env) == code.r
