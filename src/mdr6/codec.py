"""Encode, decode and repair of the stripes of MDR codes.

Blocks are byte strings of one fixed size per stripe.  Two execution
paths coexist on purpose:

* ``encode_naive`` evaluates the generator relations directly and
  ``decode`` solves the parity checks H d = 0 with ``BitMatrix.invert``;
  both take and return one stripe's blocks as a {(disk, row): bytes} map,
  the map schedules run on, and are the test reference for everything
  else;
* every other linear map is an ``XorSchedule`` run by ``execute_schedule``:
  its ops are plain (target, sources) pairs, target := XOR of sources,
  each run once per lane of blocks (the same block of a whole batch of
  stripes).
  ``plan`` gives every command its schedule, the rows it reads of each
  disk and the blocks it checks; one function, ``_choose``, holds every
  rule that picks the schedule.  Two builders, ``build_encode_schedule``
  and ``build_repair_schedule`` (one basic disk), serve any code, and
  only they choose between a compiled schedule and ``_hand_schedule``,
  which derives a recursion-built code's minimum-XOR encode (2(k-1) per
  stripe row) and basic-disk repair (k-1 per lost block on average) from
  the closed form of its doubling recursion.

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

from functools import cached_property, lru_cache
from itertools import repeat
from types import MappingProxyType
from typing import Mapping, Sequence

from ._record import record
from .code import MdrCode, generator_submatrices, is_recursive_mdr
from .f2 import BitMatrix

Buffer = tuple  # ("in", disk, row) | ("tmp", ...) | ("out", disk, row)
Op = tuple  # (target, sources): target := XOR of sources, one source copies


class IntegrityError(Exception):
    """Surviving blocks contradict the parity relations."""


@record
class XorSchedule:
    """Ordered XOR operations with named shared intermediates.

    Each op is a (target, sources) pair: target := XOR of sources.
    Buffer ids: ("in", disk, row) for input blocks, ("tmp", ...) for
    intermediates and ("out", disk, row) for produced blocks.  Every
    source is defined (or is an input) before its first use.
    """

    k: int
    r: int
    ops: tuple[Op, ...]

    @cached_property
    def xor_count(self) -> int:
        return sum(len(sources) - 1 for _, sources in self.ops)

    @cached_property
    def reads(self) -> frozenset[tuple[int, int]]:
        """The (disk, row) of every input block the ops use."""
        return frozenset(
            (src[1], src[2]) for _, sources in self.ops for src in sources if src[0] == "in"
        )

    @cached_property
    def writes(self) -> frozenset[tuple[int, int]]:
        """The (disk, row) of every block the schedule outputs."""
        return frozenset(
            (target[1], target[2]) for target, _ in self.ops if target[0] == "out"
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
    slots in rest; outputs is the (disk, row) blocks written, sorted, and
    their slots.
    A slot is reused as soon as the value in it has been read for the last
    time, so the live values, not the ops, bound the number of slots."""
    ops = schedule.ops
    # backwards: which values each op reads for the last time, and whether
    # the value it writes is ever read (outputs are, at the end)
    live: set[Buffer] = {("out", disk, row) for disk, row in schedule.writes}
    last_reads: list[tuple[set[Buffer], bool]] = []
    for target, sources in reversed(ops):
        read = target in live
        live.discard(target)
        last_reads.append(({src for src in sources if src not in live}, read))
        live.update(sources)
    inputs = tuple(sorted(schedule.reads))
    slot_of: dict[Buffer, int] = {("in", *block): n for n, block in enumerate(inputs)}
    free: list[int] = []
    slots = len(inputs)
    steps = []
    for (buf, sources), (done, read) in zip(ops, reversed(last_reads)):
        if not sources:
            raise ValueError("schedule op with no sources")
        try:
            first, *rest = (slot_of[src] for src in sources)
        except KeyError as exc:
            raise ValueError(f"schedule source {exc.args[0]} used before definition") from None
        free.extend(slot_of.pop(src) for src in done)
        if free:
            target = free.pop()
        else:
            target, slots = slots, slots + 1
        if read:
            slot_of[buf] = target
        else:
            free.append(target)
        steps.append((target, first, tuple(rest)))
    written = tuple(sorted(schedule.writes))
    return inputs, slots, tuple(steps), (written, tuple(slot_of[("out", *block)] for block in written))


# -- XOR schedules ----------------------------------------------------------


def _hand_schedule(code: MdrCode, failed: int) -> XorSchedule:
    """The minimum-XOR schedule of a recursion-built code that encodes
    (failed = 0) or rebuilds basic disk failed (1 .. k+1).

    Row-parity rows (every row when encoding, the strategy's basic_rows
    when repairing) XOR the other basic disks into disk at, which is
    failed, or P when encoding, in two runs that meet there: one from
    disk 1 gives the row-parity prefixes over data disks 1..t for t < at,
    one from P down over basic disks k+1..t+1 gives those for t >= at.  A
    run that meets no other ends in the output block itself.

    Unfolding the code's doubling recursion makes Q row j the XOR of one
    block per level t = 1..k, with h = 2^(t-1): data disk t at row j+h if
    bit t-1 of j-1 is 0, else the prefix over data disks 1..t at row j-h.
    A repair reads the Q rows that skip level min(failed, k), the
    strategy's q_rows, XORs in Q's block and writes each sum to the
    complement row paired with it in order.  That is k-1 XORs per encoded
    block and k-1 on average per rebuilt block.
    """
    k, r = code.k, code.r
    at = failed or k + 1
    if failed:
        strat = code.strategies[failed - 1]
        p_rows, q_rows = strat.basic_rows, strat.q_rows
        out_rows = sorted(set(range(1, r + 1)).difference(p_rows))
    else:
        p_rows = q_rows = out_rows = range(1, r + 1)

    def left(t: int, row: int) -> Buffer:  # XOR of disks 1..t, t < at
        if t == 1:
            return ("in", 1, row)
        return ("out", at, row) if t == k else ("tmp", "l", t, row)

    def right(s: int, row: int) -> Buffer:  # XOR of basic disks s..k+1, s > at
        if s == k + 1:
            return ("in", k + 1, row)
        return ("out", at, row) if s == 2 else ("tmp", "r", s, row)

    def prefix(t: int, row: int) -> Buffer:  # XOR of data disks 1..t
        return left(t, row) if t < at else right(t + 1, row)

    ops: list[Op] = []
    for row in p_rows:
        for t in range(2, at):
            ops.append((left(t, row), (left(t - 1, row), ("in", t, row))))
        for s in range(k, at, -1):
            ops.append((right(s, row), (right(s + 1, row), ("in", s, row))))
        if 1 < at <= k:
            ops.append((("out", at, row), (left(at - 1, row), right(at + 1, row))))
        elif k == 1:  # each run is one input block: copy it
            ops.append((("out", at, row), (("in", 3 - at, row),)))
    skip = min(failed, k)
    for q_row, out_row in zip(q_rows, out_rows):
        srcs: list[Buffer] = [("in", k + 2, q_row)] if failed else []
        for t in range(1, k + 1):
            h = 1 << (t - 1)
            if t != skip:
                srcs.append(prefix(t, q_row - h) if (q_row - 1) & h else ("in", t, q_row + h))
        ops.append((("out", failed or k + 2, out_row), tuple(srcs)))
    return XorSchedule(k, r, tuple(ops))


@lru_cache(maxsize=256)
def build_encode_schedule(code: MdrCode) -> XorSchedule:
    """Encode schedule for any code.

    Recursion-built codes get the minimum-XOR ``_hand_schedule``, 2(k-1)
    XORs per stripe row.  Any other code gets each P and Q block as the
    XOR of the data blocks it covers.
    """
    if is_recursive_mdr(code):
        return _hand_schedule(code, 0)
    k, r = code.k, code.r
    rows = range(1, r + 1)
    data = [("in", d, j) for d in range(1, k + 1) for j in rows]
    targets = [(d, j) for d in (k + 1, k + 2) for j in rows]
    return XorSchedule(k, r, _compile_ops(code, data, targets))


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
    inputs, slots, steps, (written, at) = schedule._program
    sizes = set(map(len, lanes.values()))
    lane_size = min(sizes, default=0)
    if len(sizes) > 1 or sizes and (not lane_size or lane_size % block_size):
        raise ValueError(
            f"lanes have {sorted(sizes)} bytes; lanes are the same positive multiple of {block_size} bytes"
        )
    env = [*map(int.from_bytes, map(lanes.__getitem__, inputs), repeat("little")), *repeat(0, slots - len(inputs))]
    for target, first, rest in steps:
        acc = env[first]
        for src in rest:
            acc ^= env[src]
        env[target] = acc
    lanes_out = dict(zip(written, map(int.to_bytes, map(env.__getitem__, at), repeat(lane_size), repeat("little"))))
    return lanes_out, schedule.xor_count * lane_size // block_size


def _compile_ops(
    code: MdrCode, candidates: Sequence[Buffer], targets: Sequence[tuple[int, int]]
) -> tuple[Op, ...]:
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
            ops.append((("out", *targets[t]), tuple(sources(combo))))
        else:
            diff = sources(combo ^ combos[base])
            ops.append((("out", *targets[t]), (("out", *targets[base]), *diff)))
        for u, c in cost.items():
            w = (combo ^ combos[u]).bit_count()
            if w < c:
                cost[u], origin[u] = w, t
    return tuple(ops)


# -- reference encoding and decoding ---------------------------------------


def _columns(code: MdrCode, blocks: Mapping[tuple[int, int], bytes]) -> tuple[dict[int, list[int]], int]:
    """The columns of the disks present in a block map of one stripe of
    code, as block ints by disk, and the block size.  A disk with any block
    is present and must have all r; every block has the same positive size."""
    k, r = code.k, code.r
    sizes = {len(data) for data in blocks.values()}
    if len(sizes) > 1 or 0 in sizes:
        raise ValueError(f"block sizes {sorted(sizes)}; a stripe's blocks share one positive size")
    for disk, row in blocks:
        if not (1 <= disk <= k + 2 and 1 <= row <= r):
            raise ValueError(f"block ({disk},{row}) outside the stripe")
    cols = {}
    for disk in sorted({disk for disk, _ in blocks}):
        if any((disk, j) not in blocks for j in range(1, r + 1)):
            raise ValueError(f"disk {disk} has some of its {r} blocks, not all")
        cols[disk] = [int.from_bytes(blocks[disk, j], "little") for j in range(1, r + 1)]
    return cols, max(sizes, default=0)


def _apply(matrix: BitMatrix, blocks: Sequence[int]) -> list[int]:
    """Multiply a binary matrix by a column vector of block payloads."""
    out = []
    for cur in matrix.row_bits:
        acc = 0
        while cur:
            low = cur & -cur
            acc ^= blocks[low.bit_length() - 1]
            cur ^= low
        out.append(acc)
    return out


def _to_blocks(disks: Sequence[int], vals: Sequence[int], r: int, size: int) -> dict[tuple[int, int], bytes]:
    """The stacked columns vals of the given disks as a block map."""
    blocks = ((d, j) for d in disks for j in range(1, r + 1))
    return {block: v.to_bytes(size, "little") for block, v in zip(blocks, vals)}


def encode_naive(code: MdrCode, data: Mapping[tuple[int, int], bytes]) -> dict[tuple[int, int], bytes]:
    """Every block of the stripe whose data blocks are data, which holds
    the k data disks and nothing else: P and Q by direct evaluation of the
    generator relations."""
    k, r = code.k, code.r
    cols, size = _columns(code, data)
    if cols.keys() != set(range(1, k + 1)):
        raise ValueError(f"data holds disks {sorted(cols)}, not exactly the data disks 1..{k}")
    p, q = [0] * r, [0] * r
    for a, col in zip(generator_submatrices(code), cols.values()):
        for j, (block, term) in enumerate(zip(col, _apply(a, col))):
            p[j] ^= block
            q[j] ^= term
    return {**data, **_to_blocks((k + 1, k + 2), p + q, r, size)}


def parity_check_matrix(code: MdrCode) -> BitMatrix:
    """The 2r x (k+2)r parity-check matrix H with H d = 0."""
    k, r = code.k, code.r
    eye = BitMatrix.identity(r)
    zero = BitMatrix.zeros(r, r)
    top = [eye] * (k + 1) + [zero]
    bottom = list(generator_submatrices(code)) + [zero, eye]
    return BitMatrix.from_blocks([top, bottom])


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
        cols = [(d - 1) * r + j for d in erased for j in range(1, r + 1)]
        return parity_check_matrix(code).submatrix(range(1, 2 * r + 1), cols).invert()
    eye, zero = BitMatrix.identity(r), BitMatrix.zeros(r, r)
    return BitMatrix.from_blocks([[zero, eye] if erased == (k + 2,) else [eye, zero]])


def decode(code: MdrCode, blocks: Mapping[tuple[int, int], bytes]) -> dict[tuple[int, int], bytes]:
    """Every block of the stripe, from the blocks of the disks that
    survive: a disk with no block in blocks is lost, and up to two lost
    disks are rebuilt by solving H d = 0.

    With nothing lost this is a consistency check: a parity violation
    raises IntegrityError.
    """
    k, r = code.k, code.r
    cols, size = _columns(code, blocks)
    missing = tuple(d for d in range(1, k + 3) if d not in cols)
    if len(missing) > 2:
        raise ValueError(f"disks {list(missing)} are lost; RAID-6 tolerates at most two erasures")
    b = _apply(parity_check_matrix(code), [v for d in range(1, k + 3) for v in cols.get(d, [0] * r)])
    if not missing:
        if any(b):
            raise IntegrityError("surviving blocks violate the parity relations")
        return dict(blocks)
    u = _apply(_erasure_solver(code, missing), b)
    return {**blocks, **_to_blocks(missing, u, r, size)}


# -- choosing a schedule -----------------------------------------------------


@lru_cache(maxsize=256)
def build_repair_schedule(code: MdrCode, failed: int) -> XorSchedule:
    """Rebuild schedule for one basic disk (1 .. k+1) of any code: a
    recursion-built code's ``_hand_schedule``, else one compiled from the
    blocks the disk's repair strategy reads or, with no strategies, from
    every row of the other basic disks and of Q, Q listed last, which is
    the row-parity rebuild."""
    k, r = code.k, code.r
    if not 1 <= failed <= k + 1:
        raise ValueError("repair schedules cover basic disks only")
    if is_recursive_mdr(code):
        return _hand_schedule(code, failed)
    rows = basic_rows = q_rows = range(1, r + 1)  # with no strategies, every row: the row-parity rebuild
    if code.strategies is not None:
        strat = code.strategies[failed - 1]
        basic_rows, q_rows = strat.basic_rows, strat.q_rows
    candidates: list[Buffer] = [("in", d, j) for d in range(1, k + 2) if d != failed for j in basic_rows]
    candidates += [("in", k + 2, j) for j in q_rows]
    targets = [(failed, j) for j in rows]
    return XorSchedule(k, r, _compile_ops(code, candidates, targets))


def parity_schedule(code: MdrCode, parities: tuple[int, ...]) -> XorSchedule:
    """The ops of the encode schedule that the given parity disks' outputs
    depend on, with the other parity's outputs turned into intermediates:
    Q alone still reuses the P prefix sums, and P alone of a
    recursion-built code is its row-parity chain, (k-1)r XORs."""
    needed: set[Buffer] = set()
    kept: list[Op] = []
    for target, sources in reversed(build_encode_schedule(code).ops):
        if target in needed or target[0] == "out" and target[1] in parities:
            needed.update(sources)
            kept.append((target, sources))
    # only the ops that touch the other parity's outputs are remade
    tmp = {buf: ("tmp", *buf[1:]) for buf in needed if buf[0] == "out" and buf[1] not in parities}
    kept = [(t, srcs) if tmp.keys().isdisjoint((t, *srcs)) else
            (tmp.get(t, t), tuple(tmp.get(b, b) for b in srcs))
            for t, srcs in kept]
    return XorSchedule(code.k, code.r, tuple(reversed(kept)))


def _choose(code: MdrCode, missing: tuple[int, ...], want: tuple[int, ...]) -> tuple:
    """The schedule that outputs the lost disks in want with those in missing
    lost, and the surviving parity disks it re-encodes to be checked.

    A lone lost basic disk that is wanted takes its ``build_repair_schedule``.
    With no wanted data disk lost, ``parity_schedule`` makes the lost wanted
    parities, or, if no wanted disk is lost, re-encodes the surviving ones,
    which are checked.  Else the lost wanted disks are compiled from every
    surviving block, data disks and P before Q, so with Q also lost row
    parity rebuilds a data disk at k-1 XORs per block."""
    k, r = code.k, code.r
    lost = tuple(d for d in want if d in missing)
    if len(missing) == 1 == len(lost) and lost[0] <= k + 1:
        return build_repair_schedule(code, lost[0]), ()
    if all(d > k for d in lost):
        checked = () if lost else tuple(d for d in (k + 1, k + 2) if d not in missing)
        return parity_schedule(code, tuple(sorted({*lost, *checked}))), checked
    rows = range(1, r + 1)
    candidates = [("in", d, j) for d in range(1, k + 3) if d not in missing for j in rows]
    targets = [(d, j) for d in lost for j in rows]
    return XorSchedule(k, r, _compile_ops(code, candidates, targets)), ()


def repair_plan(code: MdrCode, failed: int) -> XorSchedule:
    """The schedule ``plan`` rebuilds lost disk failed with, reading only
    what the rebuild needs: Q's is the part of the encode schedule Q needs."""
    if not 1 <= failed <= code.k + 2:
        raise ValueError(f"disk index {failed} outside [1, {code.k + 2}]")
    return _choose(code, (failed,), (failed,))[0]


def execute_repair(
    schedule: XorSchedule, lanes: Mapping[tuple[int, int], bytes], block_size: int
) -> tuple[list[bytes], int]:
    """Run a single-disk rebuild schedule (see ``repair_plan``) as
    ``execute_schedule`` does; returns the rebuilt column's lanes in row
    order and the number of two-input block XORs executed."""
    outputs, executed = execute_schedule(schedule, lanes, block_size)
    return [outputs[block] for block in sorted(schedule.writes)], executed


@lru_cache(maxsize=256)
def plan(code: MdrCode, missing: tuple[int, ...], want: tuple[int, ...]) -> tuple:
    """``_choose``'s schedule, the rows read from each present disk (a
    checked or wanted one whole) and the blocks checked, to output the disks
    in want with those in missing lost.  Encode is plan(code, (k+1, k+2),
    (k+1, k+2)), and plan(code, (), ()) checks both parities."""
    schedule, checked = _choose(code, missing, want)
    rows = tuple(range(1, code.r + 1))
    reads = dict(schedule.rows_by_disk)
    reads.update((d, rows) for d in (*want, *checked) if d not in missing)
    return schedule, MappingProxyType(dict(sorted(reads.items()))), tuple((d, j) for d in checked for j in rows)


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
    for target, sources in schedule.ops:
        acc = 0
        for src in sources:
            if src not in env:
                return False
            acc ^= env[src]
        env[target] = acc
    return all(
        env[("out", disk, j)] == expected.get(("in", disk, j)) for disk, j in schedule.writes
    )
