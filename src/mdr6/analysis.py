"""Brute-force oracles and analytic metrics for MDR codes.

The exhaustive minimum-I/O search enumerates every r x r combining matrix
X, so it is only feasible for r <= 4 (2^16 candidates); it exists to
certify that the repair plans hit the true minimum, not to be fast.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import codec
from ._record import record
from .code import (
    MdrCode,
    RepairStrategy,
    generator_submatrices,
    satisfies_repair_block,
    verify_mds,
    verify_repair_optimal,
)
from .codec import XorSchedule, repair_plan
from .f2 import BitMatrix

ORACLE_MAX_R = 4


@record
class IoReport:
    """Exhaustive minimum reads to rebuild one disk, with a witness."""

    disk: int
    total: int
    per_disk: dict[int, int]
    witness: BitMatrix
    search_space: int

    def to_document(self) -> dict:
        return {
            "disk": self.disk,
            "total": self.total,
            "per_disk": {str(d): n for d, n in sorted(self.per_disk.items())},
            "witness": self.witness.to_bitstrings(),
            "search_space": self.search_space,
        }


@record
class SearchResult:
    k: int
    r: int
    found: tuple[MdrCode, ...]
    exhausted: bool
    examined: int

    def to_document(self) -> dict:
        from .code import code_to_document

        return {
            "k": self.k,
            "r": self.r,
            "found": [code_to_document(c) for c in self.found],
            "exhausted": self.exhausted,
            "examined": self.examined,
        }


def _combo_tables(mats: list[BitMatrix], r: int) -> list[list[int]]:
    """tables[i][m] = XOR of the rows of mats[i] selected by bitmask m."""
    tables = []
    for mat in mats:
        rows = mat.row_bits
        table = [0] * (1 << r)
        for m in range(1, 1 << r):
            low = m & -m
            table[m] = table[m ^ low] ^ rows[low.bit_length() - 1]
        tables.append(table)
    return tables


def min_io_bruteforce(code: MdrCode, disk: int) -> IoReport:
    """Exact minimum blocks read to rebuild `disk`, minimized over every
    possible combination of the parity equations.

    Rebuilding disk d means choosing row combinations [Y Z] of the parity
    check system whose d-coefficient is the identity; the blocks read are
    the nonzero columns of the remaining coefficients.  Normalizing leaves
    a single free r x r matrix X to enumerate:

    * row-parity disk: blocks I + X A_1, ..., I + X A_k and X (= Q reads);
    * Q disk: blocks X + A_1, ..., X + A_k and X (= P reads);
    * data disk i: eliminate A_i first, then the row-parity form applies
      with transformed sub-matrices {A_j + A_i, j != i} plus A_i for the
      old parity disk.
    """
    k, r = code.k, code.r
    if not 1 <= disk <= k + 2:
        raise ValueError(f"disk index {disk} outside [1, {k + 2}]")
    if r > ORACLE_MAX_R:
        raise ValueError(f"r={r} needs 2^{r * r} candidates; the oracle stops at r={ORACLE_MAX_R}")
    a_mats = list(generator_submatrices(code))
    add_identity = True
    if disk == k + 1:
        mats = a_mats
        labels = list(range(1, k + 1))
    elif disk == k + 2:
        mats = a_mats
        labels = list(range(1, k + 1))
        add_identity = False
    else:
        a_i = a_mats[disk - 1]
        mats = [a_mats[j] + a_i for j in range(k) if j != disk - 1] + [a_i]
        labels = [j + 1 for j in range(k) if j != disk - 1] + [k + 1]
    x_label = k + 2 if disk != k + 2 else k + 1

    tables = _combo_tables(mats, r)
    row_masks = [m.row_bits for m in mats]
    rmask = (1 << r) - 1
    best_total: int | None = None
    best_x = 0
    best_per: dict[int, int] | None = None

    for x in range(1 << (r * r)):
        x_rows = [(x >> (p * r)) & rmask for p in range(r)]
        total = 0
        x_or = 0
        for row in x_rows:
            x_or |= row
        total += x_or.bit_count()
        if best_total is not None and total >= best_total:
            continue
        counts = [0] * len(mats)
        for i, table in enumerate(tables):
            acc = 0
            if add_identity:
                for p, row in enumerate(x_rows):
                    acc |= table[row] ^ (1 << p)
            else:
                mrows = row_masks[i]
                for p, row in enumerate(x_rows):
                    acc |= row ^ mrows[p]
            counts[i] = acc.bit_count()
            total += counts[i]
            if best_total is not None and total >= best_total:
                break
        else:
            if best_total is None or total < best_total:
                best_total = total
                best_x = x
                per = {labels[i]: counts[i] for i in range(len(mats))}
                per[x_label] = x_or.bit_count()
                best_per = per

    witness = BitMatrix(r, r, tuple((best_x >> (p * r)) & rmask for p in range(r)))
    bound = k * r if disk == k + 2 else (k + 1) * r // 2
    if best_total < bound:
        raise AssertionError(
            f"oracle minimum {best_total} below the proven bound {bound}"
        )
    return IoReport(disk, best_total, best_per, witness, 1 << (r * r))


def check_lower_bounds(code: MdrCode) -> bool:
    """True iff every repair plan meets its I/O bound with equality."""
    return all(plan_meets_bounds(code, repair_plan(code, d)) for d in range(1, code.k + 3))


def plan_meets_bounds(code: MdrCode, schedule: XorSchedule) -> bool:
    """True iff a single-disk rebuild schedule reads the minimum: r/2
    blocks from each surviving disk for a basic disk, (k+1)r/2 in all;
    every data block for the Q disk, kr in all."""
    k, r = code.k, code.r
    failed = {d for d, _ in schedule.writes}
    if failed == {k + 2}:
        expected = {d: r for d in range(1, k + 1)}
    else:
        expected = {d: r // 2 for d in range(1, k + 3) if d not in failed}
    reads = {d: len(rows) for d, rows in schedule.rows_by_disk.items()}
    return len(failed) == 1 and reads == expected


def update_io(code: MdrCode) -> Fraction:
    """Average parity blocks rewritten per data-block update: one row
    parity block plus the mean column weight of the generator matrices."""
    k, r = code.k, code.r
    ones = sum(m.bit_count() for a in generator_submatrices(code) for m in a.row_bits)
    return 1 + Fraction(ones, k * r)


@record
class XorCountReport:
    total: int
    average_per_block: Fraction  # XORs per block the schedule writes


def count_schedule_xors(schedule: XorSchedule, code: MdrCode) -> XorCountReport:
    """Validate a schedule symbolically, then report its XOR totals."""
    if not codec.verify_schedule(code, schedule):
        raise ValueError("schedule does not rebuild the columns it writes")
    total = schedule.xor_count
    return XorCountReport(total, Fraction(total, max(1, len(schedule.writes))))


def _first_feasible_strategy(
    mats: tuple[BitMatrix, ...], i: int, r: int
) -> RepairStrategy | None:
    """Lexicographically first (q_rows, basic_rows) satisfying the
    optimal-repair block condition for disk i, or None."""
    half = r // 2
    for q_rows in itertools.combinations(range(1, r + 1), half):
        for basic_rows in itertools.combinations(range(1, r + 1), half):
            strat = RepairStrategy(q_rows, basic_rows)
            if satisfies_repair_block(mats, i, strat):
                return strat
    return None


def search_repair_optimal(k: int, r: int, limit: int | None = None) -> SearchResult:
    """Exhaustively enumerate repair-optimal (k, r) codes.

    Matrix tuples are enumerated in lexicographic order of their row-major
    bit encodings, pruning any prefix that already violates pairwise MDS
    non-singularity (which cannot be repaired by later choices).  A found
    code records the first feasible strategy per disk.  ``limit`` caps the
    number of enumeration steps (matrix placements plus strategy scans);
    exceeding it returns the partial result with exhausted=False.
    """
    if r % 2 or r < 2:
        raise ValueError("r must be even and positive")
    n_mats = k + 1
    space = 1 << (r * r)
    rmask = (1 << r) - 1
    found: list[MdrCode] = []
    examined = 0
    budget_hit = False

    def decode_matrix(idx: int) -> BitMatrix:
        return BitMatrix(r, r, tuple((idx >> (p * r)) & rmask for p in range(r)))

    chosen: list[BitMatrix] = []

    def place(depth: int) -> bool:
        """Returns False when the budget ran out."""
        nonlocal examined, budget_hit
        if depth == n_mats:
            strategies = []
            for i in range(n_mats):
                examined += 1
                if limit is not None and examined > limit:
                    budget_hit = True
                    return False
                strat = _first_feasible_strategy(tuple(chosen), i, r)
                if strat is None:
                    return True
                strategies.append(strat)
            candidate = MdrCode(k, r, tuple(chosen), tuple(strategies))
            if not (verify_mds(candidate) and verify_repair_optimal(candidate)):
                raise AssertionError("search produced a candidate failing re-verification")
            found.append(candidate)
            return True
        for idx in range(space):
            examined += 1
            if limit is not None and examined > limit:
                budget_hit = True
                return False
            mat = decode_matrix(idx)
            if any(not (mat + prev).is_nonsingular() for prev in chosen):
                continue
            chosen.append(mat)
            ok = place(depth + 1)
            chosen.pop()
            if not ok:
                return False
        return True

    completed = place(0)
    return SearchResult(k, r, tuple(found), completed and not budget_hit, examined)
