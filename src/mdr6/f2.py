"""Dense linear algebra over GF(2) with bit-packed rows.

Each matrix row is stored as one Python int: bit j-1 holds the entry in
column j, so arbitrary-precision XOR gives word-parallel row operations.
All public indices are 1-based.
"""

from __future__ import annotations

from typing import Sequence

from ._record import record


@record
class BitMatrix:
    """Immutable binary matrix; addition is XOR, products are over GF(2)."""

    rows: int
    cols: int
    row_bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        if len(self.row_bits) != self.rows:
            raise ValueError("row count does not match row data")
        if min(self.row_bits) < 0 or max(self.row_bits) >> self.cols:
            raise ValueError("row data wider than declared column count")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(rows, cols, (0,) * rows)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    @classmethod
    def from_rows(cls, entries: Sequence[Sequence[int]]) -> "BitMatrix":
        rows = len(entries)
        cols = len(entries[0])
        masks = []
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged row lengths")
            mask = 0
            for j, v in enumerate(row):
                if v not in (0, 1):
                    raise ValueError("entries must be 0 or 1")
                mask |= v << j
            masks.append(mask)
        return cls(rows, cols, tuple(masks))

    @classmethod
    def from_bitstrings(cls, rows: Sequence[str]) -> "BitMatrix":
        """Rows of '0'/'1' characters, leftmost character is column 1."""
        cols = len(rows[0]) if rows else 0
        if not cols:
            raise ValueError("a matrix needs at least one row and one column")
        joined = "".join(rows)
        # int(..., 2) alone would also take "0_1", " 01", "+01" and
        # non-ASCII digits such as "\u0661"
        if set(map(len, rows)) != {cols} or joined.count("0") + joined.count("1") != len(joined):
            bad = next(s for s in rows if len(s) != cols or s.count("0") + s.count("1") != cols)
            raise ValueError(f"bad row bitstring {bad!r}")
        return cls(len(rows), cols, tuple(int(row[::-1], 2) for row in rows))

    def to_bitstrings(self) -> list[str]:
        """The rows as from_bitstrings takes them."""
        return [format(m, f"0{self.cols}b")[::-1] for m in self.row_bits]

    @classmethod
    def from_blocks(cls, grid: Sequence[Sequence["BitMatrix"]]) -> "BitMatrix":
        """Assemble a block matrix from a 2-D grid of compatible blocks."""
        col_widths = [b.cols for b in grid[0]]
        masks = []
        for block_row in grid:
            if [b.cols for b in block_row] != col_widths:
                raise ValueError("inconsistent block widths")
            height = block_row[0].rows
            if any(b.rows != height for b in block_row):
                raise ValueError("inconsistent block heights")
            for i in range(height):
                mask = 0
                shift = 0
                for b, width in zip(block_row, col_widths):
                    mask |= b.row_bits[i] << shift
                    shift += width
                masks.append(mask)
        return cls(len(masks), sum(col_widths), tuple(masks))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "BitMatrix") -> "BitMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(
                f"dimension mismatch: {self.rows}x{self.cols} + {other.rows}x{other.cols}"
            )
        return BitMatrix(
            self.rows,
            self.cols,
            tuple(a ^ b for a, b in zip(self.row_bits, other.row_bits)),
        )

    add = __add__

    def mul(self, other: "BitMatrix") -> "BitMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"dimension mismatch: {self.rows}x{self.cols} * {other.rows}x{other.cols}"
            )
        out = []
        brows = other.row_bits
        for mask in self.row_bits:
            acc = 0
            cur = mask
            while cur:
                low = cur & -cur
                acc ^= brows[low.bit_length() - 1]
                cur ^= low
            out.append(acc)
        return BitMatrix(self.rows, other.cols, tuple(out))

    def rank(self) -> int:
        """Row rank via elimination with last-nonzero-column pivoting.

        basis[c] is the kept row whose highest set bit is bit c-1, so a
        row's pivot is its bit_length() and needs no other big-int op.
        """
        basis = [0] * (self.cols + 1)
        count = 0
        for row in self.row_bits:
            cur = row
            while cur:
                pivot = cur.bit_length()
                hit = basis[pivot]
                if not hit:
                    basis[pivot] = cur
                    count += 1
                    break
                cur ^= hit
        return count

    def is_nonsingular(self) -> bool:
        if self.rows != self.cols:
            raise ValueError("non-singularity is defined for square matrices only")
        return self.rank() == self.rows

    def invert(self) -> "BitMatrix":
        if self.rows != self.cols:
            raise ValueError("only square matrices can be inverted")
        n = self.rows
        work = list(self.row_bits)
        aug = [1 << i for i in range(n)]
        done = 0
        for col in range(n):
            probe = 1 << col
            pivot = None
            for i in range(done, n):
                if work[i] & probe:
                    pivot = i
                    break
            if pivot is None:
                raise ValueError(f"matrix of rank < {n} has no inverse")
            work[done], work[pivot] = work[pivot], work[done]
            aug[done], aug[pivot] = aug[pivot], aug[done]
            for i in range(n):
                if i != done and work[i] & probe:
                    work[i] ^= work[done]
                    aug[i] ^= aug[done]
            done += 1
        return BitMatrix(n, n, tuple(aug))

    def submatrix(self, row_set: Sequence[int], col_set: Sequence[int]) -> "BitMatrix":
        """Sub-matrix induced by the given 1-based rows and columns, order preserved."""
        if not row_set or not col_set:
            raise ValueError("index sets must be non-empty")
        if not (1 <= min(row_set) <= max(row_set) <= self.rows and 1 <= min(col_set) <= max(col_set) <= self.cols):
            raise ValueError("index set exceeds matrix bounds")
        masks = []
        for i in row_set:
            bits = self.row_bits[i - 1]
            mask = 0
            for pos, j in enumerate(col_set):
                mask |= ((bits >> (j - 1)) & 1) << pos
            masks.append(mask)
        return BitMatrix(len(row_set), len(col_set), tuple(masks))
