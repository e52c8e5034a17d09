"""Layer spans and syscall I/O counters for the traced benchmark run.

The tracer replaces public functions of ``mdr6`` at the names they are
bound under (``mdr6.shards.execute_schedule`` is a different binding from
``mdr6.codec.execute_schedule``), so no source under ``src/`` changes.
Spans are kept in memory and turned into per-layer self times at the end.
"""

from __future__ import annotations

import functools
import os
import pathlib
import time

IO_FIELDS = ("rchar", "wchar", "syscr", "syscw")


class ProcIO:
    """Reads this process's syscall I/O counters from /proc/self/io.

    Each sample is itself one read syscall; ``delta`` removes that cost, so
    a delta counts only the I/O done between the two samples.
    """

    def __init__(self) -> None:
        self._fd = os.open("/proc/self/io", os.O_RDONLY)

    def sample(self) -> tuple[dict[str, int], int]:
        raw = os.pread(self._fd, 4096, 0)
        values = {}
        for line in raw.decode().splitlines():
            key, _, value = line.partition(":")
            values[key] = int(value)
        return values, len(raw)

    def delta(self, before: tuple[dict[str, int], int]) -> dict[str, int]:
        after, _ = self.sample()
        start, probe_bytes = before
        out = {f: after[f] - start[f] for f in IO_FIELDS}
        out["rchar"] -= probe_bytes
        out["syscr"] -= 1
        return out

    def close(self) -> None:
        os.close(self._fd)


class Tracer:
    def __init__(self, io: ProcIO) -> None:
        self.io = io
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.opens = 0
        # syscall I/O per outermost shards call, keyed by function name
        self.shard_io: dict[str, dict[str, int]] = {}
        self._stack: list[tuple[int, str]] = []

    def wrap(self, fn, layer: str, name: str):
        measure_io = layer == "shards"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outermost_io = measure_io and all(lay != "shards" for _, lay in self._stack)
            before = self.io.sample() if outermost_io else None
            index = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            self.spans.append(None)
            self._stack.append((index, layer))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (layer, start, end, parent)
                if before is not None:
                    acc = self.shard_io.setdefault(name, dict.fromkeys(IO_FIELDS, 0))
                    for field, value in self.io.delta(before).items():
                        acc[field] += value

        return traced

    def _count_open(self, original):
        @functools.wraps(original)
        def counted(path_self, *args, **kwargs):
            if self._stack and self._stack[-1][1] == "shards":
                self.opens += 1
            return original(path_self, *args, **kwargs)

        return counted

    def install(self) -> None:
        """Wrap every layer boundary.  The worker process that calls this
        exits after its cycle, so nothing is ever unwrapped."""
        import mdr6.cli
        import mdr6.code
        import mdr6.codec
        import mdr6.f2
        import mdr6.shards

        bindings = [
            (mdr6.cli, "main", "cli"),
            (mdr6.cli, "construct", "code.construct"),
            (mdr6.cli, "code_from_document", "code.from_document"),
            (mdr6.code, "construct", "code.construct"),
            (mdr6.code, "code_from_document", "code.from_document"),
            (mdr6.code, "verify_mds", "code.verify"),
            (mdr6.code, "verify_repair_optimal", "code.verify"),
            (mdr6.shards, "construct", "code.construct"),
            (mdr6.shards, "encode_file", "shards"),
            (mdr6.shards, "decode_file", "shards"),
            (mdr6.shards, "repair_shard", "shards"),
            (mdr6.shards, "execute_schedule", "codec.execute_schedule"),
            (mdr6.shards, "decode", "codec.decode"),
            (mdr6.shards, "execute_repair", "codec.execute_repair"),
            (mdr6.shards, "repair_plan", "codec.plan"),
            (mdr6.shards, "build_encode_schedule", "codec.plan"),
            (mdr6.codec, "repair_plan", "codec.plan"),
            (mdr6.codec, "build_encode_schedule", "codec.plan"),
            (mdr6.codec, "build_repair_schedule", "codec.plan"),
        ]
        for module, attr, layer in bindings:
            setattr(module, attr, self.wrap(getattr(module, attr), layer, attr))

        matrix = mdr6.f2.BitMatrix
        for attr in ("__add__", "add", "mul", "rank", "is_nonsingular", "invert", "submatrix"):
            setattr(matrix, attr, self.wrap(getattr(matrix, attr), "f2", attr))
        for attr in ("from_blocks", "from_bitstrings"):
            fn = matrix.__dict__[attr].__func__
            setattr(matrix, attr, classmethod(self.wrap(fn, "f2", attr)))

        pathlib.Path.open = self._count_open(pathlib.Path.open)

    def layers(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self time (span minus the spans it directly caused) and call
        count per layer."""
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for span in self.spans:
            if span is None:
                raise RuntimeError("span still open at the end of the cycle")
            layer, start, end, parent = span
            duration = end - start
            self_s[layer] = self_s.get(layer, 0.0) + duration
            calls[layer] = calls.get(layer, 0) + 1
            if parent >= 0:
                parent_layer = self.spans[parent][0]
                self_s[parent_layer] = self_s.get(parent_layer, 0.0) - duration
        return self_s, calls
