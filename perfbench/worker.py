"""One benchmark process.  ``run.py`` starts it with a JSON spec:

    python3 perfbench/worker.py setup '<spec>'   # time one set-up, print seconds
    python3 perfbench/worker.py cycle '<spec>'   # one cycle, traced if the spec says so
    python3 perfbench/worker.py serve '<spec>'   # one cycle per line on standard input

A cycle runs every operation once on each input of the spec, checks
each output byte for byte against the reference files and each metered
count against the paper's formula, and records the time of the call into
``mdr6`` alone, with the time of the calibration loop (``calibrate.py``)
right before and right after it.  The process prints one JSON line with
what it saw.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import calibrate
from oracle import shard_name
from tracer import ProcIO, Tracer

CHUNK = 1 << 20


class CheckFailed(Exception):
    pass


def same_file(a: Path, b: Path) -> bool:
    with a.open("rb") as fa, b.open("rb") as fb:
        while True:
            x, y = fa.read(CHUNK), fb.read(CHUNK)
            if x != y:
                return False
            if not x:
                return True


def prepare(spec: dict) -> None:
    """The set-up a user pays before the first byte: code construction (or
    document parse and verification) plus the schedule and plan builds."""
    import mdr6.code
    import mdr6.codec

    if spec["kind"] == "objects":
        import mdr6.cli  # noqa: F401  (the objects workload runs the CLI)

        code = mdr6.code.code_from_document(json.loads(Path(spec["doc"]).read_text()))
    else:
        code = mdr6.code.construct(spec["k"])
    mdr6.codec.build_encode_schedule(code)
    for disk in (1, code.k + 1, code.k + 2):
        mdr6.codec.repair_plan(code, disk)


class FileOps:
    """Calls into ``mdr6.shards``, as a library user would."""

    def __init__(self, spec: dict) -> None:
        import mdr6.shards

        self.shards = mdr6.shards
        self.k, self.block_size = spec["k"], spec["block_size"]

    def encode(self, payload: Path, out_dir: Path) -> tuple[int, int]:
        report = self.shards.encode_file(payload, out_dir, self.k, self.block_size)
        return report.xor_count, report.stripe_count

    def decode(self, shard_dir: Path, out: Path) -> None:
        self.shards.decode_file(shard_dir, out)

    def repair(self, shard_dir: Path) -> int:
        report = self.shards.repair_shard(shard_dir)
        return sum(report.blocks_read_per_shard.values())


class CliOps:
    """In-process ``mdr6`` commands with ``--code <document>``."""

    def __init__(self, spec: dict) -> None:
        import mdr6.cli

        self.cli = mdr6.cli
        self.doc, self.block_size = spec["doc"], str(spec["block_size"])

    def _main(self, argv: list[str]) -> dict:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = self.cli.main(argv + ["--code", self.doc, "--json"])
        if status != 0:
            raise CheckFailed(f"mdr6 {argv[0]} exited with {status}")
        return json.loads(out.getvalue())

    def encode(self, payload: Path, out_dir: Path) -> tuple[int, int]:
        doc = self._main(
            ["encode", str(payload), "--block-size", self.block_size, "--out-dir", str(out_dir)]
        )
        return doc["xor_count"], doc["stripes"]

    def decode(self, shard_dir: Path, out: Path) -> None:
        self._main(["decode", str(shard_dir), "--out", str(out)])

    def repair(self, shard_dir: Path) -> int:
        return sum(self._main(["repair", str(shard_dir)])["blocks_read_per_shard"].values())


class Cycle:
    def __init__(self, spec: dict, proc_io: ProcIO) -> None:
        self.spec = spec
        self.io = proc_io
        self.ops = CliOps(spec) if spec["kind"] == "objects" else FileOps(spec)
        self.work = Path(spec["scratch"]) / "shards"
        self.aside = Path(spec["scratch"]) / "aside"
        self.out = Path(spec["scratch"]) / "decoded.bin"
        self.records: list[dict] = []
        self.calibration_s = 0.0

    def _timed(self, name: str, nbytes: int, call):
        # recorded as failed until its output checks pass
        record = {"op": name, "s": 0.0, "bytes": nbytes, "ok": False}
        self.records.append(record)
        loop_before = calibrate.loop_s()
        start = time.perf_counter()
        result = call()
        record["s"] = time.perf_counter() - start
        loop_after = calibrate.loop_s()
        record["loop_s"] = (loop_before + loop_after) / 2
        self.calibration_s += loop_before + loop_after
        return result

    def _check(self, condition: bool, what: str) -> None:
        if not condition:
            raise CheckFailed(what)

    def _one_input(self, item: dict) -> None:
        k, r = self.spec["k"], self.spec["r"]
        payload, ref, stripes = Path(item["payload"]), Path(item["ref"]), item["stripes"]
        size = payload.stat().st_size
        shutil.rmtree(self.work, ignore_errors=True)
        shutil.rmtree(self.aside, ignore_errors=True)
        self.aside.mkdir(parents=True)
        shard = lambda d: self.work / shard_name(d)  # noqa: E731

        xors, got_stripes = self._timed("encode", size, lambda: self.ops.encode(payload, self.work))
        self._check(got_stripes == stripes, f"encode wrote {got_stripes} stripes, expected {stripes}")
        self._check(xors == (k - 1) * 2 * r * stripes, f"encode ran {xors} XORs")
        for d in range(1, k + 3):
            self._check(same_file(shard(d), ref / shard_name(d)), f"encoded shard {d} differs")
        self.records[-1].update(ok=True, xors=xors, stripes=stripes)

        for name, missing in (("decode0", ()), ("decode1", (2,)), ("decode2", self.spec["decode2_missing"])):
            for d in missing:
                shard(d).rename(self.aside / shard_name(d))
            self._timed(name, size, lambda: self.ops.decode(self.work, self.out))
            self._check(same_file(self.out, payload), f"{name} output differs from the payload")
            self.records[-1]["ok"] = True
            for d in missing:
                (self.aside / shard_name(d)).rename(shard(d))

        expected = {1: (k + 1) * r // 2, k + 1: (k + 1) * r // 2, k + 2: k * r}
        for name, disk in (("repair_data", 1), ("repair_p", k + 1), ("repair_q", k + 2)):
            shard(disk).unlink()
            before = self.io.sample()
            metered = self._timed(name, (ref / shard_name(disk)).stat().st_size, lambda: self.ops.repair(self.work))
            rchar = self.io.delta(before)["rchar"]
            self._check(same_file(shard(disk), ref / shard_name(disk)), f"rebuilt shard {disk} differs")
            self._check(
                metered == expected[disk] * stripes,
                f"repair of disk {disk} read {metered} blocks, expected {expected[disk] * stripes}",
            )
            # a conventional rebuild reads every block of k surviving disks
            conventional = k * r * self.spec["block_size"] * stripes
            self.records[-1].update(
                ok=True, metered=metered, stripes=stripes, rchar=rchar, read_ratio=rchar / conventional
            )

    def run(self) -> None:
        for item in self.spec["inputs"]:
            try:
                self._one_input(item)
            except Exception as exc:  # noqa: BLE001 - every failure is counted, then reported
                if not self.records or self.records[-1]["ok"]:
                    self.records.append({"op": "error", "s": 0.0, "bytes": 0, "ok": False})
                self.records[-1]["error"] = f"{type(exc).__name__}: {exc}"


def main() -> None:
    mode, spec = sys.argv[1], json.loads(sys.argv[2])
    if mode == "setup":
        calibrate.loop_s()  # the first pass warms the interpreter up
        loops = [calibrate.loop_s(), calibrate.loop_s()]
        start = time.perf_counter()
        prepare(spec)
        setup_s = time.perf_counter() - start
        loops += [calibrate.loop_s(), calibrate.loop_s()]
        print(json.dumps({"setup_s": setup_s, "loop_s": sum(loops) / len(loops)}))
        return

    import mdr6  # noqa: F401  (import cost belongs to the set-up probes)

    proc_io = ProcIO()
    try:
        run(mode, spec, proc_io)
    finally:
        proc_io.close()


def run(mode: str, spec: dict, proc_io: ProcIO) -> None:
    if mode == "serve":
        # one cycle per line read from standard input, in one warm process
        prepare(spec)
        cycle = Cycle(spec, proc_io)
        print(json.dumps({"ready": True}), flush=True)
        for _ in sys.stdin:
            cycle.records = []
            cycle.run()
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            print(json.dumps({"records": cycle.records, "peak_rss_kib": peak}), flush=True)
        return

    # imports the modules it drives, so that neither wall below counts imports
    cycle = Cycle(spec, proc_io)
    tracer = Tracer(proc_io) if spec["trace"] else None
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    prepare(spec)
    cycle.run()
    result = {"wall_s": time.perf_counter() - start - cycle.calibration_s}
    if tracer is not None:
        self_s, calls = tracer.layers()
        result.update(self_s=self_s, calls=calls, opens=tracer.opens, shard_io=tracer.shard_io)
    result["records"] = cycle.records
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))


if __name__ == "__main__":
    main()
