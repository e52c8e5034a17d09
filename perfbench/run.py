"""Benchmark of the mdr6 shard path (``mdr6.shards`` and ``mdr6.cli``).

Run from the root of the repository:

    python3 perfbench/run.py --workload rebuild --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload rebuild --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --workload rebuild --seed 1 --self-check

``--trace 0`` reports the end-to-end metrics, with every time scaled to
one reference machine speed by the loop in calibrate.py; ``--trace 1``
reports the per-layer split from a traced run.  ``--self-check`` runs one
traced cycle under two seeds and fails unless every count agrees.  The last line of standard
output is one JSON object; the lines before it are a readable report.
All load is closed-loop: one client, one process at a time, no threads.
The metrics and workloads are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate
import oracle

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"

# The k, block size and payload are what make each workload stress a
# different layer; README.md gives the reasons.
WORKLOADS = {
    "bulk": {"kind": "file", "k": 6, "block_size": 4096, "payload_bytes": 16 << 20, "count": 1,
             "decode2_missing": [2, 5]},
    "rebuild": {"kind": "file", "k": 3, "block_size": 512, "payload_bytes": 16 << 20, "count": 1,
                "decode2_missing": [2, 3]},
    "degraded": {"kind": "file", "k": 6, "block_size": 512, "payload_bytes": 16 << 20, "count": 1,
                 "decode2_missing": [2, 5]},
    "objects": {"kind": "objects", "k": 6, "block_size": 512, "payload_bytes": 64 << 10, "count": 16,
                "decode2_missing": [2, 5]},
}
OPS = ("encode", "decode0", "decode1", "decode2", "repair_data", "repair_p", "repair_q")
WORKER_TIMEOUT_S = 120
SPEED_WINDOW = 15

END_TO_END_UNITS = {"setup_s": "s", **{f"{op}_MBps": "MB/s" for op in OPS},
                    "repair_read_ratio": "ratio", "peak_rss_MiB": "MiB",
                    "op_p50_ms": "ms", "op_p95_ms": "ms"}
LAYER_UNITS = {
    "cli.self_s": "s", "code.construct_s": "s", "code.from_document_s": "s", "code.verify_s": "s",
    "code.verify_calls": "count", "f2.self_s": "s", "f2.calls": "count",
    "codec.execute_schedule_s": "s", "codec.xors": "count", "codec.xors_per_coded_block": "count",
    "codec.decode_s": "s", "codec.execute_repair_s": "s",
    "codec.repair_blocks_per_stripe.data": "count", "codec.repair_blocks_per_stripe.p": "count",
    "codec.repair_blocks_per_stripe.q": "count", "codec.plan_s": "s", "shards.self_s": "s",
    "shards.bytes_read": "bytes", "shards.bytes_written": "bytes", "shards.read_calls": "count",
    "shards.write_calls": "count", "shards.opens": "count", "shards.read_amplification": "ratio",
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _worker_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run_worker(mode: str, spec: dict) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), mode, json.dumps(spec)],
            capture_output=True, text=True, env=_worker_env(), cwd=ROOT, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {mode} did not finish in {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


class Server:
    """A warm worker process that runs one cycle per request."""

    def __init__(self, spec: dict) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), "serve", json.dumps(spec)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=_worker_env(), cwd=ROOT,
        )

    def cycle(self) -> dict:
        self.proc.stdin.write("cycle\n")
        self.proc.stdin.flush()
        return self.answer()

    def answer(self) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], WORKER_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise BenchError("worker serve stopped without an answer")
        return json.loads(line)

    def close(self) -> None:
        with contextlib.suppress(BrokenPipeError):
            self.proc.stdin.close()
        try:
            # an idle worker exits at once when its input ends
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def make_inputs(spec: dict, seed: int, scratch: Path) -> dict:
    """Seeded payloads, their reference shards and the code document."""
    import mdr6.code

    scratch.mkdir(parents=True)
    doc = mdr6.code.code_to_document(mdr6.code.construct(spec["k"]))
    doc_path = scratch / "code.json"
    doc_path.write_text(json.dumps(doc))
    rng = random.Random(seed)
    inputs = []
    for i in range(spec["count"]):
        payload = rng.randbytes(spec["payload_bytes"])
        path = scratch / f"input_{i:02d}.bin"
        path.write_bytes(payload)
        stripes = oracle.write_reference_shards(payload, doc, spec["block_size"], scratch / f"ref_{i:02d}")
        inputs.append({"payload": str(path), "ref": str(scratch / f"ref_{i:02d}"), "stripes": stripes})
    return {**spec, "r": doc["r"], "doc": str(doc_path), "inputs": inputs,
            "scratch": str(scratch / "work")}


def ok_records(records: list[dict], op: str | None = None) -> list[dict]:
    return [r for r in records if r["ok"] and (op is None or r["op"] == op)]


def end_to_end(spec: dict, seconds: int) -> tuple[dict, dict]:
    """Alternate one set-up probe with one cycle, so that both sample the
    whole run: on a shared virtual machine the CPU speed drifts over seconds."""
    run_worker("setup", spec)  # writes the bytecode cache; not counted
    probes, results = [], []
    server = Server(spec)
    try:
        server.answer()  # ready: its own set-up must not overlap the first probe
        start = time.perf_counter()
        while not results or time.perf_counter() - start < seconds:
            probes.append(run_worker("setup", spec))
            results.append(server.cycle())
    finally:
        server.close()
    records = [r for res in results for r in res["records"]]
    loops = [r["loop_s"] for r in records if "loop_s" in r] + [p["loop_s"] for p in probes]
    metrics = timing_metrics(at_reference_speed(records),
                             [p["setup_s"] * calibrate.REFERENCE_S / p["loop_s"] for p in probes])
    ratios = [r["read_ratio"] for r in ok_records(records, "repair_data")]
    if ratios:
        metrics["repair_read_ratio"] = statistics.median(ratios)
    metrics["peak_rss_MiB"] = max(res["peak_rss_kib"] for res in results) / 1024
    return metrics, {"records": records, "cycles": len(results), "setup_probes": len(probes),
                     "op_samples": len(ok_records(records)), "loop_s": statistics.median(loops),
                     "raw": timing_metrics(records, [p["setup_s"] for p in probes])}


def at_reference_speed(records: list[dict]) -> list[dict]:
    """The timed records of a run, in run order, each with its time scaled
    by the reference loop time over the median loop time of the
    SPEED_WINDOW operations around it.  A median over a few neighbours
    follows the machine's drift and ignores a loop pass that was
    interrupted."""
    timed = [r for r in records if "loop_s" in r]
    loops = [r["loop_s"] for r in timed]
    width = min(SPEED_WINDOW, len(loops))
    scaled = []
    for i, record in enumerate(timed):
        lo = min(max(0, i - width // 2), len(loops) - width)
        factor = calibrate.REFERENCE_S / statistics.median(loops[lo : lo + width])
        scaled.append({**record, "s": record["s"] * factor})
    return scaled


def timing_metrics(records: list[dict], setup_times: list[float]) -> dict:
    metrics = {"setup_s": statistics.median(setup_times)}
    for op in OPS:
        done = ok_records(records, op)
        if done:
            # work done over time spent, so a slow stretch weighs by its length
            metrics[f"{op}_MBps"] = sum(r["bytes"] for r in done) / sum(r["s"] for r in done) / 1e6
    latencies = [r["s"] * 1000 for r in ok_records(records)]
    if len(latencies) >= 2:
        metrics["op_p50_ms"] = statistics.median(latencies)
        metrics["op_p95_ms"] = statistics.quantiles(latencies, n=20, method="inclusive")[18]
    return metrics


def blocks_per_stripe(records: list[dict], op: str) -> float:
    done = ok_records(records, op)
    return sum(r["metered"] for r in done) / max(1, sum(r["stripes"] for r in done))


def xors_per_coded_block(records: list[dict], r: int) -> float:
    done = ok_records(records, "encode")
    return sum(x["xors"] for x in done) / max(1, 2 * r * sum(x["stripes"] for x in done))


def layer_metrics(spec: dict, res: dict) -> dict:
    self_s, calls, records = res["self_s"], res["calls"], res["records"]
    io = res["shard_io"]
    repairs = [r for op in ("repair_data", "repair_p", "repair_q") for r in ok_records(records, op)]
    metered_bytes = sum(r["metered"] for r in repairs) * spec["block_size"]
    return {
        "cli.self_s": self_s.get("cli", 0.0),
        "code.construct_s": self_s.get("code.construct", 0.0),
        "code.from_document_s": self_s.get("code.from_document", 0.0),
        "code.verify_s": self_s.get("code.verify", 0.0),
        "code.verify_calls": calls.get("code.verify", 0),
        "f2.self_s": self_s.get("f2", 0.0),
        "f2.calls": calls.get("f2", 0),
        "codec.execute_schedule_s": self_s.get("codec.execute_schedule", 0.0),
        "codec.xors": sum(r["xors"] for r in ok_records(records, "encode")),
        "codec.xors_per_coded_block": xors_per_coded_block(records, spec["r"]),
        "codec.decode_s": self_s.get("codec.decode", 0.0),
        "codec.execute_repair_s": self_s.get("codec.execute_repair", 0.0),
        "codec.repair_blocks_per_stripe.data": blocks_per_stripe(records, "repair_data"),
        "codec.repair_blocks_per_stripe.p": blocks_per_stripe(records, "repair_p"),
        "codec.repair_blocks_per_stripe.q": blocks_per_stripe(records, "repair_q"),
        "codec.plan_s": self_s.get("codec.plan", 0.0),
        "shards.self_s": self_s.get("shards", 0.0),
        "shards.bytes_read": sum(v["rchar"] for v in io.values()),
        "shards.bytes_written": sum(v["wchar"] for v in io.values()),
        "shards.read_calls": sum(v["syscr"] for v in io.values()),
        "shards.write_calls": sum(v["syscw"] for v in io.values()),
        "shards.opens": res["opens"],
        "shards.read_amplification": io.get("repair_shard", {}).get("rchar", 0) / max(1, metered_bytes),
    }


def self_time_problems(res: dict) -> list[str]:
    problems = [f"layer {layer} has negative self time {t:.3g} s"
                for layer, t in res["self_s"].items() if t < -1e-9]
    total = sum(res["self_s"].values())
    if total > res["wall_s"]:
        problems.append(f"self times sum to {total:.6f} s, above the traced wall {res['wall_s']:.6f} s")
    return problems


def traced(spec: dict, seconds: int) -> tuple[dict, dict]:
    """Alternate untraced and traced single-cycle processes, swapping which
    runs first in each pair; per-layer values are medians over the traced
    cycles."""
    plain, with_spans = [], []
    start = time.perf_counter()
    while not with_spans or time.perf_counter() - start < seconds:
        for trace in (False, True) if len(plain) % 2 == 0 else (True, False):
            (with_spans if trace else plain).append(run_worker("cycle", {**spec, "trace": trace}))
    rows = [layer_metrics(spec, res) for res in with_spans]
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    metrics["trace.overhead_ratio"] = (statistics.median(r["wall_s"] for r in with_spans)
                                       / statistics.median(r["wall_s"] for r in plain))
    records = [r for res in plain + with_spans for r in res["records"]]
    problems = [p for res in with_spans for p in self_time_problems(res)]
    return metrics, {"records": records, "cycles": len(with_spans), "problems": problems,
                     "traced_wall_s": [r["wall_s"] for r in with_spans],
                     "untraced_wall_s": [r["wall_s"] for r in plain]}


COUNT_METRICS = [name for name, unit in LAYER_UNITS.items() if unit in ("count", "bytes")]


def self_check(spec: dict, seed: int, scratch: Path) -> int:
    seen = []
    for s in (seed, seed + 1):
        run_spec = make_inputs(spec, s, scratch / f"seed_{s}")
        res = run_worker("cycle", {**run_spec, "trace": True})
        metrics = layer_metrics(run_spec, res)
        counts = {name: metrics[name] for name in COUNT_METRICS}
        counts["failed_ops"] = sum(not r["ok"] for r in res["records"])
        counts["repair_rchar"] = [r["rchar"] for r in ok_records(res["records"]) if "rchar" in r]
        print(f"seed {s}: {json.dumps(counts, sort_keys=True)}")
        seen.append(counts)
    same = seen[0] == seen[1] and seen[0]["failed_ops"] == 0
    print(f"counts identical under seeds {seed} and {seed + 1}: {'yes' if same else 'NO'}")
    return 0 if same else 1


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown (git did not run)"
    return proc.stdout.strip() or "unknown"


def print_report(name: str, spec: dict, args, metrics: dict, units: dict, info: dict) -> None:
    k, r, bs = spec["k"], spec["r"], spec["block_size"]
    stripes = spec["inputs"][0]["stripes"]
    records = info["records"]
    failed = sum(not rec["ok"] for rec in records)
    print(f"mdr6 perfbench: workload {name}, seed {args.seed}, seconds {args.seconds}, trace {args.trace}")
    print(f"  parameters: kind={spec['kind']} k={k} r={r} block_size={bs} "
          f"payload_bytes={spec['payload_bytes']} inputs={spec['count']} stripes_per_input={stripes} "
          f"decode2_missing={spec['decode2_missing']}")
    print(f"  python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}, "
          f"commit {git_commit()}")
    print(f"  cycles {info['cycles']}; operations attempted {len(records)}, failed {failed}, "
          f"error_rate {failed / max(1, len(records)):.4g}")
    if "op_samples" in info:
        print(f"  op latency samples {info['op_samples']}; setup probes {info['setup_probes']}")
        print(f"  calibration loop median {info['loop_s'] * 1e3:.4f} ms, reference "
              f"{calibrate.REFERENCE_S * 1e3:.4f} ms: times below are scaled to the reference speed")
    if "traced_wall_s" in info:
        print(f"  cycle wall traced {info['traced_wall_s']} s, untraced {info['untraced_wall_s']} s")
    raw = info.get("raw", {})
    for metric, value in metrics.items():
        as_measured = f"  (as measured {raw[metric]:.6g})" if metric in raw else ""
        print(f"  {metric:40s} {value:14.6g} {units[metric]}{as_measured}")
    if ok_records(records, "encode"):
        print(f"  check xors per coded block {xors_per_coded_block(records, r):g} "
              f"(analytic k-1 = {k - 1}, exact)")
    for op, analytic, formula in (("repair_data", (k + 1) * r // 2, "(k+1)r/2"),
                                  ("repair_p", (k + 1) * r // 2, "(k+1)r/2"), ("repair_q", k * r, "kr")):
        if ok_records(records, op):
            print(f"  check {op} blocks read per stripe {blocks_per_stripe(records, op):g} "
                  f"(analytic {formula} = {analytic}, exact)")
    ratios = [x["read_ratio"] for x in ok_records(records, "repair_data")]
    if ratios:
        print(f"  repair_read_ratio {statistics.median(ratios):.4f} syscall bytes over a conventional "
              f"rebuild (paper (k+1)/2k = {(k + 1) / (2 * k):.4f}; recorded, not gated)")
    for rec in records:
        if not rec["ok"]:
            print(f"  FAILED {rec['op']}: {rec.get('error', 'output check failed')}")
    for problem in info.get("problems", []):
        print(f"  FAILED trace check: {problem}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    # on SIGTERM, unwind through the finally blocks that stop the workers
    # and remove the scratch directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "mdr6" / "__init__.py").is_file():
        print(f"perfbench: no mdr6 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.self_check:
            return self_check(WORKLOADS[args.workload], args.seed, scratch)
        spec = make_inputs(WORKLOADS[args.workload], args.seed, scratch / "run")
        if args.trace:
            metrics, info = traced(spec, args.seconds)
            units = LAYER_UNITS
        else:
            metrics, info = end_to_end(spec, args.seconds)
            units = END_TO_END_UNITS
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    records = info["records"]
    failed = sum(not r["ok"] for r in records) + len(info.get("problems", []))
    correct = failed == 0 and set(metrics) == set(units)
    print_report(args.workload, spec, args, metrics, units, info)
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
