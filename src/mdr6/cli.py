"""Command-line front end.

Exit codes: 0 success, 1 usage error or a batch process that died,
2 data integrity failure, 3 unrecoverable erasure count, 4 a block read or
write of a shard, input or output file that failed (an I/O error).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache, lru_cache
from itertools import combinations
from pathlib import Path

from . import shards
from .code import MdrCode, code_from_document, code_to_document, construct
from .codec import IntegrityError, plan
from .f2 import BitMatrix

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INTEGRITY = 2
EXIT_ERASURES = 3
EXIT_IO = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@lru_cache(maxsize=4)
def _verified_code(raw: bytes) -> MdrCode:
    """The code a document's bytes describe, parsed and verified in full
    once per process for each distinct document this cache keeps.

    Keyed on the bytes, so a rewritten file is verified again; a document
    that fails to parse or verify raises, and nothing is cached for it."""
    return code_from_document(json.loads(raw))


def _load_code_arg(args) -> MdrCode | None:
    if getattr(args, "code", None) is None:
        return None
    code = _verified_code(Path(args.code).read_bytes())
    if getattr(args, "k", None) not in (None, code.k):
        raise UsageError(f"--k {args.k} conflicts with --code {args.code}, whose k is {code.k}")
    return code


def _require_k(args) -> int:
    if args.k is None:
        raise UsageError("--k is required when no --code document is given")
    return args.k


def cmd_gen(args) -> int:
    doc = json.dumps(code_to_document(construct(args.k)), indent=2)
    if args.out:
        Path(args.out).write_text(doc + "\n")
    else:
        print(doc)
    return EXIT_OK


def _document(value):
    """value as JSON holds it: a dict with string keys (int keys sorted), a
    list for a list or tuple, a code's document, a matrix's bit strings,
    a fraction as [numerator, denominator] and a record as its fields."""
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, dict):
        items = sorted(value.items()) if all(type(key) is int for key in value) else value.items()
        return {str(key): _document(item) for key, item in items}
    if isinstance(value, (list, tuple)):
        return [_document(item) for item in value]
    if isinstance(value, MdrCode):
        return code_to_document(value)
    if isinstance(value, BitMatrix):
        return value.to_bitstrings()
    if hasattr(value, "denominator"):
        return [value.numerator, value.denominator]
    return {name: _document(getattr(value, name)) for name in value.__match_args__}


def _output(args, doc, lines: list[str], reads: shards.RepairReport | shards.DecodeReport | None = None) -> int:
    """Print doc, a dict or a record, as JSON with --json, else the text lines; a
    report's reads from each shard, when given, join both."""
    if reads is not None:
        doc["blocks_read_per_shard"] = reads.blocks_read_per_shard
        doc["bytes_read_per_shard"] = nbytes = reads.bytes_read_per_shard
        lines += [f"  read from shard {d}: {n} blocks ({nbytes[d]} bytes)"
                  for d, n in sorted(reads.blocks_read_per_shard.items())]
    print(json.dumps(_document(doc), allow_nan=False) if args.json else "\n".join(lines))
    return EXIT_OK


def cmd_encode(args) -> int:
    code = _load_code_arg(args)
    k = code.k if code is not None else _require_k(args)
    report = shards.encode_file(
        args.input, args.out_dir, k, block_size=args.block_size, code=code
    )
    doc = {"stripes": report.stripe_count, "xor_count": report.xor_count, "shards": list(report.shard_paths)}
    return _output(args, doc, [
        f"encoded {args.input}: {report.stripe_count} stripes, "
        f"{len(report.shard_paths)} shards, {report.xor_count} block XORs"
    ])


def cmd_repair(args) -> int:
    code = _load_code_arg(args)
    report = shards.repair_shard(args.shard_dir, args.missing, code=code)
    doc = {
        "disk_index": report.disk_index,
        "shard": report.shard_path,
        "stripes": report.stripe_count,
        "xor_count": report.xor_count,
    }
    return _output(args, doc, [
        f"repaired shard {report.disk_index} -> {report.shard_path}: "
        f"{report.stripe_count} stripes, {report.xor_count} block XORs"
    ], report)


def cmd_decode(args) -> int:
    code = _load_code_arg(args)
    report = shards.decode_file(args.shard_dir, args.out, code=code)
    doc = {
        "missing": list(report.missing),
        "stripes": report.stripe_count,
        "bytes": report.payload_length,
        "xor_count": report.xor_count,
    }
    gone = ", ".join(map(str, report.missing)) if report.missing else "none"
    return _output(args, doc, [
        f"decoded {report.payload_length} bytes from {args.shard_dir} "
        f"(missing shards: {gone}), {report.xor_count} block XORs"
    ], report)


def cmd_analyze(args) -> int:
    from fractions import Fraction

    from . import analysis  # the offline tools load only for the commands that use them

    code = _load_code_arg(args)
    if code is None:
        code = construct(_require_k(args))
    out: dict = {"k": code.k, "r": code.r}
    lines = [f"code: k={code.k}, r={code.r}"]

    ui = out["update_io"] = analysis.update_io(code)
    lines.append(f"update disk I/O: {ui} ({float(ui):g} parity blocks per update)")

    out["lower_bounds_met"] = analysis.check_lower_bounds(code)
    lines.append(f"repair plans meet the I/O bounds exactly: {out['lower_bounds_met']}")

    def xors(missing: tuple[int, ...], want: tuple[int, ...]) -> int:
        return analysis.count_schedule_xors(plan(code, missing, want)[0], code)

    k = code.k
    enc = out["encode_xors"] = xors((k + 1, k + 2), (k + 1, k + 2))
    rep = out["repair_xors"] = xors((1,), (1,))
    lost = [*combinations(range(1, k + 3), 1), *combinations(range(1, k + 3), 2)]
    dec = out["decode_xors"] = max(xors(missing, tuple(range(1, k + 1))) for missing in lost)
    lines.append(
        f"encode schedule: {enc} XORs/stripe "
        f"({Fraction(enc, code.r)} per coded block pair)"  # r pairs of P and Q blocks
    )
    lines.append(f"repair schedule: {rep} XORs per rebuilt strip")
    lines.append(f"decode schedules: at most {dec} XORs/stripe with up to two disks lost")

    if args.oracle:
        out["min_io"] = reports = {d: analysis.min_io_bruteforce(code, d) for d in range(1, code.k + 3)}
        lines += [f"minimum I/O to rebuild disk {d}: {rep.total} blocks" for d, rep in reports.items()]

    if args.search is not None:
        result = out["search"] = analysis.search_repair_optimal(code.k, args.search, limit=args.limit)
        if result.found:
            lines.append(
                f"search (k={code.k}, r={args.search}): {len(result.found)} repair-optimal "
                f"code(s), exhausted={result.exhausted}, {result.examined} steps"
            )
        else:
            lines.append(
                f"search (k={code.k}, r={args.search}): no repair-optimal code exists"
                if result.exhausted
                else f"search (k={code.k}, r={args.search}): none found before the budget ran out"
            )

    return _output(args, out, lines)


def cmd_simulate(args) -> int:
    import csv

    from . import sim

    if args.csv and args.strategy == "compare":
        raise UsageError("--csv traces one run: pick --strategy conventional or mdr")
    model = sim.DiskModel(
        seek_ms=args.seek_ms,
        rotational_ms=args.rotational_ms,
        transfer_bytes_per_ms=args.transfer,
        seq_window_blocks=args.seq_window,
    )
    config = sim.SimConfig(
        k=args.k,
        stripe_count=args.stripes,
        block_size=args.block_size,
        background_rate=args.rate,
        seed=args.seed,
    )

    def describe(report: sim.SimReport) -> list[str]:
        return [
            f"[{report.strategy}] {report.notes}",
            f"  recovery time: {report.total_time_ms:.2f} ms; "
            f"summed read time per survivor, mean over survivors: {report.avg_access_ms:.2f} ms",
            f"  blocks read: {report.total_blocks_read} "
            f"(ratio vs conventional {float(report.read_volume_ratio):.4f}); "
            f"background requests: {report.background_requests}",
        ]

    if args.strategy == "compare":
        doc = sim.compare(config, model)
        lines = [
            *describe(doc.conventional),
            *describe(doc.mdr),
            f"  read ratio {float(doc.read_ratio):.4f}, "
            f"access-time ratio {doc.access_time_ratio:.4f}, "
            f"recovery-time ratio {doc.recovery_time_ratio:.4f}",
        ]
    else:
        trace: list | None = [] if args.csv else None
        doc = sim.simulate(config, model, args.strategy, trace=trace)
        lines = describe(doc)
        if args.csv:
            with open(args.csv, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["completion_ms", "disk", "kind", "lba", "response_ms"])
                writer.writerows(trace)
    return _output(args, doc, lines)


@cache
def build_parser() -> _Parser:
    """The command parser, built on the first call and shared after: it
    holds no per-command state, since parse_args returns a new namespace."""
    parser = _Parser(prog="mdr6", description="MDR RAID-6 erasure coding toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit the code-description document for a given k")
    p.add_argument("k", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("encode", help="shard a file into k+2 shard files")
    p.add_argument("input")
    p.add_argument("--k", type=int)
    p.add_argument("--code", help="code-description document to use instead of --k")
    p.add_argument("--block-size", type=int, default=512)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("repair", help="regenerate one missing shard with metered reads")
    p.add_argument("shard_dir")
    p.add_argument("--missing", type=int)
    p.add_argument("--code")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser("decode", help="rebuild the original file (up to 2 shards missing)")
    p.add_argument("shard_dir")
    p.add_argument("--out", required=True)
    p.add_argument("--code")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("analyze", help="I/O bounds, update I/O, XOR counts, searches")
    p.add_argument("--k", type=int)
    p.add_argument("--code")
    p.add_argument("--oracle", action="store_true", help="run the exhaustive minimum-I/O search")
    p.add_argument("--search", type=int, metavar="R", help="search for repair-optimal (k, R) codes")
    p.add_argument("--limit", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="run the rebuild simulator")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--stripes", type=int, default=64)
    p.add_argument("--strategy", choices=["conventional", "mdr", "compare"], default="compare")
    p.add_argument("--block-size", type=int, default=512)
    p.add_argument("--rate", type=float, default=0.0, help="background requests/s (0 = offline)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seek-ms", type=float, default=8.0)
    p.add_argument("--rotational-ms", type=float, default=4.0)
    p.add_argument("--transfer", type=float, default=100_000.0, help="bytes per ms")
    p.add_argument("--seq-window", type=int, default=512)
    p.add_argument("--csv", help="write every request one strategy served to a CSV file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except shards.TooManyErasuresError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERASURES
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except shards.TransferError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ChildProcessError as exc:  # an OSError, but no fault of the command line
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
