"""File sharding round-trips and the command-line front end."""

import itertools
import json
import os
import random
from pathlib import Path

import pytest

from mdr6 import shards
from mdr6.cli import main
from mdr6.analysis import search_repair_optimal
from mdr6.code import code_from_document, code_to_document, construct
from mdr6.codec import repair_plan
from mdr6.shards import ShardHeader, TooManyErasuresError

BS = 32


def make_file(tmp_path, size, seed=0) -> Path:
    path = tmp_path / f"input_{size}.bin"
    path.write_bytes(random.Random(seed).randbytes(size))
    return path


# -- shard headers ------------------------------------------------------------


def test_header_roundtrip():
    h = ShardHeader(k=3, r=8, disk_index=2, block_size=512, stripe_count=7, payload_length=80000)
    assert ShardHeader.unpack(h.pack()) == h


def test_header_rejects_bad_magic():
    raw = bytearray(ShardHeader(1, 2, 1, 512, 1, 10).pack())
    raw[:4] = b"XXXX"
    with pytest.raises(shards.IntegrityError):
        ShardHeader.unpack(bytes(raw))


def test_header_rejects_oversized_payload():
    raw = ShardHeader(1, 2, 1, 512, 1, 10**9).pack()
    with pytest.raises(shards.IntegrityError):
        ShardHeader.unpack(raw)


# -- encode / decode / repair round-trips --------------------------------------


@pytest.mark.parametrize(
    "size",
    [0, 1, 100, 3 * 8 * BS, 3 * 8 * BS + 1, 10_000],
)
def test_encode_decode_roundtrip_sizes(tmp_path, size):
    src = make_file(tmp_path, size, seed=size)
    shards.encode_file(src, tmp_path / "sh", k=3, block_size=BS)
    out = tmp_path / "out.bin"
    report = shards.decode_file(tmp_path / "sh", out)
    assert out.read_bytes() == src.read_bytes()
    assert report.payload_length == size


def test_empty_file_zero_stripes(tmp_path):
    src = make_file(tmp_path, 0)
    report = shards.encode_file(src, tmp_path / "sh", k=2, block_size=BS)
    assert report.stripe_count == 0
    assert report.xor_count == 0
    for p in report.shard_paths:
        assert Path(p).stat().st_size == shards.HEADER_SIZE


def test_encode_xor_count(tmp_path):
    src = make_file(tmp_path, 5000, seed=5)
    report = shards.encode_file(src, tmp_path / "sh", k=3, block_size=BS)
    r = 8
    assert report.xor_count == 2 * (3 - 1) * r * report.stripe_count


@pytest.mark.parametrize("k", [1, 2, 3])
def test_decode_survives_any_two_losses(tmp_path, k):
    src = make_file(tmp_path, 2500, seed=k)
    sh = tmp_path / f"sh{k}"
    shards.encode_file(src, sh, k=k, block_size=BS)
    originals = {p.name: p.read_bytes() for p in sh.glob("*.mdr")}
    for pat in itertools.combinations(range(1, k + 3), 2):
        for name, blob in originals.items():
            (sh / name).write_bytes(blob)
        for d in pat:
            os.remove(sh / shards.shard_name(d))
        out = tmp_path / "out.bin"
        shards.decode_file(sh, out)
        assert out.read_bytes() == src.read_bytes(), pat


def test_decode_rejects_three_losses(tmp_path):
    src = make_file(tmp_path, 1000, seed=9)
    sh = tmp_path / "sh"
    shards.encode_file(src, sh, k=2, block_size=BS)
    for d in (1, 2, 3):
        os.remove(sh / shards.shard_name(d))
    with pytest.raises(TooManyErasuresError):
        shards.decode_file(sh, tmp_path / "out.bin")


def test_decode_detects_corruption(tmp_path):
    src = make_file(tmp_path, 1000, seed=10)
    sh = tmp_path / "sh"
    shards.encode_file(src, sh, k=2, block_size=BS)
    target = sh / shards.shard_name(1)
    blob = bytearray(target.read_bytes())
    blob[shards.HEADER_SIZE] ^= 0xFF
    target.write_bytes(bytes(blob))
    with pytest.raises(shards.IntegrityError):
        shards.decode_file(sh, tmp_path / "out.bin")
    assert not (tmp_path / "out.bin").exists()


def test_truncated_shard_is_an_integrity_error(tmp_path):
    src = make_file(tmp_path, 3000, seed=15)
    sh = tmp_path / "sh"
    shards.encode_file(src, sh, k=3, block_size=BS)
    target = sh / shards.shard_name(1)
    target.write_bytes(target.read_bytes()[:-BS])
    out = tmp_path / "out.bin"
    with pytest.raises(shards.IntegrityError, match="truncated"):
        shards.decode_file(sh, out)
    assert main(["decode", str(sh), "--out", str(out)]) == 2
    assert not out.exists()
    q_shard = sh / shards.shard_name(5)  # Q repair reads every data block
    q_shard.unlink()
    with pytest.raises(shards.IntegrityError, match="truncated"):
        shards.repair_shard(sh)
    q_shard.unlink()  # the failed repair left a partial shard behind
    assert main(["repair", str(sh)]) == 2


def test_shard_opens_do_not_grow_with_stripes(tmp_path, monkeypatch):
    k, r = 3, 8
    opened = []
    original_open = Path.open

    def counted_open(self, *args, **kwargs):
        opened.append(self)
        return original_open(self, *args, **kwargs)

    opens = {}
    for stripes in (2, 40):
        src = make_file(tmp_path, k * r * BS * stripes, seed=stripes)
        sh = tmp_path / f"sh{stripes}"
        assert shards.encode_file(src, sh, k=k, block_size=BS).stripe_count == stripes
        os.remove(sh / shards.shard_name(1))
        opened.clear()
        with monkeypatch.context() as patch:
            patch.setattr(Path, "open", counted_open)
            shards.decode_file(sh, tmp_path / "out.bin")
            decode_opens = len(opened)
            shards.repair_shard(sh)
        opens[stripes] = (decode_opens, len(opened) - decode_opens)
    assert opens[2] == opens[40]


@pytest.mark.parametrize("k", [3, 6])
def test_decode_xor_count_per_stripe(tmp_path, monkeypatch, k):
    r = construct(k).r
    src = make_file(tmp_path, k * r * 8 * 2 + 1, seed=50 + k)
    sh = tmp_path / "sh"
    stripes = shards.encode_file(src, sh, k=k, block_size=8).stripe_count
    executed = []
    original = shards.execute_schedule

    def counted(schedule, inputs, block_size):
        outputs, n = original(schedule, inputs, block_size)
        executed.append(n)
        return outputs, n

    monkeypatch.setattr(shards, "execute_schedule", counted)
    out = tmp_path / "out.bin"
    shards.decode_file(sh, out)
    assert sum(executed) == 2 * (k - 1) * r * stripes  # the re-encode check
    os.remove(sh / shards.shard_name(2))
    executed.clear()
    shards.decode_file(sh, out)
    assert out.read_bytes() == src.read_bytes()
    assert sum(executed) == (k - 1) * r * stripes


@pytest.mark.parametrize("victim", [1, 2, 4, 5])
def test_repair_rebuilds_identical_shard(tmp_path, victim):
    k, r = 3, 8
    src = make_file(tmp_path, 7000, seed=victim)
    sh = tmp_path / "sh"
    report = shards.encode_file(src, sh, k=k, block_size=BS)
    original = (sh / shards.shard_name(victim)).read_bytes()
    os.remove(sh / shards.shard_name(victim))
    rrep = shards.repair_shard(sh)
    assert rrep.disk_index == victim
    assert (sh / shards.shard_name(victim)).read_bytes() == original
    stripes = report.stripe_count
    if victim <= k + 1:
        expected = {(r // 2) * stripes}
        assert set(rrep.blocks_read_per_shard.values()) == expected
        assert set(rrep.bytes_read_per_shard.values()) == {(r // 2) * BS * stripes}
    else:
        assert all(
            rrep.blocks_read_per_shard[d] == r * stripes for d in range(1, k + 1)
        )
        assert rrep.blocks_read_per_shard.get(k + 1, 0) == 0


@pytest.mark.parametrize("k, q_xors", [(3, 26), (6, 578)])
def test_repair_xor_count_per_stripe(tmp_path, k, q_xors):
    code = construct(k)
    r = code.r
    src = make_file(tmp_path, k * r * 8 * 2 + 1, seed=40 + k)
    sh = tmp_path / "sh"
    stripes = shards.encode_file(src, sh, k=k, block_size=8).stripe_count
    assert repair_plan(code, k + 2).schedule.xor_count == q_xors
    for victim in range(1, k + 3):
        original = (sh / shards.shard_name(victim)).read_bytes()
        os.remove(sh / shards.shard_name(victim))
        report = shards.repair_shard(sh)
        assert (sh / shards.shard_name(victim)).read_bytes() == original
        per_stripe = (k - 1) * r if victim <= k + 1 else q_xors
        assert report.xor_count == per_stripe * stripes, victim


def test_repair_rejects_two_missing(tmp_path):
    src = make_file(tmp_path, 1000, seed=11)
    sh = tmp_path / "sh"
    shards.encode_file(src, sh, k=2, block_size=BS)
    os.remove(sh / shards.shard_name(1))
    os.remove(sh / shards.shard_name(2))
    with pytest.raises(TooManyErasuresError, match="decode"):
        shards.repair_shard(sh)


def test_repair_wrong_missing_index(tmp_path):
    src = make_file(tmp_path, 1000, seed=12)
    sh = tmp_path / "sh"
    shards.encode_file(src, sh, k=1, block_size=BS)
    os.remove(sh / shards.shard_name(2))
    with pytest.raises(ValueError):
        shards.repair_shard(sh, missing_index=1)


def test_sibling_header_mismatch(tmp_path):
    src = make_file(tmp_path, 1000, seed=13)
    sh = tmp_path / "sh"
    shards.encode_file(src, sh, k=1, block_size=BS)
    target = sh / shards.shard_name(1)
    other = shards.encode_file(make_file(tmp_path, 400, seed=14), tmp_path / "sh2", k=1, block_size=BS)
    target.write_bytes(Path(other.shard_paths[0]).read_bytes())
    with pytest.raises(shards.IntegrityError):
        shards.decode_file(sh, tmp_path / "out.bin")


# -- CLI ------------------------------------------------------------------------


def test_cli_gen_document(capsys):
    assert main(["gen", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["b_matrices"][0] == ["01", "00"]
    loaded = code_from_document(doc)
    assert (loaded.k, loaded.r) == (1, 2)


def test_cli_gen_k3(capsys):
    assert main(["gen", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["k"], doc["r"]) == (3, 8)


def test_cli_gen_invalid_k(capsys):
    assert main(["gen", "0"]) == 1


def test_cli_unknown_command():
    assert main(["frobnicate"]) == 1


def test_cli_encode_repair_decode_flow(tmp_path, capsys):
    src = make_file(tmp_path, 4096, seed=20)
    sh = tmp_path / "sh"
    assert main(["encode", str(src), "--k", "2", "--block-size", "64",
                 "--out-dir", str(sh), "--json"]) == 0
    enc = json.loads(capsys.readouterr().out)
    assert enc["xor_count"] == 2 * 1 * 4 * enc["stripes"]

    os.remove(sh / shards.shard_name(3))
    assert main(["repair", str(sh), "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["disk_index"] == 3
    assert rep["xor_count"] == (2 - 1) * 4 * enc["stripes"]
    assert set(rep["bytes_read_per_shard"].values()) == {2 * 64 * enc["stripes"]}

    out = tmp_path / "restored.bin"
    assert main(["decode", str(sh), "--out", str(out)]) == 0
    assert out.read_bytes() == src.read_bytes()


def test_cli_decode_meter(tmp_path, capsys):
    src = make_file(tmp_path, 3000, seed=30)
    sh = tmp_path / "sh"
    assert main(["encode", str(src), "--k", "2", "--block-size", "32",
                 "--out-dir", str(sh)]) == 0
    capsys.readouterr()
    out = tmp_path / "out.bin"
    assert main(["decode", str(sh), "--out", str(out), "--meter", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    stripes = doc["stripes"]
    # full decode reads every block of every present shard
    assert all(n == 4 * 32 * stripes for n in doc["bytes_read_per_shard"].values())


def test_cli_decode_with_losses_and_exit_codes(tmp_path):
    src = make_file(tmp_path, 2000, seed=21)
    sh = tmp_path / "sh"
    assert main(["encode", str(src), "--k", "2", "--block-size", "32",
                 "--out-dir", str(sh)]) == 0
    os.remove(sh / shards.shard_name(1))
    os.remove(sh / shards.shard_name(4))
    out = tmp_path / "out.bin"
    assert main(["decode", str(sh), "--out", str(out)]) == 0
    assert out.read_bytes() == src.read_bytes()
    os.remove(sh / shards.shard_name(2))
    assert main(["decode", str(sh), "--out", str(out)]) == 3
    assert main(["repair", str(sh)]) == 3


def test_cli_corrupt_header_exit_code(tmp_path):
    src = make_file(tmp_path, 512, seed=22)
    sh = tmp_path / "sh"
    assert main(["encode", str(src), "--k", "1", "--block-size", "32",
                 "--out-dir", str(sh)]) == 0
    target = sh / shards.shard_name(1)
    blob = bytearray(target.read_bytes())
    blob[0] ^= 0xFF
    target.write_bytes(bytes(blob))
    assert main(["decode", str(sh), "--out", str(tmp_path / "o.bin")]) == 2


def test_cli_encode_with_code_document(tmp_path, capsys):
    assert main(["gen", "2", "--out", str(tmp_path / "code.json")]) == 0
    capsys.readouterr()
    src = make_file(tmp_path, 900, seed=23)
    sh = tmp_path / "sh"
    assert main(["encode", str(src), "--code", str(tmp_path / "code.json"),
                 "--block-size", "32", "--out-dir", str(sh)]) == 0
    out = tmp_path / "out.bin"
    assert main(["decode", str(sh), "--out", str(out),
                 "--code", str(tmp_path / "code.json")]) == 0
    assert out.read_bytes() == src.read_bytes()


def test_cli_round_trip_with_search_found_code(tmp_path, capsys):
    assert main(["analyze", "--k", "2", "--search", "2", "--limit", "5000", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)["search"]["found"][0]
    code_path = tmp_path / "code.json"
    code_path.write_text(json.dumps(doc))
    src = make_file(tmp_path, 1000, seed=24)
    sh = tmp_path / "sh"
    assert main(["encode", str(src), "--code", str(code_path), "--block-size", "16",
                 "--out-dir", str(sh)]) == 0
    originals = {d: (sh / shards.shard_name(d)).read_bytes() for d in range(1, 5)}
    out = tmp_path / "out.bin"
    for victim in range(1, 5):
        os.remove(sh / shards.shard_name(victim))
        assert main(["repair", str(sh), "--code", str(code_path)]) == 0
        assert (sh / shards.shard_name(victim)).read_bytes() == originals[victim]
        assert main(["decode", str(sh), "--out", str(out), "--code", str(code_path)]) == 0
        assert out.read_bytes() == src.read_bytes()
    for pair in itertools.combinations(range(1, 5), 2):
        for d in pair:
            os.remove(sh / shards.shard_name(d))
        assert main(["decode", str(sh), "--out", str(out), "--code", str(code_path)]) == 0
        assert out.read_bytes() == src.read_bytes()
        for d in pair:
            (sh / shards.shard_name(d)).write_bytes(originals[d])


def test_cli_analyze_oracle(tmp_path, capsys):
    assert main(["analyze", "--k", "2", "--oracle", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["update_io"] == [9, 4]
    mins = {d: doc["min_io"][d]["total"] for d in doc["min_io"]}
    assert mins == {"1": 6, "2": 6, "3": 6, "4": 8}


def test_cli_analyze_with_code_document(tmp_path, capsys):
    assert main(["gen", "2", "--out", str(tmp_path / "code.json")]) == 0
    capsys.readouterr()
    assert main(["analyze", "--code", str(tmp_path / "code.json"), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["update_io"] == [9, 4]
    assert doc["encode_xors"] == 8  # loaded document matches the built family
    assert doc["repair_xors"] == 4
    found = search_repair_optimal(2, 2).found[0]
    (tmp_path / "found.json").write_text(json.dumps(code_to_document(found)))
    assert main(["analyze", "--code", str(tmp_path / "found.json"), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["encode_xors"], doc["repair_xors"]) == (5, 2)


def test_cli_analyze_update_io_k5(capsys):
    assert main(["analyze", "--k", "5", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["update_io"] == [3, 1]


def test_cli_analyze_search_no_code(capsys):
    assert main(["analyze", "--k", "3", "--search", "2"]) == 0
    out = capsys.readouterr().out
    assert "no repair-optimal code exists" in out


def test_cli_analyze_requires_k_or_code(capsys):
    assert main(["analyze"]) == 1


def test_cli_simulate_deterministic_and_csv(tmp_path, capsys):
    args = ["simulate", "--k", "3", "--stripes", "6", "--seed", "5",
            "--rate", "100", "--strategy", "compare"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    assert "read ratio 0.6667" in first

    csv_path = tmp_path / "trace.csv"
    assert main(["simulate", "--k", "2", "--stripes", "3", "--strategy", "mdr",
                 "--csv", str(csv_path)]) == 0
    capsys.readouterr()
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("completion_ms")
    assert len(lines) > 3 * 4  # reads plus writes


def test_cli_simulate_k8_ratio(capsys):
    assert main(["simulate", "--k", "8", "--stripes", "4", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["read_ratio"] == [9, 16]
