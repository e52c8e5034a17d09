"""What a shard set must be before anything is read from it or written
beside it: every refusal exits 2 (or 1 for a bad command line) and leaves
no output, no temporary file and every shard as it was."""

import json
import os
import random
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdr6 import shards
from mdr6.cli import main
from mdr6.code import code_from_document, code_to_document, construct
from mdr6.shards import HEADER_SIZE, MAGIC, ShardHeader, shard_name
from test_shards_cli import swapped_document

K, R, BS = 3, 8, 8
PAYLOAD = random.Random(7).randbytes(K * R * BS + 5)  # two stripes, the last ragged
SHARD_BYTES = HEADER_SIZE + 2 * R * BS


def snapshot(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.fixture(scope="module")
def shard_set(tmp_path_factory) -> dict:
    """The name and bytes of each shard of PAYLOAD encoded at K."""
    tmp = tmp_path_factory.mktemp("set")
    (tmp / "in.bin").write_bytes(PAYLOAD)
    shards.encode_file(tmp / "in.bin", tmp / "sh", K, block_size=BS)
    files = snapshot(tmp / "sh")
    assert {len(blob) for blob in files.values()} == {SHARD_BYTES}
    return files


def lay_out(directory: Path, files: dict) -> Path:
    sh = directory / "sh"
    sh.mkdir()
    for name, blob in files.items():
        (sh / name).write_bytes(blob)
    return sh


def assert_refused(sh: Path, capsys, message: str | None, *commands: list) -> None:
    """Each command exits 2 with message (with None, any integrity error) and
    changes nothing: no output or temporary file beside the shard directory
    and every file in it as it was."""
    before, beside = snapshot(sh), sorted(sh.parent.iterdir())
    out = sh.parent / "out.bin"
    for command in commands or (["decode", str(sh), "--out", str(out)],):
        assert main(command) == 2, command
        err = capsys.readouterr().err
        assert err.startswith("integrity error: ") if message is None else err == f"integrity error: {message}\n"
        assert snapshot(sh) == before
        assert sorted(sh.parent.iterdir()) == beside
        assert not out.exists()


def with_field(blob: bytes, fmt: str, offset: int, value: int) -> bytes:
    raw = bytearray(blob)
    struct.pack_into(fmt, raw, offset, value)
    return bytes(raw)


# -- refusals at open ------------------------------------------------------------


def test_a_header_shorter_than_its_fixed_size_is_refused(tmp_path, capsys, shard_set):
    sh = lay_out(tmp_path, {**shard_set, shard_name(2): shard_set[shard_name(2)][: HEADER_SIZE - 1]})
    with pytest.raises(shards.IntegrityError, match="^shard file shorter than its header$"):
        ShardHeader.unpack(b"")
    (sh / shard_name(1)).unlink()
    assert_refused(sh, capsys, "shard file shorter than its header",
                   ["decode", str(sh), "--out", str(tmp_path / "out.bin")], ["repair", str(sh)])


def test_a_block_size_above_one_read_call_is_refused(tmp_path, capsys, monkeypatch, shard_set):
    # such a block would be cut short by the one preadv that reads it, so the header is refused
    size = shards._RW_MAX + 1
    sh = lay_out(tmp_path, {**shard_set, shard_name(2): with_field(shard_set[shard_name(2)], "<I", 14, size)})
    (sh / shard_name(1)).unlink()

    def no_body_read(*args):
        raise AssertionError("a body byte was read")

    monkeypatch.setattr(os, "preadv", no_body_read)
    assert_refused(sh, capsys, f"shard block size {size} outside [1, {shards._RW_MAX}]",
                   ["decode", str(sh), "--out", str(tmp_path / "out.bin")], ["repair", str(sh)])


def test_an_unsupported_format_version_is_refused(tmp_path, capsys, shard_set):
    sh = lay_out(tmp_path, {**shard_set, shard_name(2): with_field(shard_set[shard_name(2)], "<H", 4, 2)})
    assert_refused(sh, capsys, "unsupported shard format version 2")


@pytest.mark.parametrize("disk", [0, K + 3])
def test_a_disk_index_outside_the_set_is_refused(tmp_path, capsys, shard_set, disk):
    sh = lay_out(tmp_path, {**shard_set, shard_name(2): with_field(shard_set[shard_name(2)], "<H", 12, disk)})
    assert_refused(sh, capsys, f"disk index {disk} outside [1, {K + 2}]")


def test_a_directory_without_shards_is_refused(tmp_path, capsys):
    sh = lay_out(tmp_path, {"notes.txt": b"not a shard"})
    assert_refused(sh, capsys, f"no shard files found in {sh}",
                   ["decode", str(sh), "--out", str(tmp_path / "out.bin")], ["repair", str(sh)])


@pytest.mark.parametrize("command", ["decode", "repair"])
def test_a_directory_that_does_not_exist_is_a_usage_error(tmp_path, capsys, command):
    sh = tmp_path / "nodir"
    argv = [command, str(sh)] + (["--out", str(tmp_path / "out.bin")] if command == "decode" else [])
    assert main(argv) == 1
    assert capsys.readouterr().err == f"usage error: no shard directory {sh}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == []


def test_a_code_of_another_k_and_r_is_refused(tmp_path, capsys, shard_set):
    sh = lay_out(tmp_path, shard_set)
    doc = tmp_path / "k2.json"
    doc.write_text(json.dumps(code_to_document(construct(2))))
    (sh / shard_name(4)).unlink()
    out = str(tmp_path / "out.bin")
    assert_refused(sh, capsys, f"code is (2,4) but shards need ({K},{R})",
                   ["decode", str(sh), "--out", out, "--code", str(doc)], ["repair", str(sh), "--code", str(doc)])


@pytest.mark.parametrize("command", ["decode", "repair"])
def test_a_shard_that_shrinks_after_it_was_opened_is_refused(tmp_path, capsys, monkeypatch, shard_set, command):
    sh = lay_out(tmp_path, shard_set)
    (sh / shard_name(2)).unlink()
    victim = sh / shard_name(1)
    # the plan is made after every shard was opened and its size checked
    original = shards.plan

    def shrink_then_plan(*args):
        victim.write_bytes(victim.read_bytes()[: HEADER_SIZE + BS])
        return original(*args)

    monkeypatch.setattr(shards, "plan", shrink_then_plan)
    argv = [command, str(sh)] + (["--out", str(tmp_path / "out.bin")] if command == "decode" else [])
    assert main(argv) == 2
    assert f"integrity error: {victim} was truncated or grew" in capsys.readouterr().err
    assert sorted(p.name for p in sh.iterdir()) == [shard_name(d) for d in (1, 3, 4, 5)]
    assert not (tmp_path / "out.bin").exists()


@pytest.mark.parametrize("name", ["copy.mdr", "shard_2.mdr", shard_name(K + 3)])
def test_a_second_file_for_one_disk_is_refused(tmp_path, capsys, shard_set, name):
    # whatever its name, a copy of disk 2 is not named for disk 2
    sh = lay_out(tmp_path, {**shard_set, name: shard_set[shard_name(2)]})
    message = f"shard {sh / name} holds disk 2, so it must be named {shard_name(2)}"
    assert_refused(sh, capsys, message)
    (sh / shard_name(5)).unlink()
    assert_refused(sh, capsys, message, ["repair", str(sh)])


def test_a_shard_renamed_to_a_missing_disk_is_refused(tmp_path, capsys, shard_set):
    files = dict(shard_set)
    files[shard_name(3)] = files.pop(shard_name(1))
    sh = lay_out(tmp_path, files)
    assert_refused(sh, capsys, f"shard {sh / shard_name(3)} holds disk 1, so it must be named {shard_name(1)}",
                   ["decode", str(sh), "--out", str(tmp_path / "out.bin")], ["repair", str(sh)])


def test_encode_with_a_code_of_another_k_writes_nothing(tmp_path):
    (tmp_path / "in.bin").write_bytes(PAYLOAD)
    with pytest.raises(ValueError, match="^supplied code does not match k$"):
        shards.encode_file(tmp_path / "in.bin", tmp_path / "sh", K, block_size=BS, code=construct(K - 1))
    assert sorted(tmp_path.iterdir()) == [tmp_path / "in.bin"]


# -- encode into a directory that holds another set -------------------------------


def test_encode_refuses_a_directory_holding_shards_of_a_larger_set(tmp_path, capsys):
    src = tmp_path / "in.bin"
    src.write_bytes(PAYLOAD)
    sh = tmp_path / "sh"
    assert main(["encode", str(src), "--k", "6", "--block-size", str(BS), "--out-dir", str(sh)]) == 0
    capsys.readouterr()
    before = snapshot(sh)
    with pytest.raises(ValueError, match=f"^{sh} holds shard_06.mdr, which is no shard of a k=3 set"):
        shards.encode_file(src, sh, 3, block_size=BS)
    for k in ("3", "2"):
        assert main(["encode", str(src), "--k", k, "--block-size", str(BS), "--out-dir", str(sh)]) == 1
        assert "usage error: " in capsys.readouterr().err
        assert snapshot(sh) == before
    assert main(["decode", str(sh), "--out", str(tmp_path / "out.bin")]) == 0
    assert (tmp_path / "out.bin").read_bytes() == PAYLOAD


def test_encode_refuses_a_stray_shard_file_and_replaces_its_own_set(tmp_path):
    src = tmp_path / "in.bin"
    src.write_bytes(PAYLOAD)
    sh = tmp_path / "sh"
    shards.encode_file(src, sh, K, block_size=BS)
    src.write_bytes(PAYLOAD[::-1])
    shards.encode_file(src, sh, K, block_size=2 * BS)  # every name is replaced
    shards.decode_file(sh, tmp_path / "out.bin")
    assert (tmp_path / "out.bin").read_bytes() == PAYLOAD[::-1]
    (sh / "old.mdr").write_bytes(b"")
    before = snapshot(sh)
    with pytest.raises(ValueError, match="holds old.mdr"):
        shards.encode_file(src, sh, K, block_size=BS)
    assert snapshot(sh) == before


# -- a code document without repair strategies ----------------------------------


def test_a_code_without_strategies_repairs_every_disk_by_row_parity(tmp_path, capsys):
    doc = code_to_document(construct(K))
    doc["strategies"] = None
    code_path = tmp_path / "code.json"
    code_path.write_text(json.dumps(doc))
    src = tmp_path / "in.bin"
    src.write_bytes(random.Random(3).randbytes(K * R * 512 * 3 + 11))
    sh = tmp_path / "sh"
    assert main(["encode", str(src), "--code", str(code_path), "--out-dir", str(sh), "--json"]) == 0
    stripes = json.loads(capsys.readouterr().out)["stripes"]
    for victim in range(1, K + 3):
        shard = sh / shard_name(victim)
        blob = shard.read_bytes()
        shard.unlink()
        assert main(["repair", str(sh), "--code", str(code_path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert shard.read_bytes() == blob
        if victim <= K + 1:  # every row of the other basic disks, nothing of Q
            reads = {str(d): R * stripes for d in range(1, K + 2) if d != victim} | {str(K + 2): 0}
            assert report["blocks_read_per_shard"] == reads
            assert report["xor_count"] == (K - 1) * R * stripes
    assert main(["analyze", "--code", str(code_path), "--json"]) == 0
    analyzed = json.loads(capsys.readouterr().out)
    assert analyzed["lower_bounds_met"] is False
    assert analyzed["repair_xors"] == (K - 1) * R


# -- silent wrong-output paths (ROADMAP "State"), each at k=3 with 512 B blocks ------

SILENT_BS = 512
SILENT_PAYLOAD = random.Random(11).randbytes(200_001)
SILENT_OTHER = random.Random(12).randbytes(len(SILENT_PAYLOAD))  # other data of the same length


@pytest.fixture(scope="module")
def silent_sets(tmp_path_factory) -> dict:
    """The shard files of SILENT_PAYLOAD encoded at K, of other data of its
    length, and of SILENT_PAYLOAD under the code with data disks 1 and 2
    swapped, by name."""
    tmp = tmp_path_factory.mktemp("silent")
    sets = {}
    for name, payload, code in [
        ("plain", SILENT_PAYLOAD, None),
        ("other", SILENT_OTHER, None),
        ("swapped", SILENT_PAYLOAD, code_from_document(swapped_document(K))),
    ]:
        (tmp / name).write_bytes(payload)
        shards.encode_file(tmp / name, tmp / f"{name}.sh", K, block_size=SILENT_BS, code=code)
        sets[name] = snapshot(tmp / f"{name}.sh")
    return sets


@pytest.mark.xfail(raises=AssertionError, reason="silent path 1: decode of a lost data disk checks no "
                   "parity; ROADMAP item 10 step 1 checks the unread parity halves")
def test_a_flipped_payload_byte_with_a_data_shard_missing_is_refused(tmp_path, capsys, silent_sets):
    files = dict(silent_sets["plain"])
    del files[shard_name(1)]
    blob = bytearray(files[shard_name(2)])
    blob[HEADER_SIZE] ^= 1  # row 1 of stripe 1: payload, not the last stripe's padding
    assert_refused(lay_out(tmp_path, {**files, shard_name(2): bytes(blob)}), capsys, None)


@pytest.mark.xfail(raises=AssertionError, reason="silent path 2: repair reads no redundancy beyond its "
                   "rebuild; ROADMAP item 2 checks each lane's CRC")
def test_a_survivor_flipped_in_every_block_is_refused_by_a_parity_repair(tmp_path, capsys, silent_sets):
    files = dict(silent_sets["plain"])
    del files[shard_name(K + 1)]
    blob = bytearray(files[shard_name(2)])
    for at in range(HEADER_SIZE, len(blob), SILENT_BS):
        blob[at] ^= 1
    sh = lay_out(tmp_path, {**files, shard_name(2): bytes(blob)})
    assert_refused(sh, capsys, None, ["repair", str(sh)])


@pytest.mark.xfail(raises=AssertionError, reason="silent path 3: decode of a lost data disk checks no "
                   "parity; ROADMAP item 10 step 1 checks the unread parity halves")
def test_a_shard_of_another_encode_with_a_data_shard_missing_is_refused(tmp_path, capsys, silent_sets):
    files = dict(silent_sets["plain"])
    del files[shard_name(1)]
    files[shard_name(2)] = silent_sets["other"][shard_name(2)]
    assert_refused(lay_out(tmp_path, files), capsys, None)


@pytest.mark.xfail(raises=AssertionError, reason="silent path 4: no header names its code; ROADMAP item 10 "
                   "step 1 refuses the decode, and step 2's code digest the Q repair")
def test_a_set_used_without_the_code_it_was_encoded_with_is_refused(tmp_path, capsys, silent_sets):
    for lost, command in [(1, "decode"), (K + 2, "repair")]:
        (tmp_path / command).mkdir()
        files = {name: blob for name, blob in silent_sets["swapped"].items() if name != shard_name(lost)}
        sh = lay_out(tmp_path / command, files)
        argv = [command, str(sh)] + (["--out", str(sh.parent / "out.bin")] if command == "decode" else [])
        assert_refused(sh, capsys, None, argv)


@pytest.fixture(scope="module")
def interrupted_set(tmp_path_factory, silent_sets) -> dict:
    """The shard files left when ``mdr6 encode`` of SILENT_OTHER into a directory
    holding SILENT_PAYLOAD's set stops at its third rename: the sinks are renamed
    from the last disk down, so P and Q are the new encode's and the data shards
    the old one's, and no temporary file is left."""
    tmp = tmp_path_factory.mktemp("interrupted")
    sh = lay_out(tmp, silent_sets["plain"])
    (tmp / "other.bin").write_bytes(SILENT_OTHER)
    renames, replace = [], os.replace

    def interrupt_the_third(*args):
        renames.append(args)
        if len(renames) == 3:
            raise KeyboardInterrupt
        return replace(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "replace", interrupt_the_third)
        with pytest.raises(KeyboardInterrupt):
            main(["encode", str(tmp / "other.bin"), "--k", str(K), "--block-size", str(SILENT_BS),
                  "--out-dir", str(sh)])
    files = snapshot(sh)
    new = {shard_name(d): silent_sets["other"][shard_name(d)] for d in (K + 1, K + 2)}
    assert files == {**silent_sets["plain"], **new}
    return files


@pytest.mark.xfail(raises=AssertionError, reason="silent path 5: an interrupted encode mixes two sets, and "
                   "decode of a lost data disk checks no parity; ROADMAP item 10 step 1 checks the unread "
                   "parity halves, and item 2's set id refuses a mixed set")
@pytest.mark.parametrize("lost", range(1, K + 1))
def test_a_set_mixed_by_an_interrupted_encode_with_a_data_shard_missing_is_refused(
    tmp_path, capsys, interrupted_set, lost
):
    files = {name: blob for name, blob in interrupted_set.items() if name != shard_name(lost)}
    assert_refused(lay_out(tmp_path, files), capsys, None)


@pytest.mark.parametrize("lost", [(), (K + 1,), (K + 2,)])
def test_a_set_mixed_by_an_interrupted_encode_fails_the_parity_check_it_reads(tmp_path, capsys, interrupted_set, lost):
    files = {name: blob for name, blob in interrupted_set.items() if name not in map(shard_name, lost)}
    assert_refused(lay_out(tmp_path, files), capsys, "surviving blocks violate the parity relations")


# -- properties -----------------------------------------------------------------


@settings(max_examples=2000)
@given(st.one_of(
    st.binary(max_size=2 * HEADER_SIZE),
    # past the magic and version, so the field checks are reached too
    st.binary(min_size=HEADER_SIZE - 6, max_size=HEADER_SIZE).map(lambda b: MAGIC + b"\x01\x00" + b),
))
def test_a_header_either_parses_to_its_own_bytes_or_is_an_integrity_error(raw):
    try:
        header = ShardHeader.unpack(raw)
    except shards.IntegrityError:
        return
    assert header.pack() == raw[:HEADER_SIZE]


def decode_with_one_bit_flipped(files: dict, name: str, bit: int) -> tuple[int, bool]:
    """The exit status of decoding files with one bit of file name flipped,
    and whether the run left its directory as it was with no output."""
    blob = bytearray(files[name])
    blob[bit // 8] ^= 1 << bit % 8
    with tempfile.TemporaryDirectory() as tmp:
        sh = lay_out(Path(tmp), {**files, name: bytes(blob)})
        out = Path(tmp) / "out.bin"
        before = snapshot(sh)
        status = main(["decode", str(sh), "--out", str(out)])
        return status, not out.exists() and snapshot(sh) == before


@settings(max_examples=300, deadline=None)
@given(disk=st.integers(1, K + 2), bit=st.integers(0, 8 * SHARD_BYTES - 1))
def test_one_flipped_bit_anywhere_in_a_whole_set_is_refused(shard_set, disk, bit):
    assert decode_with_one_bit_flipped(shard_set, shard_name(disk), bit) == (2, True)


@settings(max_examples=300, deadline=None)
@given(missing=st.integers(1, K + 2), survivor=st.integers(1, K + 1), bit=st.integers(0, 8 * HEADER_SIZE - 1))
# relabelling a data shard as the missing data disk passed as that disk
@example(missing=3, survivor=1, bit=12 * 8 + 1)
@example(missing=1, survivor=3, bit=12 * 8 + 1)
def test_one_flipped_header_bit_with_a_shard_missing_is_refused(shard_set, missing, survivor, bit):
    survivor += survivor >= missing  # any disk but the missing one
    files = {name: blob for name, blob in shard_set.items() if name != shard_name(missing)}
    assert decode_with_one_bit_flipped(files, shard_name(survivor), bit) == (2, True)
