"""The frozen value records every module builds its data types with."""

import pytest

from mdr6._record import record
from mdr6.code import RepairStrategy, code_from_document, code_to_document, construct
from mdr6.codec import XorSchedule, build_encode_schedule
from mdr6.f2 import BitMatrix
from mdr6.shards import ShardHeader
from mdr6.sim import ComparisonReport, DiskModel, SimConfig


def test_positional_and_keyword_construction_agree():
    by_position = BitMatrix(2, 3, (1, 6))
    assert by_position == BitMatrix(rows=2, cols=3, row_bits=(1, 6))
    assert by_position == BitMatrix(2, row_bits=(1, 6), cols=3)
    assert ShardHeader(3, 8, 2, 512, 7, 80000) == ShardHeader(
        k=3, r=8, disk_index=2, block_size=512, stripe_count=7, payload_length=80000
    )


def test_defaults_apply():
    config = SimConfig(3, 4)
    assert (config.block_size, config.background_rate, config.seed) == (512, 0.0, 0)
    assert config == SimConfig(k=3, stripe_count=4, block_size=512, background_rate=0.0, seed=0)
    assert SimConfig(3, 4, 4096).block_size == 4096
    assert DiskModel() == DiskModel(8.0, 4.0, 100_000.0, 512)
    assert DiskModel(seek_ms=3.0).rotational_ms == 4.0
    code = construct(2)
    assert type(code)(code.k, code.r, code.b_matrices).strategies is None


def test_match_args_name_the_fields_in_order():
    assert SimConfig.__match_args__ == ("k", "stripe_count", "block_size", "background_rate", "seed")
    assert ComparisonReport.__match_args__ == (
        "conventional", "mdr", "read_ratio", "access_time_ratio", "recovery_time_ratio"
    )
    match BitMatrix(2, 3, (1, 6)):
        case BitMatrix(rows, cols, bits):
            assert (rows, cols, bits) == (2, 3, (1, 6))


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((2, 3), {}, "missing required arguments: 'row_bits'"),
        ((), {"rows": 2}, "missing required arguments: 'cols', 'row_bits'"),
        ((2, 3, (1, 6)), {"depth": 1}, "unexpected keyword argument 'depth'"),
        ((2, 3, (1, 6), 4), {}, "takes 3 positional arguments but 4 were given"),
        ((2, 3, (1, 6)), {"cols": 3}, "multiple values for argument 'cols'"),
    ],
)
def test_a_missing_or_unknown_field_is_a_type_error(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        BitMatrix(*args, **kwargs)


def test_equal_values_give_equal_objects_with_equal_hashes():
    code = construct(3)
    parsed = code_from_document(code_to_document(code))
    assert parsed is not code and parsed == code and hash(parsed) == hash(code)
    # a code parsed afresh finds the schedules cached for an equal one
    assert build_encode_schedule(parsed) is build_encode_schedule(code)
    assert RepairStrategy((1, 3), (1, 3)) != RepairStrategy((1, 3), (1, 4))
    assert BitMatrix(2, 2, (1, 2)) != BitMatrix(2, 2, (1, 3))
    assert {BitMatrix.identity(3): "I"}[BitMatrix(3, 3, (1, 2, 4))] == "I"


def test_another_class_with_the_same_values_is_unequal():
    @record
    class Twin:
        q_rows: tuple
        basic_rows: tuple

    strategy = RepairStrategy((1, 3), (2, 4))
    assert Twin((1, 3), (2, 4)) == Twin((1, 3), (2, 4))
    assert strategy != Twin((1, 3), (2, 4)) and Twin((1, 3), (2, 4)) != strategy
    assert strategy != ((1, 3), (2, 4))
    assert strategy.__eq__(Twin((1, 3), (2, 4))) is NotImplemented


def test_instances_refuse_assignment_and_deletion():
    matrix = BitMatrix.identity(2)
    with pytest.raises(AttributeError):
        matrix.rows = 3
    with pytest.raises(AttributeError):
        del matrix.rows
    with pytest.raises(AttributeError):
        matrix.note = "new"
    assert matrix == BitMatrix.identity(2) and not hasattr(matrix, "note")


def test_repr_names_every_field():
    assert repr(RepairStrategy((1, 3), (2, 4))) == "RepairStrategy(q_rows=(1, 3), basic_rows=(2, 4))"
    assert repr(XorSchedule(1, 1, ((("out", 3, 1), (("in", 1, 1),)),))) == (
        "XorSchedule(k=1, r=1, ops=((('out', 3, 1), (('in', 1, 1),)),))"
    )


def test_a_fresh_schedule_fills_its_cached_properties():
    ops = (
        (("tmp", 1), (("in", 1, 1), ("in", 2, 1))),
        (("out", 3, 1), (("tmp", 1), ("in", 2, 2))),
    )
    schedule = XorSchedule(2, 2, ops)
    assert schedule.xor_count == 2
    assert schedule.reads == {(1, 1), (2, 1), (2, 2)}
    assert schedule.writes == {(3, 1)}
    assert dict(schedule.rows_by_disk) == {1: (1,), 2: (1, 2)}
    assert {"xor_count", "reads", "writes", "rows_by_disk"} <= vars(schedule).keys()
    # the cache holds no field: equality and the hash see only k, r and ops
    assert schedule == XorSchedule(2, 2, ops) and hash(schedule) == hash(XorSchedule(2, 2, ops))
