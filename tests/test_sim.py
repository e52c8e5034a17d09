"""Recovery simulator: exact read accounting, timing trends, determinism."""

import math
from fractions import Fraction

import pytest

from mdr6.cli import _document
from mdr6.sim import HEADER_NOTE, DiskModel, SimConfig, SimReport, compare, simulate

MODEL = DiskModel()


def test_read_counts_exact_per_disk():
    stripes = 6
    for k in (2, 3):
        r = 1 << k
        mdr = simulate(SimConfig(k=k, stripe_count=stripes), MODEL, "mdr")
        assert all(n == stripes * r // 2 for n in mdr.blocks_read_per_disk.values())
        assert mdr.total_blocks_read == stripes * (k + 1) * r // 2
        conv = simulate(SimConfig(k=k, stripe_count=stripes), MODEL, "conventional")
        assert conv.total_blocks_read == stripes * k * r


def test_read_volume_ratios():
    for k, expected in ((3, Fraction(2, 3)), (8, Fraction(9, 16))):
        report = simulate(SimConfig(k=k, stripe_count=4), MODEL, "mdr")
        assert report.read_volume_ratio == expected
    assert float(Fraction(9, 16)) == 0.5625


def test_compare_ratio_is_plan_ratio_for_any_model():
    models = [
        MODEL,
        DiskModel(seek_ms=1.0, rotational_ms=20.0, transfer_bytes_per_ms=5000.0),
        DiskModel(seek_ms=30.0, rotational_ms=0.5, transfer_bytes_per_ms=1e6, seq_window_blocks=2),
    ]
    for model in models:
        comp = compare(SimConfig(k=4, stripe_count=5), model)
        assert comp.read_ratio == Fraction(5, 8)


@pytest.mark.parametrize("k", [2, 3, 8])
def test_access_time_ratio_below_one(k):
    models = [
        MODEL,
        DiskModel(seek_ms=2.0, rotational_ms=1.0, transfer_bytes_per_ms=20000.0),
        DiskModel(seek_ms=12.0, rotational_ms=6.0, transfer_bytes_per_ms=300000.0, seq_window_blocks=2),
    ]
    for model in models:
        for block_size in (512, 4096):
            comp = compare(SimConfig(k=k, stripe_count=8, block_size=block_size), model)
            assert comp.access_time_ratio < 1.0


def test_seed_determinism():
    cfg = SimConfig(k=3, stripe_count=10, background_rate=300.0, seed=9)
    assert simulate(cfg, MODEL, "mdr") == simulate(cfg, MODEL, "mdr")


def test_offline_single_stripe_no_pipeline():
    # k=1 conventional: two contiguous reads from one disk, then two writes
    cfg = SimConfig(k=1, stripe_count=1, block_size=512)
    report = simulate(cfg, MODEL, "conventional")
    transfer = 512 / MODEL.transfer_bytes_per_ms
    position = MODEL.seek_ms + MODEL.rotational_ms
    read_phase = position + 2 * transfer
    write_phase = position + 2 * transfer
    assert report.total_time_ms == pytest.approx(read_phase + write_phase)


def test_background_requests_only_online():
    offline = simulate(SimConfig(k=2, stripe_count=4), MODEL, "mdr")
    assert offline.background_requests == 0
    online = simulate(SimConfig(k=2, stripe_count=4, background_rate=200.0, seed=1), MODEL, "mdr")
    assert online.background_requests > 0


def test_online_slower_than_offline():
    offline = simulate(SimConfig(k=3, stripe_count=8), MODEL, "mdr")
    online = simulate(SimConfig(k=3, stripe_count=8, background_rate=300.0, seed=3), MODEL, "mdr")
    assert online.total_time_ms >= offline.total_time_ms


def _golden(strategy, total, access, avg, blocks, ratio, background) -> SimReport:
    return SimReport(
        strategy, HEADER_NOTE, total, access, avg, blocks, sum(blocks.values()), ratio, background
    )


# Exact reports, floats included, of the event-heap simulator this module
# replaced; the FIFO recurrence must reproduce them bit for bit.
GOLDEN = [
    (
        SimConfig(k=3, stripe_count=6),
        _golden(
            "mdr", 24.26624000000007, dict.fromkeys(range(2, 6), 48.30719999999997),
            48.30719999999997, dict.fromkeys(range(2, 6), 24), Fraction(2, 3), 0,
        ),
    ),
    (
        SimConfig(k=3, stripe_count=6),
        _golden(
            "conventional", 24.28672000000007,
            {2: 96.7372800000002, 3: 96.92160000000018, 4: 96.92160000000018, 5: 96.73728000000025},
            96.8294400000002, {2: 32, 3: 40, 4: 40, 5: 32}, Fraction(1), 0,
        ),
    ),
    (
        SimConfig(k=3, stripe_count=10, background_rate=300.0, seed=9),
        _golden(
            "mdr", 245.46170112272588,
            {2: 595.2247665445892, 3: 410.71153530895106, 4: 210.75410945988304, 5: 702.2826099953338},
            479.7432553271893, dict.fromkeys(range(2, 6), 40), Fraction(2, 3), 93,
        ),
    ),
    (
        SimConfig(k=3, stripe_count=6, block_size=4096, background_rate=300.0, seed=9),
        _golden(
            "conventional", 158.7443200000003,
            {2: 994.3532147802969, 3: 419.23796834087034, 4: 378.03862676500285, 5: 173.04774521970404},
            491.1693887764685, {2: 32, 3: 40, 4: 40, 5: 32}, Fraction(1), 57,
        ),
    ),
    (
        SimConfig(k=8, stripe_count=4),
        _golden(
            "mdr", 29.898240000001575, dict.fromkeys(range(2, 11), 1705.0828799999927),
            1705.0828799999927, dict.fromkeys(range(2, 11), 512), Fraction(9, 16), 0,
        ),
    ),
]


@pytest.mark.parametrize("config, expected", GOLDEN)
def test_golden_reports(config, expected):
    assert simulate(config, MODEL, expected.strategy) == expected


@pytest.mark.parametrize("rate, seed", [(0.0, 0), (300.0, 9), (2000.0, 3)])
def test_trace_rows_recorded(rate, seed):
    trace: list = []
    config = SimConfig(k=2, stripe_count=3, background_rate=rate, seed=seed)
    # fast enough that three survivors can serve 2000 req/s (utilisation 0.67)
    report = simulate(config, DiskModel(seek_ms=0.5, rotational_ms=0.5), "mdr", trace=trace)
    reads = [row for row in trace if row[2] == "read"]
    writes = [row for row in trace if row[2] == "write"]
    background = [row for row in trace if row[2] == "bg"]
    assert len(reads) == report.total_blocks_read
    assert len(writes) == 3 * 4  # stripe_count * r
    assert len(background) <= report.background_requests
    completions = [row[0] for row in trace]
    assert completions == sorted(completions)
    assert completions[-1] == report.total_time_ms
    assert all(done <= report.total_time_ms for done in completions)


def test_report_header_notes_divergence():
    report = simulate(SimConfig(k=2, stripe_count=2), MODEL, "mdr")
    assert "bus" in report.notes
    doc = _document(report)
    assert doc["strategy"] == "mdr" and doc["notes"] == report.notes
    assert list(doc) == list(SimReport.__match_args__)


def test_load_the_survivors_cannot_serve_is_refused():
    # at k=1 two survivors serve 300 req/s * 30.5 ms: utilisation 4.6, so the
    # backlog and the run would grow without bound
    slow = DiskModel(seek_ms=30.0, rotational_ms=0.5, transfer_bytes_per_ms=1e6, seq_window_blocks=2)
    with pytest.raises(ValueError, match="more than the 2 surviving disks can serve"):
        simulate(SimConfig(k=1, stripe_count=3, background_rate=300.0), slow, "mdr")
    # the default model serves 2 / 12.00512 ms = 166.6 req/s at k=1
    ok = SimConfig(k=1, stripe_count=3, background_rate=166.0)
    assert simulate(ok, MODEL, "conventional").background_requests > 0
    with pytest.raises(ValueError, match="below 166.6 req/s"):
        compare(SimConfig(k=1, stripe_count=3, background_rate=167.0), MODEL)
    # the README example: utilisation 0.27
    simulate(SimConfig(k=8, stripe_count=2, background_rate=200.0, seed=7), MODEL, "mdr")


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(k=2, stripe_count=0)
    with pytest.raises(ValueError, match="unknown strategy 'bogus'"):
        simulate(SimConfig(k=2, stripe_count=1), MODEL, "bogus")
    with pytest.raises(ValueError):
        DiskModel(seek_ms=0)
    with pytest.raises(ValueError, match="bad code parameters"):
        SimConfig(k=2, stripe_count=1, block_size=0)
    with pytest.raises(ValueError, match="bad code parameters"):
        SimConfig(k=0, stripe_count=1)
    with pytest.raises(ValueError, match="cannot be negative"):
        SimConfig(k=2, stripe_count=1, background_rate=-1.0)
    with pytest.raises(ValueError, match="must be positive"):
        DiskModel(transfer_bytes_per_ms=-5.0)
    with pytest.raises(ValueError, match="at least one block"):
        DiskModel(seq_window_blocks=0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["seek_ms", "rotational_ms", "transfer_bytes_per_ms"])
def test_disk_model_refuses_non_finite_parameters(name, value):
    with pytest.raises(ValueError, match="must be positive and finite"):
        DiskModel(**{name: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_refuses_a_non_finite_background_rate(value):
    # NaN fails every comparison, so a plain `< 0` check would run it offline
    with pytest.raises(ValueError, match="cannot be negative, infinite or NaN"):
        SimConfig(k=2, stripe_count=1, background_rate=value)


def test_compare_runs_one_config_under_both_strategies():
    config = SimConfig(k=3, stripe_count=4, background_rate=100.0, seed=5)
    comp = compare(config, MODEL)
    assert comp.conventional == simulate(config, MODEL, "conventional")
    assert comp.mdr == simulate(config, MODEL, "mdr")
    assert comp.read_ratio == Fraction(comp.mdr.total_blocks_read, comp.conventional.total_blocks_read)
    assert comp.recovery_time_ratio == comp.mdr.total_time_ms / comp.conventional.total_time_ms
