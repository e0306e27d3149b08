"""Scaling by the reference kernel cancels host speed and nothing else."""

import pytest

from qbench import speed
from qbench.speed import NEIGHBOURS, REFERENCE_S, Speedometer


def _meter(durations, gap=0.1):
    meter = Speedometer()
    meter.starts = [i * gap for i in range(len(durations))]
    meter.durations = list(durations)
    return meter


def test_factor_uses_the_median_of_the_nearest_samples():
    # a slow phase (4 ms kernel) in the middle of a reference-speed run
    durations = [REFERENCE_S] * 30 + [2 * REFERENCE_S] * 30 + \
        [REFERENCE_S] * 30
    meter = _meter(durations)
    assert meter.factor(0.0) == pytest.approx(1.0)
    assert meter.factor(4.5) == pytest.approx(0.5)
    assert meter.factor(8.9) == pytest.approx(1.0)
    # outside the samples the nearest NEIGHBOURS still decide
    assert meter.factor(-5.0) == meter.factor(0.0)
    assert meter.factor(50.0) == meter.factor(8.9)
    assert len(durations) > NEIGHBOURS


def test_a_slower_host_scales_to_the_same_figures():
    starts = [0.05 + 0.1 * i for i in range(40)]
    latencies = [0.003 + 0.001 * (i % 7) for i in range(40)]
    kernel = [REFERENCE_S * (1.0 + 0.1 * (i % 3)) for i in range(40)]
    fast = _meter(kernel).scale(starts, latencies)
    slow = _meter([1.7 * k for k in kernel]).scale(
        starts, [1.7 * x for x in latencies])
    assert slow == pytest.approx(fast)


def test_a_faster_library_shows_in_full():
    starts = [0.05 + 0.1 * i for i in range(40)]
    latencies = [0.004] * 40
    meter = _meter([1.5 * REFERENCE_S] * 40)
    before = meter.scale(starts, latencies)
    after = meter.scale(starts, [x / 2 for x in latencies])
    assert after == pytest.approx([x / 2 for x in before])


def test_sampling_keeps_its_interval(monkeypatch):
    meter = Speedometer()
    meter.sample(3)
    assert len(meter.durations) == 3 and all(d > 0 for d in meter.durations)
    meter.maybe_sample()
    assert len(meter.durations) == 3
    monkeypatch.setattr(speed, "INTERVAL_S", 0.0)
    meter.maybe_sample()
    assert len(meter.durations) == 4
    assert meter.summary()[0] == 4
