"""End-to-end timings come from whole cycles as they ran, host-speed normalised."""

import gc

import pytest

import calibrate
from runner import timing_metrics
from workloads import CycleResult


def _cycle(update_s):
    steps = [("setup", 0.5, 0)] + [("update", dt, 1) for dt in update_s]
    return CycleResult("d", steps, len(update_s), 0)


def test_rate_is_updates_over_median_cycle_not_a_sum_of_best_steps():
    # step 1 is fastest in cycle a and step 2 in cycle b: a best-of-steps sum
    # (0.5 + 0.1 + 0.1 = 0.7 s) is faster than any cycle that ran
    a, b, c = _cycle([0.1, 0.3]), _cycle([0.3, 0.1]), _cycle([0.3, 0.3])
    metrics, counts = timing_metrics([(0.9, 1.0, a), (0.9, 1.0, b), (1.1, 1.0, c)], 2)
    assert metrics["updates_per_s"] == pytest.approx(2 / 0.9)
    assert counts["cycles"] == 3 and counts["update_samples"] == 6


def test_percentiles_cover_every_update_sample():
    slow = _cycle([0.001] * 8 + [0.05] * 2)
    metrics, counts = timing_metrics([(1.0, 1.0, slow)] * 5, 10)
    assert metrics["update_ms_p50"] == pytest.approx(1.0)
    assert metrics["update_ms_p90"] > 1.0


def test_a_step_of_several_updates_shares_its_time():
    one_call = CycleResult("d", [("train", 0.2, 100)], 100, 0)
    metrics, _ = timing_metrics([(0.2, 1.0, one_call)] * 3, 100)
    assert metrics["update_ms_p50"] == pytest.approx(1000 / metrics["updates_per_s"])


def test_each_cycle_is_scaled_by_its_own_calibration():
    # the same work measured while the host ran at half speed: twice the wall
    # time, and a calibration scale of one half
    a, b = _cycle([0.1, 0.1]), _cycle([0.2, 0.2])
    metrics, counts = timing_metrics([(0.7, 1.0, a), (1.4, 0.5, b), (0.7, 1.0, a)], 2)
    assert metrics["updates_per_s"] == pytest.approx(2 / 0.7)
    assert metrics["update_ms_p50"] == metrics["update_ms_p90"] == pytest.approx(100.0)
    assert counts["cycle_ms_wall"]["p100"] == pytest.approx(1400.0)


def test_calibration_scale_reads_as_reference_host_time():
    ref_s = calibrate.REF_MS / 1e3
    assert calibrate.scale(ref_s, ref_s) == pytest.approx(1.0)
    assert calibrate.scale(ref_s, 3 * ref_s) == pytest.approx(0.5)


def test_calibration_job_leaves_the_collector_as_it_found_it():
    assert gc.isenabled()
    assert calibrate.job_seconds() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        calibrate.job_seconds()
        assert not gc.isenabled()
    finally:
        gc.enable()
