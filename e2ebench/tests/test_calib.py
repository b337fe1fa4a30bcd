"""Percentile math, the 10-beyond rule, calibration scaling, thread guard."""

import threading

import pytest

from e2ebench import calib


def test_nearest_rank_percentiles():
    values = list(range(1, 201))  # 1..200
    assert calib.percentile(values, 50) == 100
    assert calib.percentile(values, 95) == 190
    assert calib.percentile(reversed(values), 95) == 190


def test_tail_rule_needs_ten_beyond():
    assert calib.tail_count(200, 95) == 10
    assert calib.tail_count(199, 95) == 9
    assert calib.min_samples(95) == 200
    assert calib.min_samples(50) == 20
    calib.percentile(range(200), 95)
    with pytest.raises(ValueError, match="at least 10"):
        calib.percentile(range(199), 95)


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        calib.percentile([], 50)
    with pytest.raises(ValueError):
        calib.percentile(range(100), 0)


def test_calibration_scales_by_nominal_over_measured():
    nominal = calib.NOMINAL_REF_S
    # A host running slices at twice the nominal time halves wall times.
    assert calib.calibration_factor(2 * nominal, 2 * nominal) == pytest.approx(0.5)
    # The bracketing slices are averaged.
    assert calib.calibration_factor(nominal, 3 * nominal) == pytest.approx(0.5)
    assert calib.calibration_factor(nominal / 2, nominal / 2) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        calib.calibration_factor(0.0, 0.0)


def test_calibrator_records_factors_and_slowdown():
    calibrator = calib.Calibrator(guard=False)
    nominal = calib.NOMINAL_REF_S
    calibrator.factor(2 * nominal, 2 * nominal)
    calibrator.factor(nominal, nominal)
    calibrator.factor(2 * nominal, 2 * nominal)
    assert calibrator.slowdown() == pytest.approx(2.0)


def test_reference_slice_is_deterministic():
    assert calib.reference_slice() == calib.reference_slice()


def test_guard_refuses_a_slice_beside_a_foreign_thread():
    calibrator = calib.Calibrator(guard=True)
    before = calib.foreign_threads()
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert calib.foreign_threads() == before + 1
        with pytest.raises(calib.ThreadGuardError):
            calibrator.slice()
    finally:
        stop.set()
        thread.join(timeout=5)
    assert not thread.is_alive()


def test_guard_allows_a_slice_when_alone(monkeypatch):
    monkeypatch.setattr(calib, "foreign_threads", lambda: 0)
    calibrator = calib.Calibrator(guard=True)
    assert calibrator.slice() > 0
    assert len(calibrator.slices) == 1
