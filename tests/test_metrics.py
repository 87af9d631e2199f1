import csv
import io

import numpy as np
import pytest

from hierpose.metrics import (
    MetricReport,
    Segment,
    emit_report,
    pcp_radius,
    pcp_segments,
    pdj_curve,
    report_from_json,
)

SEGMENTS = [Segment("torso", 0, 1), Segment("limb", 1, 2)]


def simple_gt(n=4):
    rng = np.random.default_rng(0)
    return [rng.random((3, 2)) * 20 + 5 for _ in range(n)]


def test_pcp_segments_perfect():
    gt = simple_gt()
    report = pcp_segments(gt, gt, SEGMENTS)
    assert report.rates == (1.0, 1.0)
    assert report.aggregate == 1.0
    assert report.sample_count == 4


def test_pcp_segments_displaced_endpoint_incorrect():
    gt = [np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0]])]
    pred = [gt[0].copy()]
    pred[0][0] = (6.0, 0.0)  # 0.6 x segment length away
    report = pcp_segments(pred, gt, [Segment("torso", 0, 1)])
    assert report.rates == (0.0,)


def test_pcp_segments_boundary_inclusive():
    gt = [np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0]])]
    exactly = [gt[0].copy()]
    exactly[0][0] = (5.0, 0.0)  # exactly 0.5 x length
    assert pcp_segments(exactly, gt, [Segment("torso", 0, 1)]).rates == (1.0,)
    over = [gt[0].copy()]
    over[0][0] = (5.1, 0.0)  # 0.51 x length
    assert pcp_segments(over, gt, [Segment("torso", 0, 1)]).rates == (0.0,)


def test_pcp_segments_zero_length_skipped():
    gt = [np.array([[1.0, 1.0], [1.0, 1.0], [4.0, 4.0]])]
    report = pcp_segments(gt, gt, SEGMENTS)
    assert report.params["skipped_zero_length"] == {"torso": 1}
    assert report.aggregate == 1.0  # only the limb segment scored


def test_pcp_segments_translation_invariant():
    gt = simple_gt()
    rng = np.random.default_rng(1)
    pred = [g + rng.normal(0, 2, g.shape) for g in gt]
    base = pcp_segments(pred, gt, SEGMENTS)
    shift = np.array([13.0, -4.0])
    moved = pcp_segments([p + shift for p in pred], [g + shift for g in gt], SEGMENTS)
    assert moved.rates == base.rates


def test_pcp_segments_scale_covariant():
    gt = simple_gt()
    rng = np.random.default_rng(2)
    pred = [g + rng.normal(0, 2, g.shape) for g in gt]
    base = pcp_segments(pred, gt, SEGMENTS)
    scaled = pcp_segments([p * 3.5 for p in pred], [g * 3.5 for g in gt], SEGMENTS)
    assert scaled.rates == base.rates


def test_pcp_radius_perfect():
    gt = simple_gt()
    report = pcp_radius(gt, gt, np.ones(3) * 2.0)
    assert report.aggregate == 1.0


def test_pcp_radius_over_threshold():
    gt = [np.zeros((3, 2))]
    pred = [np.zeros((3, 2))]
    pred[0][1] = (1.6, 0.0)  # sigma 1 -> error 1.6 sigma
    report = pcp_radius(pred, gt, np.ones(3))
    assert report.rates == (1.0, 0.0, 1.0)


def test_pcp_radius_boundary_inclusive():
    gt = [np.zeros((3, 2))]
    pred = [np.zeros((3, 2))]
    pred[0][:, 0] = 1.5  # exactly 1.5 sigma
    report = pcp_radius(pred, gt, np.ones(3))
    assert report.aggregate == 1.0


def test_pcp_radius_missing_sigma():
    gt = simple_gt(1)
    with pytest.raises(ValueError, match="missing sigma"):
        pcp_radius(gt, gt, {"part_0": 1.0}, part_names=("part_0", "part_1", "part_2"))


def test_pcp_radius_visibility_mask():
    gt = [np.zeros((3, 2))]
    pred = [np.full((3, 2), 10.0)]
    visible = np.array([[True, False, False]])
    report = pcp_radius(pred, gt, np.ones(3), visible=visible)
    assert report.aggregate == 0.0
    assert report.rates[1] == 0.0  # unseen parts report zero, not NaN


def test_pdj_perfect():
    gt = simple_gt()
    report = pdj_curve(gt, gt, np.ones(len(gt)) * 10.0, [0.05, 0.1, 0.2])
    assert report.rates == (1.0, 1.0, 1.0)


def test_pdj_single_joint_step():
    gt = [np.zeros((1, 2))]
    pred = [np.array([[2.5, 0.0]])]  # error = 0.25 x normalizer
    report = pdj_curve(pred, gt, [10.0], [0.1, 0.2, 0.25, 0.3])
    assert report.rates == (0.0, 0.0, 1.0, 1.0)


def test_pdj_monotone_random():
    rng = np.random.default_rng(3)
    gt = [rng.random((5, 2)) * 10 for _ in range(6)]
    pred = [g + rng.normal(0, 1.5, g.shape) for g in gt]
    thresholds = np.linspace(0.01, 1.0, 25)
    report = pdj_curve(pred, gt, np.full(6, 8.0), thresholds)
    rates = np.array(report.rates)
    assert np.all(np.diff(rates) >= 0)
    assert np.all((rates >= 0) & (rates <= 1))


def test_emit_report_json_round_trip():
    gt = simple_gt()
    report = pcp_segments(gt, gt, SEGMENTS)
    text = emit_report(report, "json")
    assert report_from_json(text) == report


def test_emit_report_csv_order():
    report = MetricReport("pcp_segments", ("torso", "limb"), (0.5, 0.25), 0.375, 4, {})
    lines = emit_report(report, "csv").splitlines()
    assert lines[0] == "label,rate"
    assert lines[1].startswith("torso,")
    assert lines[2].startswith("limb,")
    assert lines[3].startswith("aggregate,")


def test_emit_report_empty_csv_header_only():
    report = MetricReport("pdj", (), (), None, 0, {})
    assert emit_report(report, "csv") == "label,rate\n"


def test_emit_report_csv_quotes_labels():
    """A label holding a comma, a quote or a line break, a bare `\r` too,
    reads back through `csv.reader` as written, and a plain label keeps its
    unquoted bytes."""
    gt = simple_gt()
    segments = [Segment("a,b", 0, 1), Segment('c\n"d"', 1, 2), Segment("plain", 0, 2),
                Segment("e\rf", 0, 1)]
    text = emit_report(pcp_segments(gt, gt, segments), "csv")
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert rows == [
        ["label", "rate"], ["a,b", "1.0"], ['c\n"d"', "1.0"], ["plain", "1.0"],
        ["e\rf", "1.0"], ["aggregate", "1.0"],
    ]
    assert "\nplain,1.0\n" in text


def test_rates_validated():
    with pytest.raises(ValueError, match="outside"):
        MetricReport("x", ("a",), (1.5,), None, 1, {})
