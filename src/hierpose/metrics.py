"""Pose-estimation metrics: segment PCP, radius PCP, and PDJ curves.

Both PCP rules treat their threshold inclusively (a prediction exactly on
the boundary counts as correct), which the reports record in their
parameters.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import _json
from ._json import Map, Nullable

__all__ = [
    "Segment",
    "MetricReport",
    "pcp_segments",
    "pcp_radius",
    "pdj_curve",
    "emit_report",
    "report_from_json",
]


@dataclass(frozen=True)
class Segment:
    """A scored body segment between two atomic parts (by configuration row)."""

    name: str
    a: int
    b: int

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError(f"segment {self.name!r} must join two distinct parts")


@dataclass
class MetricReport:
    """Per-item rates plus an aggregate, with the parameters that produced them."""

    kind: str
    labels: tuple[str, ...]
    rates: tuple[float, ...]
    aggregate: float | None
    sample_count: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.labels = tuple(self.labels)
        self.rates = tuple(float(r) for r in self.rates)
        if len(self.labels) != len(self.rates):
            raise ValueError("labels and rates must align")
        for rate in self.rates:
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"rate {rate} outside [0, 1]")


def _stack_configs(configs, name: str) -> np.ndarray:
    arr = np.asarray([np.asarray(c, dtype=float) for c in configs])
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValueError(f"{name} must be a sequence of (N, 2) configurations")
    return arr


def pcp_segments(preds, gts, segments: list[Segment]) -> MetricReport:
    """Percentage of correct parts under the segment-length rule.

    A segment is correct when both predicted endpoints lie within half the
    ground-truth segment length of their respective ground-truth endpoints
    (inclusive).  Zero-length ground-truth segments are skipped and flagged.
    """
    preds = _stack_configs(preds, "preds")
    gts = _stack_configs(gts, "gts")
    if preds.shape != gts.shape:
        raise ValueError("prediction/ground-truth shape mismatch")
    n_parts = preds.shape[1]
    for seg in segments:
        if not (0 <= seg.a < n_parts and 0 <= seg.b < n_parts):
            raise ValueError(f"segment {seg.name!r} references a missing part")

    rates = []
    skipped: dict[str, int] = {}
    for seg in segments:
        lengths = np.linalg.norm(gts[:, seg.a] - gts[:, seg.b], axis=1)
        usable = lengths > 0.0
        if np.any(~usable):
            skipped[seg.name] = int(np.sum(~usable))
        if not np.any(usable):
            rates.append(0.0)
            continue
        err_a = np.linalg.norm(preds[:, seg.a] - gts[:, seg.a], axis=1)
        err_b = np.linalg.norm(preds[:, seg.b] - gts[:, seg.b], axis=1)
        threshold = 0.5 * lengths[usable]
        correct = (err_a[usable] <= threshold) & (err_b[usable] <= threshold)
        rates.append(float(np.mean(correct)))
    labels = tuple(seg.name for seg in segments)
    scored = [r for seg, r in zip(segments, rates) if skipped.get(seg.name) != preds.shape[0]]
    aggregate = float(np.mean(scored)) if scored else None
    params = {"rule": "segment", "threshold_fraction": 0.5, "boundary": "inclusive"}
    if skipped:
        params["skipped_zero_length"] = skipped
    return MetricReport("pcp_segments", labels, rates, aggregate, preds.shape[0], params)


def pcp_radius(
    preds,
    gts,
    sigmas,
    factor: float = 1.5,
    visible=None,
    part_names: tuple[str, ...] | None = None,
) -> MetricReport:
    """Percentage of correct parts under a per-part radius rule.

    A part is correct when its error is at most factor x sigma_part
    (inclusive); only visible parts are scored.  `sigmas` is one value per
    part (array or {name: value} with `part_names`).
    """
    preds = _stack_configs(preds, "preds")
    gts = _stack_configs(gts, "gts")
    if preds.shape != gts.shape:
        raise ValueError("prediction/ground-truth shape mismatch")
    n_samples, n_parts, _ = preds.shape
    names = part_names or tuple(f"part_{i}" for i in range(n_parts))
    if isinstance(sigmas, dict):
        missing = [name for name in names if name not in sigmas]
        if missing:
            raise ValueError(f"missing sigma for parts {missing}")
        sigma = np.array([float(sigmas[name]) for name in names])
    else:
        sigma = np.asarray(sigmas, dtype=float)
    if sigma.shape != (n_parts,):
        raise ValueError(f"need {n_parts} sigmas, got {sigma.shape}")
    if not np.all(np.isfinite(sigma) & (sigma > 0)):
        raise ValueError("sigmas must be finite and positive")
    if not (math.isfinite(factor) and factor > 0):
        raise ValueError(f"factor must be finite and positive, got {factor!r}")
    if visible is None:
        mask = np.ones((n_samples, n_parts), dtype=bool)
    else:
        mask = np.asarray(visible, dtype=bool)
        if mask.shape != (n_samples, n_parts):
            raise ValueError("visibility mask must be (samples, parts)")

    errors = np.linalg.norm(preds - gts, axis=2)
    correct = errors <= factor * sigma
    rates = []
    for i in range(n_parts):
        seen = mask[:, i]
        rates.append(float(np.mean(correct[seen, i])) if np.any(seen) else 0.0)
    total = float(np.mean(correct[mask])) if np.any(mask) else None
    params = {"rule": "radius", "factor": factor, "boundary": "inclusive"}
    return MetricReport("pcp_radius", names, rates, total, n_samples, params)


def pdj_curve(preds, gts, normalizers, thresholds) -> MetricReport:
    """Detection rate of joints as a function of the normalized error bound."""
    preds = _stack_configs(preds, "preds")
    gts = _stack_configs(gts, "gts")
    if preds.shape != gts.shape:
        raise ValueError("prediction/ground-truth shape mismatch")
    normalizers = np.asarray(normalizers, dtype=float)
    if normalizers.shape == ():
        normalizers = np.full(preds.shape[0], float(normalizers))
    if normalizers.shape != (preds.shape[0],):
        raise ValueError("need one normalizer per sample")
    if not np.all(np.isfinite(normalizers) & (normalizers > 0)):
        raise ValueError("normalizers must be finite and positive")
    thresholds = [float(t) for t in thresholds]
    if not all(math.isfinite(t) for t in thresholds):
        raise ValueError("thresholds must be finite")
    normalized = np.linalg.norm(preds - gts, axis=2) / normalizers[:, None]
    rates = [float(np.mean(normalized <= t)) for t in thresholds]
    labels = tuple(repr(t) for t in thresholds)
    aggregate = rates[-1] if rates else None
    params = {"thresholds": thresholds, "normalizer": "per-sample input"}
    return MetricReport("pdj", labels, rates, aggregate, preds.shape[0], params)


REPORT_FORMATS = ("json", "csv")  # the formats `emit_report` writes


def emit_report(report: MetricReport, fmt: str = "json") -> str:
    """Serialize a report; JSON is lossless, CSV is label,rate rows."""
    if fmt == "json":
        doc = {
            "kind": report.kind,
            "labels": list(report.labels),
            "rates": list(report.rates),
            "aggregate": report.aggregate,
            "sample_count": report.sample_count,
            "params": report.params,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")  # quotes a label holding , " or \n
        quoted = csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_ALL)  # and one with \r
        writer.writerow(("label", "rate"))
        for label, rate in zip(report.labels, report.rates):
            (quoted if "\r" in label else writer).writerow((label, repr(rate)))
        if report.aggregate is not None:
            writer.writerow(("aggregate", repr(report.aggregate)))
        return out.getvalue()
    raise ValueError(f"unknown report format {fmt!r}")


_REPORT = {"kind": str, "labels": [str], "rates": [float], "aggregate": Nullable(float),
           "sample_count": int, "params": Map(object)}


def report_from_json(text: str) -> MetricReport:
    return MetricReport(**_json.load(text, _REPORT, "report", ValueError))
