"""Exemplar library construction and max-margin weight training.

Exemplars are extracted from annotated configurations.  The library is one
table of read-only annotation rows: the source names, full configurations,
object sizes and the relation-type label of every non-root part.  Exemplar
e of every part is annotation e, so a row index pairs exemplars across
parts; each composite node keeps only the child geometry it derives from the
rows (`child_points`).  Weight training is a binary hinge-loss problem
solved by projected stochastic subgradient descent with non-negativity
constraints on everything except the trailing bias component.
"""

from __future__ import annotations

import json
import math
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _json
from ._json import NUMBER, Either, Nullable, Optional
from .appearance import (
    TYPE_BINS_MAX, CoincidentPartsError, RelationTypeModel, _Reader, annotation_points,
)
from .geometry import child_points
from .hierarchy import BoundingBox, PartHierarchy, as_configuration, object_size

LIBRARY_MAGIC = b"HPEL"
LIBRARY_VERSION = 2
NEGATIVE_MAX_IOU = 0.3  # a negative's root box overlaps the true one by less
NEGATIVE_ATTEMPTS = 100  # placements tried per negative before it is skipped
# `train_weights` checks the margins of up to _BLOCK_MAX SGD steps at once,
# once _BLOCK_MIN steps in a row are satisfied
_BLOCK_MIN, _BLOCK_MAX = 16, 1024

__all__ = [
    "Annotation",
    "load_annotations",
    "save_annotations",
    "ExemplarLibrary",
    "LibraryError",
    "build_library",
    "save_library",
    "load_library",
    "augment_positives",
    "generate_negatives",
    "TrainingSet",
    "train_weights",
]


@dataclass
class Annotation:
    """One annotated pose: image id, (N, 2) atomic locations, optional extras."""

    image: str
    points: np.ndarray
    size: tuple[int, int] | None = None  # image extent (width, height)
    visible: np.ndarray | None = None

    def __post_init__(self):
        self.points = as_configuration(self.points)
        if self.visible is not None:
            self.visible = np.asarray(self.visible, dtype=bool)
            if self.visible.shape != (self.points.shape[0],):
                raise ValueError("visibility flags must match part count")

    def copy(self) -> "Annotation":
        return Annotation(
            self.image,
            self.points.copy(),
            self.size,
            None if self.visible is None else self.visible.copy(),
        )


def load_annotations(path, hierarchy: PartHierarchy) -> list[Annotation]:
    """Read annotation records {"image", "size", "parts": {name: [x, y]}}:
    a list, or one record.  `size` keeps its JSON numbers as written."""
    names = hierarchy.atomic_names
    record = {
        "image": str,
        "size": Optional(Nullable((NUMBER, NUMBER))),
        "parts": dict.fromkeys(names, (float, float)),
        "visible": Optional(Nullable(dict.fromkeys(names, Optional(bool)))),
    }
    records = _json.load(Path(path).read_text(), Either(record, [record]), "annotations", ValueError)
    out = []
    for rec in records if isinstance(records, list) else [records]:
        size = tuple(rec["size"]) if rec.get("size") else None
        flags = rec.get("visible")
        visible = np.array([flags.get(name, True) for name in names]) if flags else None
        points = np.array([rec["parts"][name] for name in names])
        out.append(Annotation(rec["image"], points, size, visible))
    return out


def save_annotations(annotations, hierarchy: PartHierarchy, path) -> None:
    records = []
    for ann in annotations:
        rec = {
            "image": ann.image,
            "size": list(ann.size) if ann.size else None,
            "parts": {
                name: [float(v) for v in ann.points[i]]
                for i, name in enumerate(hierarchy.atomic_names)
            },
        }
        if ann.visible is not None:
            rec["visible"] = {
                name: bool(ann.visible[i]) for i, name in enumerate(hierarchy.atomic_names)
            }
        records.append(rec)
    Path(path).write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")


class LibraryError(ValueError):
    """An exemplar library is malformed or does not fit the hierarchy."""


def _read_only(values, dtype) -> np.ndarray:
    """A read-only copy, so that no other reference can write it."""
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


def _labelled_parts(hierarchy: PartHierarchy) -> list[int]:
    """The parts that carry a relation-type label: every non-root part, by id."""
    return sorted(node.id for node in hierarchy.nodes if node.id != hierarchy.root.id)


def _check_bin_parts(hierarchy: PartHierarchy, atomic_bins, composite_bins) -> None:
    """Raise LibraryError unless the atomic bins are keyed by the atomic
    parts and the composite bins by the non-root composite parts, each
    count at most TYPE_BINS_MAX."""
    parts = _labelled_parts(hierarchy)
    atomic = [part for part in parts if hierarchy.node(part).is_atomic]
    for what, bins, expected in (
        ("atomic", atomic_bins, atomic),
        ("non-root composite", composite_bins, [part for part in parts if part not in atomic]),
    ):
        if sorted(bins) != expected:
            raise LibraryError(
                f"library has {what} bins for parts {sorted(bins)}, "
                f"the hierarchy's {what} parts are {expected}"
            )
        for part, count in bins.items():
            if count > TYPE_BINS_MAX:
                raise LibraryError(
                    f"library has {count} {what} bins for part {part}, more than {TYPE_BINS_MAX}"
                )


class ExemplarLibrary:
    """One table of annotation rows, plus relation-type channel counts.

    Exemplar e of every part is annotation e: `sources` (E,) names it,
    `points` (E, N, 2) is its full configuration, `object_size` (E,) is
    derived from `points`, and `labels` holds one (E,) column per non-root
    part, the part's relation type under its parent.  `geometry` keeps, per
    composite node id, the (E, n, S, 2) child geometry of every row
    (`child_points`).  Every array is a read-only copy.  The atomic bins
    must be keyed by the atomic parts and the composite bins by the non-root
    composite parts, each count at most `appearance.TYPE_BINS_MAX`, or
    `LibraryError` is raised.
    """

    def __init__(
        self,
        hierarchy: PartHierarchy,
        sources,
        points,
        labels: dict[int, np.ndarray],
        atomic_bins: dict[int, int],
        composite_bins: dict[int, int],
    ):
        self.sources = tuple(sources)
        if not self.sources:
            raise LibraryError("library holds no exemplars")
        _check_bin_parts(hierarchy, atomic_bins, composite_bins)
        self.points = _read_only(points, float)
        self.object_size = _read_only(object_size(self.points), float)
        self.labels = {
            part: _read_only(labels[part], np.intp) for part in _labelled_parts(hierarchy)
        }
        self.atomic_bins = dict(atomic_bins)
        self.composite_bins = dict(composite_bins)
        self.geometry = {
            node.id: _read_only(child_points(self.points, node.id, hierarchy), float)
            for node in hierarchy.composite_nodes
        }


def build_library(
    annotations,
    hierarchy: PartHierarchy,
    type_model: RelationTypeModel,
) -> ExemplarLibrary:
    """One exemplar row per annotation, in annotation order.

    Every composite part is treated as a standalone object whose exemplars
    only model the spatial layout of its children.
    """
    annotations = list(annotations)
    points = annotation_points(annotations, hierarchy)
    try:
        labels = type_model.labels(points, hierarchy)
    except CoincidentPartsError as exc:
        raise ValueError(f"annotation {annotations[exc.row].image!r}: {exc}") from None
    return ExemplarLibrary(
        hierarchy,
        [ann.image for ann in annotations],
        points,
        labels,
        atomic_bins=type_model.atomic_bins_map(hierarchy),
        composite_bins=type_model.composite_bins_map(),
    )


# -- binary container --------------------------------------------------------


def save_library(library: ExemplarLibrary, path) -> None:
    """Write the little-endian "HPEL" container (bit-exact round trip)."""
    out = bytearray()
    out += LIBRARY_MAGIC
    out += struct.pack("<I", LIBRARY_VERSION)

    def pack_bins(bins: dict[int, int]) -> None:
        out.extend(struct.pack("<I", len(bins)))
        for key in sorted(bins):
            out.extend(struct.pack("<II", key, bins[key]))

    pack_bins(library.atomic_bins)
    pack_bins(library.composite_bins)
    out += struct.pack("<II", *library.points.shape[:2])
    for source in library.sources:
        raw = source.encode("utf-8")
        out += struct.pack("<I", len(raw)) + raw
    out += library.points.astype("<f8").tobytes()
    for part in sorted(library.labels):
        out += library.labels[part].astype("<u4").tobytes()
    Path(path).write_bytes(bytes(out))


def load_library(path, hierarchy: PartHierarchy) -> ExemplarLibrary:
    """Read an "HPEL" container written by `save_library`.

    Every read is bounds-checked and every field is checked against the
    hierarchy: the atomic bins are keyed by the atomic parts and the
    composite bins by the non-root composite parts, no bin count is above
    `appearance.TYPE_BINS_MAX` (both checked before any label is read),
    each row holds one finite point per atomic part, with a finite and
    positive object size, and each label lies within its part's bin count.
    Bin keys are strictly increasing, as `save_library` writes them, so a
    file that loads re-saves bit-exact.  Anything else raises `LibraryError`.
    """
    reader = _Reader(Path(path).read_bytes(), LibraryError, "library")

    def pairs(count: int, what: str) -> dict[int, int]:
        items = list(struct.iter_unpack("<II", reader.take(8 * count)))
        keys = [key for key, _ in items]
        if any(b <= a for a, b in zip(keys, keys[1:])):
            raise LibraryError(f"{what} are not strictly increasing")
        return dict(items)

    if bytes(reader.data[:4]) != LIBRARY_MAGIC:
        raise LibraryError(f"bad magic in {path}: not an exemplar library")
    reader.pos = 4
    (version,) = reader.unpack("<I")
    if version != LIBRARY_VERSION:
        raise LibraryError(f"unsupported library version {version}")
    atomic_bins = pairs(*reader.unpack("<I"), "atomic bin parts")
    composite_bins = pairs(*reader.unpack("<I"), "composite bin parts")
    _check_bin_parts(hierarchy, atomic_bins, composite_bins)
    n_ex, n_parts = reader.unpack("<II")
    if n_parts != hierarchy.atomic_count:
        raise LibraryError(
            f"library rows hold {n_parts} parts, the hierarchy {hierarchy.atomic_count}"
        )
    sources = []
    for index in range(n_ex):
        (source_len,) = reader.unpack("<I")
        try:
            sources.append(str(reader.take(source_len), "utf-8"))
        except UnicodeDecodeError:
            raise LibraryError(f"source of exemplar {index} is not UTF-8") from None
    points = reader.array("<f8", 2 * n_ex * n_parts, (n_ex, n_parts, 2))
    if not np.isfinite(points).all():
        raise LibraryError("library points hold non-finite coordinates")
    with np.errstate(over="ignore"):  # an overflowing extent is reported below
        sizes = object_size(points)
    bad = np.flatnonzero(~(np.isfinite(sizes) & (sizes > 0)))
    if len(bad):
        raise LibraryError(
            f"exemplar {bad[0]}: object size {float(sizes[bad[0]])!r} is not finite and positive"
        )
    labels = {}
    for part in _labelled_parts(hierarchy):
        column = reader.array("<u4", n_ex, (n_ex,))
        bins = (atomic_bins if hierarchy.node(part).is_atomic else composite_bins)[part]
        bad = np.flatnonzero((column < 1) | (column > bins))
        if len(bad):
            raise LibraryError(
                f"exemplar {bad[0]}: label {column[bad[0]]} of part {part} is outside 1..{bins}"
            )
        labels[part] = column
    if reader.pos != len(reader.data):
        raise LibraryError("trailing bytes after library payload")
    return ExemplarLibrary(hierarchy, sources, points, labels, atomic_bins, composite_bins)


# -- training data ------------------------------------------------------------


def augment_positives(
    annotations, rng: np.random.Generator, jitter_fraction: float, copies: int = 1
) -> list[Annotation]:
    """Jittered copies of the positives; displacement norm stays within
    jitter_fraction times the object size."""
    if not (math.isfinite(jitter_fraction) and jitter_fraction >= 0):
        raise ValueError(f"jitter_fraction must be finite and >= 0, got {jitter_fraction}")
    if copies < 0:
        raise ValueError(f"copies must be >= 0, got {copies}")
    out = []
    for _ in range(copies):
        for ann in annotations:
            limit = jitter_fraction * object_size(ann.points)
            n = ann.points.shape[0]
            radius = limit * np.sqrt(rng.random(n))
            theta = rng.random(n) * 2.0 * np.pi
            offsets = np.stack([radius * np.cos(theta), radius * np.sin(theta)], axis=1)
            jittered = ann.copy()
            jittered.points = ann.points + offsets
            out.append(jittered)
    return out


def _root_box(points: np.ndarray) -> BoundingBox:
    return BoundingBox(points.min(axis=0), points.max(axis=0))


def generate_negatives(
    annotations,
    image_extents,
    rng: np.random.Generator,
    noise_sigma: float | None = None,
    per_positive: int = 1,
) -> list[Annotation]:
    """Positives re-placed at incorrect regions with Gaussian location noise.

    `image_extents` is a (width, height) pair shared by every image, or None
    to read each annotation's own `size`; a placement is accepted when the
    displaced root box stays inside the image and overlaps the true root box
    with IoU < NEGATIVE_MAX_IOU; NEGATIVE_ATTEMPTS placements are tried per
    negative.  Images too small for a disjoint placement are skipped with a
    warning.
    """
    if per_positive < 0:
        raise ValueError(f"per_positive must be >= 0, got {per_positive}")
    if noise_sigma is not None and not (math.isfinite(noise_sigma) and noise_sigma >= 0):
        raise ValueError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    out = []
    for ann in annotations:
        extent = image_extents or ann.size
        if extent is None:
            raise ValueError(f"no image extent known for {ann.image!r}")
        width, height = float(extent[0]), float(extent[1])
        sigma = noise_sigma if noise_sigma is not None else 0.02 * object_size(ann.points)
        true_box = _root_box(ann.points)
        span = np.array([width - true_box.width, height - true_box.height])
        if np.any(span <= 0):
            warnings.warn(f"image {ann.image!r} too small to place a negative; skipped")
            continue
        for k in range(per_positive):
            placed = None
            for _ in range(NEGATIVE_ATTEMPTS):
                origin = rng.random(2) * span
                shift = origin - true_box.top_left
                points = ann.points + shift + rng.normal(0.0, sigma, ann.points.shape)
                box = _root_box(points)
                if box.iou(true_box) >= NEGATIVE_MAX_IOU:
                    continue
                inside = (
                    box.top_left[0] >= -0.5
                    and box.top_left[1] >= -0.5
                    and box.bottom_right[0] <= width + 0.5
                    and box.bottom_right[1] <= height + 0.5
                )
                if not inside:
                    continue
                placed = points
                break
            if placed is None:
                warnings.warn(
                    f"image {ann.image!r} too small to place a negative; skipped"
                )
                continue
            negative = ann.copy()
            negative.points = placed
            negative.image = f"{ann.image}#neg{k}"
            out.append(negative)
    return out


@dataclass
class TrainingSet:
    """Feature rows with +/-1 labels; the last feature column is constant 1.
    Every feature must be finite."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=float)
        if self.features.ndim != 2 or self.labels.shape != (self.features.shape[0],):
            raise ValueError("features must be (M, D) with M labels")
        if not np.all(np.isin(self.labels, (-1.0, 1.0))):
            raise ValueError("labels must be +1 or -1")
        bad = np.argwhere(~np.isfinite(self.features))
        if len(bad):
            row, column = bad[0]
            value = float(self.features[row, column])
            raise ValueError(f"features row {row}, column {column} is {value}, not finite")


def hinge_objective(w: np.ndarray, training: TrainingSet, c: float) -> float:
    margins = training.labels * (training.features @ w)
    return 0.5 * float(w @ w) + c * float(np.maximum(0.0, 1.0 - margins).sum())


def train_weights(
    training: TrainingSet,
    c: float = 1.0,
    epochs: int = 200,
    seed: int = 0,
) -> tuple[np.ndarray, float]:
    """Projected stochastic subgradient descent on the hinge objective.

    Minimizes 0.5 ||w||^2 + c * sum hinge(y <w, f>) with a 1/t step schedule;
    after every step all components except the trailing bias are clamped to
    be non-negative.  Only a step whose margin is violated can make one
    negative: the others scale w by 1 - 1/t >= 0, so the clamp runs after
    violated steps only.  Deterministic given the seed.

    Runs of steps are checked a block at a time, with the same result bit
    for bit as one step at a time.  `np.multiply.accumulate` over [w,
    1 - 1/t_0, 1 - 1/t_1, ...] gives in row k the w of the one-step loop
    after k satisfied steps: the same correctly rounded multiplies in the
    same order.  The margins of all rows come from one product, whose sum
    rounds differently from the scalar `feature @ w`; two summation orders
    of the same dim terms differ by less than 2 * dim * eps * sum |f_i w_i|,
    so a step whose margin is not at least 1 plus that slack may be
    violated.  The block is taken up to its first such step, which then
    runs alone through the one-step loop and its exact `feature @ w < 1`.
    Steps run one at a time until `_BLOCK_MIN` in a row are satisfied, so
    that a run of violations costs no blocks; a block then covers twice the
    steps satisfied in a row, at most `_BLOCK_MAX` and never past the end of
    the epoch.
    """
    if not (math.isfinite(c) and c > 0):
        raise ValueError(f"c must be finite and > 0, got {c}")
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if len(np.unique(training.labels)) < 2:
        raise ValueError("training set must contain both classes")
    rng = np.random.default_rng(seed)
    n, dim = training.features.shape
    rows = list(training.features)
    labels = training.labels.tolist()
    slack = 2.0 * dim * np.finfo(float).eps
    ones = np.ones(dim)  # row sums as one matrix-vector product
    w = np.zeros(dim)
    clamped = w[:-1]
    t = 0  # steps taken
    run = 0  # steps satisfied in a row
    for epoch in range(epochs):
        order = rng.permutation(n)
        indices = order.tolist()
        while (start := t - epoch * n) < n:
            if run >= _BLOCK_MIN:
                count = min(n - start, 2 * run, _BLOCK_MAX)
                picked = order[start:start + count]
                scales = np.empty((count + 1, dim))
                scales[0] = w
                scales[1:] = (1.0 - 1.0 / np.arange(t + 1, t + count + 1, dtype=float))[:, None]
                np.multiply.accumulate(scales, axis=0, out=scales)
                terms = training.features[picked]
                terms *= scales[:-1]
                margins = training.labels[picked] * (terms @ ones)
                np.abs(terms, out=terms)
                bound = 1.0 + slack * (terms @ ones)
                # a NaN margin, or one whose slack overflowed, is re-tested too
                maybe = np.flatnonzero(~((margins >= bound) & (bound < np.inf)))
                taken = int(maybe[0]) if len(maybe) else count
                w[:] = scales[taken]
                t += taken
                run += taken
                if taken == count:
                    continue
                start += taken
            for i in indices[start:]:
                t += 1
                step = 1.0 / t
                feature = rows[i]
                label = labels[i]
                violated = label * (feature @ w) < 1.0
                w *= 1.0 - step
                if violated:
                    w += step * c * n * label * feature
                    np.maximum(clamped, 0.0, out=clamped)
                    run = 0
                else:
                    run += 1
                    if run >= _BLOCK_MIN:
                        break
    return w, hinge_objective(w, training, c)
