"""2-D similarity transforms and the child geometry of composite parts.

Two fitting routines cover the needs of hypothesize-and-test inference: an
exact two-point fit (used to align exemplars to hypothesis pairs) and a
least-squares fit over k >= 2 correspondences with a rotation-angle bound
(used to score how well a pose matches a stored exemplar).  Reflections are
never produced.  The angle bound is one float in (0, pi], by default
DEFAULT_MAX_ANGLE, which `check_max_angle` checks.

Both fits and the child-geometry extraction work on stacks of H rows at
once (`fit_two_points_batch`, `fit_least_squares_batch`, `child_points`);
`fit_least_squares` is the one-row call of the bounded fit.  The child
geometry of a composite part is an (n, S, 2) array in canonical child
order, S points per child: an atomic child gives its location (S = 1), a
composite child its anchor point and its tight-box corners (anchor, tl, br;
S = 3).  Every child sits one level below its parent, so the kinds follow
from the level: a level-2 part's children are all atoms, read in one
gather, and the children of a part above level 2 all composites.  A
child's point 0 is where it is aligned and looked up, and the shape tells
the kinds apart, so `child_points` is the one place that knows the layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hierarchy import PartHierarchy

DEFAULT_MAX_ANGLE = math.pi / 3
SCALE_FLOOR = 1e-9

__all__ = [
    "DEFAULT_MAX_ANGLE",
    "check_max_angle",
    "SimilarityTransform",
    "child_points",
    "fit_two_points_batch",
    "fit_least_squares",
    "fit_least_squares_batch",
    "transform_points",
]


def _wrap_angle(angle: float) -> float:
    """Wrap to (-pi, pi]."""
    wrapped = math.remainder(angle, 2.0 * math.pi)
    if wrapped <= -math.pi:
        wrapped += 2.0 * math.pi
    return wrapped


def _wrap_fitted(angle: np.ndarray) -> np.ndarray:
    """`_wrap_angle` for fitted angles, which already lie in [-pi, pi]."""
    return np.where(angle <= -math.pi, angle + 2.0 * math.pi, angle)


def transform_points(scale, angle, translation, pts) -> np.ndarray:
    """Row-wise similarity images: scale_h * R(angle_h) @ p + translation_h.

    `scale` and `angle` are (H,), `translation` is (H, 2) and `pts` is
    (H, K, 2); the result is (H, K, 2).
    """
    pts = np.asarray(pts, dtype=float)
    scale = np.asarray(scale, dtype=float)[:, None]
    cos = np.cos(angle)[:, None]
    sin = np.sin(angle)[:, None]
    x = scale * pts[..., 0]
    y = scale * pts[..., 1]
    out = np.stack([cos * x - sin * y, sin * x + cos * y], axis=-1)
    return out + np.asarray(translation, dtype=float)[:, None, :]


def check_max_angle(max_angle: float) -> float:
    """The rotation bound |angle| <= max_angle as a float; it must lie in
    (0, pi]."""
    max_angle = float(max_angle)
    if not 0.0 < max_angle <= math.pi:
        raise ValueError(f"max_angle must lie in (0, pi], got {max_angle}")
    return max_angle


@dataclass(frozen=True)
class SimilarityTransform:
    """p -> scale * R(angle) @ p + translation."""

    scale: float
    angle: float
    translation: np.ndarray

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError("scale must be positive")
        object.__setattr__(self, "angle", _wrap_angle(float(self.angle)))
        object.__setattr__(
            self, "translation", np.asarray(self.translation, dtype=float).reshape(2)
        )

    @classmethod
    def identity(cls) -> "SimilarityTransform":
        return cls(1.0, 0.0, np.zeros(2))

    def rotation(self) -> np.ndarray:
        c, s = math.cos(self.angle), math.sin(self.angle)
        return np.array([[c, -s], [s, c]])

    def apply(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return self.scale * pts @ self.rotation().T + self.translation


def fit_two_points_batch(src, dst) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise exact two-point similarity fits of (H, 2, 2) point pairs.

    Returns (scale, angle, translation) with shapes (H,), (H,), (H, 2).
    Closed form via the complex ratio of the segment vectors.
    """
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    if src.shape != dst.shape or src.shape[1:] != (2, 2):
        raise ValueError("src and dst must be matching (H, 2, 2) arrays")
    sz = (src[:, 1, 0] - src[:, 0, 0]) + 1j * (src[:, 1, 1] - src[:, 0, 1])
    dz = (dst[:, 1, 0] - dst[:, 0, 0]) + 1j * (dst[:, 1, 1] - dst[:, 0, 1])
    if np.any(sz == 0) or np.any(dz == 0):
        raise ValueError("degenerate pair: coincident points")
    ratio = dz / sz
    scale = np.abs(ratio)
    angle = _wrap_fitted(np.arctan2(ratio.imag, ratio.real))
    zero = np.zeros((len(scale), 2))
    translation = dst[:, 0] - transform_points(scale, angle, zero, src[:, :1])[:, 0]
    return scale, angle, translation


def fit_least_squares_batch(
    src, dst, bound: float = DEFAULT_MAX_ANGLE
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise bounded least-squares similarity fits of (H, ..., 2) stacks.

    Each row's points are taken in order, flattened to k = prod(...) >= 2
    points.  Returns (scale, angle, translation, residual) with shapes (H,),
    (H,), (H, 2), (H,); see `fit_least_squares` for the rules of one row.
    """
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    if src.shape != dst.shape or src.ndim < 3 or src.shape[-1] != 2:
        raise ValueError("src and dst must be matching (H, ..., 2) arrays")
    rows, k = len(src), math.prod(src.shape[1:-1])
    if k < 2:
        raise ValueError("src and dst must hold k >= 2 points per row")
    src, dst = src.reshape(rows, k, 2), dst.reshape(rows, k, 2)
    max_angle = check_max_angle(bound)
    flat = 2 * k

    # the means: numpy sums a middle axis point by point, in order, and so
    # does this loop, with less overhead per row
    src_sum, dst_sum = src[:, 0].copy(), dst[:, 0].copy()
    for i in range(1, k):
        src_sum += src[:, i]
        dst_sum += dst[:, i]
    src_mean, dst_mean = src_sum / k, dst_sum / k
    sc = src - src_mean[:, None]
    dc = dst - dst_mean[:, None]
    spread = (sc * sc).reshape(rows, flat).sum(axis=1)
    if np.any(spread <= 0.0):
        raise ValueError("all source points are identical")

    # a, b are the cos/sin components of the cross-covariance
    a = (sc * dc).reshape(rows, flat).sum(axis=1)
    b = (sc[..., 0] * dc[..., 1] - sc[..., 1] * dc[..., 0]).sum(axis=1)
    angle = np.where((a == 0.0) & (b == 0.0), 0.0, np.arctan2(b, a))
    gain_pos = a * math.cos(max_angle) + b * math.sin(max_angle)
    gain_neg = a * math.cos(max_angle) - b * math.sin(max_angle)
    endpoint = np.where(
        gain_pos > gain_neg,
        max_angle,
        np.where(gain_neg > gain_pos, -max_angle, np.copysign(max_angle, angle)),
    )
    angle = _wrap_fitted(np.where(np.abs(angle) > max_angle, endpoint, angle))

    cos, sin = np.cos(angle), np.sin(angle)
    gain = a * cos + b * sin
    scale = np.maximum(gain / spread, SCALE_FLOOR)
    # `transform_points` of the source mean (plus a zero translation) and
    # of the source points, with the cosine and sine computed once
    x, y = scale * src_mean[:, 0], scale * src_mean[:, 1]
    translation = dst_mean - (np.stack([cos * x - sin * y, sin * x + cos * y], axis=-1) + 0.0)
    x, y = scale[:, None] * src[..., 0], scale[:, None] * src[..., 1]
    cos, sin = cos[:, None], sin[:, None]
    fitted = np.empty_like(src)
    fitted[..., 0] = cos * x - sin * y
    fitted[..., 1] = sin * x + cos * y
    fitted += translation[:, None, :]
    residual = ((dst - fitted) ** 2).reshape(rows, flat).sum(axis=1)
    return scale, angle, translation, residual


def fit_least_squares(
    src, dst, bound: float = DEFAULT_MAX_ANGLE
) -> tuple[SimilarityTransform, float]:
    """Least-squares similarity (no reflection) with a bounded rotation angle.

    Returns the transform and the sum of squared distances it leaves.  If the
    unconstrained optimal angle falls outside [-bound, +bound], the angle is
    clamped to the better endpoint and scale/translation are re-solved
    optimally at that fixed angle.  The fitted scale is floored at 1e-9.
    """
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    if src.shape != dst.shape or src.ndim != 2 or src.shape[1] != 2 or src.shape[0] < 2:
        raise ValueError("src and dst must be matching (k, 2) arrays with k >= 2")
    scale, angle, translation, residual = fit_least_squares_batch(src[None], dst[None], bound)
    transform = SimilarityTransform(float(scale[0]), float(angle[0]), translation[0])
    return transform, float(residual[0])


def child_points(locations, node_id: int, hierarchy: PartHierarchy) -> np.ndarray:
    """Child geometry points of a composite node for stacked configurations.

    `locations` is (..., N, 2) and may carry NaN rows for atoms outside the
    node's subtree; only the subtree rows are read.  The result is
    (..., n, S, 2) for the node's n children: each atomic child's location
    (S = 1) at level 2, each composite child's anchor, tl and br (S = 3)
    above.
    """
    node = hierarchy.node(node_id)
    if node.is_atomic:
        raise ValueError(f"node {node_id} is atomic and has no child geometry")
    X = np.asarray(locations, dtype=float)
    if node.level == 2:
        pts = X[..., [hierarchy.atom_index(child_id) for child_id in node.children], :]
        pts = pts[..., None, :]
    else:
        points: list[np.ndarray] = []
        for child_id in node.children:
            subtree = X[..., hierarchy.atom_rows(child_id), :]
            points += [
                hierarchy.anchor_point(X, child_id), subtree.min(axis=-2), subtree.max(axis=-2)
            ]
        pts = np.stack(points, axis=-2).reshape(X.shape[:-2] + (len(node.children), 3, 2))
    if not np.isfinite(pts).all():
        raise ValueError(f"child geometry of node {node_id} uses undefined locations")
    return pts
