import math

import numpy as np
import pytest

from hierpose import (
    InferenceParams,
    ModelMismatchError,
    SimilarityTransform,
    WeightVector,
    best_fit_pose,
    collapse_model,
    fit_least_squares,
    hypothesis_from_config,
)
from hierpose.geometry import child_points, fit_two_points_batch, transform_points

from conftest import annotations_tiny3, library_for
from oracles import MAX_ANGLE, grid_search_pose_similarity


def random_geometry(rng, k=4, span=8.0):
    return rng.random((k, 2)) * span


def similarity(current, exemplar, bound=MAX_ANGLE) -> float:
    """Alignment score of an exemplar's points onto a pose: minus the
    residual of the bounded least-squares fit."""
    return -fit_least_squares(exemplar, current, bound)[1]


def test_fit_two_points_axis_rotation():
    scale, angle, translation = fit_two_points_batch([[(0, 0), (1, 0)]], [[(0, 0), (0, 2)]])
    assert scale[0] == pytest.approx(2.0)
    assert angle[0] == pytest.approx(math.pi / 2)
    assert np.allclose(translation[0], (0, 0))


def test_fit_two_points_identity():
    scale, angle, translation = fit_two_points_batch([[(1, 2), (3, 4)]], [[(1, 2), (3, 4)]])
    assert scale[0] == pytest.approx(1.0)
    assert angle[0] == pytest.approx(0.0)
    assert np.allclose(translation[0], (0, 0), atol=1e-12)


def test_fit_two_points_scale_shift():
    scale, angle, translation = fit_two_points_batch([[(0, 0), (2, 0)]], [[(5, 5), (9, 5)]])
    assert scale[0] == pytest.approx(2.0)
    assert angle[0] == pytest.approx(0.0)
    assert np.allclose(translation[0], (5, 5))


def test_fit_two_points_degenerate():
    with pytest.raises(ValueError, match="degenerate pair"):
        fit_two_points_batch([[(1, 1), (1, 1)]], [[(0, 0), (1, 0)]])
    with pytest.raises(ValueError, match="degenerate pair"):
        fit_two_points_batch([[(0, 0), (1, 0)]], [[(2, 2), (2, 2)]])


def test_fit_two_points_roundtrip():
    rng = np.random.default_rng(0)
    src = rng.random((50, 2, 2)) * 8.0
    dst = rng.random((50, 2, 2)) * 8.0
    scale, angle, translation = fit_two_points_batch(src, dst)
    assert np.allclose(transform_points(scale, angle, translation, src), dst, atol=1e-9)


def test_apply_examples():
    identity = SimilarityTransform.identity()
    pts = np.array([[1.0, 2.0], [3.0, -4.0]])
    assert np.allclose(identity.apply(pts), pts)
    t = SimilarityTransform(2.0, 0.0, (1.0, 1.0))
    assert np.allclose(t.apply([(0, 0)]), [(1, 1)])
    rot = SimilarityTransform(1.0, math.pi / 2, (0.0, 0.0))
    assert np.allclose(rot.apply([(1, 0)]), [(0, 1)], atol=1e-12)


def test_fit_least_squares_identity():
    pts = np.array([[0.0, 0.0], [4.0, 1.0], [2.0, 5.0]])
    t, residual = fit_least_squares(pts, pts)
    assert residual == pytest.approx(0.0, abs=1e-12)
    assert t.scale == pytest.approx(1.0)
    assert t.angle == pytest.approx(0.0)


def test_fit_least_squares_clamps_angle():
    rng = np.random.default_rng(1)
    src = random_geometry(rng, 4)
    flip = SimilarityTransform(1.0, math.pi, (0.0, 0.0))
    dst = flip.apply(src)
    t, residual = fit_least_squares(src, dst, bound=math.pi / 2)
    assert abs(t.angle) == pytest.approx(math.pi / 2)
    assert residual > 0
    unbounded, zero_residual = fit_least_squares(src, dst, bound=math.pi)
    assert zero_residual == pytest.approx(0.0, abs=1e-9)
    assert abs(unbounded.angle) == pytest.approx(math.pi)


def test_fit_least_squares_all_identical_src():
    src = np.ones((3, 2))
    dst = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="identical"):
        fit_least_squares(src, dst)


def test_fit_least_squares_matches_lattice_oracle():
    rng = np.random.default_rng(2)
    bound = math.pi / 3
    for _ in range(10):
        src = random_geometry(rng, 4)
        dst = random_geometry(rng, 4)
        _, residual = fit_least_squares(src, dst, bound)
        oracle = -grid_search_pose_similarity(dst, src, bound)
        assert residual <= oracle + 1e-6


def test_fit_least_squares_never_beats_unconstrained():
    rng = np.random.default_rng(3)
    for _ in range(30):
        src = random_geometry(rng, 5)
        dst = random_geometry(rng, 5)
        _, unconstrained = fit_least_squares(src, dst, bound=math.pi)
        t, constrained = fit_least_squares(src, dst, bound=0.3)
        assert constrained >= unconstrained - 1e-9
        if abs(t.angle) < 0.3 - 1e-12:
            assert constrained == pytest.approx(unconstrained, abs=1e-9)


def test_pose_similarity_identity():
    rng = np.random.default_rng(4)
    for _ in range(10):
        pts = random_geometry(rng, 4)
        assert similarity(pts, pts) >= -1e-9


def test_pose_similarity_invariant_to_similarity():
    rng = np.random.default_rng(5)
    pts = random_geometry(rng, 4)
    moved = SimilarityTransform(3.0, 0.1, (7.0, -2.0)).apply(pts)
    assert similarity(moved, pts) >= -1e-9


def test_pose_similarity_displaced_matches_oracle():
    rng = np.random.default_rng(6)
    for _ in range(5):
        pts = random_geometry(rng, 4)
        displaced = pts.copy()
        displaced[0] += (1.3, -0.8)
        value = similarity(displaced, pts)
        oracle = grid_search_pose_similarity(displaced, pts)
        assert value == pytest.approx(oracle, abs=1e-6)
        assert value < 0


def test_pose_similarity_signature_mismatch(tiny3):
    # a library of the collapsed model, whose root has six atomic children,
    # read with the full hierarchy, whose root has two composite ones: the
    # error names the node and both shapes, as `check_model`'s does
    library, _ = library_for(tiny3, annotations_tiny3(3))
    flat = collapse_model(tiny3, library, WeightVector.uniform(tiny3))[1]
    message = r"node 20 has shape \(6, 1, 2\), the hierarchy's \(2, 3, 2\)"
    X = annotations_tiny3(1)[0].points
    with pytest.raises(ModelMismatchError, match=message):
        best_fit_pose(X, 20, flat, tiny3)
    # the search's first node, 10, is not in the collapsed library at all
    with pytest.raises(ModelMismatchError, match="library has no child geometry for node 10"):
        hypothesis_from_config(X, tiny3, flat)


def test_pose_similarity_transform_invariance_of_current():
    # unit-scale, bound-respecting moves of `current` leave the score alone
    # as long as the shifted optimal angle stays inside the bound
    rng = np.random.default_rng(7)
    for _ in range(10):
        exemplar_pts = random_geometry(rng, 5)
        current_pts = exemplar_pts + rng.normal(0.0, 0.4, exemplar_pts.shape)
        base = similarity(current_pts, exemplar_pts)
        moved = SimilarityTransform(1.0, 0.2, (3.0, 4.0)).apply(current_pts)
        value = similarity(moved, exemplar_pts)
        assert value == pytest.approx(base, abs=1e-6)


def test_child_geometry_signature(tiny3):
    X = np.arange(12, dtype=float).reshape(6, 2)
    assert child_points(X, 10, tiny3).shape == (3, 1, 2)
    assert child_points(X, 20, tiny3).shape == (2, 3, 2)


@pytest.mark.parametrize("bound", [0.0, -0.5, math.pi + 1e-9, math.nan, math.inf])
def test_angle_bound_outside_zero_to_pi_is_rejected(bound):
    src = random_geometry(np.random.default_rng(0), 3)
    with pytest.raises(ValueError, match=r"max_angle must lie in \(0, pi\], got "):
        fit_least_squares(src, src, bound)
    with pytest.raises(ValueError, match=r"max_angle must lie in \(0, pi\], got "):
        InferenceParams(max_angle=bound)
