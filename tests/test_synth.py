import math

import numpy as np
import pytest

from hierpose import (
    WeightVector,
    best_fit_pose,
    fit_least_squares,
    load_hierarchy,
    top_peaks,
    total_score,
)
from hierpose.appearance import log_marginals_at
from hierpose.geometry import child_points
from hierpose.synth import (
    generate_pose,
    load_scene,
    make_scene,
    render_score_maps,
    save_scene,
)

from conftest import annotations_tiny3, library_for
from oracles import (
    exhaustive_best_config, grid_search_pose_similarity, naive_exhaustive_best_config,
    stored_labels,
)


@pytest.fixture()
def tiny3_library(tiny3):
    annotations = annotations_tiny3(4)
    library, model = library_for(tiny3, annotations)
    return tiny3, annotations, library


def test_generate_pose_unmixed_reproduces_source(tiny3_library):
    hierarchy, annotations, library = tiny3_library
    rng = np.random.default_rng(0)
    X, chosen = generate_pose(library, hierarchy, rng, mix=False)
    row = chosen[hierarchy.root.id]
    assert np.allclose(X, annotations[row].points, atol=1e-9)
    for node in hierarchy.composite_nodes:
        assert chosen[node.id] == row
        _, residual = fit_least_squares(
            library.arrays(node.id).geometry[row], child_points(X, node.id, hierarchy)
        )
        assert -residual >= -1e-6


def test_generate_pose_deterministic(tiny3_library):
    hierarchy, _, library = tiny3_library
    a, chosen_a = generate_pose(library, hierarchy, np.random.default_rng(7))
    b, chosen_b = generate_pose(library, hierarchy, np.random.default_rng(7))
    assert np.array_equal(a, b)
    assert chosen_a == chosen_b


def test_generate_pose_mixed_sources(tiny3_library):
    hierarchy, annotations, library = tiny3_library
    assignment = {20: 0, 10: 2, 11: 1}  # rows of img0, img2 and img1
    X, chosen = generate_pose(
        library, hierarchy, np.random.default_rng(1), mix=True, assignment=assignment
    )
    assert chosen == assignment
    # level-2 poses match their mixed-in sources exactly (similarity images)
    for node_id, row in ((10, 2), (11, 1)):
        index, value = best_fit_pose(X, node_id, library, hierarchy)
        assert index == row
        assert value >= -1e-9
    # the level-3 layout still follows the root source
    index, _ = best_fit_pose(X, 20, library, hierarchy)
    assert index == 0


def labels_for(library, hierarchy, chosen):
    """Atomic and composite relation-type labels: each part's, from its
    parent's row in `chosen`."""
    atomic, composite = {}, {}
    for node in hierarchy.composite_nodes:
        labels = stored_labels(library, node.id, chosen[node.id])
        for child in node.children:
            (atomic if hierarchy.node(child).is_atomic else composite)[child] = labels[child]
    return atomic, composite


def test_render_peaks_at_ground_truth(tiny3_library):
    hierarchy, annotations, library = tiny3_library
    X = np.floor(annotations[0].points * 1.5) + (4, 6)
    chosen = {n.id: 0 for n in hierarchy.composite_nodes}  # the rows of img0
    atomic_labels, composite_labels = labels_for(library, hierarchy, chosen)
    stack = render_score_maps(
        X, hierarchy, atomic_labels, composite_labels,
        library.atomic_bins, library.composite_bins, grid=(40, 40), sigma=1.2,
    )
    for i, part in enumerate(hierarchy.atomic_ids):
        points, _ = top_peaks(stack, part, 0, 1, 2.0)
        assert np.allclose(points[0], X[i])


def test_render_normalization_exact(tiny3_library):
    hierarchy, annotations, library = tiny3_library
    X = np.floor(annotations[1].points) + (3, 3)
    chosen = {n.id: 1 for n in hierarchy.composite_nodes}  # the rows of img1
    atomic_labels, composite_labels = labels_for(library, hierarchy, chosen)
    stack = render_score_maps(
        X, hierarchy, atomic_labels, composite_labels,
        library.atomic_bins, library.composite_bins, grid=(32, 32),
        distractors=3, noise=0.02, rng=np.random.default_rng(5),
    )
    sums = stack.scales[0].atomic.astype(np.float64).sum(axis=0)
    assert np.abs(sums - 1.0).max() <= 1e-6
    for comp in stack.scales[0].composite.values():
        csums = comp.data.astype(np.float64).sum(axis=0)
        assert np.abs(csums - 1.0).max() <= 1e-6


def test_render_truth_dominates_far_field(tiny3_library):
    hierarchy, annotations, library = tiny3_library
    X = np.floor(annotations[2].points) + (5, 8)
    chosen = {n.id: 2 for n in hierarchy.composite_nodes}  # the rows of img2
    atomic_labels, composite_labels = labels_for(library, hierarchy, chosen)
    stack = render_score_maps(
        X, hierarchy, atomic_labels, composite_labels,
        library.atomic_bins, library.composite_bins, grid=(36, 36), sigma=1.5,
    )
    yy, xx = np.mgrid[0:36, 0:36]
    for i, part in enumerate(hierarchy.atomic_ids):
        at_truth = log_marginals_at(stack, [part], [[X[i]]], 0)[0, 0]
        far = np.hypot(xx - X[i][0], yy - X[i][1]) > 4.5
        marginal = stack.marginal(part, 0)
        far_best = math.log(max(marginal[far].max(), 1e-6))
        assert at_truth > far_best


def test_render_deterministic(tiny3_library):
    hierarchy, annotations, library = tiny3_library
    X = np.floor(annotations[0].points) + 2
    chosen = {n.id: 0 for n in hierarchy.composite_nodes}  # the rows of img0
    atomic_labels, composite_labels = labels_for(library, hierarchy, chosen)

    def build(seed):
        return render_score_maps(
            X, hierarchy, atomic_labels, composite_labels,
            library.atomic_bins, library.composite_bins, grid=(24, 24),
            distractors=2, noise=0.01, rng=np.random.default_rng(seed),
        )

    a, b = build(9), build(9)
    assert np.array_equal(a.scales[0].atomic, b.scales[0].atomic)


def test_make_scene_bundle_round_trip(tmp_path, tiny3_library):
    hierarchy, annotations, library = tiny3_library
    scene = make_scene(library, hierarchy, seed=3, grid=(48, 48), mix=True)
    assert scene.provenance["mix"] is True
    assert scene.provenance["seed"] == 3
    save_scene(scene, tmp_path / "bundle", hierarchy)
    loaded = load_scene(tmp_path / "bundle", hierarchy)
    assert np.array_equal(loaded.configuration, scene.configuration)
    assert loaded.provenance == scene.provenance
    assert np.array_equal(loaded.stack.scales[0].atomic, scene.stack.scales[0].atomic)


def test_make_scene_deterministic(tiny3_library):
    hierarchy, _, library = tiny3_library
    a = make_scene(library, hierarchy, seed=11, grid=(40, 40))
    b = make_scene(library, hierarchy, seed=11, grid=(40, 40))
    assert np.array_equal(a.configuration, b.configuration)
    assert np.array_equal(a.stack.scales[0].atomic, b.stack.scales[0].atomic)
    assert a.provenance == b.provenance


def test_oracle_similarity_identical_is_zero():
    rng = np.random.default_rng(2)
    pts = rng.random((4, 2)) * 6
    assert grid_search_pose_similarity(pts, pts) == pytest.approx(0.0, abs=1e-9)


def test_oracle_similarity_clamped_case():
    from hierpose import fit_least_squares

    rng = np.random.default_rng(3)
    src = rng.random((5, 2)) * 6
    rotated = src @ np.array([[math.cos(2.0), math.sin(2.0)], [-math.sin(2.0), math.cos(2.0)]])
    bound = math.pi / 3
    _, residual = fit_least_squares(src, rotated, bound)
    oracle = grid_search_pose_similarity(rotated, src, bound)
    assert oracle < -1e-3
    assert -residual == pytest.approx(oracle, abs=1e-6)


def test_oracle_similarity_agrees_random():
    from hierpose import fit_least_squares

    rng = np.random.default_rng(4)
    for _ in range(10):
        src = rng.random((4, 2)) * 6
        dst = rng.random((4, 2)) * 6
        _, residual = fit_least_squares(src, dst)
        oracle = grid_search_pose_similarity(dst, src)
        assert -residual == pytest.approx(oracle, abs=1e-6)


def two_part_setup():
    doc = {
        "levels": 2,
        "nodes": [
            {"id": 1, "name": "a", "level": 1, "children": [], "anchor": None},
            {"id": 2, "name": "b", "level": 1, "children": [], "anchor": None},
            {"id": 10, "name": "root", "level": 2, "children": [1, 2],
             "anchor": {"a": 1.0}},
        ],
        "scale": {"reference_length": 6.0, "level_factors": [1.0, 1.0]},
    }
    hierarchy = load_hierarchy(doc)
    from hierpose import Annotation

    annotations = [
        Annotation("s0", [[4.0, 4.0], [10.0, 6.0]]),
        Annotation("s1", [[4.0, 6.0], [10.0, 2.0]]),
    ]
    library, model = library_for(hierarchy, annotations, atomic_bins=4)
    X = annotations[0].points
    chosen = {10: 0}
    atomic_labels = stored_labels(library, 10, 0)
    stack = render_score_maps(
        X, hierarchy, atomic_labels, {}, library.atomic_bins, {},
        grid=(16, 16), sigma=1.2,
    )
    return hierarchy, library, stack, X


def neighborhood(point, radius=1):
    out = []
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            out.append((point[0] + dx, point[1] + dy))
    return np.array(out, dtype=float)


def test_exhaustive_best_config_finds_truth():
    hierarchy, library, stack, X = two_part_setup()
    weights = WeightVector([1.0, 1.0], [0.2], [0.5], 0.0)
    candidates = [neighborhood(X[0]), neighborhood(X[1])]
    best, score = exhaustive_best_config(stack, hierarchy, library, weights, candidates)
    assert np.allclose(best, X)
    assert score == pytest.approx(
        total_score(X, stack, hierarchy, library, weights), abs=1e-12
    )


def test_exhaustive_best_config_zero_spatial_is_per_part_argmax():
    hierarchy, library, stack, X = two_part_setup()
    weights = WeightVector([1.0, 1.0], [0.0], [0.0], 0.0)
    candidates = [neighborhood(X[0]), neighborhood(X[1])]
    best, _ = exhaustive_best_config(stack, hierarchy, library, weights, candidates)
    for i, part in enumerate(hierarchy.atomic_ids):
        values = log_marginals_at(stack, [part], [candidates[i]], 0)[0]
        at_best = log_marginals_at(stack, [part], [[best[i]]], 0)[0, 0]
        assert at_best == pytest.approx(values.max())


def test_exhaustive_best_config_budget():
    hierarchy, library, stack, X = two_part_setup()
    weights = WeightVector([1.0, 1.0], [0.0], [0.0], 0.0)
    big = np.stack([np.arange(4000, dtype=float)] * 2, axis=1)
    with pytest.raises(ValueError, match="budget"):
        exhaustive_best_config(
            stack, hierarchy, library, weights, [big, big], budget=10**6
        )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exhaustive_best_config_matches_scalar_loop(tiny3_library, seed):
    """The batched enumeration picks the same configuration with the same
    score, bit for bit, as the loop over `total_score`."""
    hierarchy, _, library = tiny3_library
    scene = make_scene(library, hierarchy, seed=seed, grid=(32, 32), mix=True, distractors=2)
    rng = np.random.default_rng(seed)
    weights = WeightVector(rng.random(6), rng.random(3), rng.random(3), float(rng.normal()))
    candidates = [point + [(-1.0, 0.0), (0.0, 0.0), (0.0, 1.0)] for point in scene.configuration]
    best, score = exhaustive_best_config(scene.stack, hierarchy, library, weights, candidates)
    naive_best, naive_score = naive_exhaustive_best_config(
        scene.stack, hierarchy, library, weights, candidates
    )
    assert best.tobytes() == naive_best.tobytes()
    assert score == naive_score
