import math

import numpy as np
import pytest

from hierpose import (
    WeightVector,
    best_fit_pose,
    feature_vector,
    hypothesis_from_config,
    refinement_score,
    spatial_score,
    subtree_score,
    total_score,
)
from hierpose.appearance import ScaleMaps, ScoreMapStack, log_marginals_at
from hierpose.inference import Hypothesis
from hierpose.hierarchy import object_size
from hierpose.scoring import (
    build_training_set,
    feature_length,
    load_weights,
    pose_terms,
    save_weights,
    scale_indices,
)

import oracles
from conftest import annotations_tiny3, base_pose_tiny3, library_for, random_stack


@pytest.fixture()
def setup_tiny3(tiny3):
    annotations = annotations_tiny3(3)
    library, model = library_for(tiny3, annotations)
    stack = random_stack(
        tiny3,
        model.atomic_bins_map(tiny3),
        model.composite_bins_map(),
        np.random.default_rng(42),
        grid=(24, 24),
    )
    return tiny3, annotations, library, stack


def random_weights(hierarchy, rng, bias=None) -> WeightVector:
    n, c = hierarchy.atomic_count, len(hierarchy.composite_nodes)
    return WeightVector(
        rng.random(n) * 2,
        rng.random(c),
        rng.random(c) * 0.2,
        float(rng.normal()) if bias is None else bias,
    )


def appearance(X, stack, hierarchy, library, weights) -> float:
    """The weighted atomic slice of the feature vector."""
    features = feature_vector(X, stack, hierarchy, library)
    return float(weights.atomic @ features[: hierarchy.atomic_count])


def node_term(X, node_id, stack, hierarchy, library, weights) -> float:
    """One node's spatial term with its best-fit exemplar: one `pose_terms` row."""
    w_app, w_sim = weights.node_weights(hierarchy, node_id)
    index, _ = best_fit_pose(X, node_id, library, hierarchy)
    log_prob, similarity = pose_terms(
        np.asarray(X, dtype=float)[None], node_id, [index], [object_size(X)],
        stack, hierarchy, library,
    )
    return w_app * float(log_prob[0]) + w_sim * float(similarity[0])


def test_appearance_score_zero_weights(setup_tiny3):
    hierarchy, annotations, library, stack = setup_tiny3
    weights = WeightVector.uniform(hierarchy, atomic=0.0)
    assert appearance(annotations[0].points, stack, hierarchy, library, weights) == 0.0


def test_appearance_score_single_part():
    doc = {
        "levels": 2,
        "nodes": [
            {"id": 1, "name": "a", "level": 1, "children": [], "anchor": None},
            {"id": 2, "name": "b", "level": 1, "children": [], "anchor": None},
            {"id": 10, "name": "root", "level": 2, "children": [1, 2],
             "anchor": {"a": 1.0}},
        ],
        "scale": {"reference_length": 4.0, "level_factors": [1.0, 1.0]},
    }
    from hierpose import load_hierarchy

    hierarchy = load_hierarchy(doc)
    table = np.array([(0, 0), (1, 1), (2, 1)], dtype=np.uint32)
    atomic = np.zeros((3, 6, 6), dtype=np.float32)
    atomic[0] = 0.5
    atomic[1] = 0.5  # p(part 1) = 0.5 everywhere
    stack = ScoreMapStack([ScaleMaps(1.0, table, atomic)])
    weights = WeightVector([2.0, 0.0], [0.0], [0.0], 0.0)
    X = np.array([[1.0, 1.0], [5.0, 5.0]])
    # the atomic slice of the feature vector, without a library
    log_probs = log_marginals_at(stack, hierarchy.atomic_ids, X[:, None], 0)[:, 0]
    assert float(weights.atomic @ log_probs) == pytest.approx(2.0 * math.log(0.5))


def test_appearance_score_matches_naive(setup_tiny3):
    hierarchy, annotations, library, stack = setup_tiny3
    rng = np.random.default_rng(0)
    for _ in range(20):
        X = rng.random((6, 2)) * 22
        weights = random_weights(hierarchy, rng)
        ours = appearance(X, stack, hierarchy, library, weights)
        naive = oracles.naive_appearance(X, stack, hierarchy, weights)
        assert ours == pytest.approx(naive, abs=1e-12)


def test_best_fit_pose_exact_member(setup_tiny3):
    hierarchy, annotations, library, stack = setup_tiny3
    for node in hierarchy.composite_nodes:
        index, value = best_fit_pose(annotations[1].points, node.id, library, hierarchy)
        assert index == 1
        assert value == pytest.approx(0.0, abs=1e-9)


def test_best_fit_pose_single_exemplar_forced(tiny3):
    from hierpose import build_library

    _, model = library_for(tiny3, annotations_tiny3(3))
    single = build_library(annotations_tiny3(1), tiny3, model)
    X = base_pose_tiny3(2)
    index, value = best_fit_pose(X, 10, single, tiny3)
    assert index == 0
    assert value < 0


def test_best_fit_pose_matches_exhaustive(setup_tiny3):
    hierarchy, annotations, library, stack = setup_tiny3
    rng = np.random.default_rng(1)
    for _ in range(20):
        X = rng.random((6, 2)) * 20
        for node in hierarchy.composite_nodes:
            ours = best_fit_pose(X, node.id, library, hierarchy)
            naive = oracles.naive_best_fit(X, node.id, library, hierarchy, oracles.MAX_ANGLE)
            assert ours[0] == naive[0]
            assert ours[1] == pytest.approx(naive[1], abs=1e-9)


def test_pose_score_zero_weights(setup_tiny3):
    hierarchy, annotations, library, stack = setup_tiny3
    weights = WeightVector.uniform(hierarchy, pose_appearance=0.0, pose_similarity=0.0)
    assert node_term(annotations[0].points, 10, stack, hierarchy, library, weights) == 0.0


def test_pose_score_similarity_only_identity(setup_tiny3):
    hierarchy, annotations, library, stack = setup_tiny3
    weights = WeightVector.uniform(hierarchy, pose_appearance=0.0, pose_similarity=1.0)
    value = node_term(annotations[0].points, 10, stack, hierarchy, library, weights)
    assert value == pytest.approx(0.0, abs=1e-9)


def test_pose_score_matches_naive(setup_tiny3):
    hierarchy, annotations, library, stack = setup_tiny3
    rng = np.random.default_rng(2)
    for _ in range(10):
        X = rng.random((6, 2)) * 20 + 1
        weights = random_weights(hierarchy, rng)
        ours = sum(
            node_term(X, node.id, stack, hierarchy, library, weights)
            for node in hierarchy.composite_nodes
        )
        naive = oracles.naive_spatial(X, stack, hierarchy, library, weights, oracles.MAX_ANGLE)
        assert ours == pytest.approx(naive, abs=1e-9)


def test_spatial_score_zero_weights(setup_tiny3):
    hierarchy, annotations, library, stack = setup_tiny3
    weights = WeightVector.uniform(hierarchy, pose_appearance=0.0, pose_similarity=0.0)
    assert spatial_score(annotations[0].points, stack, hierarchy, library, weights) == 0.0


def test_spatial_score_depth2_single_node(tiny2):
    from hierpose import Annotation as Ann

    anns = [Ann(f"i{k}", base_pose_tiny3(k)[:3] + k) for k in range(3)]
    library, model = library_for(tiny2, anns, composite_bins=2)
    stack = random_stack(
        tiny2, model.atomic_bins_map(tiny2), {}, np.random.default_rng(3), grid=(30, 30)
    )
    weights = WeightVector([0.0] * 3, [0.7], [0.3], 0.0)
    X = anns[1].points + 0.5
    total = spatial_score(X, stack, hierarchy=tiny2, library=library, weights=weights)
    single = node_term(X, tiny2.root.id, stack, tiny2, library, weights)
    assert total == pytest.approx(single)


def test_spatial_score_matches_naive(setup_tiny3):
    hierarchy, annotations, library, stack = setup_tiny3
    rng = np.random.default_rng(4)
    for _ in range(10):
        X = rng.random((6, 2)) * 20 + 1
        weights = random_weights(hierarchy, rng)
        ours = spatial_score(X, stack, hierarchy, library, weights)
        naive = oracles.naive_spatial(X, stack, hierarchy, library, weights, oracles.MAX_ANGLE)
        assert ours == pytest.approx(naive, abs=1e-9)


def test_total_score_bias_only(setup_tiny3):
    hierarchy, annotations, library, stack = setup_tiny3
    weights = WeightVector.uniform(
        hierarchy, atomic=0.0, pose_appearance=0.0, pose_similarity=0.0, bias=5.0
    )
    value = total_score(annotations[0].points, stack, hierarchy, library, weights)
    assert value == pytest.approx(5.0)


def test_total_score_is_dot_product(setup_tiny3):
    hierarchy, annotations, library, stack = setup_tiny3
    rng = np.random.default_rng(5)
    for _ in range(100):
        X = rng.random((6, 2)) * 22
        weights = random_weights(hierarchy, rng)
        features = feature_vector(X, stack, hierarchy, library)
        direct = total_score(X, stack, hierarchy, library, weights)
        assert direct == pytest.approx(float(weights.as_array() @ features), abs=1e-12)


def test_total_score_matches_naive(setup_tiny3):
    hierarchy, annotations, library, stack = setup_tiny3
    rng = np.random.default_rng(6)
    for _ in range(10):
        X = rng.random((6, 2)) * 20 + 1
        weights = random_weights(hierarchy, rng)
        ours = total_score(X, stack, hierarchy, library, weights)
        naive = oracles.naive_total(X, stack, hierarchy, library, weights, oracles.MAX_ANGLE)
        assert ours == pytest.approx(naive, abs=1e-9)


def test_subtree_score_level1_is_zero(setup_tiny3):
    hierarchy, annotations, library, stack = setup_tiny3
    locations = np.full((6, 2), np.nan)
    locations[0] = (3.0, 3.0)
    hyp = Hypothesis(
        node_id=1, level=1, locations=locations,
        pose=np.full(len(hierarchy.composite_nodes), -1), object_size=0.0,
    )
    weights = WeightVector.uniform(hierarchy)
    assert subtree_score(hyp, stack, hierarchy, library, weights) == 0.0


def test_subtree_score_depth2_equals_root_term(tiny2):
    from hierpose import Annotation as Ann

    anns = [Ann(f"i{k}", base_pose_tiny3(k)[:3] + 2 * k) for k in range(3)]
    library, model = library_for(tiny2, anns, composite_bins=2)
    stack = random_stack(
        tiny2, model.atomic_bins_map(tiny2), {}, np.random.default_rng(7), grid=(30, 30)
    )
    weights = WeightVector([0.4, 0.2, 0.9], [0.7], [0.3], 0.0)
    X = anns[0].points + 1.0
    hyp = hypothesis_from_config(X, tiny2, library)
    f = subtree_score(hyp, stack, tiny2, library, weights)
    single = node_term(X, tiny2.root.id, stack, tiny2, library, weights)
    assert f == pytest.approx(single, abs=1e-9)


def test_subtree_score_equals_spatial_with_best_fit(setup_tiny3):
    hierarchy, annotations, library, stack = setup_tiny3
    rng = np.random.default_rng(8)
    for _ in range(20):
        X = rng.random((6, 2)) * 20 + 1
        weights = random_weights(hierarchy, rng)
        hyp = hypothesis_from_config(X, hierarchy, library)
        f = subtree_score(hyp, stack, hierarchy, library, weights)
        r = spatial_score(X, stack, hierarchy, library, weights)
        assert f == pytest.approx(r, abs=1e-9)


def scored_root_hypothesis(X, hierarchy, library, stack, weights):
    hyp = hypothesis_from_config(X, hierarchy, library)
    hyp.score = subtree_score(hyp, stack, hierarchy, library, weights)
    return hyp


def test_refinement_score_at_hypothesis_config(setup_tiny3):
    hierarchy, annotations, library, stack = setup_tiny3
    weights = WeightVector.uniform(hierarchy, pose_similarity=0.0, bias=1.5)
    X = annotations[0].points
    hyp = scored_root_hypothesis(X, hierarchy, library, stack, weights)
    g = refinement_score(X, hyp, stack, hierarchy, weights)
    u = appearance(X, stack, hierarchy, library, weights)
    assert g == pytest.approx(u + hyp.score + weights.bias, abs=1e-9)


def test_refinement_score_locality(setup_tiny3):
    hierarchy, annotations, library, stack = setup_tiny3
    rng = np.random.default_rng(9)
    weights = random_weights(hierarchy, rng)
    X = annotations[0].points
    hyp = scored_root_hypothesis(X, hierarchy, library, stack, weights)
    base = refinement_score(X, hyp, stack, hierarchy, weights)
    moved = X.copy()
    moved[2] += (0.8, -0.4)
    after = refinement_score(moved, hyp, stack, hierarchy, weights)
    # only part 2's appearance term and its parent's alignment penalty move
    part = hierarchy.atomic_ids[2]
    scale_index = int(scale_indices([hyp.object_size], 1, stack, hierarchy)[0])
    before_after = log_marginals_at(
        stack, [part], np.stack([X[2], moved[2]])[None], scale_index
    )[0]
    phi_delta = weights.atomic[2] * (before_after[1] - before_after[0])
    beta = weights.node_weights(hierarchy, hierarchy.parent_of(part))[1]
    penalty = beta * float(np.sum((moved[2] - X[2]) ** 2))
    assert after - base == pytest.approx(phi_delta - penalty, abs=1e-9)


def test_refinement_score_matches_naive(setup_tiny3):
    hierarchy, annotations, library, stack = setup_tiny3
    rng = np.random.default_rng(10)
    for _ in range(10):
        weights = random_weights(hierarchy, rng)
        X = annotations[1].points
        hyp = scored_root_hypothesis(X, hierarchy, library, stack, weights)
        moved = X + rng.normal(0, 0.7, X.shape)
        ours = refinement_score(moved, hyp, stack, hierarchy, weights)
        scale = hierarchy.scale.level_factors[0] * hyp.object_size / hierarchy.scale.reference_length
        naive = weights.bias + hyp.score
        for i, part in enumerate(hierarchy.atomic_ids):
            naive += weights.atomic[i] * oracles.naive_log_part_prob(
                stack, part, moved[i], scale
            )
        for index, node in enumerate(hierarchy.composite_nodes):
            if node.level != 2:
                continue
            rows = [hierarchy.atom_index(p) for p in hierarchy.atoms_below(node.id)]
            drift = moved[rows] - X[rows]
            naive -= weights.pose_similarity[index] * float(np.sum(drift * drift))
        assert ours == pytest.approx(naive, abs=1e-9)


def test_refinement_score_max_at_anchor_when_no_appearance(setup_tiny3):
    hierarchy, annotations, library, stack = setup_tiny3
    weights = WeightVector.uniform(hierarchy, atomic=0.0, pose_similarity=0.5)
    X = annotations[0].points
    hyp = scored_root_hypothesis(X, hierarchy, library, stack, weights)
    at_anchor = refinement_score(X, hyp, stack, hierarchy, weights)
    rng = np.random.default_rng(11)
    for _ in range(20):
        moved = X.copy()
        moved[3] += rng.normal(0, 2.0, 2)
        assert refinement_score(moved, hyp, stack, hierarchy, weights) <= at_anchor + 1e-12


def test_feature_vector_layout(setup_tiny3):
    hierarchy, annotations, library, stack = setup_tiny3
    features = feature_vector(annotations[0].points, stack, hierarchy, library)
    assert features.shape == (feature_length(hierarchy),)
    assert features.shape == (6 + 2 * 3 + 1,)
    assert features[-1] == 1.0


def test_feature_vector_pose_identical_similarity_zero(setup_tiny3):
    hierarchy, annotations, library, stack = setup_tiny3
    features = feature_vector(annotations[2].points, stack, hierarchy, library)
    n = hierarchy.atomic_count
    similarities = features[n:-1][1::2]
    assert np.all(similarities >= -1e-9)


def test_build_training_set_one_stack_rows_in_sample_order(setup_tiny3):
    hierarchy, annotations, library, stack = setup_tiny3
    positives, negatives = annotations[:2], annotations[2:]
    training = build_training_set(positives, negatives, stack, hierarchy, library)
    naive = [oracles.naive_feature_vector(a.points, stack, hierarchy, library, oracles.MAX_ANGLE)
             for a in annotations]
    assert np.array_equal(training.features, np.stack(naive))
    assert training.labels.tolist() == [1.0, 1.0, -1.0]
    with pytest.raises(ValueError, match="no training samples"):
        build_training_set([], [], stack, hierarchy, library)


def test_total_monotone_in_lit_channel(setup_tiny3):
    hierarchy, annotations, library, stack = setup_tiny3
    rng = np.random.default_rng(12)
    weights = random_weights(hierarchy, rng)
    X = annotations[0].points
    before = total_score(X, stack, hierarchy, library, weights)
    part = hierarchy.atomic_ids[0]
    parent = hierarchy.parent_of(part)
    index, _ = best_fit_pose(X, parent, library, hierarchy)
    label = library.labels[part][index]
    col = int(np.floor(X[0][0] + 0.5))
    row = int(np.floor(X[0][1] + 0.5))
    stack.scales[0].atomic[stack.channel_rows(part, [label], 0)[0], row, col] += 0.05
    stack = ScoreMapStack(list(stack.scales))
    after = total_score(X, stack, hierarchy, library, weights)
    assert after >= before - 1e-12


def test_weights_json_round_trip(tmp_path, tiny3):
    rng = np.random.default_rng(13)
    weights = random_weights(tiny3, rng)
    path = tmp_path / "w.json"
    save_weights(weights, tiny3, path)
    loaded = load_weights(path, tiny3)
    assert np.array_equal(loaded.as_array(), weights.as_array())


def test_weights_reject_negative():
    with pytest.raises(ValueError, match="non-negative"):
        WeightVector([-0.1], [0.0], [0.0], 0.0)


@pytest.mark.parametrize("field", ["atomic", "pose_appearance", "pose_similarity", "bias"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_weight_vector_rejects_non_finite(tiny3, field, value):
    weights = WeightVector.uniform(tiny3)
    parts = {name: getattr(weights, name) for name in
             ("atomic", "pose_appearance", "pose_similarity", "bias")}
    if field == "bias":
        parts["bias"] = value
    else:
        parts[field] = parts[field].copy()
        parts[field][1] = value
    with pytest.raises(ValueError, match="finite"):
        WeightVector(**parts)
