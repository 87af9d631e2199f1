"""Acceptance suite: one test per exit criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Each test asserts its stated tolerance and time budget.
"""

import json
import math
import time

import numpy as np
import pytest

from hierpose import (
    Annotation,
    WeightVector,
    fit_least_squares,
    hypothesis_from_config,
    infer,
    load_hierarchy,
    refine_hypothesis,
    refinement_score,
    save_annotations,
    save_library,
    save_weights,
    spatial_score,
    subtree_score,
    total_score,
    train_weights,
)
from hierpose.cli import main as cli_main
from hierpose.inference import InferenceParams
from hierpose.learning import TrainingSet
from hierpose.metrics import Segment, pcp_radius, pcp_segments, pdj_curve
from hierpose.synth import make_scene, render_score_maps

from conftest import (
    annotations_tiny3,
    library_for,
    limbs4_doc,
    random_stack,
    tiny2_doc,
    tiny3_doc,
)
from oracles import exhaustive_best_config, grid_search_pose_similarity, stored_labels


def report(criterion: int, label: str, started: float, detail: str = ""):
    elapsed = time.perf_counter() - started
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion} {label}: PASS in {elapsed:.1f}s{suffix}")


def random_weights(hierarchy, rng):
    n, c = hierarchy.atomic_count, len(hierarchy.composite_nodes)
    return WeightVector(rng.random(n) * 2, rng.random(c), rng.random(c) * 0.2,
                        float(rng.normal()))


def test_criterion_1_recursive_score_equals_spatial_sum():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    prepared = []
    for doc in (tiny2_doc(), tiny3_doc(), limbs4_doc()):
        hierarchy = load_hierarchy(doc)
        n = hierarchy.atomic_count
        annotations = [
            Annotation(f"a{k}", rng.random((n, 2)) * 20 + 2) for k in range(3)
        ]
        library, model = library_for(
            hierarchy, annotations, atomic_bins=6, composite_bins=2
        )
        stack = random_stack(
            hierarchy, model.atomic_bins_map(hierarchy), model.composite_bins_map(),
            rng, grid=(26, 26),
        )
        prepared.append((hierarchy, library, stack))
    worst = 0.0
    for i in range(100):
        hierarchy, library, stack = prepared[i % 3]
        X = rng.random((hierarchy.atomic_count, 2)) * 24
        weights = random_weights(hierarchy, rng)
        hyp = hypothesis_from_config(X, hierarchy, library)
        f = subtree_score(hyp, stack, hierarchy, library, weights)
        r = spatial_score(X, stack, hierarchy, library, weights)
        worst = max(worst, abs(f - r))
        assert abs(f - r) <= 1e-9
    assert time.perf_counter() - started < 10.0
    report(1, "recursive score identity", started, f"max |f-R| = {worst:.2e}")


def test_criterion_2_similarity_matches_lattice_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    bounds = [math.pi / 3, math.pi / 4, math.pi / 2]
    worst = 0.0
    clamped_cases = 0
    for case in range(100):
        k = int(rng.integers(3, 7))
        bound = bounds[case % 3]
        src = rng.random((k, 2)) * 6
        if case % 5 < 2:
            # force an out-of-bound optimal rotation so clamping engages
            theta = bound + 0.3 + rng.random()
            rot = np.array(
                [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
            )
            dst = src @ rot.T + rng.normal(0, 0.05, (k, 2))
            clamped_cases += 1
        else:
            dst = rng.random((k, 2)) * 6
        transform, residual = fit_least_squares(src, dst, bound)
        oracle = grid_search_pose_similarity(dst, src, bound)
        worst = max(worst, abs(-residual - oracle))
        assert -residual == pytest.approx(oracle, abs=1e-6)
    assert clamped_cases >= 30
    assert time.perf_counter() - started < 60.0
    report(2, "similarity oracle agreement", started, f"max gap = {worst:.2e}")


def tiny_instance(seed: int):
    doc = {
        "levels": 2,
        "nodes": [
            {"id": 1, "name": "a", "level": 1, "children": [], "anchor": None},
            {"id": 2, "name": "b", "level": 1, "children": [], "anchor": None},
            {"id": 3, "name": "c", "level": 1, "children": [], "anchor": None},
            {"id": 10, "name": "root", "level": 2, "children": [1, 2, 3],
             "anchor": {"a": 1.0}},
        ],
        "scale": {"reference_length": 8.0, "level_factors": [1.0, 1.0]},
    }
    hierarchy = load_hierarchy(doc)
    shapes = [
        [(4, 4), (11, 6), (7, 10)],
        [(4, 4), (10, 8), (5, 9)],
        [(4, 5), (12, 5), (8, 9)],
    ]
    annotations = [Annotation(f"s{k}", np.array(p, dtype=float)) for k, p in enumerate(shapes)]
    library, _ = library_for(hierarchy, annotations, atomic_bins=6)
    rng = np.random.default_rng(seed)
    which = int(rng.integers(3))
    offset = rng.integers(0, 6, size=2).astype(float)
    truth = annotations[which].points + offset
    stack = render_score_maps(
        truth, hierarchy, stored_labels(library, 10, which), {},
        library.atomic_bins, {}, grid=(24, 24), sigma=1.2,
    )
    weights = WeightVector([1.0, 1.0, 1.0], [0.3], [0.1], 0.0)
    return hierarchy, library, stack, truth, weights


def test_criterion_3_reaches_exhaustive_optimum():
    started = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        hierarchy, library, stack, truth, weights = tiny_instance(seed)
        candidates = []
        for i in range(3):
            grid = [
                (truth[i][0] + dx, truth[i][1] + dy)
                for dy in (-1, 0, 1)
                for dx in (-1, 0, 1)
            ]
            candidates.append(np.array(grid))
        best, optimum = exhaustive_best_config(
            stack, hierarchy, library, weights, candidates
        )
        # exhaustive settings: keep every peak and every distinct alignment
        params = InferenceParams(
            z=9, samples_per_level=600, seed=seed, dedup_radius=0.5
        )
        result = infer(stack, hierarchy, library, weights, params)
        achieved = total_score(result.configuration, stack, hierarchy, library, weights)
        worst = max(worst, optimum - achieved)
        assert achieved >= optimum - 1e-6
    assert time.perf_counter() - started < 120.0
    report(3, "global optimum recovery", started, f"max shortfall = {worst:.2e}")


def test_criterion_4_refinement_never_decreases():
    started = time.perf_counter()
    hierarchy = load_hierarchy(tiny3_doc())
    annotations = annotations_tiny3(5)
    library, _ = library_for(hierarchy, annotations)
    weights = WeightVector.uniform(
        hierarchy, atomic=1.0, pose_appearance=0.3, pose_similarity=0.05
    )
    params = InferenceParams(z=5, seed=0)
    rng = np.random.default_rng(404)
    checked = 0
    violations = 0
    for scene_seed in range(5):
        scene = make_scene(
            library, hierarchy, seed=scene_seed, grid=(48, 48),
            distractors=5, noise=0.03,
        )
        for _ in range(40):
            X = scene.configuration + rng.normal(0, 2.5, scene.configuration.shape)
            hyp = hypothesis_from_config(X, hierarchy, library)
            hyp.score = subtree_score(hyp, scene.stack, hierarchy, library, weights)
            initial = refinement_score(X, hyp, scene.stack, hierarchy, weights)
            refined, value = refine_hypothesis(
                hyp, scene.stack, hierarchy, weights, params
            )
            if value < initial - 1e-12:
                violations += 1
            radius = params.search_radius_fraction * hyp.box.mean_side
            assert np.all(np.linalg.norm(refined - X, axis=1) <= radius + 1e-9)
            checked += 1
    assert checked == 200
    assert violations == 0
    report(4, "refinement monotonicity", started, "200 hypotheses, 0 violations")


def test_criterion_5_end_to_end_synthetic_recovery():
    started = time.perf_counter()
    hierarchy = load_hierarchy(tiny3_doc())
    annotations = annotations_tiny3(5)
    library, _ = library_for(hierarchy, annotations)
    weights = WeightVector.uniform(
        hierarchy, atomic=1.0, pose_appearance=0.3, pose_similarity=0.05
    )
    recovered = 0
    for seed in range(100):
        scene = make_scene(library, hierarchy, seed=seed, grid=(48, 48), mix=False)
        params = InferenceParams(z=50, seed=seed)
        result = infer(scene.stack, hierarchy, library, weights, params)
        error = np.linalg.norm(result.configuration - scene.configuration, axis=1).max()
        if error <= 2.0:
            recovered += 1
    assert recovered >= 90
    assert time.perf_counter() - started < 300.0
    report(5, "end-to-end synthetic recovery", started, f"{recovered}/100 scenes")


def mixable_setup():
    """Three sources whose limb boxes coincide but whose interiors differ."""
    hierarchy = load_hierarchy(tiny3_doc())
    shapes = [
        [(0.0, 0.0), (8.0, 2.0), (6.0, 9.0)],
        [(0.0, 0.0), (8.0, 9.0), (2.0, 4.0)],
        [(0.0, 0.0), (3.0, 9.0), (8.0, 3.0)],
    ]
    annotations = []
    for k, shape in enumerate(shapes):
        left = np.array(shape) + (2.0, 3.0)
        right = np.array(shape) + (16.0, 3.0)
        annotations.append(Annotation(f"mix{k}", np.vstack([left, right])))
    library, _ = library_for(hierarchy, annotations)
    return hierarchy, annotations, library


def per_part_recovery(result_config, truth):
    return np.linalg.norm(result_config - truth, axis=1) <= 2.0


def test_criterion_6_hierarchy_beats_flat_on_mixed_scenes():
    started = time.perf_counter()
    hierarchy, annotations, library = mixable_setup()
    weights = WeightVector.uniform(
        hierarchy, atomic=1.0, pose_appearance=0.3, pose_similarity=0.05
    )
    full_hits = []
    flat_hits = []
    for i in range(100):
        assignment = {20: i % 3, 10: (i + 1) % 3, 11: (i + 2) % 3}
        scene = make_scene(
            library, hierarchy, seed=1000 + i, grid=(48, 48), mix=True,
            assignment=assignment,
        )
        params = InferenceParams(z=30, seed=i)
        full = infer(scene.stack, hierarchy, library, weights, params, mode="full")
        flat = infer(scene.stack, hierarchy, library, weights, params, mode="no-hier")
        full_hits.extend(per_part_recovery(full.configuration, scene.configuration))
        flat_hits.extend(per_part_recovery(flat.configuration, scene.configuration))
    full_rate = float(np.mean(full_hits))
    flat_rate = float(np.mean(flat_hits))
    assert full_rate >= flat_rate + 0.10
    assert time.perf_counter() - started < 600.0
    report(
        6, "hierarchy expressiveness ablation", started,
        f"full {full_rate:.2%} vs flat {flat_rate:.2%}",
    )


def test_criterion_7_training_separates_with_nonnegative_weights():
    started = time.perf_counter()
    rng = np.random.default_rng(707)
    features = []
    labels = []
    for _ in range(60):
        pos = np.zeros(6)
        pos[0] = 1.0 + 0.2 * rng.random()
        pos[-1] = 1.0
        neg = np.zeros(6)
        neg[1] = 1.0 + 0.2 * rng.random()
        neg[-1] = 1.0
        features.extend([pos, neg])
        labels.extend([1.0, -1.0])
    training = TrainingSet(np.array(features), np.array(labels))
    w, _ = train_weights(training, c=5.0, epochs=300, seed=0)
    margins = training.labels * (training.features @ w)
    accuracy = float(np.mean(margins > 0))
    assert accuracy == 1.0
    assert float(np.min(w[:-1])) >= 0.0
    assert time.perf_counter() - started < 30.0
    report(7, "max-margin training", started, "100% accuracy, weights >= 0")


def test_criterion_8_metric_boundaries():
    started = time.perf_counter()
    gt = [np.array([[0.0, 0.0], [10.0, 0.0]])]
    segments = [Segment("seg", 0, 1)]
    at_half = [np.array([[5.0, 0.0], [10.0, 0.0]])]
    assert pcp_segments(at_half, gt, segments).rates == (1.0,)
    beyond = [np.array([[5.1, 0.0], [10.0, 0.0]])]
    assert pcp_segments(beyond, gt, segments).rates == (0.0,)

    gt_r = [np.zeros((2, 2))]
    at_sigma = [np.array([[1.5, 0.0], [0.0, 1.5]])]
    assert pcp_radius(at_sigma, gt_r, np.ones(2)).aggregate == 1.0
    past_sigma = [np.array([[1.6, 0.0], [0.0, 0.0]])]
    assert pcp_radius(past_sigma, gt_r, np.ones(2)).rates[0] == 0.0

    rng = np.random.default_rng(808)
    gts = [rng.random((5, 2)) * 10 for _ in range(8)]
    preds = [g + rng.normal(0, 1.0, g.shape) for g in gts]
    curve = pdj_curve(preds, gts, np.full(8, 8.0), np.linspace(0.01, 1.2, 30))
    assert np.all(np.diff(curve.rates) >= 0)
    assert time.perf_counter() - started < 5.0
    report(8, "metric boundary rules", started)


def test_criterion_9_cli_reruns_byte_identical(tmp_path):
    started = time.perf_counter()
    hierarchy = load_hierarchy(tiny3_doc())
    (tmp_path / "hierarchy.json").write_text(json.dumps(tiny3_doc()))
    annotations = annotations_tiny3(4)
    for ann in annotations:
        ann.size = (24, 24)
    save_annotations(annotations, hierarchy, tmp_path / "annotations.json")
    library, _ = library_for(hierarchy, annotations)
    save_library(library, tmp_path / "library.hpel")
    weights = WeightVector.uniform(
        hierarchy, atomic=1.0, pose_appearance=0.3, pose_similarity=0.05
    )
    save_weights(weights, hierarchy, tmp_path / "weights.json")

    synth_config = tmp_path / "synth.json"
    synth_config.write_text(json.dumps({
        "hierarchy": "hierarchy.json",
        "annotations": "annotations.json",
        "type_model": {"atomic_bins": 8, "composite_bins": 2, "seed": 0},
        "scenes": {"seeds": [0], "grid": [48, 48]},
        "output_dir": "scenes",
    }))
    assert cli_main(["synth", str(synth_config)]) == 0

    infer_config = tmp_path / "infer.json"
    infer_config.write_text(json.dumps({
        "hierarchy": "hierarchy.json",
        "libraries": "library.hpel",
        "weights": "weights.json",
        "score_maps": "scenes/scene_0/maps.hpsm",
        "params": {
            "z": 20, "samples_per_level": 300, "seed": 7,
            "max_angle": 1.0471975511965976, "compatibility_tolerance": 0.1,
            "nms_radius": 2.0, "dedup_radius": 2.0, "search_radius_fraction": 0.15,
        },
        "output": {"pose": "out/pose.json", "diagnostics": "out/diag.jsonl"},
    }))
    assert cli_main(["infer", str(infer_config)]) == 0
    pose_a = (tmp_path / "out" / "pose.json").read_bytes()
    diag_a = (tmp_path / "out" / "diag.jsonl").read_bytes()
    assert cli_main(["infer", str(infer_config)]) == 0
    assert (tmp_path / "out" / "pose.json").read_bytes() == pose_a
    assert (tmp_path / "out" / "diag.jsonl").read_bytes() == diag_a

    train_config = tmp_path / "train.json"
    train_config.write_text(json.dumps({
        "hierarchy": "hierarchy.json",
        "annotations": "annotations.json",
        "score_maps": "scenes/scene_0/maps.hpsm",
        "type_model": {"atomic_bins": 8, "composite_bins": 2, "seed": 0},
        "augment": {"jitter_fraction": 0.03, "copies": 2, "seed": 1},
        "negatives": {"per_positive": 2, "noise_sigma": None, "seed": 2},
        "train": {"c": 5.0, "epochs": 150, "seed": 3, "holdout_fraction": 0.0},
        "output": {"weights": "out/trained.json", "log": "out/log.json"},
    }))
    assert cli_main(["train", str(train_config)]) == 0
    weights_a = (tmp_path / "out" / "trained.json").read_bytes()
    log_a = (tmp_path / "out" / "log.json").read_bytes()
    assert cli_main(["train", str(train_config)]) == 0
    assert (tmp_path / "out" / "trained.json").read_bytes() == weights_a
    assert (tmp_path / "out" / "log.json").read_bytes() == log_a
    report(9, "CLI determinism", started)
