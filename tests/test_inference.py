import math
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from hierpose import (
    NoConfigurationError,
    WeightVector,
    collapse_model,
    hypothesis_from_config,
    infer,
    load_hierarchy,
    refine_hypothesis,
    subtree_score,
)
from hierpose import inference
from hierpose.appearance import ScaleMaps, ScoreMapStack
from hierpose.geometry import (
    SimilarityTransform,
    fit_least_squares,
    fit_two_points_batch,
    transform_points,
)
from hierpose.inference import (
    Hypothesis,
    HypothesisSet,
    InferenceParams,
    propose_hypotheses,
    prune_order,
    score_and_prune,
    seed_atomic_hypotheses,
    swap_subtrees,
)
from hierpose.scoring import fill_terms, subtree_scope, subtree_total
from hierpose.synth import generate_pose, make_scene

from conftest import (
    CONFIG_DIR, annotations_tiny3, bird_annotations, human_annotations, library_for,
    root_draws_all_turned, tiny3_doc,
)


@pytest.fixture()
def tiny3_setup(tiny3):
    annotations = annotations_tiny3(4)
    library, model = library_for(tiny3, annotations)
    return tiny3, annotations, library


def uniform_weights(hierarchy):
    return WeightVector.uniform(hierarchy, atomic=1.0, pose_appearance=0.3,
                                pose_similarity=0.05, bias=0.0)


def scene_for(library, hierarchy, seed, **kwargs):
    return make_scene(library, hierarchy, seed=seed, grid=(48, 48), **kwargs)


def subtree_pose(hierarchy, pose, node_id):
    """`pose` with -1 outside the subtree of `node_id`."""
    out = np.full_like(pose, -1)
    columns = [hierarchy.composite_index(n) for n in hierarchy.composites_below(node_id)]
    out[columns] = pose[columns]
    return out


def level1_from_truth(hierarchy, X):
    out = {}
    no_pose = np.full(len(hierarchy.composite_nodes), -1, dtype=np.intp)
    for i, part in enumerate(hierarchy.atomic_ids):
        locations = np.full((hierarchy.atomic_count, 2), np.nan)
        locations[i] = X[i]
        out[part] = HypothesisSet.of([Hypothesis(part, 1, locations, no_pose, 0.0, 0.0)], hierarchy)
    return out


def test_seed_one_peak_per_part(tiny3_setup):
    hierarchy, annotations, library = tiny3_setup
    scene = scene_for(library, hierarchy, seed=0)
    params = InferenceParams(z=5, seed=0)
    seeds = seed_atomic_hypotheses(scene.stack, hierarchy, params)
    for i, part in enumerate(hierarchy.atomic_ids):
        assert len(seeds[part]) == 1
        assert np.allclose(
            seeds[part].locations[0, i], scene.configuration[i], atol=1e-9
        )
        assert seeds[part].score[0] == 0.0


def test_seed_truncates_to_budget(tiny3):
    # five separated bumps for every part, budget three
    height = width = 40
    spots = [(5, 5), (15, 5), (25, 5), (35, 5), (20, 20)]
    heights = [0.8, 0.7, 0.6, 0.5, 0.4]
    yy, xx = np.mgrid[0:height, 0:width].astype(float)
    bump = np.zeros((height, width))
    for (cx, cy), amp in zip(spots, heights):
        bump += amp * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / 2.0)
    table = [(0, 0)] + [(p, 1) for p in tiny3.atomic_ids]
    atomic = np.concatenate(
        [(1.0 - 6 * bump)[None], np.repeat(bump[None], 6, axis=0)]
    ).astype(np.float32)
    stack = ScoreMapStack([ScaleMaps(1.0, np.array(table, np.uint32), atomic)])
    seeds = seed_atomic_hypotheses(stack, tiny3, InferenceParams(z=3, seed=0))
    for part in tiny3.atomic_ids:
        assert len(seeds[part]) == 3
        picked = [tuple(h.locations[tiny3.atom_index(part)]) for h in seeds[part]]
        assert picked == [(5.0, 5.0), (15.0, 5.0), (25.0, 5.0)]


def test_seed_ranks_the_maxima_of_all_scales_before_one_nms(tiny3):
    """A peak that no kept seed suppresses is kept whatever the budget: the
    maxima of every scale are ranked together before one greedy NMS, so a
    scale's own top z cannot push it out.  Part 1 has one-pixel peaks at
    (4, 5) and (6, 5) (0.05) and (15, 15) (0.03) on scale 0 and at (5, 5)
    (0.06) on scale 1; with z=2 the old per-scale cut kept (4, 5) and
    (6, 5), both suppressed by (5, 5), and lost (15, 15)."""
    table = np.array([(0, 0)] + [(p, 1) for p in tiny3.atomic_ids], np.uint32)

    def scale(value, peaks):
        atomic = np.zeros((len(table), 20, 20), dtype=np.float32)
        for (x, y), height in peaks:
            atomic[1, y, x] = height
        atomic[0] = 1.0 - atomic[1]
        return ScaleMaps(value, table, atomic)

    first = scale(1.0, [((4, 5), 0.05), ((6, 5), 0.05), ((15, 15), 0.03)])
    stack = ScoreMapStack([first, scale(2.0, [((5, 5), 0.06)])])
    params = InferenceParams(nms_radius=2.0)
    for z in (2, 3):
        seeds = seed_atomic_hypotheses(stack, tiny3, replace(params, z=z))[1]
        assert seeds.locations[:, tiny3.atom_index(1)].tolist() == [[5.0, 5.0], [15.0, 15.0]]
    # one scale alone gives its own two peaks, and a scale held twice changes nothing
    alone = seed_atomic_hypotheses(ScoreMapStack([first]), tiny3, replace(params, z=2))[1]
    points = alone.locations[:, tiny3.atom_index(1)].tolist()
    assert points == [[4.0, 5.0], [6.0, 5.0]]
    twice = ScoreMapStack([first, replace(first, scale=2.0)])
    seeds = seed_atomic_hypotheses(twice, tiny3, replace(params, z=2))[1]
    assert seeds.locations[:, tiny3.atom_index(1)].tolist() == points


def test_infer_flat_maps_no_configuration(tiny3_setup):
    hierarchy, annotations, library = tiny3_setup
    table = [(0, 0)] + [
        (p, m) for p in hierarchy.atomic_ids for m in range(1, library.atomic_bins[p] + 1)
    ]
    atomic = np.full((len(table), 16, 16), 1.0 / len(table), dtype=np.float32)
    composite = {
        part: np.full((bins, 16, 16), 1.0 / bins, dtype=np.float32)
        for part, bins in library.composite_bins.items()
    }
    stack = ScoreMapStack([ScaleMaps(1.0, np.array(table, np.uint32), atomic, composite)])
    with pytest.raises(NoConfigurationError):
        infer(stack, hierarchy, library, uniform_weights(hierarchy),
              InferenceParams(z=3, seed=0))


def test_infer_reports_a_level_without_proposals(tiny3_setup):
    """A part above level 2 whose proposals all fail leaves its level empty,
    which `infer` reports as no configuration."""
    hierarchy, annotations, library = tiny3_setup
    scene = scene_for(library, hierarchy, seed=1)
    propose = inference.propose_hypotheses

    def none_at_level_3(node, *args):
        hyps = propose(node, *args)
        return hyps.take([]) if node.level == 3 else hyps

    with mock.patch.object(inference, "propose_hypotheses", none_at_level_3):
        with pytest.raises(NoConfigurationError, match="level 3 is empty"):
            infer(scene.stack, hierarchy, library, uniform_weights(hierarchy),
                  InferenceParams(z=3, seed=0))


def test_an_empty_level_names_its_draw_counters():
    """`NoConfigurationError` ends with the draw counters of the level it
    found empty: here every root draw failed the angle bound."""
    human, library, stack = root_draws_all_turned()
    message = (
        "no configuration found: level 4 is empty (draws: 0 proposed, 0 empty_pool, "
        "160 rejected_angle, 0 rejected_degenerate, 0 fallback)"
    )
    with pytest.raises(NoConfigurationError, match=f"^{re.escape(message)}$"):
        infer(stack, human, library, WeightVector.uniform(human), InferenceParams(z=8, seed=8))


def test_propose_exact_alignment(tiny3_setup):
    hierarchy, annotations, library = tiny3_setup
    scene = scene_for(library, hierarchy, seed=1, snap=False)
    X = scene.configuration
    lower = level1_from_truth(hierarchy, X)
    params = InferenceParams(z=5, samples_per_level=60, seed=0)
    rng = np.random.default_rng(0)
    source = scene.provenance["sources"]["20"]
    for node in hierarchy.nodes_at_level(2):
        raw = propose_hypotheses(node, lower, library, hierarchy, params, rng)
        assert raw
        rows = hierarchy.atom_rows(node.id)
        column = hierarchy.composite_index(node.id)
        errors = []
        for hyp in raw:
            if library.sources[hyp.pose[column]] != source:
                continue
            errors.append(np.abs(hyp.locations[rows] - X[rows]).max())
        assert errors and min(errors) < 1e-6


def test_rows_pair_exemplars_when_source_names_repeat(tiny3):
    """Two annotations of one image: every pose column of a proposal names
    the exemplar row it placed, and an unmixed pose keeps one annotation."""
    annotations = annotations_tiny3(3)
    for ann, name in zip(annotations, ("img", "img", "other")):
        ann.image = name
    library, _ = library_for(tiny3, annotations)
    lower = level1_from_truth(tiny3, annotations[0].points)
    params = InferenceParams(z=5, samples_per_level=60, seed=0)
    rng = np.random.default_rng(0)
    for level in (2, 3):
        current = {}
        for node in tiny3.nodes_at_level(level):
            hyps = propose_hypotheses(node, lower, library, tiny3, params, rng)
            own = hyps.pose[:, tiny3.composite_index(node.id)]
            assert set(own.tolist()) == {0, 1, 2}
            for nid in tiny3.composites_below(node.id):
                assert np.array_equal(hyps.pose[:, tiny3.composite_index(nid)], own)
            rows = tiny3.atom_rows(node.id)
            stored = library.points[own][:, rows]
            for source, placed in zip(stored, hyps.locations[:, rows]):
                assert fit_least_squares(source, placed, bound=math.pi)[1] < 1e-9
            current[node.id] = hyps
        lower = current
    _, chosen = generate_pose(
        library, tiny3, np.random.default_rng(0), mix=False, assignment={20: 0}
    )
    assert chosen == {20: 0, 10: 0, 11: 0}


def test_propose_deterministic(tiny3_setup):
    hierarchy, annotations, library = tiny3_setup
    scene = scene_for(library, hierarchy, seed=2)
    lower = level1_from_truth(hierarchy, scene.configuration)
    params = InferenceParams(z=5, samples_per_level=40, seed=0)
    node = hierarchy.nodes_at_level(2)[0]
    a = propose_hypotheses(node, lower, library, hierarchy, params, np.random.default_rng(3))
    b = propose_hypotheses(node, lower, library, hierarchy, params, np.random.default_rng(3))
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.array_equal(
            np.nan_to_num(x.locations), np.nan_to_num(y.locations)
        )
        assert np.array_equal(x.pose, y.pose)


def test_propose_rotated_scene_matches_oracle_alignment(tiny3_setup):
    hierarchy, annotations, library = tiny3_setup
    rotation = math.radians(30.0)
    base = annotations[0].points
    truth = SimilarityTransform(1.0, rotation, (30.0, 5.0)).apply(base)
    lower = level1_from_truth(hierarchy, truth)
    params = InferenceParams(z=5, samples_per_level=200, seed=0)
    rng = np.random.default_rng(4)
    node = hierarchy.nodes_at_level(2)[0]
    rows = hierarchy.atom_rows(node.id)
    raw = propose_hypotheses(node, lower, library, hierarchy, params, rng)
    subtree = library.points[0][rows][None]
    oracle_subtree = transform_points(
        *fit_two_points_batch(subtree[:, :2], truth[rows][None, :2]), subtree
    )[0]
    best = min(
        np.abs(hyp.locations[rows] - oracle_subtree).max()
        for hyp in raw
        if hyp.pose[hierarchy.composite_index(node.id)] == 0
    )
    assert best < 2.0


def test_propose_rejects_out_of_bound_rotation(tiny3_setup):
    hierarchy, annotations, library = tiny3_setup
    rotation = 1.5  # beyond the pi/3 default bound
    truth = SimilarityTransform(1.0, rotation, (30.0, 5.0)).apply(annotations[0].points)
    lower = level1_from_truth(hierarchy, truth)
    params = InferenceParams(z=5, samples_per_level=100, seed=0)
    node = hierarchy.nodes_at_level(2)[0]
    raw = propose_hypotheses(node, lower, library, hierarchy, params, np.random.default_rng(5))
    for hyp in raw:
        # all surviving proposals respect the angle bound, so none lands on
        # the strongly rotated truth
        rows = hierarchy.atom_rows(node.id)
        assert np.abs(hyp.locations[rows] - truth[rows]).max() > 0.5


def test_propose_counts_each_draw_by_outcome(tiny3_setup):
    """`counts` puts every draw in one bin.  At level 2, draws that touch the
    empty pool of `lc` are `empty_pool`, and the coincident pair (`la`,
    `lb`), whose seeds have no object size, is `rejected_degenerate`.  At
    level 3, coincident anchors of sized hypotheses are each a kept
    `fallback`.  A strongly rotated truth rejects draws by angle."""
    hierarchy, annotations, library = tiny3_setup
    params = InferenceParams(z=5, samples_per_level=60, seed=0)
    lower = level1_from_truth(hierarchy, np.full((6, 2), 10.0))
    lower[3] = lower[3].take([])
    counts = {}
    node = hierarchy.node(10)
    hyps = propose_hypotheses(node, lower, library, hierarchy, params, np.random.default_rng(0), counts)
    assert len(hyps) == 0
    assert counts["empty_pool"] > 0 and counts["rejected_degenerate"] > 0
    assert counts["empty_pool"] + counts["rejected_degenerate"] == 60
    assert counts["rejected_angle"] == counts["fallback"] == 0

    X = annotations[0].points.copy()
    X[3] = X[0]  # the anchors of `left` (la) and `right` (ra) coincide
    pose = np.zeros(len(hierarchy.composite_nodes), dtype=np.intp)
    lower = {}
    for child in (10, 11):
        locations = np.full_like(X, np.nan)
        locations[hierarchy.atom_rows(child)] = X[hierarchy.atom_rows(child)]
        lower[child] = HypothesisSet.of(
            [Hypothesis(child, 2, locations, subtree_pose(hierarchy, pose, child), 5.0)], hierarchy
        )
    counts = {}
    hyps = propose_hypotheses(
        hierarchy.root, lower, library, hierarchy, params, np.random.default_rng(0), counts
    )
    assert counts == {"empty_pool": 0, "rejected_angle": 0, "rejected_degenerate": 0,
                      "fallback": 60}
    assert len(hyps) == 60

    truth = SimilarityTransform(1.0, 1.5, (30.0, 5.0)).apply(annotations[0].points)
    counts = {}
    hyps = propose_hypotheses(
        node, level1_from_truth(hierarchy, truth), library, hierarchy, params,
        np.random.default_rng(0), counts,
    )
    assert counts["rejected_angle"] > 0
    assert len(hyps) + counts["rejected_angle"] == 60


def test_level_2_coincident_seeds_never_take_the_fallback(tiny3_setup):
    """Level-1 seeds carry object size 0, so at level 2 a draw of two
    coincident seeds has no size ratio to fall back on: it is
    `rejected_degenerate`, never a `fallback`."""
    hierarchy, annotations, library = tiny3_setup
    params = InferenceParams(z=5, samples_per_level=60, seed=0)
    seeds = seed_atomic_hypotheses(scene_for(library, hierarchy, seed=0).stack, hierarchy, params)
    assert all(len(pool) and not pool.object_size.any() for pool in seeds.values())
    X = annotations[0].points.copy()
    X[1] = X[0]  # the seeds of la and lb coincide
    counts = {}
    hyps = propose_hypotheses(
        hierarchy.node(10), level1_from_truth(hierarchy, X), library, hierarchy, params,
        np.random.default_rng(0), counts,
    )
    assert counts["rejected_degenerate"] > 0 and counts["fallback"] == 0
    assert len(hyps) + counts["rejected_angle"] + counts["rejected_degenerate"] == 60


@pytest.mark.parametrize("scene_seed", [0, 1, 2])
@pytest.mark.parametrize("model", ["tiny3", "human"])
def test_level_diagnostics_account_for_every_draw(model, scene_seed):
    """From level 2 up, samples x parts = proposed + empty_pool +
    rejected_angle + rejected_degenerate, and fallbacks are among the
    proposed."""
    if model == "tiny3":
        hierarchy = load_hierarchy(tiny3_doc())
        library, _ = library_for(hierarchy, annotations_tiny3(4))
        grid = (48, 48)
    else:
        hierarchy = load_hierarchy(CONFIG_DIR / "human_hierarchy.json")
        library, _ = library_for(hierarchy, human_annotations(4))
        grid = (96, 96)
    scene = make_scene(library, hierarchy, seed=scene_seed, grid=grid, mix=True, noise=0.03)
    params = InferenceParams(z=4, samples_per_level=80, seed=scene_seed)
    result = infer(scene.stack, hierarchy, library, uniform_weights(hierarchy), params)
    levels = result.diagnostics["levels"][1:]
    assert [level["level"] for level in levels] == list(range(2, hierarchy.levels + 1))
    for level in levels:
        parts = len(hierarchy.nodes_at_level(level["level"]))
        drawn = sum(level[key] for key in (
            "proposed", "empty_pool", "rejected_angle", "rejected_degenerate"))
        assert drawn == params.samples * parts
        assert 0 <= level["fallback"] <= level["proposed"]


def scored(hyps, stack, hierarchy, library, weights):
    for hyp in hyps:
        hyp.score = subtree_score(hyp, stack, hierarchy, library, weights)
    return hyps


def root_proposals(hierarchy, library, stack, weights, params, lower2):
    node = hierarchy.root
    rng = np.random.default_rng(11)
    raw = propose_hypotheses(node, lower2, library, hierarchy, params, rng)
    return raw


def test_swap_zero_tolerance_identity(tiny3_setup):
    hierarchy, annotations, library = tiny3_setup
    scene = scene_for(library, hierarchy, seed=3)
    weights = uniform_weights(hierarchy)
    params = InferenceParams(z=4, samples_per_level=80, seed=0)
    seeds = seed_atomic_hypotheses(scene.stack, hierarchy, params)
    lower2 = {}
    for node in hierarchy.nodes_at_level(2):
        rng = np.random.default_rng(6)
        raw = propose_hypotheses(node, seeds, library, hierarchy, params, rng)
        lower2[node.id] = score_and_prune(
            raw, scene.stack, hierarchy, library, weights, 4, 2.0
        )
    raw_root = root_proposals(hierarchy, library, scene.stack, weights, params, lower2)
    frozen = InferenceParams(
        z=4, samples_per_level=80, seed=0, compatibility_tolerance=1e-12
    )
    augmented = swap_subtrees(raw_root, lower2, scene.stack, hierarchy, frozen)
    assert len(augmented) == len(raw_root)


def test_swap_single_compatible_adds_one(tiny3_setup):
    hierarchy, annotations, library = tiny3_setup
    X = annotations[0].points
    stack = scene_for(library, hierarchy, seed=3).stack
    root_hyp = hypothesis_from_config(X, hierarchy, library)
    root_hyp.object_size = 10.0
    alternative = hypothesis_from_config(X + 0.2, hierarchy, library)
    rows = hierarchy.atom_rows(10)
    alt_locations = np.full_like(X, np.nan)
    alt_locations[rows] = X[rows] + 0.2
    lower = {
        10: HypothesisSet.of([
            Hypothesis(10, 2, alt_locations, subtree_pose(hierarchy, alternative.pose, 10), 10.0)
        ], hierarchy),
        11: [],
    }
    params = InferenceParams(z=4, seed=0, compatibility_tolerance=0.1)
    roots = HypothesisSet.of([root_hyp], hierarchy)
    out = swap_subtrees(roots, lower, stack, hierarchy, params)
    assert len(out) == 2
    swapped = out.row(1)
    assert np.allclose(swapped.locations[rows], X[rows] + 0.2)
    far = Hypothesis(
        10, 2, alt_locations + 100, subtree_pose(hierarchy, np.zeros_like(root_hyp.pose), 10), 10.0
    )
    lower = {10: HypothesisSet.of([far], hierarchy), 11: []}
    out2 = swap_subtrees(roots, lower, stack, hierarchy, params)
    assert len(out2) == 1


def test_swap_better_child_raises_score(tiny3_setup):
    hierarchy, annotations, library = tiny3_setup
    scene = scene_for(library, hierarchy, seed=4)
    X = scene.configuration
    weights = uniform_weights(hierarchy)
    source = scene.provenance["sources"]["20"]
    # root hypothesis with the left subtree nudged off its score-map bumps
    base = hypothesis_from_config(X, hierarchy, library)
    rows = hierarchy.atom_rows(10)
    off = base.locations.copy()
    off[rows] += (1.6, 1.2)
    degraded = Hypothesis(20, 3, off, base.pose.copy(), base.object_size)
    good_child_locations = np.full_like(X, np.nan)
    good_child_locations[rows] = X[rows]
    good_child = Hypothesis(
        10, 2, good_child_locations, subtree_pose(hierarchy, base.pose, 10), base.object_size
    )
    params = InferenceParams(z=4, seed=0, compatibility_tolerance=0.25)
    out = swap_subtrees(
        HypothesisSet.of([degraded], hierarchy),
        {10: HypothesisSet.of([good_child], hierarchy), 11: []}, scene.stack, hierarchy, params,
    )
    assert len(out) == 2
    out = scored(list(out), scene.stack, hierarchy, library, weights)
    assert out[1].score > out[0].score


def test_score_and_prune_dedup_and_budget(tiny3_setup):
    hierarchy, annotations, library = tiny3_setup
    scene = scene_for(library, hierarchy, seed=5)
    weights = uniform_weights(hierarchy)
    X = scene.configuration
    a = hypothesis_from_config(X, hierarchy, library)
    b = hypothesis_from_config(X, hierarchy, library)  # identical duplicate
    c = hypothesis_from_config(X + 5.0, hierarchy, library)
    hyps = HypothesisSet.of([a, b, c], hierarchy)
    kept = score_and_prune(
        hyps, scene.stack, hierarchy, library, weights, z=5, dedup_radius=2.0
    )
    assert len(kept) == 2
    only_best = score_and_prune(
        hyps, scene.stack, hierarchy, library, weights, z=1, dedup_radius=2.0
    )
    assert len(only_best) == 1
    for hyp in kept:
        again = subtree_score(hyp, scene.stack, hierarchy, library, weights)
        assert hyp.score == pytest.approx(again, abs=1e-12)
    assert kept.score[0] >= kept.score[1]


def test_prune_ties_keep_creation_order_under_round_off(tiny3_setup):
    hierarchy, annotations, library = tiny3_setup
    scene = scene_for(library, hierarchy, seed=5, distractors=2)
    weights = uniform_weights(hierarchy)
    params = InferenceParams(z=6, samples_per_level=400, seed=0)
    seeds = seed_atomic_hypotheses(scene.stack, hierarchy, params)
    node = hierarchy.nodes_at_level(2)[0]
    hyps = propose_hypotheses(node, seeds, library, hierarchy, params, np.random.default_rng(0))
    locations = hyps.locations
    terms = fill_terms(
        locations, hyps.pose, hyps.object_size, hyps.terms,
        subtree_scope(hierarchy, [node.id], len(hyps)), scene.stack, hierarchy, library, weights,
    )
    scores = subtree_total(terms, node.id, hierarchy)
    points = locations[:, hierarchy.atom_rows(node.id)]
    # repeated draws give exact-duplicate hypotheses: ties that only
    # creation order can break
    assert len(np.unique(scores)) < len(scores)
    kept = prune_order(scores, points, 24, 0.5)
    rng = np.random.default_rng(1)
    raw_orders_moved = 0
    for _ in range(10):
        noisy = scores + rng.choice([-1e-12, 1e-12], size=scores.shape)
        assert prune_order(noisy, points, 24, 0.5) == kept
        raw = np.argsort(-noisy, kind="stable")[:24]
        raw_orders_moved += not np.array_equal(raw, np.argsort(-scores, kind="stable")[:24])
    # ranking by the raw scores would have moved
    assert raw_orders_moved > 0


def test_refine_moves_to_peak_when_unpenalized(tiny3_setup):
    hierarchy, annotations, library = tiny3_setup
    scene = scene_for(library, hierarchy, seed=6)
    X = scene.configuration
    weights = WeightVector.uniform(hierarchy, atomic=1.0, pose_appearance=0.0,
                                   pose_similarity=0.0)
    hyp = hypothesis_from_config(X, hierarchy, library)
    hyp.locations[0] = X[0] + (2.0, 1.0)  # start off the bump
    hyp.score = subtree_score(hyp, scene.stack, hierarchy, library, weights)
    params = InferenceParams(z=4, seed=0)
    refined, value = refine_hypothesis(hyp, scene.stack, hierarchy, weights, params)
    assert np.allclose(refined[0], X[0])


def test_refine_stays_at_anchor_without_appearance(tiny3_setup):
    hierarchy, annotations, library = tiny3_setup
    scene = scene_for(library, hierarchy, seed=7)
    weights = WeightVector.uniform(hierarchy, atomic=0.0, pose_appearance=0.0,
                                   pose_similarity=0.5)
    hyp = hypothesis_from_config(scene.configuration + 0.3, hierarchy, library)
    hyp.score = subtree_score(hyp, scene.stack, hierarchy, library, weights)
    params = InferenceParams(z=4, seed=0)
    refined, _ = refine_hypothesis(hyp, scene.stack, hierarchy, weights, params)
    assert np.allclose(refined, hyp.locations)


def test_refine_never_decreases_score(tiny3_setup):
    hierarchy, annotations, library = tiny3_setup
    from hierpose import refinement_score

    rng = np.random.default_rng(8)
    scene = scene_for(library, hierarchy, seed=8, distractors=4, noise=0.02)
    weights = uniform_weights(hierarchy)
    params = InferenceParams(z=4, seed=0)
    for _ in range(20):
        X = scene.configuration + rng.normal(0, 2.0, scene.configuration.shape)
        hyp = hypothesis_from_config(X, hierarchy, library)
        hyp.score = subtree_score(hyp, scene.stack, hierarchy, library, weights)
        initial = refinement_score(X, hyp, scene.stack, hierarchy, weights)
        refined, value = refine_hypothesis(hyp, scene.stack, hierarchy, weights, params)
        assert value >= initial - 1e-12
        radius = params.search_radius_fraction * hyp.box.mean_side
        assert np.all(np.linalg.norm(refined - X, axis=1) <= radius + 1e-9)


def test_infer_recovers_clean_scene(tiny3_setup):
    hierarchy, annotations, library = tiny3_setup
    scene = scene_for(library, hierarchy, seed=9)
    weights = uniform_weights(hierarchy)
    params = InferenceParams(z=50, seed=0)
    result = infer(scene.stack, hierarchy, library, weights, params)
    assert np.abs(result.configuration - scene.configuration).max() <= 2.0
    assert result.diagnostics["levels"][0]["level"] == 1
    for hyp in result.root_hypotheses:
        # surviving hypotheses carry complete subtrees with tight boxes
        assert np.isfinite(hyp.locations).all()
        assert np.allclose(hyp.box.top_left, hyp.locations.min(axis=0))
        assert np.allclose(hyp.box.bottom_right, hyp.locations.max(axis=0))
        assert hyp.pose.shape == (len(hierarchy.composite_nodes),) and (hyp.pose >= 0).all()


def test_infer_recovers_bird_mix_scenes(bird_hierarchy):
    """`configs/bird_hierarchy.json` end to end: library, mix scenes and a
    full search at z=8.  Its `head` has 7 children, read in child order for
    the relation types, and the widest child geometry of any config."""
    head = bird_hierarchy.node(bird_hierarchy.id_of("head"))
    assert head.children == (2, 5, 6, 7, 11, 10, 15)
    assert [bird_hierarchy.reference_of(child) for child in head.children] == [
        5, 6, 7, 11, 10, 15, 2,
    ]
    library, _ = library_for(bird_hierarchy, bird_annotations(), atomic_bins=12, composite_bins=4)
    weights = uniform_weights(bird_hierarchy)
    within = []
    for seed in range(4):
        scene = make_scene(library, bird_hierarchy, seed=seed, grid=(96, 96), mix=True)
        result = infer(scene.stack, bird_hierarchy, library, weights, InferenceParams(z=8, seed=seed))
        within.append(np.hypot(*(result.configuration - scene.configuration).T) <= 2.0)
    assert np.mean(within) >= 0.95


def test_infer_deterministic(tiny3_setup):
    hierarchy, annotations, library = tiny3_setup
    scene = scene_for(library, hierarchy, seed=10)
    weights = uniform_weights(hierarchy)
    params = InferenceParams(z=20, seed=5)
    a = infer(scene.stack, hierarchy, library, weights, params)
    b = infer(scene.stack, hierarchy, library, weights, params)
    assert np.array_equal(a.configuration, b.configuration)
    assert a.score == b.score
    assert a.diagnostics == b.diagnostics


def test_level_diagnostics_count_the_rows_scored(tiny3_setup):
    """Repeated draws make exact copies, which are dropped before anything
    is scored; every row left, the copies a swap makes included, is
    scored."""
    hierarchy, annotations, library = tiny3_setup
    scene = scene_for(library, hierarchy, seed=10)
    params = InferenceParams(z=20, seed=5)
    result = infer(scene.stack, hierarchy, library, uniform_weights(hierarchy), params)
    levels = result.diagnostics["levels"]
    assert "scored" not in levels[0] and "kernel_rows" not in levels[0]
    for level in levels[1:]:
        assert 0 < level["kept"] <= level["scored"] == level["augmented"]
    assert levels[1]["augmented"] < levels[1]["proposed"]
    # a level-2 row has one node to score; a swapped root row, sharing its
    # base row's terms, computes fewer than the root's three
    assert levels[1]["kernel_rows"] == levels[1]["scored"]
    assert levels[2]["kernel_rows"] < 3 * levels[2]["scored"]


def test_infer_full_beats_partial(tiny3_setup):
    hierarchy, annotations, library = tiny3_setup
    scene = scene_for(library, hierarchy, seed=11, distractors=3, noise=0.02)
    weights = uniform_weights(hierarchy)
    params = InferenceParams(z=15, seed=1)
    full = infer(scene.stack, hierarchy, library, weights, params, mode="full")
    partial = infer(scene.stack, hierarchy, library, weights, params, mode="partial")
    assert full.score >= partial.score - 1e-9
    assert np.array_equal(full.partial_configuration, partial.configuration)


def test_infer_no_hier_mode(tiny3_setup):
    hierarchy, annotations, library = tiny3_setup
    scene = scene_for(library, hierarchy, seed=12)
    weights = uniform_weights(hierarchy)
    params = InferenceParams(z=15, seed=2)
    result = infer(scene.stack, hierarchy, library, weights, params, mode="no-hier")
    assert result.configuration.shape == scene.configuration.shape
    assert result.mode == "no-hier"
    assert np.isfinite(result.score)


@pytest.mark.parametrize("mode", ["full", "partial", "no-hier"])
def test_infer_result_owns_its_configuration(tiny3_setup, mode):
    """The configuration is its own (P, 2) array, not a view that would keep
    the refinement's (R, P, 2) buffer alive; `winning_root` is the winner's
    rank among the root hypotheses, 0 without refinement."""
    hierarchy, annotations, library = tiny3_setup
    scene = scene_for(library, hierarchy, seed=11, distractors=3, noise=0.02)
    weights = uniform_weights(hierarchy)
    params = InferenceParams(z=15, seed=1)
    result = infer(scene.stack, hierarchy, library, weights, params, mode=mode)
    assert result.configuration.base is None
    assert result.configuration.shape == (hierarchy.atomic_count, 2)
    winner = result.diagnostics["winning_root"]
    if mode == "partial":
        assert winner == 0
    else:
        assert 0 <= winner < len(result.root_hypotheses)
        if mode == "full":
            refined, score = refine_hypothesis(
                result.root_hypotheses.row(winner), scene.stack, hierarchy, weights, params
            )
            assert np.array_equal(result.configuration, refined)
            assert result.score == score


def test_infer_keeps_the_earliest_root_on_an_exact_tie(tiny3_setup, monkeypatch):
    hierarchy, annotations, library = tiny3_setup
    scene = scene_for(library, hierarchy, seed=11, distractors=3, noise=0.02)
    weights = uniform_weights(hierarchy)
    params = InferenceParams(z=15, seed=1)
    refine_roots = inference.refine_roots
    seen = {}

    def tied(roots, *args):
        configs, scores = refine_roots(roots, *args)
        assert len(roots) >= 3
        scores = np.zeros(len(roots))
        scores[[1, len(roots) - 1]] = 5.0
        seen["configs"] = configs
        return configs, scores

    monkeypatch.setattr(inference, "refine_roots", tied)
    result = infer(scene.stack, hierarchy, library, weights, params)
    assert result.diagnostics["winning_root"] == 1
    assert result.score == 5.0
    assert np.array_equal(result.configuration, seen["configs"][1])


def test_collapse_model_joins_labels(tiny3_setup):
    hierarchy, annotations, library = tiny3_setup
    weights = uniform_weights(hierarchy)
    flat, flat_library, flat_weights = collapse_model(hierarchy, library, weights)
    assert flat.levels == 2
    assert flat.atomic_count == hierarchy.atomic_count
    # the same annotation rows, with the atoms' labels
    assert flat_library.sources == library.sources
    assert np.array_equal(flat_library.points, library.points)
    assert set(flat_library.labels) == set(hierarchy.atomic_ids)
    for part in hierarchy.atomic_ids:
        assert np.array_equal(flat_library.labels[part], library.labels[part])
    assert flat_weights.pose_appearance.shape == (1,)


@pytest.mark.parametrize("name", ["nms_radius", "dedup_radius"])
def test_params_reject_nan_radii(name):
    with pytest.raises(ValueError, match="radii"):
        InferenceParams(**{name: math.nan})
    with pytest.raises(ValueError, match="radii"):
        InferenceParams(**{name: -1.0})
    for value in (0.0, 2.5, math.inf):
        assert getattr(InferenceParams(**{name: value}), name) == value


COUNT_FIELDS = ("z", "samples_per_level", "seed")
REAL_FIELDS = ("max_angle", "compatibility_tolerance", "nms_radius", "dedup_radius",
               "search_radius_fraction")
# values by test id; np.True_ and the two 3.0s need ids of their own
NOT_COUNTS = {"2.5": 2.5, "3.0_0": 3.0, "True": True, "value3": np.True_, "3": "3",
              "3.0_1": np.float64(3.0)}
NOT_REALS = {"True": True, "np.True_": np.True_, "str": "1", "None": None}


@pytest.mark.parametrize(
    "name, value, kind",
    [pytest.param(name, value, "an integer", id=f"{key}-{name}")
     for key, value in NOT_COUNTS.items() for name in COUNT_FIELDS]
    + [pytest.param(name, value, "a real number", id=f"{key}-{name}")
       for key, value in NOT_REALS.items() for name in REAL_FIELDS],
)
def test_params_reject_non_integer_counts(name, value, kind):
    """Bools and non-numbers are not numbers here, and counts must be integers."""
    with pytest.raises(ValueError, match=f"{name} must be {kind}"):
        InferenceParams(**{name: value})


@pytest.mark.parametrize("name", ["z", "samples_per_level", "seed"])
def test_params_accept_numpy_integers(name):
    assert getattr(InferenceParams(**{name: np.int64(3)}), name) == 3


def test_params_reject_negative_seed():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        InferenceParams(seed=-1)
    assert InferenceParams(seed=0).seed == 0
    assert InferenceParams(seed=2**70).seed == 2**70
