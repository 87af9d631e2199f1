"""The batched pose-term kernel, the batched feature pass, array-built
proposals, the prune and the chunked refinement against the scalar oracles
in `oracles.py`, including typed-error parity on one bad row, the one-pass
proposal draw, and the scoring pass that leaves exact copies to the prune
against the one that dropped them first."""

import math
import tracemalloc
import weakref
from dataclasses import replace
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from hierpose import Annotation, ExemplarLibrary, WeightVector, inference, load_hierarchy, scoring
from hierpose.appearance import LOG_FLOOR, ScaleMaps, ScoreMapStack
from hierpose.geometry import fit_least_squares_batch
from hierpose.hierarchy import object_size
from hierpose.inference import (
    MODES,
    collapse_model,
    Hypothesis,
    HypothesisSet,
    InferenceParams,
    _REFINE_CHUNK,
    _draw_proposals,
    propose_hypotheses,
    prune_order,
    refine_hypothesis,
    refine_roots,
    score_and_prune,
    seed_atomic_hypotheses,
    swap_subtrees,
)
from hierpose.scoring import (
    ModelMismatchError,
    best_fit_pose,
    check_model,
    feature_matrix,
    fill_terms,
    pose_terms,
    scale_indices,
    subtree_scope,
    subtree_total,
)
from hierpose.synth import make_scene

import oracles
from conftest import (
    CONFIG_DIR, annotations_tiny3, library_for, limbs4_doc, random_stack, tiny3_doc,
)

GRID = 20
# limbs4 has reference length 25: object sizes below 37.5 read the 1.0 scale,
# larger ones the 2.0 scale.
SCALES = {"tiny3": (1.0,), "limbs4": (1.0, 2.0)}
DOCS = {"tiny3": tiny3_doc, "limbs4": limbs4_doc}


@lru_cache(maxsize=None)
def model(name: str):
    hierarchy = load_hierarchy(DOCS[name]())
    rng = np.random.default_rng(7)
    annotations = [
        Annotation(f"a{k}", rng.random((hierarchy.atomic_count, 2)) * 16 + 2)
        for k in range(4)
    ]
    library, types = library_for(hierarchy, annotations, atomic_bins=6, composite_bins=3)
    stack = random_stack(
        hierarchy, types.atomic_bins_map(hierarchy), types.composite_bins_map(), rng,
        grid=(GRID, GRID), scales=SCALES[name],
    )
    return hierarchy, library, stack


def random_rows(hierarchy, library, node_id, count, rng, off_grid=False):
    """Stacked hypotheses of one part: subtree locations, an (H, C) pose
    array of independent random exemplars per subtree node (so child poses
    come from other sources than the parent's) and -1 elsewhere, and object
    sizes spread over both stored scales."""
    rows = hierarchy.atom_rows(node_id)
    locations = np.full((count, hierarchy.atomic_count, 2), np.nan)
    locations[:, rows] = rng.random((count, len(rows), 2)) * (GRID - 2) + 1
    if off_grid:
        locations[:, rows] += rng.choice([0.0, -12.0, 14.0], size=(count, len(rows), 1))
    poses = np.full((count, len(hierarchy.composite_nodes)), -1, dtype=np.intp)
    for pose in poses:
        for nid in hierarchy.composites_below(node_id):
            pose[hierarchy.composite_index(nid)] = rng.integers(len(library.sources))
    sizes = rng.uniform(10.0, 60.0, count)
    return locations, poses, sizes


def as_hypothesis(hierarchy, node_id, locations, pose, size):
    return Hypothesis(node_id, hierarchy.node(node_id).level, locations, pose, float(size))


def stored_pose_scores(locations, node_id, pose, sizes, stack, hierarchy, library, weights,
                       bound=oracles.MAX_ANGLE):
    """Spatial scores of H rows with their stored poses: the `subtree_total`
    of their subtree's terms, none known beforehand."""
    terms = fill_terms(
        locations, pose, sizes, np.full(np.shape(pose), np.nan),
        subtree_scope(hierarchy, [node_id], len(pose)), stack, hierarchy, library, weights, bound,
    )
    return subtree_total(terms, node_id, hierarchy)


def random_weights(hierarchy, rng):
    n, c = hierarchy.atomic_count, len(hierarchy.composite_nodes)
    return WeightVector(rng.random(n), rng.random(c), rng.random(c) * 0.2, 0.0)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(DOCS)),
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 12),
    off_grid=st.booleans(),
    bound=st.sampled_from([oracles.MAX_ANGLE, 0.2, 1.0, math.pi]),
)
def test_kernel_matches_scalar_oracle(name, seed, count, off_grid, bound):
    hierarchy, library, stack = model(name)
    rng = np.random.default_rng(seed)
    node = hierarchy.composite_nodes[int(rng.integers(len(hierarchy.composite_nodes)))]
    locations, poses, sizes = random_rows(hierarchy, library, node.id, count, rng, off_grid)
    weights = random_weights(hierarchy, rng)
    ours = stored_pose_scores(
        locations, node.id, poses, sizes, stack, hierarchy, library, weights, bound
    )
    for row in range(count):
        hyp = as_hypothesis(hierarchy, node.id, locations[row], poses[row], sizes[row])
        naive = oracles.naive_subtree_score(hyp, stack, hierarchy, library, weights, bound)
        assert ours[row] == pytest.approx(naive, abs=1e-9)


def test_kernel_rows_span_both_scales_and_clamped_fits():
    """The property test's inputs reach what it is meant to cover."""
    hierarchy, library, stack = model("limbs4")
    rng = np.random.default_rng(3)
    root = hierarchy.root.id
    locations, poses, sizes = random_rows(hierarchy, library, root, 200, rng)
    assert set(scale_indices(sizes, hierarchy.root.level - 1, stack, hierarchy).tolist()) == {0, 1}
    geometry = library.geometry[root].reshape(len(library.sources), -1, 2)
    index = poses[:, hierarchy.composite_index(root)]
    current = np.stack([
        oracles.naive_child_geometry(X, root, hierarchy).points for X in locations
    ])
    _, angle, _, residual = fit_least_squares_batch(geometry[index], current, 0.2)
    assert np.sum(np.abs(angle) == 0.2) > 50
    for row in range(0, 200, 7):
        _, naive_angle, naive_residual = oracles.naive_fit_least_squares(
            geometry[index[row]], current[row], 0.2
        )
        assert angle[row] == pytest.approx(naive_angle, abs=1e-12)
        assert residual[row] == pytest.approx(naive_residual, rel=1e-9, abs=1e-9)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 40),
    k=st.sampled_from([2, 3, 6, 9, 12]),
    bound=st.sampled_from([oracles.MAX_ANGLE, 0.2, 1.0, math.pi]),
)
def test_batched_fit_equals_its_reference_bit_for_bit(seed, rows, k, bound):
    """The bounded fit gives the bits of `oracles.reference_fit_least_squares_batch`,
    the same arithmetic with numpy means and `transform_points`, on points
    spread over many magnitudes so that any other order of additions
    shows."""
    rng = np.random.default_rng(seed)
    src, dst = (
        rng.normal(size=(rows, k, 2)) * 10.0 ** rng.uniform(-6, 6, (rows, k, 2)) for _ in range(2)
    )
    ours = fit_least_squares_batch(src, dst, bound)
    reference = oracles.reference_fit_least_squares_batch(src, dst, bound)
    for got, want in zip(ours, reference):
        assert got.tobytes() == want.tobytes()


def test_batched_fit_matches_scalar_fit():
    rng = np.random.default_rng(11)
    for bound in (0.1, math.pi / 3, math.pi):
        src = rng.random((300, 5, 2)) * 10
        dst = rng.random((300, 5, 2)) * 10
        scale, angle, _, residual = fit_least_squares_batch(src, dst, bound)
        for row in range(300):
            naive = oracles.naive_fit_least_squares(src[row], dst[row], bound)
            assert (scale[row], angle[row]) == pytest.approx(naive[:2], abs=1e-12)
            assert residual[row] == pytest.approx(naive[2], rel=1e-12, abs=1e-12)


# -- exact copies and the prune ------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_prune_order_matches_row_sort_oracle(data):
    """Exact copies, 1e-12 score ties and gaps that land on the dedup radius
    keep what the row-sorting prune keeps, in its order: with z below, at
    and above the smallest prune block (16), rows that clash inside one
    block, and inputs whose rows are all one copy."""
    distinct = data.draw(st.integers(1, 24))
    width = data.draw(st.integers(1, 3))
    cell = st.integers(0, 4).map(lambda k: 0.75 * k)
    base = np.array(data.draw(st.lists(
        st.lists(st.tuples(cell, cell), min_size=width, max_size=width),
        min_size=distinct, max_size=distinct,
    )))  # (distinct, width, 2)
    base_scores = np.array(data.draw(st.lists(
        st.sampled_from([-2.0, -1.0, -0.5, 0.0]), min_size=distinct, max_size=distinct
    )))
    copies = data.draw(st.lists(st.integers(0, distinct - 1), max_size=24))
    rows = data.draw(st.permutations(list(range(distinct)) + copies))
    noise = np.array(data.draw(st.lists(
        st.sampled_from([-1e-12, 0.0, 1e-12]), min_size=len(rows), max_size=len(rows)
    )))
    scores, points = base_scores[rows] + noise, base[rows]
    z = data.draw(st.one_of(
        st.integers(1, distinct + 2), st.sampled_from([15, 16, 17, 31, 32, 33])
    ))
    radius = data.draw(st.sampled_from([0.0, 0.75, 1.5, 2.0]))
    expected = oracles.naive_prune_order(scores, points, z, radius)
    assert prune_order(scores, points, z, radius) == expected


def distinct_rows(data):
    """A model, a part and a set of its rows without exact copies.  The
    last rows share row 0's points: one has another object size, the other
    (when the node has more than one exemplar) another pose."""
    hierarchy, library, stack = model(data.draw(st.sampled_from(sorted(DOCS))))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    node = data.draw(st.sampled_from(hierarchy.composite_nodes))
    locations, pose, sizes = random_rows(
        hierarchy, library, node.id, data.draw(st.integers(1, 8)), rng
    )
    column = hierarchy.composite_index(node.id)
    other_pose = pose[:1].copy()
    exemplars = len(library.sources)
    other_pose[0, column] = (other_pose[0, column] + 1) % exemplars
    hyps = HypothesisSet.build(
        node, np.concatenate([locations, locations[:1], locations[:1]]),
        np.concatenate([pose, pose[:1], other_pose]),
        np.concatenate([sizes, 2.0 * sizes[:1], sizes[:1]]),
    )
    if exemplars == 1:
        hyps = hyps.take(np.arange(len(hyps) - 1))
    return hierarchy, library, stack, random_weights(hierarchy, rng), hyps


def with_copies(data, count):
    """Row order of `count` distinct rows with exact copies interleaved, each
    after the first appearance of its row."""
    order = list(range(count))
    for _ in range(data.draw(st.integers(0, 2 * count))):
        row = data.draw(st.integers(0, count - 1))
        order.insert(data.draw(st.integers(order.index(row) + 1, len(order))), row)
    return order


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_exact_copies_change_no_kept_row_or_score_bit(data):
    hierarchy, library, stack, weights, hyps = distinct_rows(data)
    order = with_copies(data, len(hyps))
    z = data.draw(st.integers(1, len(hyps) + 1))
    radius = data.draw(st.sampled_from([0.0, 2.0, 6.0]))

    def scores_of(rows):
        return stored_pose_scores(
            rows.locations, rows.node_id, rows.pose, rows.object_size,
            stack, hierarchy, library, weights,
        )

    scores = scores_of(hyps)
    # each copy scores to its row's bits, whatever else shares the batch
    assert scores_of(hyps.take(order)).tobytes() == scores[order].tobytes()
    points = hyps.locations[:, hierarchy.atom_rows(hyps.node_id)]
    kept = oracles.naive_prune_order(scores, points, z, radius)
    for rows in (hyps, hyps.take(order)):
        out = score_and_prune(rows, stack, hierarchy, library, weights, z, radius)
        assert np.array_equal(out.locations, hyps.locations[kept], equal_nan=True)
        assert np.array_equal(out.pose, hyps.pose[kept])
        assert out.object_size.tobytes() == hyps.object_size[kept].tobytes()
        assert out.score.tobytes() == scores[kept].tobytes()


def with_child_terms(hyps, stack, hierarchy, library, weights):
    """The rows with every term of their children's subtrees computed, as
    `infer` gives the distinct proposals before the swap."""
    terms = fill_terms(
        hyps.locations, hyps.pose, hyps.object_size, hyps.terms,
        subtree_scope(hierarchy, hierarchy.node(hyps.node_id).children, len(hyps)),
        stack, hierarchy, library, weights, oracles.MAX_ANGLE,
    )
    return replace(hyps, terms=terms)


def swapped_rows(data, one_scale=False):
    """A model, a part with composite children, its rows after
    `swap_subtrees`, and how many of them lead as base rows (see
    `swapped_part`)."""
    hierarchy, library, stack = model(data.draw(st.sampled_from(sorted(DOCS))))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    node = data.draw(st.sampled_from([n for n in hierarchy.composite_nodes if n.level >= 3]))
    weights = random_weights(hierarchy, rng)
    hyps, bases = swapped_part(data, rng, node, hierarchy, library, stack, weights, one_scale)
    return hierarchy, library, stack, weights, hyps, bases


def swapped_part(data, rng, node, hierarchy, library, stack, weights, one_scale=False,
                 self_swaps=False):
    """Rows of `node` after `swap_subtrees`, and how many of them lead as
    base rows: base rows from `random_rows`, with no terms known, with their
    children's terms (as `infer` swaps them) or already scored, swapped with
    pools of each child that `score_and_prune` has scored, so they carry
    their terms; maybe swapped a second time, which can swap one child
    twice.  Object sizes span both stored scales of limbs4 unless
    `one_scale`, which keeps them below 37.5, gives the base rows their
    children's terms and swaps once.  With `self_swaps`, each child's pool
    also holds every base row's own child subtree, so a swap makes a copy of
    its base row that carries the pool's child terms."""

    def rows_of(part, count):
        locations, poses, sizes = random_rows(hierarchy, library, part.id, count, rng)
        if one_scale:
            sizes = rng.uniform(10.0, 30.0, count)
        return HypothesisSet.build(part, locations, poses, sizes)

    pools = {
        child: rows_of(hierarchy.node(child), data.draw(st.integers(1, 3)))
        for child in node.children
    }
    hyps = rows_of(node, data.draw(st.integers(1, 4)))
    known = "children" if one_scale else data.draw(st.sampled_from(["none", "children", "all"]))
    if known == "children":
        hyps = with_child_terms(hyps, stack, hierarchy, library, weights)
    elif known == "all":
        hyps = score_and_prune(hyps, stack, hierarchy, library, weights, len(hyps), 0.0)
    lower = {}
    for child, pool in pools.items():
        if self_swaps:
            pool = pool.concat(own_subtrees(hyps, hierarchy.node(child), hierarchy))
        lower[child] = score_and_prune(pool, stack, hierarchy, library, weights, len(pool), 0.0)
    bases = len(hyps)
    params = InferenceParams(compatibility_tolerance=data.draw(st.sampled_from([0.3, 1.0])))
    for _ in range(data.draw(st.integers(1, 1 if one_scale else 2))):
        hyps = swap_subtrees(hyps, lower, stack, hierarchy, params)
    return hyps, bases


def own_subtrees(hyps, child, hierarchy):
    """The `child` subtree of each row: its locations and poses, NaN and -1
    elsewhere, at the row's object size, with no terms known."""
    locations = np.full(hyps.locations.shape, np.nan)
    rows = hierarchy.atom_rows(child.id)
    locations[:, rows] = hyps.locations[:, rows]
    pose = np.full(hyps.pose.shape, -1, dtype=np.intp)
    columns = [hierarchy.composite_index(c) for c in hierarchy.composites_below(child.id)]
    pose[:, columns] = hyps.pose[:, columns]
    return HypothesisSet.build(child, locations, pose, hyps.object_size)


def no_terms(hyps):
    """The same rows, with no term known."""
    return replace(hyps, terms=np.full(hyps.terms.shape, np.nan))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_swapped_rows_score_like_a_full_rescore(data):
    """Copied and carried terms change no kept row and no score bit, with
    exact copies interleaved: the kept rows, their scores and terms equal
    those of scoring every term anew,
    each score is its row's full `stored_pose_scores`, and within 1e-9 of the
    recursive oracle."""
    hierarchy, library, stack, weights, hyps, _ = swapped_rows(data)
    hyps = hyps.take(with_copies(data, len(hyps)))
    z = data.draw(st.integers(1, len(hyps) + 1))
    radius = data.draw(st.sampled_from([0.0, 2.0]))
    out = score_and_prune(hyps, stack, hierarchy, library, weights, z, radius)
    full = score_and_prune(no_terms(hyps), stack, hierarchy, library, weights, z, radius)
    for name in ("locations", "pose", "object_size", "score", "terms"):
        assert getattr(out, name).tobytes() == getattr(full, name).tobytes(), name
    assert out.score.tobytes() == stored_pose_scores(
        out.locations, out.node_id, out.pose, out.object_size,
        stack, hierarchy, library, weights,
    ).tobytes()
    for i in range(len(out)):
        naive = oracles.naive_subtree_score(
            out.row(i), stack, hierarchy, library, weights, oracles.MAX_ANGLE
        )
        assert out.score[i] == pytest.approx(naive, abs=1e-9)


def test_swap_carries_terms_only_at_the_same_scale():
    """On the two-scale limbs4 stack a child's stored terms are carried into
    a swapped row only when the row's object size reads the same stored
    scale as the child's (37.5 is the boundary); otherwise they are left to
    be computed."""
    hierarchy, library, stack = model("limbs4")
    weights = random_weights(hierarchy, np.random.default_rng(2))
    node, child = hierarchy.node(20), hierarchy.node(11)
    rng = np.random.default_rng(4)
    locations, poses, _ = random_rows(hierarchy, library, child.id, 1, rng)
    pool = HypothesisSet.build(child, locations, poses, [30.0])
    pool = score_and_prune(pool, stack, hierarchy, library, weights, 1, 0.0)
    column = hierarchy.composite_index(child.id)
    assert np.isfinite(pool.terms[0, column])
    locations, poses, _ = random_rows(hierarchy, library, node.id, 2, rng)
    locations[:, hierarchy.atom_rows(child.id)] = pool.locations[0, hierarchy.atom_rows(child.id)]
    hyps = HypothesisSet.build(node, locations, poses, [20.0, 45.0])
    out = swap_subtrees(
        hyps, {child.id: pool}, stack, hierarchy, InferenceParams(compatibility_tolerance=0.01)
    )
    assert len(out) == 4
    assert out.terms[2, column] == pool.terms[0, column]
    assert np.isnan(out.terms[3, column])


def first_copies(hyps, hierarchy):
    """Each row's first copy, in creation order: the first row with the same
    subtree locations, subtree poses and object size."""
    rows = hierarchy.atom_rows(hyps.node_id)
    columns = [hierarchy.composite_index(n) for n in hierarchy.composites_below(hyps.node_id)]
    first = {}
    return np.array([
        first.setdefault((
            hyps.locations[i, rows].tobytes(), hyps.pose[i, columns].tobytes(),
            hyps.object_size[i].tobytes(),
        ), i)
        for i in range(len(hyps))
    ])


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_score_parts_keeps_what_the_copy_dropping_pass_keeps(data):
    """Scoring every row, exact copies included, and leaving the copies to
    the prune keeps the rows, order, scores and terms, bit for bit, of the
    pass that dropped the copies first (`oracles.copy_dropping_score_parts`),
    on two parts at once.  The rows are swapped rows with copies
    interleaved, and maybe self swaps: copies of their base rows whose child
    terms are carried from a pool, not computed with the base row; every
    copy scores to its first copy's bits."""
    hierarchy, library, stack = model(data.draw(st.sampled_from(sorted(DOCS))))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    weights = random_weights(hierarchy, rng)
    sets = []
    for _ in range(2):
        node = data.draw(st.sampled_from([n for n in hierarchy.composite_nodes if n.level >= 3]))
        self_swaps = data.draw(st.booleans())
        hyps, bases = swapped_part(
            data, rng, node, hierarchy, library, stack, weights, self_swaps=self_swaps
        )
        if self_swaps:  # each base row is compatible with its own subtree
            assert len(set(first_copies(hyps, hierarchy).tolist())) <= len(hyps) - bases
        sets.append(hyps.take(with_copies(data, len(hyps))))
    z = data.draw(st.integers(1, max(len(hyps) for hyps in sets) + 1))
    radius = data.draw(st.sampled_from([0.0, 2.0]))
    args = (stack, hierarchy, library, weights, z, radius, oracles.MAX_ANGLE, None)
    ours = inference._score_parts(sets, *args)
    theirs = oracles.copy_dropping_score_parts(sets, *args)
    for out, want in zip(ours, theirs):
        for name in ("locations", "pose", "object_size", "score", "terms"):
            assert getattr(out, name).tobytes() == getattr(want, name).tobytes(), name
    filled = inference._fill_parts(
        sets, [(hyps.node_id,) for hyps in sets], stack, hierarchy, library, weights,
        oracles.MAX_ANGLE, None,
    )
    for hyps in filled:
        scores = subtree_total(hyps.terms, hyps.node_id, hierarchy)
        assert scores.tobytes() == scores[first_copies(hyps, hierarchy)].tobytes()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_score_and_prune_scores_every_row_once(data):
    """Every row is scored, exact copies too, and on one stored scale, with
    the base rows' children's terms known, every row costs one kernel row,
    its own node's: the kernel is called once, at the part's own node, on
    all the rows; the kept rows are those of the copy-dropping pass."""
    hierarchy, library, stack, weights, hyps, _ = swapped_rows(data, one_scale=True)
    rows = hyps.take(with_copies(data, len(hyps)))
    rows_seen = []
    kernel = scoring.pose_terms

    def counted(locations, *args, **kwargs):
        rows_seen.append(len(locations))
        return kernel(locations, *args, **kwargs)

    counts = {}
    with mock.patch.object(scoring, "pose_terms", counted):
        out = score_and_prune(
            rows, stack, hierarchy, library, weights, z=4, dedup_radius=2.0, counts=counts,
        )
    assert rows_seen == [len(rows)]
    assert counts == {"scored": len(rows), "kernel_rows": len(rows), "kernel_calls": 1}
    [want] = oracles.copy_dropping_score_parts(
        [rows], stack, hierarchy, library, weights, 4, 2.0, oracles.MAX_ANGLE, None
    )
    for name in ("locations", "pose", "object_size", "score", "terms"):
        assert getattr(out, name).tobytes() == getattr(want, name).tobytes(), name


def infer_both_ways(stack, hierarchy, library, weights, params, mode):
    """`infer` as it is, and with the copy-dropping scoring pass patched in:
    the two must agree bit for bit in every output and every diagnostic
    but `scored` and `kernel_rows`, which count the copies only the first
    scores.  Returns the result and the rows each way scored per level from
    level 2 up."""
    ours = inference.infer(stack, hierarchy, library, weights, params, mode)
    with mock.patch.object(inference, "_score_parts", oracles.copy_dropping_score_parts):
        theirs = inference.infer(stack, hierarchy, library, weights, params, mode)
    for name in ("configuration", "score", "partial_configuration", "partial_score"):
        assert np.asarray(getattr(ours, name)).tobytes() == \
            np.asarray(getattr(theirs, name)).tobytes(), name
    for name in ("locations", "pose", "object_size", "score", "terms"):
        assert getattr(ours.root_hypotheses, name).tobytes() == \
            getattr(theirs.root_hypotheses, name).tobytes(), name
    scored = []
    for diagnostics in (ours.diagnostics, theirs.diagnostics):
        levels = diagnostics.pop("levels")
        scored.append([level.pop("scored") for level in levels[1:]])
        for level in levels[1:]:
            level.pop("kernel_rows")
        diagnostics["levels"] = levels
    assert ours.diagnostics == theirs.diagnostics
    return ours, *scored


@pytest.mark.parametrize("mode", MODES)
def test_infer_matches_the_copy_dropping_pass_on_tiny3(mode):
    hierarchy = load_hierarchy(tiny3_doc())
    library, _ = library_for(hierarchy, annotations_tiny3(4))
    scene = make_scene(library, hierarchy, seed=1, grid=(48, 48), distractors=3)
    weights = WeightVector.uniform(hierarchy, pose_appearance=0.3, pose_similarity=0.05)
    _, ours, theirs = infer_both_ways(
        scene.stack, hierarchy, library, weights, InferenceParams(z=10, seed=1), mode
    )
    if mode == "no-hier":  # no swaps, no copies left for the prune
        assert ours == theirs
    else:
        assert ours[0] == theirs[0] and ours[1] > theirs[1]


def test_infer_matches_the_copy_dropping_pass_on_two_scales():
    """On limbs4 scenes rendered at scales 1.0 and 2.0, whose root rows read
    both, and with swaps that make copies at level 3."""
    hierarchy = load_hierarchy(limbs4_doc())
    rng = np.random.default_rng(7)
    annotations = [
        Annotation(f"a{k}", rng.random((hierarchy.atomic_count, 2)) * 36 + 2) for k in range(4)
    ]
    library, _ = library_for(hierarchy, annotations, atomic_bins=6, composite_bins=3)
    weights = WeightVector.uniform(hierarchy, pose_appearance=0.3, pose_similarity=0.05)
    copies, scales = 0, set()
    for seed in (0, 1):
        scene = make_scene(
            library, hierarchy, seed=seed, grid=(64, 64), scales=(1.0, 2.0), mix=True,
            distractors=2,
        )
        params = InferenceParams(
            z=3, samples_per_level=1000, seed=seed, compatibility_tolerance=1.0
        )
        result, ours, theirs = infer_both_ways(
            scene.stack, hierarchy, library, weights, params, "full"
        )
        copies += sum(ours) - sum(theirs)
        sizes = result.root_hypotheses.object_size
        scales |= set(scale_indices(sizes, 1, scene.stack, hierarchy).tolist())
    assert copies > 0 and scales == {0, 1}


# -- grouped fill ----------------------------------------------------------------


FILL_DOCS = {**DOCS, "human": lambda: CONFIG_DIR / "human_hierarchy.json"}


@lru_cache(maxsize=None)
def fill_model(name: str, scales: tuple[float, ...]):
    """`model(name)` with the human hierarchy too, on the given stored scales."""
    hierarchy = load_hierarchy(FILL_DOCS[name]())
    rng = np.random.default_rng(7)
    annotations = [
        Annotation(f"a{k}", rng.random((hierarchy.atomic_count, 2)) * 16 + 2)
        for k in range(4)
    ]
    # nine types per part: more than numpy's pairwise sum adds one at a time,
    # so a marginal summed in another order than table order shows
    library, types = library_for(hierarchy, annotations, atomic_bins=9, composite_bins=3)
    stack = random_stack(
        hierarchy, types.atomic_bins_map(hierarchy), types.composite_bins_map(), rng,
        grid=(GRID, GRID), scales=scales,
    )
    return hierarchy, library, stack


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_grouped_fill_equals_the_per_node_oracle_bit_for_bit(data):
    """One `fill_terms` pass over the rows of all parts of a level computes
    every wanted (row, node) term with the bits of the per-node path it
    replaced (`oracles.per_node_subtree_terms`: one kernel call per node,
    one lookup per child, built marginal maps read where there are some),
    keeps every known or unwanted term, and makes one kernel call per child
    geometry shape: on tiny3, limbs4 and human, on one stored scale and on three,
    with off-grid points, with known and NaN terms mixed, and with the
    parts' own subtrees, their children's or any of their nodes in scope."""
    name = data.draw(st.sampled_from(sorted(FILL_DOCS)))
    scales = data.draw(st.sampled_from([(1.0,), (0.7, 1.0, 1.4)]))
    hierarchy, library, shared = fill_model(name, scales)
    stack = ScoreMapStack(list(shared.scales))  # no marginal map built yet
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    for part in hierarchy.atomic_ids:
        for index in range(stack.n_scales):
            if data.draw(st.booleans()):
                stack.marginal(part, index)
    weights = random_weights(hierarchy, rng)
    level = data.draw(st.integers(2, hierarchy.levels))
    wanted_nodes = data.draw(st.sampled_from(["own", "children", "some"]))
    forget = data.draw(st.sampled_from([0.3, 1.0]))
    blocks, expected = [], []
    for node in hierarchy.nodes_at_level(level):
        count = data.draw(st.integers(0, 5))
        locations, pose, _ = random_rows(
            hierarchy, library, node.id, count, rng, data.draw(st.booleans())
        )
        size = hierarchy.scale.reference_length * rng.uniform(0.5, 1.6, count)
        tops = node.children if wanted_nodes == "children" else (node.id,)
        scope = subtree_scope(hierarchy, tops, count)
        if wanted_nodes == "some":
            scope &= rng.random(scope.shape) < 0.5
        known = rng.normal(size=pose.shape)
        known[rng.random(pose.shape) < forget] = np.nan
        terms = known
        for top in tops:
            terms = oracles.per_node_subtree_terms(
                locations, top, pose, size, stack, hierarchy, library, weights,
                oracles.MAX_ANGLE, terms,
            )
        blocks.append((locations, pose, size, known, scope))
        expected.append(np.where(scope, terms, known))
    locations, pose, size, known, scope = (np.concatenate(field) for field in zip(*blocks))
    wanted = scope & np.isnan(known)
    shapes = {
        library.geometry[node.id].shape[1:]
        for node, column in zip(hierarchy.composite_nodes, wanted.T) if column.any()
    }
    calls, kernel = [], scoring.pose_terms

    def counted(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    counts = {}
    with mock.patch.object(scoring, "pose_terms", counted):
        terms = fill_terms(
            locations, pose, size, known, scope, stack, hierarchy, library, weights,
            oracles.MAX_ANGLE, counts,
        )
    assert np.array_equal(terms, np.concatenate(expected), equal_nan=True)
    assert np.array_equal(terms[~wanted], known[~wanted], equal_nan=True)
    assert len(calls) == len(shapes)
    assert counts == {"kernel_rows": int(wanted.sum()), "kernel_calls": len(shapes)}


def test_one_kernel_call_takes_nodes_of_one_child_signature_only():
    """`pose_terms` computes the pairs of several nodes in one call only when
    their child geometry has one shape; nodes of two shapes raise."""
    hierarchy, library, stack = model("tiny3")
    rng = np.random.default_rng(2)
    locations, poses, sizes = random_rows(hierarchy, library, hierarchy.root.id, 4, rng)
    index = poses[:, hierarchy.composite_index(10)]
    same = pose_terms(locations, [10, 10, 11, 11], index, sizes, stack, hierarchy, library)
    assert all(np.isfinite(terms).all() for terms in same)
    with pytest.raises(ValueError, match="one child geometry shape"):
        pose_terms(locations, [10, 10, 20, 20], index, sizes, stack, hierarchy, library)


def test_grouped_fill_inputs_reach_scales_off_grid_points_and_several_nodes_per_call():
    """The property test's inputs reach what it is meant to cover: rows of
    every stored scale of a 3-scale stack, off-grid child points, and calls
    that mix several nodes."""
    hierarchy, library, stack = fill_model("human", (0.7, 1.0, 1.4))
    rng = np.random.default_rng(1)
    sizes = hierarchy.scale.reference_length * rng.uniform(0.5, 1.6, 200)
    assert set(scale_indices(sizes, 1, stack, hierarchy).tolist()) == {0, 1, 2}
    limbs = [node.id for node in hierarchy.nodes_at_level(2)
             if len(node.children) == 3]
    assert len(limbs) == 4
    locations, _, _ = random_rows(hierarchy, library, limbs[0], 200, rng, off_grid=True)
    assert np.any((locations < 0) | (locations >= GRID))


# -- typed-error parity ----------------------------------------------------------


def good_batch():
    """Four valid limbs4 root hypotheses; every row reads the 1.0 scale."""
    hierarchy, library, stack = model("limbs4")
    rng = np.random.default_rng(5)
    locations, poses, _ = random_rows(hierarchy, library, hierarchy.root.id, 4, rng)
    return hierarchy, library, stack, locations, poses, np.full(4, 25.0)


def stack_without(stack, scale_index, channel=None, composite=None):
    """Copy of a stack that lacks one atomic channel or one composite map at
    one scale."""
    scales = []
    for i, maps in enumerate(stack.scales):
        table, atomic, comps = maps.channel_table, maps.atomic, dict(maps.composite)
        if i == scale_index and channel is not None:
            keep = [tuple(row) != channel for row in table.tolist()]
            table, atomic = table[keep], atomic[keep]
        if i == scale_index and composite is not None:
            del comps[composite]
        scales.append(ScaleMaps(maps.scale, table, atomic, comps))
    return ScoreMapStack(scales)


def check_parity(error, hierarchy, library, stack, locations, poses, sizes, bad=2):
    weights = WeightVector.uniform(hierarchy)
    node = hierarchy.root.id
    with pytest.raises(error):
        stored_pose_scores(locations, node, poses, sizes, stack, hierarchy, library, weights)
    good = [row for row in range(len(poses)) if row != bad]
    stored_pose_scores(
        locations[good], node, poses[good], sizes[good], stack, hierarchy, library, weights
    )
    for row in range(len(poses)):
        hyp = as_hypothesis(hierarchy, node, locations[row], poses[row], sizes[row])
        if row == bad:
            with pytest.raises(error):
                oracles.naive_subtree_score(
                    hyp, stack, hierarchy, library, weights, oracles.MAX_ANGLE
                )
        else:
            oracles.naive_subtree_score(hyp, stack, hierarchy, library, weights, oracles.MAX_ANGLE)


def test_error_parity_missing_pose():
    hierarchy, library, stack, locations, poses, sizes = good_batch()
    poses[2, hierarchy.composite_index(12)] = -1
    check_parity(ValueError, hierarchy, library, stack, locations, poses, sizes)


def test_error_parity_undefined_child_geometry():
    hierarchy, library, stack, locations, poses, sizes = good_batch()
    locations[2, hierarchy.atom_index(8)] = np.nan
    check_parity(ValueError, hierarchy, library, stack, locations, poses, sizes)


def test_error_parity_zero_object_size():
    hierarchy, library, stack, locations, poses, sizes = good_batch()
    sizes[2] = 0.0
    check_parity(ValueError, hierarchy, library, stack, locations, poses, sizes)


def with_rows(library, hierarchy, rows, sources=None, points=None, labels=None):
    """A fresh library of the given `rows` of `library`, in that order, with
    their sources, points or labels replaced where given."""
    return ExemplarLibrary(
        hierarchy,
        [library.sources[row] for row in rows] if sources is None else sources,
        library.points[rows] if points is None else points,
        {part: values[rows] for part, values in library.labels.items()} if labels is None
        else labels,
        library.atomic_bins, library.composite_bins,
    )


def test_error_parity_identical_exemplar_points():
    hierarchy, library, stack, locations, poses, sizes = good_batch()
    # exemplar 1 has coincident atoms under node 11, so all the child points
    # of its node-11 geometry are equal
    coincident = library.points.copy()
    coincident[1, hierarchy.atom_rows(11)] = 1.0
    library = with_rows(library, hierarchy, np.arange(len(coincident)), points=coincident)
    assert np.all(library.geometry[11][1] == 1.0)
    poses[:, hierarchy.composite_index(11)] = [0, 0, 1, 0]
    check_parity(ValueError, hierarchy, library, stack, locations, poses, sizes)


def test_error_parity_missing_channel():
    hierarchy, library, stack, locations, poses, sizes = good_batch()
    sizes[2] = 60.0  # only this row reads the 2.0 scale
    label = int(library.labels[1][poses[2, hierarchy.composite_index(11)]])
    stack = stack_without(stack, 1, channel=(1, label))
    check_parity(KeyError, hierarchy, library, stack, locations, poses, sizes)


def test_error_parity_missing_composite_map():
    hierarchy, library, stack, locations, poses, sizes = good_batch()
    sizes[2] = 60.0
    stack = stack_without(stack, 1, composite=11)
    check_parity(KeyError, hierarchy, library, stack, locations, poses, sizes)


@pytest.mark.parametrize("label", [0, 4])
def test_error_parity_composite_label_out_of_range(label):
    """Composite child 11 has 3 types: label 0 must not read the last type's
    map, and label 4 must not escape as an IndexError."""
    hierarchy, library, stack, locations, poses, sizes = good_batch()
    wrong = library.labels[11].copy()
    wrong[1] = label
    library = with_rows(
        library, hierarchy, np.arange(len(wrong)), labels={**library.labels, 11: wrong}
    )
    poses[:, hierarchy.composite_index(20)] = [0, 0, 1, 0]
    check_parity(KeyError, hierarchy, library, stack, locations, poses, sizes)


# -- model checks ----------------------------------------------------------------


def stack_with_fewer_types(stack, scale_index, part, types):
    """Copy of a stack whose atomic part `part` (or composite part, if it has
    maps) keeps only its first `types` types at one scale."""
    scales = []
    for i, maps in enumerate(stack.scales):
        table, atomic, comps = maps.channel_table, maps.atomic, dict(maps.composite)
        if i == scale_index and part in comps:
            comps[part] = comps[part][:types]
        elif i == scale_index:
            keep = (table[:, 0] != part) | (table[:, 1] <= types)
            table, atomic = table[keep], atomic[keep]
        scales.append(ScaleMaps(maps.scale, table, atomic, comps))
    return ScoreMapStack(scales)


CASES = ("channel", "composite maps", "atomic bins", "composite bins", "missing nodes",
         "extra nodes", "weights")


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_mismatched_model_never_reaches_the_search(data):
    """`infer`, in every mode, raises `ModelMismatchError` before the search
    for a stack that lacks a channel, composite maps or types the library
    labels, or a library or weights with extra or missing nodes; a
    lookup `KeyError` from the kernel never escapes.  Stack errors name the
    part, the type where there is one, and the scale."""
    hierarchy, library, stack = model(data.draw(st.sampled_from(sorted(DOCS))))
    weights = WeightVector.uniform(hierarchy)
    case = data.draw(st.sampled_from(CASES))
    index = data.draw(st.integers(0, stack.n_scales - 1))
    atoms = hierarchy.atomic_ids
    composites = [p for p in library.labels if not hierarchy.node(p).is_atomic]
    flat = collapse_model(hierarchy, library, weights)
    if case == "channel":
        part = data.draw(st.sampled_from(atoms))
        label = data.draw(st.sampled_from(sorted(set(library.labels[part].tolist()))))
        stack, message = stack_without(stack, index, channel=(part, label)), f"part {part}, type"
    elif case == "composite maps":
        part = data.draw(st.sampled_from(composites))
        stack, message = stack_without(stack, index, composite=part), f"part {part}"
    elif case in ("atomic bins", "composite bins"):
        part = data.draw(st.sampled_from(atoms if case == "atomic bins" else composites))
        stack = stack_with_fewer_types(stack, index, part, int(library.labels[part].max()) - 1)
        message = f"type {int(library.labels[part].max())}"
    elif case == "missing nodes":
        library, message = flat[1], "missing"
    elif case == "extra nodes":
        hierarchy, message = flat[0], "extra"
    else:
        weights, message = flat[2], "weights"
    if case in ("channel", "composite maps", "atomic bins", "composite bins"):
        message += f".* at scale {stack.scales[index].scale}"
    with pytest.raises(ModelMismatchError, match=message):
        check_model(hierarchy, library, weights, stack)
    for mode in MODES:
        with pytest.raises(ModelMismatchError, match=message):
            inference.infer(stack, hierarchy, library, weights, InferenceParams(z=2), mode)


def test_every_model_check_case_reaches_the_kernel_without_the_check():
    """Each stack case of the property above is a real mismatch: with
    `check_model` skipped, the search fails inside the kernel with a
    `KeyError`."""
    hierarchy, library, stack = model("tiny3")
    weights = WeightVector.uniform(hierarchy)
    label = int(library.labels[1].max())
    bad = [
        stack_without(stack, 0, channel=(1, label)),
        stack_without(stack, 0, composite=10),
        stack_with_fewer_types(stack, 0, 1, label - 1),
        stack_with_fewer_types(stack, 0, 10, int(library.labels[10].max()) - 1),
    ]
    params = InferenceParams(z=30, samples_per_level=600)
    with mock.patch.object(inference, "check_model", lambda *args: None):
        for broken in bad:
            with pytest.raises(KeyError):
                inference.infer(broken, hierarchy, library, weights, params)


def test_a_library_of_other_child_geometry_fails_the_model_check():
    """A tiny3 library read with a tiny3 variant whose limbs hold 2 and 4
    atoms (the same parts, labels and bins) fails `check_model`, which names
    the node and both child geometry shapes, in every mode before any kernel
    call; without the check the proposal step indexes past the stored
    children."""
    hierarchy, library, stack = model("tiny3")
    doc = tiny3_doc()
    doc["nodes"][6]["children"], doc["nodes"][7]["children"] = [1, 2], [3, 4, 5, 6]
    variant = load_hierarchy(doc)
    weights = WeightVector.uniform(variant)
    message = r"node 10 has shape \(3, 1, 2\), the hierarchy's \(2, 1, 2\)"
    calls = []
    with mock.patch.object(scoring, "pose_terms", lambda *args: calls.append(args)):
        with pytest.raises(ModelMismatchError, match=message):
            check_model(variant, library, weights, stack)
        for mode in MODES:
            with pytest.raises(ModelMismatchError, match=message):
                inference.infer(stack, variant, library, weights, InferenceParams(z=2), mode)
    assert not calls
    params = InferenceParams(z=30, samples_per_level=600)
    with mock.patch.object(inference, "check_model", lambda *args: None):
        with pytest.raises(IndexError):
            inference.infer(stack, variant, library, weights, params)


# -- batched features ------------------------------------------------------------


@lru_cache(maxsize=None)
def feature_model(name: str):
    """`model(name)` with a second stack of the same channels and a library
    whose every node ends with a copy of exemplar 0 carrying other relation
    types, so that the best fit ties whenever exemplar 0 wins and a wrong
    tie-break changes the log-pose-prob column."""
    hierarchy, library, stack = model(name)
    other = random_stack(
        hierarchy, library.atomic_bins, library.composite_bins, np.random.default_rng(8),
        grid=(GRID, GRID), scales=SCALES[name],
    )
    bins = {**library.atomic_bins, **library.composite_bins}
    library = with_rows(
        library, hierarchy, np.arange(len(library.sources) + 1) % len(library.sources),
        sources=library.sources + (library.sources[0] + "#copy",),
        labels={
            part: np.append(labels, labels[0] % bins[part] + 1)
            for part, labels in library.labels.items()
        },
    )
    return hierarchy, library, [stack, other]



def random_configurations(hierarchy, library, count, rng):
    """On-grid configurations in which some atoms jump about 50 pixels off the
    grid (on limbs4 such rows select the 2.0 scale); a third of the rows are
    exactly the configuration of the root's exemplar 0."""
    X = rng.random((count, hierarchy.atomic_count, 2)) * (GRID - 2) + 1
    jump = (rng.random((count, hierarchy.atomic_count)) < 0.15)[..., None]
    X += jump * rng.choice([-45.0, 50.0], size=(count, hierarchy.atomic_count, 1))
    exact = rng.random(count) < 1 / 3
    X[exact] = library.points[0]
    return X


def naive_features(X, stacks, stack_index, hierarchy, library, bound=oracles.MAX_ANGLE):
    return np.stack([
        oracles.naive_feature_vector(X[s], stacks[stack_index[s]], hierarchy, library, bound)
        for s in range(len(X))
    ])


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(DOCS)),
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 12),
    bound=st.sampled_from([oracles.MAX_ANGLE, 0.2, math.pi]),
)
def test_feature_matrix_matches_scalar_oracle(name, seed, count, bound):
    hierarchy, library, stacks = feature_model(name)
    rng = np.random.default_rng(seed)
    X = random_configurations(hierarchy, library, count, rng)
    stack_index = rng.integers(len(stacks), size=count)
    ours = feature_matrix(X, stacks, stack_index, hierarchy, library, bound)
    assert np.array_equal(ours, naive_features(X, stacks, stack_index, hierarchy, library, bound))


def test_best_fit_pose_matches_naive_fit_up_to_ties():
    """`best_fit_pose` against the exemplar loop of `naive_best_fit`, whose
    fit is the naive one, on both models and under bounds pi/3 (the
    default), 0.2 and pi.
    Tie rule: residuals within `tol` of the naive minimum tie (two-point
    fits are exact up to rounding for every exemplar, and the two fits round
    differently), and the library may pick any tied exemplar; a unique naive
    minimum must be picked, and of exemplars with identical geometry only
    the lowest index."""
    unique = tied = 0
    for name in sorted(DOCS):
        hierarchy, library, _ = feature_model(name)
        X = random_configurations(hierarchy, library, 30, np.random.default_rng(11))
        for bound in [oracles.MAX_ANGLE, 0.2, math.pi]:
            for row in X:
                for node in hierarchy.composite_nodes:
                    geometry = library.geometry[node.id].reshape(len(library.sources), -1, 2)
                    current = oracles.naive_child_geometry(row, node.id, hierarchy)
                    residual = np.array([
                        oracles.naive_fit_least_squares(points, current.points, bound)[2]
                        for points in geometry
                    ])
                    spread = np.sum((current.points - current.points.mean(axis=0)) ** 2)
                    tol = 1e-9 * max(1.0, spread)
                    ties = np.flatnonzero(residual <= residual.min() + tol)
                    index, value = best_fit_pose(row, node.id, library, hierarchy, bound)
                    assert index in ties
                    assert value == pytest.approx(-residual[index], abs=tol)
                    same = [e for e, points in enumerate(geometry)
                            if np.array_equal(points, geometry[index])]
                    assert index == min(same)
                    unique += len(ties) == 1
                    tied += len(ties) > len(same)
            roots = [oracles.naive_best_fit(row, hierarchy.root.id, library, hierarchy, bound)[0]
                     for row in X]
            assert roots.count(0) >= 5  # rows that copy exemplar 0 pick it, not its copy
    assert unique > 0 and tied > 0


def test_feature_inputs_reach_both_scales_off_grid_points_and_ties():
    """The property test's inputs reach what it is meant to cover."""
    hierarchy, library, stacks = feature_model("limbs4")
    X = random_configurations(hierarchy, library, 200, np.random.default_rng(4))
    assert set(scale_indices(object_size(X), 1, stacks[0], hierarchy).tolist()) == {0, 1}
    features = feature_matrix(X, stacks, np.arange(200) % 2, hierarchy, library)
    assert np.sum(features[:, : hierarchy.atomic_count] == LOG_FLOOR) > 100
    exact = library.points[0]
    copy = len(library.sources) - 1
    assert best_fit_pose(exact, 11, library, hierarchy)[0] == 0
    log_prob, similarity = pose_terms(
        np.stack([exact, exact]), 11, [0, copy], [25.0, 25.0], stacks[0], hierarchy, library
    )
    assert similarity[0] == similarity[1] and log_prob[0] != log_prob[1]


def feature_peak_bytes(count):
    """tracemalloc peak of `feature_matrix` over `count` rows with a limbs4
    library of `count` exemplars per node, as one per annotation gives."""
    hierarchy, library, stacks = feature_model("limbs4")
    library = with_rows(library, hierarchy, np.arange(count) % len(library.sources))
    X = random_configurations(hierarchy, library, count, np.random.default_rng(3))
    stack_index = np.arange(count) % 2
    feature_matrix(X, stacks, stack_index, hierarchy, library)  # fills the stacks' caches
    tracemalloc.start()
    try:
        feature_matrix(X, stacks, stack_index, hierarchy, library)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_feature_matrix_memory_grows_linearly():
    """One exemplar per annotation makes S x E grow with the square of the
    training set; the best-fit pass must not hold all (row, exemplar) pairs."""
    small, large = feature_peak_bytes(100), feature_peak_bytes(400)
    assert large < 6 * small
    assert large < 2_000_000  # fitting all 160,000 (row, exemplar) pairs at once peaks over 100 MB


def assert_same_bits(ours, theirs):
    for a, b in zip(ours, theirs):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    points=st.integers(2, 7),
    pool=st.integers(1, 6),
    exemplars=st.integers(1, 40),
    rows=st.integers(1, 40),
    budget=st.sampled_from([1, 2, 5, 7, 16, 1024]),
    bound=st.sampled_from([oracles.MAX_ANGLE, 0.2, math.pi]),
)
def test_best_fits_match_the_per_exemplar_loop(seed, points, pool, exemplars, rows, budget,
                                              bound):
    """Blocks of exemplars fitted in one call pick the exemplar and score of
    the one-exemplar-per-call loop bit for bit, whatever the row budget: the
    exemplars repeat rows of a small pool, so ties are common, some rows
    copy an exemplar exactly, and blocks straddle the budget."""
    rng = np.random.default_rng(seed)
    geometry = rng.normal(size=(pool, points, 2)) * 10
    exemplar_rows = geometry[rng.integers(pool, size=exemplars)]
    current = rng.normal(size=(rows, points, 2)) * 10
    copies = rng.random(rows) < 0.3
    current[copies] = exemplar_rows[rng.integers(exemplars, size=int(copies.sum()))]
    with mock.patch.object(scoring, "_FIT_ROWS", budget):
        ours = scoring._best_fits(exemplar_rows, current, bound)
    assert_same_bits(ours, oracles.per_exemplar_best_fits(exemplar_rows, current, bound))


@settings(max_examples=150, deadline=None)
@given(
    exemplar_values=st.lists(st.sampled_from([0.0, 1.0, 2.0, math.inf, math.nan]), min_size=1,
                             max_size=20),
    row_values=st.lists(st.sampled_from([0.0, 0.5, math.inf]), min_size=1, max_size=10),
    budget=st.sampled_from([1, 3, 8, 1024]),
)
def test_best_fits_never_pick_nan_or_infinite_residuals(exemplar_values, row_values, budget):
    """With a stand-in fit whose residual is the exemplar's first x plus the
    row's, NaN and infinite residuals are never picked, a row with no finite
    residual keeps exemplar 0 at -inf, and ties go to the lowest index, as in
    the loop."""
    def fit(src, dst, bound):
        residual = src[:, 0, 0] + dst[:, 0, 0]
        return None, None, None, residual

    exemplars = np.zeros((len(exemplar_values), 2, 2))
    exemplars[:, 0, 0] = exemplar_values
    current = np.zeros((len(row_values), 2, 2))
    current[:, 0, 0] = row_values
    with mock.patch.object(scoring, "fit_least_squares_batch", fit), \
            mock.patch.object(scoring, "_FIT_ROWS", budget), \
            mock.patch.object(oracles, "fit_least_squares_batch", fit):
        ours = scoring._best_fits(exemplars, current, oracles.MAX_ANGLE)
        expected = oracles.per_exemplar_best_fits(exemplars, current, oracles.MAX_ANGLE)
    assert_same_bits(ours, expected)


@pytest.mark.parametrize("rows, exemplars", [
    (1, 1), (1, 1500), (32, 31), (32, 32), (33, 32), (1024, 2), (1100, 3),
], ids=["one", "one row", "below", "at", "above", "one per call", "rows over budget"])
def test_best_fits_at_the_row_budget(rows, exemplars):
    """S x E below, at and above the default budget: S = 33 fits blocks of
    31 exemplars, the last one short, and more rows than the budget fit one
    exemplar per call.  The calls made are ceil(E / max(1, budget // S))."""
    rng = np.random.default_rng(rows * 7919 + exemplars)
    geometry = rng.normal(size=(exemplars, 4, 2)) * 10
    geometry[1::2] = geometry[::2][: len(geometry[1::2])]  # every odd exemplar ties
    current = rng.normal(size=(rows, 4, 2)) * 10
    calls = []

    def counted(src, dst, bound):
        calls.append(len(src))
        return fit_least_squares_batch(src, dst, bound)

    with mock.patch.object(scoring, "fit_least_squares_batch", counted):
        ours = scoring._best_fits(geometry, current, oracles.MAX_ANGLE)
    step = max(1, scoring._FIT_ROWS // rows)
    assert len(calls) == math.ceil(exemplars / step)
    assert max(calls) == rows * min(step, exemplars)
    assert_same_bits(ours, oracles.per_exemplar_best_fits(geometry, current, oracles.MAX_ANGLE))


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(DOCS)),
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 30),
    budget=st.sampled_from([1, 4, 9, 1024]),
)
def test_feature_matrix_matches_the_per_node_loop(name, seed, count, budget):
    """One lookup per (child geometry shape, stack) and blocked best fits give the
    features of the per-(node, stack) loop bit for bit, on both stacks."""
    hierarchy, library, stacks = feature_model(name)
    rng = np.random.default_rng(seed)
    X = random_configurations(hierarchy, library, count, rng)
    stack_index = rng.integers(len(stacks), size=count)
    with mock.patch.object(scoring, "_FIT_ROWS", budget):
        ours = feature_matrix(X, stacks, stack_index, hierarchy, library)
    expected = oracles.per_node_feature_matrix(
        X, stacks, stack_index, hierarchy, library, oracles.MAX_ANGLE
    )
    assert ours.tobytes() == expected.tobytes()


@lru_cache(maxsize=None)
def four_stacks(name: str):
    """`feature_model(name)` with two more stacks of the same channels."""
    hierarchy, library, stacks = feature_model(name)
    more = [
        random_stack(hierarchy, library.atomic_bins, library.composite_bins,
                     np.random.default_rng(seed), grid=(GRID, GRID), scales=SCALES[name])
        for seed in (9, 10)
    ]
    return hierarchy, library, stacks + more


class Draws:
    """Hands out a new ScoreMapStack over the maps of a given one, keeping
    only a weak reference to it, and records, just before each draw, how
    many earlier draws are still reachable."""

    def __init__(self):
        self.refs, self.alive = [], []

    def __call__(self, stack: ScoreMapStack) -> ScoreMapStack:
        self.alive.append(sum(ref() is not None for ref in self.refs))
        fresh = ScoreMapStack(stack.scales)
        self.refs.append(weakref.ref(fresh))
        return fresh


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(DOCS)),
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 30),
)
def test_feature_matrix_reads_a_generator_of_stacks_one_at_a_time(name, seed, count):
    """Stacks drawn from a generator give the per-node loop's features bit
    for bit on four stacks.  Each stack is drawn once, none past the last
    index read, and each is unreachable before the next is drawn."""
    hierarchy, library, stacks = four_stacks(name)
    rng = np.random.default_rng(seed)
    X = random_configurations(hierarchy, library, count, rng)
    stack_index = rng.integers(len(stacks), size=count)
    draw = Draws()
    ours = feature_matrix(X, map(draw, stacks), stack_index, hierarchy, library)
    expected = oracles.per_node_feature_matrix(
        X, stacks, stack_index, hierarchy, library, oracles.MAX_ANGLE
    )
    assert ours.tobytes() == expected.tobytes()
    assert draw.alive == [0] * (stack_index.max() + 1)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(DOCS)),
    seed=st.integers(0, 2**32 - 1),
    images=st.lists(st.sampled_from("abcd"), min_size=1, max_size=24),
    cut=st.integers(0, 24),
)
def test_build_training_set_loads_each_source_once_in_order_of_first_appearance(
    name, seed, images, cut
):
    """With per-image sources, each source loads once, in order of first
    appearance, and is unreachable before the next loads; the rows equal
    the per-node loop's over the stacks in that order, bit for bit."""
    hierarchy, library, stacks = four_stacks(name)
    X = random_configurations(hierarchy, library, len(images), np.random.default_rng(seed))
    samples = [Annotation(image, X[k]) for k, image in enumerate(images)]
    cut = min(cut, len(samples))
    stack_of = dict(zip("ABCD", stacks))
    draw, loads = Draws(), []

    def load(source):
        loads.append(source)
        return draw(stack_of[source])

    training = scoring.build_training_set(
        samples[:cut], samples[cut:], str.upper, hierarchy, library, load=load
    )
    order = list(dict.fromkeys(image.upper() for image in images))
    assert loads == order
    assert draw.alive == [0] * len(order)
    expected = oracles.per_node_feature_matrix(
        X, [stack_of[source] for source in order], [order.index(i.upper()) for i in images],
        hierarchy, library, oracles.MAX_ANGLE,
    )
    assert training.features.tobytes() == expected.tobytes()
    assert training.labels.tolist() == [1.0] * cut + [-1.0] * (len(samples) - cut)


def test_feature_matrix_needs_a_stack_for_every_index():
    hierarchy, library, stacks, X, stack_index = on_grid_features_batch()
    with pytest.raises(ValueError, match="no stack for stack index 1"):
        feature_matrix(X, iter(stacks[:1]), stack_index, hierarchy, library)
    with pytest.raises(ValueError, match="one non-negative stack index per configuration"):
        feature_matrix(X, stacks, -stack_index, hierarchy, library)


def check_feature_parity(error, X, stacks, stack_index, hierarchy, library, bad=2):
    with pytest.raises(error):
        feature_matrix(X, stacks, stack_index, hierarchy, library)
    good = [row for row in range(len(X)) if row != bad]
    assert np.array_equal(
        feature_matrix(X[good], stacks, stack_index[good], hierarchy, library),
        naive_features(X[good], stacks, stack_index[good], hierarchy, library),
    )
    with pytest.raises(error):
        oracles.naive_feature_vector(
            X[bad], stacks[stack_index[bad]], hierarchy, library, oracles.MAX_ANGLE
        )


def on_grid_features_batch():
    """Four on-grid limbs4 configurations on alternating stacks."""
    hierarchy, library, stacks = feature_model("limbs4")
    X = np.random.default_rng(6).random((4, hierarchy.atomic_count, 2)) * (GRID - 2) + 1
    return hierarchy, library, stacks, X, np.array([0, 1, 0, 1])


def test_feature_error_parity_zero_extent():
    hierarchy, library, stacks, X, stack_index = on_grid_features_batch()
    X[2] = X[2, 0]
    check_feature_parity(ValueError, X, stacks, stack_index, hierarchy, library)


def test_feature_error_parity_undefined_location():
    hierarchy, library, stacks, X, stack_index = on_grid_features_batch()
    X[2, hierarchy.atom_index(8)] = np.nan
    check_feature_parity(ValueError, X, stacks, stack_index, hierarchy, library)


def test_feature_error_parity_missing_channel():
    hierarchy, library, stacks, X, stack_index = on_grid_features_batch()
    # row 2 alone reads a third stack, which lacks the channel its best-fit
    # exemplar of node 11 needs for part 1
    best, _ = best_fit_pose(X[2], 11, library, hierarchy)
    label = int(library.labels[1][best])
    stacks = stacks + [stack_without(stacks[1], 0, channel=(1, label))]
    stack_index[2] = 2
    check_feature_parity(KeyError, X, stacks, stack_index, hierarchy, library)


# -- proposals -------------------------------------------------------------------


def assert_same_proposals(ours, naive, hierarchy):
    """`ours` is a HypothesisSet, `naive` the oracle's list of rows."""
    assert len(ours) == len(naive)
    naive = HypothesisSet.of(naive, hierarchy)
    assert (ours.node_id, ours.level) == (naive.node_id, naive.level)
    assert np.array_equal(ours.pose, naive.pose)
    assert np.array_equal(np.isnan(ours.locations), np.isnan(naive.locations))
    assert np.allclose(ours.locations, naive.locations, atol=1e-9, equal_nan=True)
    assert np.allclose(ours.object_size, naive.object_size, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), scored=st.booleans())
def test_rows_give_subtree_boxes_and_stack_back_bit_for_bit(data, scored):
    """For random sets, swapped or not and scored or not, each row's box is
    the min and max of its subtree's locations, and `HypothesisSet.of`
    stacks the rows back into every row field, bit for bit, with no term
    known."""
    hierarchy, library, stack, weights, hyps, _ = swapped_rows(data)
    if scored:
        hyps = score_and_prune(hyps, stack, hierarchy, library, weights, len(hyps), 0.0)
    subtree = hyps.locations[:, hierarchy.atom_rows(hyps.node_id)]
    rows = list(hyps)
    for i, row in enumerate(rows):
        assert row.box.top_left.tobytes() == subtree[i].min(axis=0).tobytes()
        assert row.box.bottom_right.tobytes() == subtree[i].max(axis=0).tobytes()
    again = HypothesisSet.of(rows, hierarchy)
    assert (again.node_id, again.level) == (hyps.node_id, hyps.level)
    for name in ("locations", "pose", "object_size", "score"):
        ours, theirs = getattr(again, name), getattr(hyps, name)
        assert (ours.dtype, ours.shape) == (theirs.dtype, theirs.shape), name
        assert ours.tobytes() == theirs.tobytes(), name
    assert np.isnan(again.terms).all() and again.terms.shape == hyps.terms.shape


def test_of_rejects_a_pose_row_of_the_wrong_length():
    hierarchy, library, _ = model("tiny3")
    locations, poses, sizes = random_rows(hierarchy, library, 20, 2, np.random.default_rng(0))
    hyps = [as_hypothesis(hierarchy, 20, locations[i], poses[i], sizes[i]) for i in range(2)]
    hyps[1].pose = hyps[1].pose[:-1]
    with pytest.raises(ValueError, match="one exemplar index per composite node"):
        HypothesisSet.of(hyps, hierarchy)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_propose_matches_scalar_loop(seed):
    hierarchy = load_hierarchy(tiny3_doc())
    library, _ = library_for(hierarchy, annotations_tiny3(4))
    scene = make_scene(library, hierarchy, seed=seed, grid=(48, 48), distractors=3)
    params = InferenceParams(z=6, samples_per_level=120, seed=seed)
    weights = WeightVector.uniform(hierarchy, pose_appearance=0.3, pose_similarity=0.05)
    lower = seed_atomic_hypotheses(scene.stack, hierarchy, params)
    for level in (2, 3):
        current = {}
        for node in hierarchy.nodes_at_level(level):
            ours = propose_hypotheses(
                node, lower, library, hierarchy, params, np.random.default_rng(seed)
            )
            naive = oracles.naive_propose_hypotheses(
                node, lower, library, hierarchy, params, np.random.default_rng(seed)
            )
            assert ours
            assert_same_proposals(ours, naive, hierarchy)
            current[node.id] = score_and_prune(
                ours, scene.stack, hierarchy, library, weights, params.z, params.dedup_radius
            )
        lower = current


def test_propose_degenerate_pairs_fall_back_like_scalar_loop():
    hierarchy = load_hierarchy(tiny3_doc())
    library, _ = library_for(hierarchy, annotations_tiny3(4))
    X = annotations_tiny3(1)[0].points
    lower = {}
    for node_id, shift in ((10, 0.0), (11, 1.0)):
        rows = hierarchy.atom_rows(node_id)
        pool = []
        for k in range(3):
            locations = np.full_like(X, np.nan)
            locations[rows] = X[rows] + k
            # the right limb's anchor sits on the left limb's anchor
            locations[rows] += shift * (X[0] - X[3])
            pose = np.full(len(hierarchy.composite_nodes), -1, dtype=np.intp)
            pose[hierarchy.composite_index(node_id)] = k
            pool.append(as_hypothesis(hierarchy, node_id, locations, pose, 8.0 + k))
        lower[node_id] = HypothesisSet.of(pool, hierarchy)
    params = InferenceParams(z=4, samples_per_level=80, seed=0)
    ours = propose_hypotheses(
        hierarchy.root, lower, library, hierarchy, params, np.random.default_rng(9)
    )
    naive = oracles.naive_propose_hypotheses(
        hierarchy.root, lower, library, hierarchy, params, np.random.default_rng(9)
    )
    # fallback hypotheses take the object size of the first chosen child
    assert any(min(abs(h.object_size - s) for s in (8.0, 9.0, 10.0)) < 1e-9 for h in ours)
    assert_same_proposals(ours, naive, hierarchy)


def test_draw_slots_are_distinct_and_pairs_uniform():
    counts = [3, 5, 2, 4]
    samples = 24_000
    exemplar, slots, picks = _draw_proposals(np.random.default_rng(5), samples, 7, counts)
    assert len(exemplar) == samples
    assert ((exemplar >= 0) & (exemplar < 7)).all()
    assert (slots[:, 0] != slots[:, 1]).all()
    assert ((slots >= 0) & (slots < len(counts))).all()
    # every ordered pair of distinct slots is equally likely
    pairs = [(a, b) for a in range(len(counts)) for b in range(len(counts)) if a != b]
    observed = np.array([np.sum((slots[:, 0] == a) & (slots[:, 1] == b)) for a, b in pairs])
    expected = samples / len(pairs)
    chi_square = float(np.sum((observed - expected) ** 2 / expected))
    assert chi_square < stats.chi2.ppf(0.999, len(pairs) - 1)


def test_draw_picks_lie_inside_their_pool():
    counts = np.array([1, 6, 2, 9, 3])
    _, slots, picks = _draw_proposals(np.random.default_rng(2), 5000, 3, counts)
    assert picks.shape == slots.shape
    assert ((picks >= 0) & (picks < counts[slots])).all()
    # every row of every pool is reached
    for slot, count in enumerate(counts):
        assert set(picks[slots == slot].tolist()) == set(range(count))


def test_draw_touching_an_empty_pool_is_dropped():
    # a pool of one row consumes the stream exactly as an empty pool does, so
    # the draws of [4, 1, 3] are the draws of [4, 0, 3] before dropping
    full = _draw_proposals(np.random.default_rng(11), 600, 5, [4, 1, 3])
    kept = _draw_proposals(np.random.default_rng(11), 600, 5, [4, 0, 3])
    avoids = (full[1] != 1).all(axis=1)
    assert 0 < avoids.sum() < 600
    for ours, expected in zip(kept, full):
        assert np.array_equal(ours, expected[avoids])
    exemplar, slots, picks = _draw_proposals(np.random.default_rng(11), 50, 5, [0, 0, 3])
    assert (exemplar.shape, slots.shape, picks.shape) == ((0,), (0, 2), (0, 2))


class CountingGenerator:
    """A numpy Generator that counts the calls made on it."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


def test_propose_calls_the_generator_independent_of_sample_count():
    hierarchy = load_hierarchy(tiny3_doc())
    library, _ = library_for(hierarchy, annotations_tiny3(4))
    scene = make_scene(library, hierarchy, seed=0, grid=(48, 48), distractors=3)
    lower = seed_atomic_hypotheses(scene.stack, hierarchy, InferenceParams(z=6))
    calls = []
    for samples in (120, 1200):
        params = InferenceParams(z=6, samples_per_level=samples)
        rng = CountingGenerator(np.random.default_rng(0))
        for node in hierarchy.nodes_at_level(2):
            assert propose_hypotheses(node, lower, library, hierarchy, params, rng)
        calls.append(rng.calls)
    assert calls[0] == calls[1] > 0


# -- refinement ------------------------------------------------------------------


def marked_stack(stack, marks=None):
    """`stack` with uniform atomic channels, so that every on-grid pixel of a
    part reads one value and ties are decided by displacement, then y, then
    x.  `marks` maps parts to disjoint (H, W) masks on which that part's
    channels carry 0.6 of the mass instead."""
    scales = []
    for maps in stack.scales:
        table = maps.channel_table
        atomic = np.full(maps.atomic.shape, 1.0 / len(table))
        for part, mask in (marks or {}).items():
            own = table[:, 0] == part
            atomic[:, mask] = np.where(own, 0.6 / own.sum(), 0.4 / (~own).sum())[:, None]
        scales.append(ScaleMaps(maps.scale, table, atomic, maps.composite))
    return ScoreMapStack(scales)


def ridges(hierarchy, first):
    """One anti-diagonal x + y = first + 2j per part j: an integer start off
    its ridge has two nearest ridge pixels that tie in value and
    displacement, one with the smaller y and the other with the smaller x."""
    yy, xx = np.mgrid[:GRID, :GRID]
    return {part: xx + yy == first + 2 * j for j, part in enumerate(hierarchy.atomic_ids)}


def refinement_center(kind, rng):
    """One starting point: an integer pixel (which ties with the grid pixel
    it sits on), a point just off the grid with its other coordinate on a
    half pixel (equidistant neighbours), or anywhere near the grid."""
    if kind == "integer":
        return rng.integers(-2, GRID + 2, size=2).astype(float)
    if kind == "edge":
        edge = rng.choice([-1.3, -0.7, -0.5, -0.2, GRID - 0.5, GRID - 0.2, GRID + 0.7])
        point = np.array([edge, rng.integers(0, GRID) + 0.5])
        return point if rng.random() < 0.5 else point[::-1].copy()
    return rng.uniform(-3.0, GRID + 3.0, size=2)


def refinement_case(name, seed, kinds, fraction, variant, count):
    """`count` root hypotheses on one model and one weight/map variant.
    Every root after the first has its own starting points, the last few of
    which repeat one point, and its own object size, so that the roots'
    boxes, discs, window spans and scales differ."""
    hierarchy, _, stack = model(name)
    rng = np.random.default_rng(seed)
    X = np.stack([refinement_center(kind, rng) for kind in kinds[: hierarchy.atomic_count]])
    weights = random_weights(hierarchy, rng)
    if variant in ("zero appearance", "zero weights"):
        weights.atomic[:] = 0.0
    if variant in ("zero penalty", "zero weights", "flat maps", "ridge maps"):
        weights.pose_similarity[:] = 0.0
    if variant == "flat maps":
        stack = marked_stack(stack)
    if variant == "ridge maps":
        stack = marked_stack(stack, ridges(hierarchy, 2 * int(rng.integers(10)) + 1))
    # sizes on both sides of 37.5 read different scales of the limbs4 stack
    no_pose = np.full(len(hierarchy.composite_nodes), -1, dtype=np.intp)
    hyps = [Hypothesis(
        hierarchy.root.id, hierarchy.levels, X, no_pose, float(rng.uniform(5.0, 80.0)),
        float(rng.normal()),
    )]
    rng = np.random.default_rng([seed, count])
    for _ in range(count - 1):
        X = np.stack([
            refinement_center(kind, rng)
            for kind in rng.permutation(kinds)[: hierarchy.atomic_count]
        ])
        distinct = int(rng.integers(1, len(X) + 1))
        X = X[np.minimum(np.arange(len(X)), distinct - 1)]
        hyps.append(Hypothesis(
            hierarchy.root.id, hierarchy.levels, X, no_pose, float(rng.uniform(5.0, 80.0)),
            float(rng.normal()),
        ))
    return hyps, stack, hierarchy, weights, InferenceParams(search_radius_fraction=fraction)


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(sorted(DOCS)),
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.sampled_from(["integer", "edge", "free"]), min_size=10, max_size=10),
    fraction=st.sampled_from([0.005, 0.03, 0.15, 0.6, 1.0]),
    variant=st.sampled_from(
        ["random", "zero appearance", "zero penalty", "zero weights", "flat maps", "ridge maps"]
    ),
    count=st.sampled_from([1, 2, _REFINE_CHUNK, _REFINE_CHUNK + 1, 2 * _REFINE_CHUNK + 3]),
)
def test_refine_matches_per_part_loop(name, seed, kinds, fraction, variant, count):
    """Every row of the chunked refinement of `count` roots equals the
    per-part loop on its root alone, bit for bit, wherever the sort puts
    it."""
    hyps, stack, hierarchy, weights, params = refinement_case(
        name, seed, kinds, fraction, variant, count
    )
    configs, scores = refine_roots(
        HypothesisSet.of(hyps, hierarchy), stack, hierarchy, weights, params
    )
    assert configs.shape == (count, hierarchy.atomic_count, 2) and scores.shape == (count,)
    for row, hyp in enumerate(hyps):
        naive_refined, naive_score = oracles.naive_refine_hypothesis(
            hyp, stack, hierarchy, weights, params
        )
        assert np.array_equal(configs[row], naive_refined)
        assert scores[row] == naive_score


def test_refine_chunks_mix_spans_and_scales():
    """The property test's roots reach both limbs4 scales and several window
    spans, and each chunk makes one map lookup."""
    count = 2 * _REFINE_CHUNK + 3
    hyps, stack, hierarchy, weights, params = refinement_case(
        "limbs4", 5, ["free"] * 10, 0.15, "random", count
    )
    roots = HypothesisSet.of(hyps, hierarchy)
    per_scale = np.bincount(scale_indices(roots.object_size, 1, stack, hierarchy), minlength=2)
    assert (per_scale > 0).all()
    radius = params.search_radius_fraction * np.array([hyp.box.mean_side for hyp in hyps])
    assert len(np.unique(np.floor(2 * radius))) >= 4
    with mock.patch("hierpose.inference.log_marginals_at", wraps=inference.log_marginals_at) as spy:
        refine_roots(roots, stack, hierarchy, weights, params)
    assert spy.call_count == sum(-(-int(n) // _REFINE_CHUNK) for n in per_scale)


@pytest.mark.parametrize("fraction", [0.15, 0.005])
def test_refine_tie_breaks_disc_edge_and_empty_discs(fraction):
    """Without penalty, equal values go to the smaller displacement, then
    the smaller y, then the smaller x; a pixel exactly on the disc edge is a
    candidate.  A disc of radius 0.1 holds no pixel around a non-integer
    start, which then stays put."""
    hierarchy, _, stack = model("tiny3")
    starts = np.array([
        (5.5, -0.7),  # off the grid: (5, 0) and (6, 0) tie, x decides
        (-0.7, 5.5),  # (0, 5) and (0, 6) tie, y decides
        (5.2, 5.2),  # ridge x + y = 11: (6, 5) and (5, 6) tie, y before x
        (10.2, 10.3),  # reads pixel (10, 10) at displacement 0
        (19.3, 19.3),
        (15.0, 3.0),  # integer start; marked pixel (18, 3) on the disc edge
    ])
    yy, xx = np.mgrid[:GRID, :GRID]
    marks = {3: xx + yy == 11, 6: (xx == 18) & (yy == 3)}
    weights = WeightVector(np.ones(6), np.zeros(3), np.zeros(3))
    hyp = Hypothesis(
        hierarchy.root.id, hierarchy.levels, starts,
        np.full(len(hierarchy.composite_nodes), -1, dtype=np.intp), 20.0, 0.0,
    )
    params = InferenceParams(search_radius_fraction=fraction)
    case = (hyp, marked_stack(stack, marks), hierarchy, weights, params)
    refined, score = refine_hypothesis(*case)
    expected = starts.copy()
    if fraction == 0.15:
        assert fraction * hyp.box.mean_side == 3.0
        expected[[0, 1, 2, 5]] = [(5.0, 0.0), (0.0, 5.0), (6.0, 5.0), (18.0, 3.0)]
    assert np.array_equal(refined, expected)
    naive_refined, naive_score = oracles.naive_refine_hypothesis(*case)
    assert np.array_equal(refined, naive_refined)
    assert score == naive_score

