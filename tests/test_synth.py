import functools
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierpose import (
    WeightVector,
    best_fit_pose,
    fit_least_squares,
    load_hierarchy,
    top_peaks,
    total_score,
)
from hierpose import synth
from hierpose.appearance import load_score_maps, log_marginals_at, save_score_maps
from hierpose.geometry import child_points
from hierpose.synth import (
    generate_pose,
    load_scene,
    make_scene,
    render_score_maps,
    save_scene,
)

from conftest import (
    CONFIG_DIR, annotations_tiny3, bird_annotations, human_annotations, library_for, tiny3_doc,
)
from oracles import (
    buffered_save_score_maps, dense_render_score_maps, exhaustive_best_config,
    grid_search_pose_similarity, naive_exhaustive_best_config, stored_labels,
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


@functools.cache
def scene_model(name):
    """A hierarchy and its library for the tiny3, human or bird config; the
    human one with the 12 atomic and 4 composite types of the benchmark."""
    if name == "tiny3":
        hierarchy = load_hierarchy(tiny3_doc())
        return hierarchy, library_for(hierarchy, annotations_tiny3(4))[0]
    hierarchy = load_hierarchy(CONFIG_DIR / f"{name}_hierarchy.json")
    if name == "human":
        return hierarchy, library_for(hierarchy, human_annotations(6), 12, 4)[0]
    return hierarchy, library_for(hierarchy, bird_annotations(12))[0]


def dense_scene(library, hierarchy, **options):
    """`make_scene` with the dense renderer it used before."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(synth, "render_score_maps", dense_render_score_maps)
        return make_scene(library, hierarchy, **options)


def assert_same_tensors(a, b):
    assert len(a.scales) == len(b.scales)
    for x, y in zip(a.scales, b.scales):
        assert x.scale == y.scale
        assert x.channel_table.tobytes() == y.channel_table.tobytes()
        assert x.atomic.shape == y.atomic.shape and x.atomic.tobytes() == y.atomic.tobytes()
        assert sorted(x.composite) == sorted(y.composite)
        for part, comp in x.composite.items():
            other = y.composite[part]
            assert (comp.part_id, comp.level) == (other.part_id, other.level)
            assert comp.data.shape == other.data.shape
            assert comp.data.tobytes() == other.data.tobytes()


def test_make_scene_gives_the_dense_renderers_bytes():
    """The renderer holds only the rows a bump or the noise lights and must
    give the dense renderer's bytes in every tensor, with the 0.98 cap on
    the foreground firing (small grids crowd the parts, noise adds to every
    row) and not firing."""
    at_cap = []

    @settings(max_examples=80)
    @given(
        name=st.sampled_from(["tiny3", "human", "bird"]),
        seed=st.integers(0, 2**20),
        grid=st.tuples(st.integers(2, 40), st.integers(2, 40)),
        amplitude=st.floats(0.05, 0.9),
        sigma=st.floats(0.4, 4.0),
        distractors=st.integers(0, 5),
        noise=st.one_of(st.just(0.0), st.floats(1e-4, 0.05)),
        scales=st.lists(st.sampled_from([0.7, 1.0, 1.4]), min_size=1, max_size=3, unique=True),
        mix=st.booleans(),
    )
    def check(name, seed, grid, amplitude, sigma, distractors, noise, scales, mix):
        hierarchy, library = scene_model(name)
        options = dict(
            seed=seed, grid=grid, amplitude=amplitude, sigma=sigma, distractors=distractors,
            noise=noise, scales=tuple(scales), mix=mix,
        )
        scene = make_scene(library, hierarchy, **options)
        oracle = dense_scene(library, hierarchy, **options)
        assert np.array_equal(scene.configuration, oracle.configuration)
        assert scene.provenance == oracle.provenance
        assert_same_tensors(scene.stack, oracle.stack)
        # a capped pixel's foreground sums to 0.98 up to float32 rounding
        at_cap.append((noise > 0, bool((oracle.stack.scales[0].atomic[0] < 0.02 + 1e-6).any())))

    check()
    assert {capped for _, capped in at_cap} == {True, False}
    assert any(capped for noisy, capped in at_cap if not noisy)


def stack_bytes(stack):
    return sum(
        m.channel_table.nbytes + m.atomic.nbytes + sum(c.data.nbytes for c in m.composite.values())
        for m in stack.scales
    )


def test_save_score_maps_writes_the_buffered_writers_bytes(tmp_path):
    """The streaming writer gives the bytes of the writer that built the
    container in memory, also from tensors that are not float32, not
    contiguous or big-endian, which it converts as it writes."""
    hierarchy, library = scene_model("human")
    scene = make_scene(library, hierarchy, seed=4, grid=(30, 22), noise=0.01,
                       scales=(0.7, 1.0, 1.4))
    first = scene.stack.scales[0]
    first.atomic = first.atomic.astype(np.float64)
    first.channel_table = first.channel_table.astype(">u4")
    second = scene.stack.scales[1]
    second.atomic = np.asfortranarray(second.atomic)
    for comp in second.composite.values():
        comp.data = comp.data.astype(">f4")
    save_score_maps(scene.stack, tmp_path / "streamed.hpsm")
    buffered_save_score_maps(scene.stack, tmp_path / "buffered.hpsm")
    written = (tmp_path / "streamed.hpsm").read_bytes()
    assert written == (tmp_path / "buffered.hpsm").read_bytes()
    save_score_maps(load_score_maps(tmp_path / "streamed.hpsm"), tmp_path / "again.hpsm")
    assert (tmp_path / "again.hpsm").read_bytes() == written


def test_make_scene_memory_is_the_stack_plus_the_lit_rows():
    """A human 96x96 scene holds one float32 tensor and the float64 maps of
    the rows its parts light; the dense renderer peaked at 33.7 MB for a
    7.26 MB stack.  The tensors are on memory maps, which tracemalloc does
    not trace, so the traced peak is the temporaries alone (1.3 MB)."""
    hierarchy, library = scene_model("human")
    make_scene(library, hierarchy, seed=0, grid=(96, 96), mix=True)  # warm-up
    tracemalloc.start()
    try:
        scene = make_scene(library, hierarchy, seed=1, grid=(96, 96), mix=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stack_bytes(scene.stack) > 7_000_000
    assert peak <= 3_000_000


def test_rendered_scales_hold_separate_writable_tensors():
    hierarchy, library = scene_model("human")
    stack = make_scene(library, hierarchy, seed=3, grid=(20, 24), scales=(0.7, 1.0, 1.4)).stack
    tensors = [m.atomic for m in stack.scales]
    tensors += [c.data for m in stack.scales for c in m.composite.values()]
    for tensor in tensors:
        assert tensor.dtype == np.float32 and tensor.flags.c_contiguous
        assert tensor.flags.writeable
    assert not any(np.shares_memory(a, b) for i, a in enumerate(tensors) for b in tensors[i + 1:])


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_childs_writes_do_not_reach_the_rendered_stack():
    hierarchy, library = scene_model("tiny3")
    atomic = make_scene(library, hierarchy, seed=3, grid=(20, 24)).stack.scales[0].atomic
    before = atomic.copy()
    pid = os.fork()
    if pid == 0:
        atomic[...] = 0.0
        os._exit(0)
    os.waitpid(pid, 0)
    assert np.array_equal(atomic, before)


def test_save_score_maps_copies_no_tensor(tmp_path):
    """The writer streams each tensor to the file; building the container in
    memory peaked at 15.3 MB for a 7.26 MB stack."""
    hierarchy, library = scene_model("human")
    stack = make_scene(library, hierarchy, seed=1, grid=(96, 96), mix=True).stack
    save_score_maps(stack, tmp_path / "warm.hpsm")
    tracemalloc.start()
    try:
        save_score_maps(stack, tmp_path / "maps.hpsm")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_000_000


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
