import math
import re
import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hierpose import load_hierarchy, load_score_maps, object_size
from hierpose.appearance import (
    LOG_FLOOR,
    NORM_TOL,
    PROB_FLOOR,
    ScaleMaps,
    ScoreMapError,
    CoincidentPartsError,
    RelationTypeModel,
    ScoreMapStack,
    fit_relation_clusters,
    log_marginals_at,
    log_type_prob_atomic,
    log_type_prob_composite,
    save_score_maps,
    _screened,
)
from hierpose.inference import InferenceParams, seed_atomic_hypotheses

import oracles
from hierpose import appearance
from conftest import (
    CONFIG_DIR, base_pose_tiny3, hpsm_old_bytes, limbs4_doc, random_stack, sparse_hpsm_bytes,
    tiny2_doc, tiny3_doc,
)


def two_type_stack(values: dict[tuple[int, int], float], grid=(5, 5), composite=None):
    """Stack with one atomic part (2 types); named channel values at (2, 2)."""
    h, w = grid
    table = np.array([(0, 0), (1, 1), (1, 2)], dtype=np.uint32)
    atomic = np.zeros((3, h, w), dtype=np.float32)
    atomic[0] = 1.0
    for (part, type_id), value in values.items():
        row = {(1, 1): 1, (1, 2): 2}[(part, type_id)]
        atomic[row, 2, 2] = value
        atomic[0, 2, 2] -= value
    return ScoreMapStack([ScaleMaps(1.0, table, atomic, composite or {})])


def grid_points(width: int, height: int) -> np.ndarray:
    """(height * width, 2) (x, y) points of every pixel, row by row."""
    ys, xs = np.mgrid[0:height, 0:width]
    return np.stack([xs.ravel(), ys.ravel()], axis=1).astype(float)


def test_log_part_prob_marginalizes():
    stack = two_type_stack({(1, 1): 0.1, (1, 2): 0.1})
    assert log_marginals_at(stack, [1], [[(2, 2)]], 0)[0, 0] == pytest.approx(math.log(0.2))


def test_log_part_prob_floor_on_background():
    stack = two_type_stack({})
    values = log_marginals_at(stack, [1], [[(2, 2), (99, 99)]], 0)[0]
    assert values == pytest.approx([math.log(1e-6)] * 2)


def test_log_part_prob_uniform_everywhere():
    h, w, t = 4, 6, 3
    table = np.array([(0, 0)] + [(1, m) for m in range(1, t + 1)], dtype=np.uint32)
    atomic = np.full((t + 1, h, w), 1.0 / (t + 1), dtype=np.float32)
    stack = ScoreMapStack([ScaleMaps(1.0, table, atomic)])
    values = set(log_marginals_at(stack, [1], grid_points(w, h)[None], 0)[0].tolist())
    assert len(values) == 1
    assert values.pop() == pytest.approx(math.log(3.0 / 4.0))


def test_exp_log_part_prob_sums_to_one(tiny3):
    rng = np.random.default_rng(0)
    stack = random_stack(tiny3, {p: 3 for p in tiny3.atomic_ids}, {}, rng, grid=(6, 6))
    parts = tiny3.atomic_ids
    points = np.stack([grid_points(6, 6)] * len(parts))
    total = np.exp(log_marginals_at(stack, parts, points, 0)).sum(axis=0)
    background = stack.scales[0].atomic[0].ravel()
    assert total + background == pytest.approx(np.ones(36), abs=1e-3)


def log_pose_prob(lookup, stack, parts, labels, points) -> float:
    """A node's log-pose-probability: the sum of one-row type lookups of its
    children at scale index 0."""
    return sum(
        float(lookup(stack, part, [label], [point], 0)[0])
        for part, label, point in zip(parts, labels, points, strict=True)
    )


def test_log_pose_prob_atomic_conditional():
    stack = two_type_stack({(1, 1): 0.3, (1, 2): 0.1})
    value = log_pose_prob(log_type_prob_atomic, stack, [1], [1], [(2, 2)])
    assert value == pytest.approx(math.log(0.75))


def test_log_pose_prob_atomic_two_children():
    h, w = 5, 5
    table = np.array([(0, 0), (1, 1), (1, 2), (2, 1), (2, 2)], dtype=np.uint32)
    atomic = np.zeros((5, h, w), dtype=np.float32)
    atomic[0] = 1.0
    for row in (1, 2, 3, 4):
        atomic[row, 2, 2] = 0.1
        atomic[0, 2, 2] -= 0.1
    stack = ScoreMapStack([ScaleMaps(1.0, table, atomic)])
    value = log_pose_prob(log_type_prob_atomic, stack, [1, 2], [1, 2], [(2, 2), (2, 2)])
    assert value == pytest.approx(math.log(0.25))


def test_log_pose_prob_atomic_floor():
    stack = two_type_stack({})
    value = log_pose_prob(log_type_prob_atomic, stack, [1], [1], [(2, 2)])
    assert value == pytest.approx(math.log(1e-6))
    assert math.isfinite(value)


def test_log_pose_prob_atomic_uniform_conditional():
    t = 4
    table = np.array([(0, 0)] + [(1, m) for m in range(1, t + 1)], dtype=np.uint32)
    atomic = np.full((t + 1, 3, 3), 1.0 / (t + 1), dtype=np.float32)
    stack = ScoreMapStack([ScaleMaps(1.0, table, atomic)])
    value = log_pose_prob(log_type_prob_atomic, stack, [1, 1], [2, 3], [(1, 1), (0, 0)])
    assert value == pytest.approx(2 * math.log(1.0 / t))


def test_log_type_prob_atomic_rows_and_off_grid():
    stack = two_type_stack({(1, 1): 0.3, (1, 2): 0.1})
    values = log_type_prob_atomic(stack, 1, [2, 1, 1], [(2, 2), (2.4, 1.6), (-1, 2)], 0)
    assert values == pytest.approx([math.log(0.25), math.log(0.75), LOG_FLOOR])


def test_channels_found_by_arbitrary_u32_ids_in_any_table_order():
    top = 2**32 - 1
    table = np.array([(top, 7), (0, 0), (2**31 + 5, top), (top, 3)], dtype=np.uint32)
    atomic = np.full((4, 2, 3), 0.25, dtype=np.float32)
    stack = ScoreMapStack([ScaleMaps(1.0, table, atomic)])
    assert stack.channel_rows(top, [3, 7, 3], 0).tolist() == [3, 0, 3]
    assert stack.channel_rows(2**31 + 5, [top], 0).tolist() == [2]
    assert log_type_prob_atomic(stack, top, [7], [(1, 1)], 0) == pytest.approx([math.log(0.5)])
    for part, type_id in [(top, 4), (top, -1), (top, 2**32 + 7), (2**31 + 5, 0), (0, 1)]:
        with pytest.raises(KeyError, match="no channel"):
            stack.channel_rows(part, [3, type_id], 0)
    with pytest.raises(ScoreMapError, match="duplicate channel"):
        ScoreMapStack([ScaleMaps(1.0, np.vstack([table, table[:1]]), np.zeros((5, 2, 3)))])


def composite_stack(value: float, bins: int = 4, label: int = 1):
    table = np.array([(0, 0), (1, 1)], dtype=np.uint32)
    atomic = np.zeros((2, 5, 5), dtype=np.float32)
    atomic[0] = 1.0
    data = np.full((bins, 5, 5), (1.0 - value) / (bins - 1), dtype=np.float32)
    data[label - 1] = value
    return ScoreMapStack(
        [ScaleMaps(1.0, table, atomic, {7: data})]
    )


def test_log_pose_prob_composite_single_child():
    stack = composite_stack(0.8)
    value = log_pose_prob(log_type_prob_composite, stack, [7], [1], [(2, 2)])
    assert value == pytest.approx(math.log(0.8), abs=1e-6)


def test_log_pose_prob_composite_two_children():
    stack = composite_stack(0.5, bins=2)
    value = log_pose_prob(log_type_prob_composite, stack, [7, 7], [1, 1], [(2, 2), (1, 1)])
    assert value == pytest.approx(math.log(0.25), abs=1e-6)


def test_log_pose_prob_composite_off_grid():
    stack = composite_stack(0.8)
    value = log_pose_prob(log_type_prob_composite, stack, [7], [1], [(50, 50)])
    assert value == pytest.approx(LOG_FLOOR)


def test_log_type_prob_composite_rejects_label_outside_types():
    stack = composite_stack(0.8)
    for label in (0, 5):
        with pytest.raises(KeyError, match=f"no composite type {label} for part 7"):
            log_type_prob_composite(stack, 7, [1, label], [(2, 2), (50, 50)], 0)


def test_log_type_prob_composite_takes_one_part_per_item():
    """Items of several parts, in a 2-D shape, read bit for bit what each
    part's own call reads; a label is checked against its own part's type
    count, so part 8's type 3 is rejected where part 7's is not."""
    rng = np.random.default_rng(0)
    table = np.array([(0, 0), (1, 1)], dtype=np.uint32)
    atomic = np.zeros((2, 5, 5), dtype=np.float32)
    atomic[0] = 1.0
    data = {part: rng.random((types, 5, 5)) for part, types in ((7, 4), (8, 2))}
    composite = {part: maps / maps.sum(axis=0) for part, maps in data.items()}
    stack = ScoreMapStack([ScaleMaps(1.0, table, atomic, composite)])
    parts = np.array([[7, 8, 7], [8, 8, 7]])
    labels = np.array([[3, 2, 1], [1, 2, 4]])
    anchors = np.array([[(0, 0), (4.4, 1), (2, 2)], [(9, 9), (3, 0.6), (1, 4)]], dtype=float)
    values = log_type_prob_composite(stack, parts, labels, anchors, 0)
    assert values.shape == (2, 3) and values[1, 0] == LOG_FLOOR
    for part in (7, 8):
        mine = parts == part
        alone = log_type_prob_composite(stack, part, labels[mine], anchors[mine], 0)
        assert values[mine].tobytes() == alone.tobytes()
    with pytest.raises(KeyError, match=re.escape("no composite type 3 for part 8 (2 types)")):
        log_type_prob_composite(stack, parts, np.where(parts == 8, 3, 1), anchors, 0)


def gaussian_grid(centers, grid=(16, 16), amplitude=0.5, sigma=1.2):
    h, w = grid
    yy, xx = np.mgrid[0:h, 0:w].astype(float)
    out = np.zeros((h, w))
    for cx, cy, amp in centers:
        out += amp * amplitude * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * sigma**2))
    return out


def top_peaks(marginal, z, nms_radius=2.0):
    """The top peaks of part 1 as inference seeds them
    (`seed_atomic_hypotheses`, the one seed path), and the marginal at
    each: on a one-scale tiny2 stack whose part 1 has the map `marginal`
    and whose parts 2 and 3 read 0 everywhere."""
    table = np.array([(0, 0), (1, 1), (2, 1), (3, 1)], dtype=np.uint32)
    atomic = np.zeros((4, *marginal.shape), dtype=np.float32)
    atomic[0], atomic[1] = 1.0 - marginal, marginal
    stack = ScoreMapStack([ScaleMaps(1.0, table, atomic)])
    params = InferenceParams(z=z, nms_radius=nms_radius)
    seeds = seed_atomic_hypotheses(stack, load_hierarchy(tiny2_doc()), params)
    assert len(seeds[2]) == len(seeds[3]) == 0
    points = seeds[1].locations[:, 0]
    return points, stack.marginal(1, 0)[points[:, 1].astype(int), points[:, 0].astype(int)]


def test_top_peaks_single_bump():
    points, _ = top_peaks(gaussian_grid([(7, 9, 1.0)]), z=5)
    assert points.tolist() == [[7.0, 9.0]]


def test_top_peaks_two_equal_bumps_row_major():
    points, scores = top_peaks(gaussian_grid([(3, 4, 1.0), (11, 4, 1.0)]), z=2)
    assert points.tolist() == [[3.0, 4.0], [11.0, 4.0]]
    assert scores[0] == pytest.approx(scores[1], rel=1e-6)


def test_top_peaks_flat_map_empty():
    points, _ = top_peaks(np.full((8, 8), 0.5), z=3)
    assert points.shape == (0, 2)


def test_top_peaks_respects_budget_and_radius():
    centers = [(2, 2, 1.0), (8, 2, 0.9), (14, 2, 0.8), (2, 9, 0.7), (8, 9, 0.6)]
    points, scores = top_peaks(gaussian_grid(centers), z=3)
    assert points.shape == (3, 2)
    assert all(scores[i] >= scores[i + 1] for i in range(len(scores) - 1))
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            assert np.hypot(*(points[i] - points[j])) >= 2.0


def atomic_type(offset, bins, tiny2) -> int:
    """Relation type of tiny2's part 1 at the origin, whose reference (part
    2) lies at `offset` from it; part 3 sits apart from both."""
    points = np.array([[(0.0, 0.0), offset, (5.0, 7.0)]])
    return int(RelationTypeModel(bins, {}).labels(points, tiny2)[1][0])


def test_orientation_bin_examples(tiny2):
    assert atomic_type((1, 0), 12, tiny2) == 1
    assert atomic_type((0, 1), 12, tiny2) == 4
    assert atomic_type((-1, -1e-12), 12, tiny2) == 7


def test_orientation_bin_zero_offset(tiny2):
    with pytest.raises(CoincidentPartsError, match="'a' and 'b' coincide.*zero offset") as info:
        atomic_type((0, 0), 12, tiny2)
    assert info.value.row == 0


def test_orientation_bin_scale_invariant(tiny2):
    rng = np.random.default_rng(1)
    for _ in range(50):
        offset = rng.normal(size=2)
        if np.allclose(offset, 0):
            continue
        factor = float(rng.random() * 10 + 0.1)
        assert atomic_type(offset, 12, tiny2) == atomic_type(offset * factor, 12, tiny2)


def test_fit_relation_clusters_two_blobs():
    rng = np.random.default_rng(2)
    a = rng.normal((0, 0, 0, 0), 0.1, (20, 4))
    b = rng.normal((5, 5, 5, 5), 0.1, (20, 4))
    vectors = np.vstack([a, b])
    centroids = fit_relation_clusters(vectors, 2, seed=0)
    types_a = {oracles.naive_nearest_centroid(v, centroids) for v in a}
    types_b = {oracles.naive_nearest_centroid(v, centroids) for v in b}
    assert len(types_a) == 1 and len(types_b) == 1
    assert types_a != types_b


def test_assign_relation_type_centroid_identity(tiny3):
    """A composite part's type is the index of the centroid equal to its
    relation vector, next to centroids a little off it."""
    points = np.array([base_pose_tiny3(0)])
    # the box of part 11 spans (13, 2)-(17, 9), the anchor of part 10 is
    # (2, 2) and the object size 11
    vector = np.array([11.0, 0.0, 15.0, 7.0]) / 11.0
    off = vector + 0.01
    for centroids, expected in (([vector, off], 1), ([off, vector], 2)):
        model = RelationTypeModel(8, {10: np.array(centroids), 11: np.array([off, vector])})
        assert model.labels(points, tiny3)[10].tolist() == [expected]


TYPED_HIERARCHIES = {
    name: load_hierarchy(source)
    for name, source in (
        ("tiny2", tiny2_doc()), ("tiny3", tiny3_doc()), ("limbs4", limbs4_doc()),
        ("bird", CONFIG_DIR / "bird_hierarchy.json"),
        ("human", CONFIG_DIR / "human_hierarchy.json"),
    )
}


@settings(max_examples=200)
@given(data=st.data())
def test_labels_match_scalar_oracle_bit_for_bit(data):
    """`RelationTypeModel.labels` gives every label of the scalar rule, one
    (row, part) at a time, at 2 to 32 atomic bins.  Points are arbitrary
    floats, integers, or a scaled 9 x 9 lattice, on which most offsets are
    axis-aligned or diagonal and centroid distances often tie.  Where the
    scalar rule meets a zero offset, `labels` raises instead."""
    hierarchy = TYPED_HIERARCHIES[data.draw(st.sampled_from(sorted(TYPED_HIERARCHIES)))]
    shape = (data.draw(st.integers(1, 5)), hierarchy.atomic_count, 2)
    kind = data.draw(st.sampled_from(["float", "integer", "lattice"]))
    if kind == "float":
        values = st.floats(-1e3, 1e3, allow_subnormal=False)
    elif kind == "integer":
        values = st.integers(-60, 60)
    else:
        values = st.integers(-4, 4)
    coordinates = data.draw(st.lists(values, min_size=math.prod(shape), max_size=math.prod(shape)))
    points = np.reshape(np.array(coordinates, dtype=float), shape)
    if kind == "lattice":
        points *= data.draw(st.sampled_from([1.0, 0.1, 1 / 3, 2.5, 1e-3]))
    assume(np.all(object_size(points) > 0))
    centroid = st.lists(
        st.one_of(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]), st.floats(-2, 2)),
        min_size=4, max_size=4,
    )
    model = RelationTypeModel(data.draw(st.integers(2, 32)), {
        node.id: np.array(data.draw(st.lists(centroid, min_size=2, max_size=6)))
        for node in hierarchy.composite_nodes if node.id != hierarchy.root.id
    })
    try:
        expected = oracles.naive_relation_labels(points, hierarchy, model)
    except ValueError as exc:
        assert "zero offset" in str(exc)
        with pytest.raises(CoincidentPartsError):
            model.labels(points, hierarchy)
        return
    labels = model.labels(points, hierarchy)
    assert list(labels) == list(expected)
    assert {part: column.tolist() for part, column in labels.items()} == expected


@pytest.mark.parametrize("doc", [tiny2_doc, tiny3_doc])
@pytest.mark.parametrize("field, value", [
    ("atomic_bins", 1), ("composite_bins", 1), ("composite_bins", 0), ("seed", -1),
])
def test_type_model_arguments_are_checked_by_name(doc, field, value):
    """Whatever the depth, and before any annotation is read.  tiny2 has no
    composite part to fit, and used to accept a negative seed and too few
    composite bins; on tiny3 a negative seed failed inside numpy."""
    arguments = {"atomic_bins": 8, "composite_bins": 2, "seed": 0, field: value}
    least = 0 if field == "seed" else 2
    with pytest.raises(ValueError, match=re.escape(f"{field} must be >= {least}, got {value}")):
        RelationTypeModel.build(load_hierarchy(doc()), None, **arguments)


@pytest.mark.parametrize("field, value", [
    ("atomic_bins", 1001), ("atomic_bins", 10**20), ("composite_bins", 10**400),
], ids=["atomic-1001", "atomic-1e20", "composite-1e400"])
def test_type_model_bin_counts_are_bounded(field, value):
    """At most `TYPE_BINS_MAX` types per part, checked before any annotation
    is read: 10**20 atomic bins used to overflow in `labels`, and 10**400
    in its float division."""
    arguments = {"atomic_bins": 8, "composite_bins": 2, "seed": 0, field: value}
    with pytest.raises(ValueError, match=re.escape(f"{field} must be <= 1000, got {value}")):
        RelationTypeModel.build(load_hierarchy(tiny3_doc()), None, **arguments)
    assert appearance.TYPE_BINS_MAX == 1000


def test_fit_relation_clusters_duplicates_single_cluster():
    vectors = np.tile([1.0, 2.0, 3.0, 4.0], (6, 1))
    centroids = fit_relation_clusters(vectors, 1, seed=3)
    assert np.allclose(centroids, [[1, 2, 3, 4]])


def test_fit_relation_clusters_too_few_vectors():
    with pytest.raises(ValueError, match="at least"):
        fit_relation_clusters(np.zeros((2, 4)), 3)


def test_fit_relation_clusters_deterministic():
    rng = np.random.default_rng(4)
    vectors = rng.random((30, 4))
    a = fit_relation_clusters(vectors, 3, seed=9)
    b = fit_relation_clusters(vectors, 3, seed=9)
    assert np.array_equal(a, b)


def test_round_trip_two_scales(tmp_path, tiny3):
    rng = np.random.default_rng(5)
    stack = random_stack(
        tiny3, {p: 2 for p in tiny3.atomic_ids}, {10: 3, 11: 3}, rng,
        grid=(7, 9), scales=(1.0, 2.0),
    )
    path = tmp_path / "maps.hpsm"
    save_score_maps(stack, path)
    loaded = load_score_maps(path)
    assert loaded.n_scales == 2
    save_score_maps(loaded, tmp_path / "again.hpsm")
    assert (tmp_path / "maps.hpsm").read_bytes() == (tmp_path / "again.hpsm").read_bytes()
    for a, b in zip(stack.scales, loaded.scales):
        assert np.array_equal(a.atomic, b.atomic)
        assert np.array_equal(a.channel_table, b.channel_table)
        for part in a.composite:
            assert np.array_equal(a.composite[part], b.composite[part])


def test_loaded_tensors_are_writable_and_independent(tmp_path, tiny3):
    stack = random_stack(
        tiny3, {p: 2 for p in tiny3.atomic_ids}, {10: 3, 11: 3}, np.random.default_rng(4),
        grid=(7, 9), scales=(1.0, 2.0),
    )
    path = tmp_path / "maps.hpsm"
    save_score_maps(stack, path)
    first, second = load_score_maps(path), load_score_maps(path)

    def tensors(s):
        for maps in s.scales:
            yield maps.atomic
            for part in sorted(maps.composite):
                yield maps.composite[part]

    for saved, a, b in zip(tensors(stack), tensors(first), tensors(second)):
        for loaded in (a, b):
            assert loaded.dtype == np.float32 and loaded.flags.c_contiguous
            assert loaded.flags.writeable
            assert loaded.tobytes() == saved.astype(np.float32).tobytes()
        before = b.copy()
        a[0, 0, 0] += 1.0
        assert b.tobytes() == before.tobytes()


def test_load_rejects_truncation_at_every_section_boundary(tmp_path, tiny3):
    stack = random_stack(
        tiny3, {p: 2 for p in tiny3.atomic_ids}, {10: 3, 11: 3}, np.random.default_rng(6),
        grid=(7, 9), scales=(1.0, 2.0),
    )
    atomic = stack.scales[1].atomic  # the second scale stores all rows but row 3
    atomic[0] += atomic[3]
    atomic[3] = 0.0
    path = tmp_path / "maps.hpsm"
    save_score_maps(stack, path)
    data = path.read_bytes()
    # magic, then version and scale count; per scale: header, channel table,
    # stored-row count, stored row ids, stored rows, composite count, and per
    # composite part header and data
    sections = [4, 8]
    for maps, stored in zip(stack.scales, (13, 12)):
        c, h, w = maps.atomic.shape
        sections += [20, 8 * c, 4, 4 * stored, 4 * stored * h * w, 4]
        for part in sorted(maps.composite):
            sections += [8, 4 * maps.composite[part].size]
    boundaries = np.cumsum(sections)
    assert boundaries[-1] == len(data)
    for cut in [0, *boundaries[:-1].tolist()]:
        path.write_bytes(data[:cut])
        with pytest.raises(ScoreMapError, match="truncated"):
            load_score_maps(path)


def test_load_rejects_version_1(tmp_path, tiny3):
    """A file of the layout that stored every atomic row is rejected by its
    version; no reader of that layout is kept."""
    stack = random_stack(tiny3, {p: 2 for p in tiny3.atomic_ids}, {10: 3}, np.random.default_rng(2))
    path = tmp_path / "old.hpsm"
    path.write_bytes(hpsm_old_bytes(stack, 1, tiny3))
    with pytest.raises(ScoreMapError, match="^unsupported score-map version 1$"):
        load_score_maps(path)


def test_load_rejects_version_2(tmp_path, tiny3):
    """A file of the layout whose composite blocks held each part's level is
    rejected by its version; with those words taken out, its bytes are the
    current layout's."""
    stack = random_stack(tiny3, {p: 2 for p in tiny3.atomic_ids}, {10: 3, 11: 2},
                         np.random.default_rng(2))
    old = hpsm_old_bytes(stack, 2, tiny3)
    (tmp_path / "old.hpsm").write_bytes(old)
    with pytest.raises(ScoreMapError, match="^unsupported score-map version 2$"):
        load_score_maps(tmp_path / "old.hpsm")
    save_score_maps(stack, tmp_path / "new.hpsm")
    new = (tmp_path / "new.hpsm").read_bytes()
    levels = [old.index(struct.pack("<III", part, 2, types)) + 4
              for part, types in ((10, 3), (11, 2))]
    assert new == b"".join([old[:4], struct.pack("<I", 3), old[8 : levels[0]],
                            old[levels[0] + 4 : levels[1]], old[levels[1] + 4 :]])


def no_map(*args):
    raise AssertionError("a memory map was made")


@pytest.mark.parametrize("channels, grid, stored, values, message", [
    (60_000, (96, 96), [0], None,
     r"^scale 1.0: atomic tensor of n_channels x H x W = 60000 x 96 x 96 float32 values "
     r"exceeds 1073741824 bytes$"),
    (4, (3, 3), [], None, r"^scale 1.0: n_stored must lie in \[1, 4\], got 0$"),
    (2, (3, 3), [0, 1, 2], None, r"n_stored must lie in \[1, 2\], got 3$"),
    (4, (3, 3), [0, 0], None, "stored row ids must increase strictly and stay below 4$"),
    (4, (3, 3), [2, 1], None, "stored row ids must increase strictly"),
    (4, (3, 3), [0, 4], None, "stored row ids must increase strictly"),
    (4, (3, 3), [0, 2], [np.ones((3, 3)), np.zeros((3, 3))], "stored row 2 holds only [+]0.0$"),
])
def test_load_checks_the_stored_rows_before_any_map(tmp_path, monkeypatch, channels, grid, stored,
                                                   values, message):
    """The rows a file leaves out take none of its bytes, so the tensor
    size (at most 2**30 bytes), the stored-row count (at least one, at most
    n_channels) and ids (strictly increasing, below n_channels) are checked
    before any memory map is made, and a stored row must hold a set bit."""
    path = tmp_path / "bad.hpsm"
    path.write_bytes(sparse_hpsm_bytes(channels, grid, stored, values))
    monkeypatch.setattr(appearance, "_mapped_array", no_map)
    with pytest.raises(ScoreMapError, match=message):
        load_score_maps(path)


def test_loaded_rows_left_out_read_plus_zero_and_a_dense_scale_maps_nothing(
    tmp_path, monkeypatch, tiny3
):
    """A file that stores rows 0 and 2 of four loads them there and +0.0 in
    the others; a scale that stores every row is read with no memory map."""
    values = np.stack([np.full((3, 3), 0.25), np.full((3, 3), 0.75)])
    path = tmp_path / "sparse.hpsm"
    path.write_bytes(sparse_hpsm_bytes(4, (3, 3), [0, 2], values))
    atomic = load_score_maps(path).scales[0].atomic
    assert atomic.tobytes() == np.stack(
        [values[0], np.zeros((3, 3)), values[1], np.zeros((3, 3))]
    ).astype(np.float32).tobytes()
    assert atomic.flags.writeable and atomic.flags.c_contiguous
    stack = random_stack(tiny3, {p: 2 for p in tiny3.atomic_ids}, {10: 3}, np.random.default_rng(3))
    save_score_maps(stack, tmp_path / "dense.hpsm")
    monkeypatch.setattr(appearance, "_mapped_array", no_map)
    loaded = load_score_maps(tmp_path / "dense.hpsm")
    assert loaded.scales[0].atomic.tobytes() == stack.scales[0].atomic.tobytes()


def test_load_rejects_bad_normalization(tmp_path):
    table = np.array([(0, 0), (1, 1)], dtype=np.uint32)
    atomic = np.full((2, 4, 4), 0.5, dtype=np.float32)
    atomic[0, 1, 3] = 0.4  # sums to 0.9 at (row=1, col=3)
    stack = ScoreMapStack([ScaleMaps(1.0, table, atomic)])
    path = tmp_path / "bad.hpsm"
    save_score_maps(stack, path)
    with pytest.raises(ScoreMapError, match=r"row=1, col=3"):
        load_score_maps(path)


HIGH = np.float32(1.0 + NORM_TOL)  # the largest value the range check accepts
EDGE_VALUES = [  # special values, and float32 values at both ends of the range check
    -0.0, math.nan, math.inf, -math.inf, 0.0, 1.0, -NORM_TOL,
    *np.nextafter(np.float32(-NORM_TOL), np.float32([-1.0, 1.0])).tolist(),
    *np.nextafter(HIGH, np.float32([0.0, 2.0])).tolist(), float(HIGH),
]
SUM_OFFSETS = [  # per-pixel sums, as offsets from 1: near 1, and near 1 +/- NORM_TOL
    0.0, 1e-7, -1e-7, 0.5, -0.3,
    *[sign * (NORM_TOL + d) for sign in (1, -1) for d in (0.0, 1e-8, -1e-8, 3e-7, -3e-7, -3e-5)],
]


def normalization_tensor(seed, channels, grid, offset, edits):
    """(channels, *grid) float32 tensor whose pixels share out sums unevenly,
    a third of them zeros: a random third of the pixels sum to 1 + `offset`,
    the others to within 1e-4 of 1.  Then each (flat position, value) of
    `edits` is written over one entry."""
    rng = np.random.default_rng(seed)
    weights = rng.random((channels, *grid)) ** 4 * (rng.random((channels, *grid)) < 2 / 3)
    weights[0] += 1e-6
    target = 1.0 + np.where(rng.random(grid) < 1 / 3, offset, rng.uniform(-1e-4, 1e-4, grid))
    data = (weights / weights.sum(axis=0) * target).astype(np.float32)
    for position, value in edits:
        data.flat[position % data.size] = value
    return data


def normalization_stack(seed, atomic_channels, composite_types, grid, offsets, atomic_edits,
                        composite_edits):
    """One-scale stack of a `normalization_tensor` atomic tensor (background
    plus part 1's types) and, if `composite_types`, one composite block."""
    table = np.array([(0, 0)] + [(1, t) for t in range(1, atomic_channels)], dtype=np.uint32)
    atomic = normalization_tensor(seed, atomic_channels, grid, offsets[0], atomic_edits)
    composite = {}
    if composite_types:
        data = normalization_tensor(seed + 1, composite_types, grid, offsets[1], composite_edits)
        composite[10] = data
    return ScoreMapStack([ScaleMaps(1.0, table, atomic, composite)])


def validate(stack):
    """The loader's check, `appearance._validate`, screening whole tensors."""
    appearance._validate(stack, [maps.atomic for maps in stack.scales])


def validate_outcome(check, stack):
    """None if `check(stack)` passes, else its ScoreMapError message."""
    try:
        check(stack)
    except ScoreMapError as exc:
        return str(exc)
    return None


EDITS = st.lists(
    st.tuples(st.integers(0, 10**6), st.sampled_from(EDGE_VALUES)), max_size=3
).map(lambda edits: [] if len(edits) == 3 else edits)  # a quarter of tensors are unedited


@settings(max_examples=400, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 2),
    atomic_channels=st.integers(1, 300),
    composite_types=st.one_of(st.none(), st.integers(1, 300)),
    grid=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    offsets=st.tuples(st.sampled_from(SUM_OFFSETS), st.sampled_from(SUM_OFFSETS)),
    atomic_edits=EDITS,
    composite_edits=EDITS,
)
def test_screened_validate_matches_three_pass_oracle(seed, atomic_channels, composite_types, grid,
                                                     offsets, atomic_edits, composite_edits):
    """`validate` accepts exactly the stacks the three-pass check accepts,
    and rejects the others with its message: on sums within a few ulps of
    the tolerance edges, values down to -NORM_TOL, -0.0, NaN, +/-inf, and
    one float32 ulp either side of the largest accepted value."""
    stack = normalization_stack(seed, atomic_channels, composite_types, grid, offsets,
                                atomic_edits, composite_edits)
    assert validate_outcome(validate, stack) == validate_outcome(
        oracles.three_pass_validate, stack
    )


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 2),
    atomic_channels=st.integers(1, 40),
    composite_types=st.one_of(st.none(), st.integers(1, 40)),
    grid=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    offsets=st.tuples(st.sampled_from(SUM_OFFSETS), st.sampled_from(SUM_OFFSETS)),
    atomic_edits=EDITS,
    cleared=st.lists(st.tuples(st.integers(0, 39), st.sampled_from([0.0, -0.0])), max_size=40),
)
@example(seed=0, atomic_channels=2, composite_types=None, grid=(1, 1), offsets=(0.0, 0.0),
         atomic_edits=[], cleared=[(1, 0.0), (0, 0.0)])  # no row holds a set bit
def test_load_of_stored_rows_matches_validate_of_the_whole_tensor(
    tmp_path_factory, seed, atomic_channels, composite_types, grid, offsets, atomic_edits, cleared
):
    """A saved file stores exactly the atomic rows that hold a set bit, and
    loading it accepts or rejects, with the same message, as `validate` of
    the whole stack: on rows set to +0.0 or -0.0 (their mass moved to the
    background), rows that are +0.0 by chance, sums near the tolerance
    edges and special values.  An accepted file loads bit-exact.  A file
    that stores no row is rejected by its stored-row count."""
    stack = normalization_stack(seed, atomic_channels, composite_types, grid, offsets,
                                atomic_edits, [])
    atomic = stack.scales[0].atomic
    for row, zero in cleared:
        row %= atomic_channels
        moved, atomic[row] = atomic[row].copy(), zero
        if row:
            atomic[0] += moved
    path = tmp_path_factory.getbasetemp() / "stored.hpsm"
    save_score_maps(stack, path)
    data = path.read_bytes()
    at = 32 + 8 * atomic_channels  # magic, version, scale count, scale header, channel table
    (n_stored,) = struct.unpack_from("<I", data, at)
    lit = np.flatnonzero(atomic.view(np.uint32).reshape(atomic_channels, -1).any(axis=1))
    assert struct.unpack_from(f"<{n_stored}I", data, at + 4) == tuple(lit.tolist())
    expected = validate_outcome(validate, stack)
    if not lit.size:
        expected = f"scale 1.0: n_stored must lie in [1, {atomic_channels}], got 0"
    assert validate_outcome(load_score_maps, path) == expected
    if expected is None:
        assert load_score_maps(path).scales[0].atomic.tobytes() == atomic.tobytes()


def test_validate_inputs_reach_every_screen_outcome():
    """The property test's tensors reach all four outcomes: screened, failing
    a screen but passing the exact check (on the range screen and on the sum
    screen), and rejected for the range and for the sums."""
    rng = np.random.default_rng(5)
    seen = set()
    for _ in range(400):
        channels = int(rng.integers(1, 301))
        edits = [(int(rng.integers(10**6)), EDGE_VALUES[int(rng.integers(len(EDGE_VALUES)))])
                 for _ in range(int(rng.integers(0, 2)))]
        offset = SUM_OFFSETS[int(rng.integers(len(SUM_OFFSETS)))]
        data = normalization_tensor(int(rng.integers(2**32 - 1)), channels, (3, 3), offset, edits)
        stack = ScoreMapStack([ScaleMaps(1.0, np.array(
            [(0, 0)] + [(1, t) for t in range(1, channels)], dtype=np.uint32), data)])
        message = validate_outcome(oracles.three_pass_validate, stack)
        if message is not None:
            seen.add("sum rejected" if "sum to" in message else "range rejected")
        elif _screened(data):
            seen.add("screened")
        else:
            in_range = data.view(np.uint32).max() <= HIGH.view(np.uint32)
            seen.add("passed after the sum screen" if in_range else "passed after the range screen")
    assert seen == {"screened", "passed after the sum screen", "passed after the range screen",
                    "range rejected", "sum rejected"}


@pytest.mark.parametrize("value, sums", [
    (-0.0, 1.0),  # fails the range screen
    (-NORM_TOL / 2, 1.0),  # fails the range screen
    (0.0, float(np.nextafter(HIGH, np.float32(0.0)))),  # fails the sum screen
])
def test_load_accepts_maps_that_fail_only_a_screen(tmp_path, value, sums):
    """A file whose tensor fails a screen but passes the exact check loads
    bit-exact: one entry is written over, and one pixel's two channels sum
    to `sums` in float64."""
    table = np.array([(0, 0), (1, 1)], dtype=np.uint32)
    atomic = np.full((2, 4, 4), 0.5, dtype=np.float32)
    atomic[0, 0, 0] = value
    atomic[1, 0, 0] = sums - value
    atomic[:, 2, 2] = [0.5, np.float32(sums - 0.5)]
    stack = ScoreMapStack([ScaleMaps(1.0, table, atomic)])
    assert not _screened(stack.scales[0].atomic)
    path = tmp_path / "edge.hpsm"
    save_score_maps(stack, path)
    save_score_maps(load_score_maps(path), tmp_path / "again.hpsm")
    assert (tmp_path / "again.hpsm").read_bytes() == path.read_bytes()


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.hpsm"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ScoreMapError, match="magic"):
        load_score_maps(path)


def two_scale_stack():
    """A small two-scale stack with two composite blocks per scale."""
    h, w = 3, 4
    table = np.array([(0, 0), (1, 1), (1, 2), (2, 1)], dtype=np.uint32)
    rng = np.random.default_rng(8)
    scales = []
    for scale in (1.0, 2.0):
        atomic = rng.random((4, h, w))
        composite = {}
        for part in (10, 11):
            data = rng.random((2, h, w))
            composite[part] = data / data.sum(axis=0)
        scales.append(ScaleMaps(scale, table, atomic / atomic.sum(axis=0), composite))
    return ScoreMapStack(scales)


def unsorted_channel_stack(tiny_tail: bool = False):
    """Two scales whose channel tables list the parts out of order, and part
    2's types out of order too; part 2 has 11 types.  Values span six
    decades, so sums in another order round differently.  With `tiny_tail`
    part 2's first channel in table order is 1 and its other ten are 2**-53:
    added in table order they leave 1, in any other order more than 1."""
    part_of = [2, 1, 2, 0, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1, 2]
    type_of = {1: iter([2, 1, 3]), 2: iter([5, 1, 7, 2, 11, 3, 4, 6, 8, 9, 10])}
    table = np.array([(p, 0 if p == 0 else next(type_of[p])) for p in part_of], dtype=np.uint32)
    rng = np.random.default_rng(21)
    scales = []
    for scale, grid in ((1.0, (6, 7)), (2.0, (5, 3))):
        atomic = (rng.random((len(table),) + grid) ** 3) * 10.0 ** rng.uniform(-6, 0, grid)
        atomic /= atomic.sum(axis=0)
        if tiny_tail:
            part2 = np.flatnonzero(table[:, 0] == 2)
            atomic[part2[0]] = 1.0
            atomic[part2[1:]] = 2.0**-53
        scales.append(ScaleMaps(scale, table, atomic))
    return ScoreMapStack(scales)


@pytest.mark.parametrize("tiny_tail", [False, True])
@pytest.mark.parametrize("built", [(), (1,), (2,)])
def test_marginals_at_mixed_parts_equal_full_maps_bit_for_bit(built, tiny_tail):
    """One `marginals_at` gather, over one part's pixels, over pairs of
    several parts or over part ids broadcast against a pixel grid, gives
    each pair the bits of its part's full map, whether the scale's marginal
    table is unbuilt (the channels are summed in table order) or built by
    asking `marginal` for part 1 or part 2 first."""
    size = [maps.atomic[0].size for maps in unsorted_channel_stack().scales]
    inputs = []  # (scale index, parts, pixels)
    for count in (1, 2, 5, 9, 40):
        rng = np.random.default_rng(count)
        for _ in range(2):
            for scale_index in (0, 1):
                pixel = rng.integers(0, size[scale_index], count)
                inputs += [(scale_index, np.full(count, part), pixel) for part in (1, 2)]
    rng = np.random.default_rng(3)
    for scale_index in (0, 1):
        parts = rng.choice([1, 2], 30)
        inputs.append((scale_index, parts, rng.integers(0, size[scale_index], 30)))
    for scale_index in (0, 1):
        inputs.append((scale_index, np.array([[2], [1]]), rng.integers(0, size[scale_index], (2, 7))))
    stack = unsorted_channel_stack(tiny_tail)
    for scale_index in (0, 1):
        for part in built:
            stack.marginal(part, scale_index)
    gathered = [stack.marginals_at(parts, pixel, index) for index, parts, pixel in inputs]
    for (index, parts, pixel), values in zip(inputs, gathered):
        parts = np.broadcast_to(parts, pixel.shape)
        full = np.array([
            stack.marginal(int(part), index).ravel()[p] for part, p in zip(parts.flat, pixel.flat)
        ]).reshape(pixel.shape)
        assert values.dtype == np.float64
        assert values.tobytes() == full.tobytes()
        if tiny_tail:
            assert np.all(values[parts == 2] == 1.0)
    with pytest.raises(KeyError, match="no channels for part 0"):
        stack.marginals_at([1, 0], [0, 0], 0)


def test_log_marginals_at_equals_floored_log_of_full_map():
    stack = unsorted_channel_stack()
    points = np.array([[[0.2, 0.4], [5.6, 4.5], [3.0, 2.0], [-1.0, 0.0]],
                       [[6.4, 5.0], [1.0, 1.0], [2.5, 3.5], [0.0, 9.0]]])
    values = log_marginals_at(stack, [2, 1], points, 0)
    for row, part in enumerate((2, 1)):
        full = np.log(np.maximum(stack.marginal(part, 0), PROB_FLOOR))
        for k, (x, y) in enumerate(points[row]):
            col, r = int(np.floor(x + 0.5)), int(np.floor(y + 0.5))
            expected = full[r, col] if 0 <= r < 6 and 0 <= col < 7 else LOG_FLOOR
            assert values[row, k] == expected


def corrupt_hpsm(kind: str, tmp_path):
    """HPSM file of `two_scale_stack` with one field made invalid."""
    stack = two_scale_stack()
    maps = stack.scales[1]
    if kind == "NaN pixel":
        maps.atomic[2, 1, 1] = np.nan
    elif kind == "NaN composite pixel":
        maps.composite[10][0, 0, 0] = np.nan
    elif kind in ("NaN scale", "inf scale"):
        maps.scale = math.nan if kind == "NaN scale" else math.inf
    elif kind == "0 channels":
        maps.channel_table, maps.atomic = np.zeros((0, 2), np.uint32), np.zeros((0, 3, 4))
        maps.composite = {}
    elif kind in ("H = 0", "W = 0"):
        shape = (4, 0, 4) if kind == "H = 0" else (4, 3, 0)
        maps.atomic, maps.composite = np.zeros(shape, np.float32), {}
    elif kind == "0-type composite":
        maps.composite[10] = np.zeros((0, 3, 4), np.float32)
    path = tmp_path / "bad.hpsm"
    save_score_maps(stack, path)
    if kind == "repeated composite part":  # the last block, part 11's, names part 10
        data = bytearray(path.read_bytes())
        data[-8 - 4 * maps.composite[11].size : -4 - 4 * maps.composite[11].size] = (
            struct.pack("<I", 10)
        )
        path.write_bytes(bytes(data))
    return path


@pytest.mark.parametrize("kind, message", [
    ("NaN pixel", "NaN"),
    ("NaN composite pixel", "NaN"),
    ("NaN scale", "finite and positive"),
    ("inf scale", "finite and positive"),
    ("0 channels", "empty atomic tensor"),
    ("H = 0", "empty atomic tensor"),
    ("W = 0", "empty atomic tensor"),
    ("0-type composite", "empty maps"),
    ("repeated composite part", "out of order or repeated"),
])
def test_load_rejects_invalid_field(kind, message, tmp_path):
    with pytest.raises(ScoreMapError, match=message):
        load_score_maps(corrupt_hpsm(kind, tmp_path))


def test_scale_maps_reject_composite_grid_mismatch():
    table = np.array([(0, 0), (1, 1)], dtype=np.uint32)
    composite = {7: np.full((2, 4, 5), 0.5)}
    with pytest.raises(ScoreMapError, match="do not match the atomic grid"):
        ScaleMaps(1.0, table, np.full((2, 5, 4), 0.5), composite)


HPSM_WORDS = st.one_of(
    st.integers(0, 2**32 - 1),
    # small counts and sizes, ids, and float high words (NaN, 1.0, -1.0)
    st.sampled_from([0, 1, 2, 3, 4, 10, 11, 2**31, 2**32 - 1, 0x7FC00000, 0x3F800000,
                     0x7FF80000, 0x3FF00000, 0xBFF00000]),
)


def header_words(stack) -> list[int]:
    """Byte offsets of the header words of an HPSM file: version, scale
    count, and per scale the two words of the scale, H, W, the channel,
    stored-row and composite counts, each stored row id, and each composite
    block's part and type count.  Every atomic row of `stack` must
    hold a set bit, so that all are stored."""
    offsets, pos = [4, 8], 12
    for maps in stack.scales:
        c, h, w = maps.atomic.shape
        offsets += [pos, pos + 4, pos + 8, pos + 12, pos + 16]
        pos += 20 + 8 * c
        offsets += [pos + 4 * k for k in range(c + 1)]
        pos += 4 + 4 * c + 4 * c * h * w
        offsets.append(pos)
        pos += 4
        for part in sorted(maps.composite):
            offsets += [pos, pos + 4]
            pos += 8 + 4 * maps.composite[part].size
    return offsets


@settings(max_examples=300)
@given(data=st.data())
def test_corrupt_hpsm_reloads_bit_exact_or_raises_score_map_error(data, tmp_path_factory):
    stack = two_scale_stack()
    path = tmp_path_factory.getbasetemp() / "corrupt.hpsm"
    save_score_maps(stack, path)
    original = path.read_bytes()
    kind = data.draw(st.sampled_from(["word", "bit", "truncate"]))
    mutated = bytearray(original)
    if kind == "truncate":
        del mutated[data.draw(st.integers(0, len(original) - 1)):]
    elif kind == "bit":
        bit = data.draw(st.integers(0, 8 * len(original) - 1))
        mutated[bit // 8] ^= 1 << (bit % 8)
    else:
        at = data.draw(st.one_of(
            st.sampled_from(header_words(stack)), st.integers(0, len(original) - 4)
        ))
        mutated[at : at + 4] = struct.pack("<I", data.draw(HPSM_WORDS))
    path.write_bytes(bytes(mutated))
    try:
        loaded = load_score_maps(path)
    except ScoreMapError:
        return
    save_score_maps(loaded, path)
    assert path.read_bytes() == mutated
