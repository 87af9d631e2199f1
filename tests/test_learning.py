import math
import struct
import tempfile
from dataclasses import replace
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierpose import (
    Annotation,
    LibraryError,
    RelationTypeModel,
    TrainingSet,
    augment_positives,
    best_fit_pose,
    build_library,
    generate_negatives,
    load_annotations,
    load_hierarchy,
    load_library,
    save_annotations,
    save_library,
    train_weights,
)
from hierpose.hierarchy import object_size
from hierpose.learning import hinge_objective

import oracles
from conftest import (
    CONFIG_DIR, annotations_tiny3, base_pose_tiny3, human_annotations, library_for,
)


def test_build_library_sizes_human(human_hierarchy):
    annotations = human_annotations(3)
    model = RelationTypeModel.build(
        human_hierarchy, annotations, atomic_bins=12, composite_bins=2
    )
    library = build_library(annotations[:1], human_hierarchy, model)
    assert len(human_hierarchy.composite_nodes) == 8
    for node in human_hierarchy.composite_nodes:
        assert len(library.arrays(node.id).sources) == 1


def test_build_library_counts_scale_with_augmentation(tiny3):
    annotations = annotations_tiny3(2)
    doubled = annotations + [
        Annotation(a.image + "_flip", a.points * (-1, 1) + (30, 0)) for a in annotations
    ]
    library, _ = library_for(tiny3, doubled)
    for node in tiny3.composite_nodes:
        assert len(library.arrays(node.id).sources) == 4


def test_build_library_round_trip_similarity(tiny3):
    annotations = annotations_tiny3(3)
    library, _ = library_for(tiny3, annotations)
    for row, ann in enumerate(annotations):
        for node in tiny3.composite_nodes:
            assert library.arrays(node.id).sources[row] == ann.image
            index, value = best_fit_pose(ann.points, node.id, library, tiny3)
            assert index == row
            assert value >= -1e-9


def test_build_library_rejects_degenerate(tiny3):
    annotations = annotations_tiny3(3)
    library, model = library_for(tiny3, annotations)
    bad = Annotation("dup", np.ones((6, 2)))
    with pytest.raises(ValueError, match="degenerate"):
        build_library([bad], tiny3, model)


def test_augment_zero_jitter_identical(tiny3):
    annotations = annotations_tiny3(2)
    out = augment_positives(annotations, np.random.default_rng(0), 0.0)
    assert len(out) == 2
    for src, dst in zip(annotations, out):
        assert np.array_equal(src.points, dst.points)
        assert dst is not src


def test_augment_displacement_bounded(tiny3):
    annotations = annotations_tiny3(1)
    limit = 0.03 * object_size(annotations[0].points)
    rng = np.random.default_rng(1)
    out = augment_positives(annotations, rng, 0.03, copies=1000)
    assert len(out) == 1000
    for ann in out:
        displacement = np.linalg.norm(ann.points - annotations[0].points, axis=1)
        assert np.all(displacement <= limit + 1e-12)


def test_augment_deterministic(tiny3):
    annotations = annotations_tiny3(2)
    a = augment_positives(annotations, np.random.default_rng(7), 0.05, copies=3)
    b = augment_positives(annotations, np.random.default_rng(7), 0.05, copies=3)
    assert all(np.array_equal(x.points, y.points) for x, y in zip(a, b))


def test_augment_does_not_mutate_inputs(tiny3):
    annotations = annotations_tiny3(1)
    before = annotations[0].points.copy()
    augment_positives(annotations, np.random.default_rng(2), 0.1, copies=5)
    assert np.array_equal(annotations[0].points, before)


def test_negatives_rigid_translate_without_noise():
    pose = base_pose_tiny3(0)
    ann = Annotation("img", pose, size=(200, 200))
    out = generate_negatives([ann], None, np.random.default_rng(3), noise_sigma=0.0)
    assert len(out) == 1
    offsets = out[0].points - pose
    assert np.allclose(offsets, offsets[0])


def test_negatives_iou_bound():
    pose = base_pose_tiny3(1)
    ann = Annotation("img", pose, size=(120, 120))
    out = generate_negatives(
        [ann], None, np.random.default_rng(4), per_positive=25, noise_sigma=0.5
    )
    assert out
    from hierpose.learning import _root_box

    true_box = _root_box(pose)
    for neg in out:
        assert _root_box(neg.points).iou(true_box) < 0.3


def test_negatives_deterministic_and_pure():
    ann = Annotation("img", base_pose_tiny3(2), size=(150, 150))
    before = ann.points.copy()
    a = generate_negatives([ann], None, np.random.default_rng(5), per_positive=4)
    b = generate_negatives([ann], None, np.random.default_rng(5), per_positive=4)
    assert all(np.array_equal(x.points, y.points) for x, y in zip(a, b))
    assert np.array_equal(ann.points, before)


def test_negatives_skip_tiny_image():
    pose = base_pose_tiny3(0)
    ann = Annotation("img", pose, size=(10, 10))  # no room to displace
    with pytest.warns(UserWarning, match="too small"):
        out = generate_negatives([ann], None, np.random.default_rng(6))
    assert out == []


def separable_set(n=40, dim=4):
    rng = np.random.default_rng(8)
    features = []
    labels = []
    for _ in range(n):
        pos = np.zeros(dim)
        pos[0] = 1.0 + 0.1 * rng.random()
        pos[-1] = 1.0
        neg = np.zeros(dim)
        neg[1] = 1.0 + 0.1 * rng.random()
        neg[-1] = 1.0
        features.extend([pos, neg])
        labels.extend([1.0, -1.0])
    return TrainingSet(np.array(features), np.array(labels))


def test_train_weights_separable():
    training = separable_set()
    w, objective = train_weights(training, c=5.0, epochs=300, seed=0)
    margins = training.labels * (training.features @ w)
    assert np.all(margins > 0)
    assert np.min(w[:-1]) >= 0.0
    assert objective == pytest.approx(hinge_objective(w, training, 5.0))


def test_train_weights_identical_classes_degenerate():
    features = np.tile([1.0, 1.0], (10, 1))
    labels = np.array([1.0, -1.0] * 5)
    training = TrainingSet(features, labels)
    w, _ = train_weights(training, c=1.0, epochs=50, seed=1)
    margins = training.labels * (training.features @ w)
    accuracy = np.mean(margins > 0)
    assert accuracy <= 0.5


def test_train_weights_single_class_rejected():
    features = np.ones((4, 3))
    labels = np.ones(4)
    with pytest.raises(ValueError, match="both classes"):
        train_weights(TrainingSet(features, labels))


def test_train_weights_more_c_more_satisfied_margins():
    rng = np.random.default_rng(9)
    pos = rng.normal((1.5, 0.2), 0.8, (40, 2))
    neg = rng.normal((0.2, 1.5), 0.8, (40, 2))
    features = np.hstack([np.vstack([pos, neg]), np.ones((80, 1))])
    labels = np.concatenate([np.ones(40), -np.ones(40)])
    training = TrainingSet(features, labels)

    def satisfied(c):
        w, _ = train_weights(training, c=c, epochs=400, seed=2)
        return int(np.sum(training.labels * (training.features @ w) >= 1.0 - 1e-6))

    assert satisfied(2.0) >= satisfied(1.0)


def mixed_sign_set(rng, count, dim):
    """Random rows of both signs, labels +/-1 with both classes present; some
    columns pull their weight below zero, so the clamp fires."""
    features = rng.normal(0.0, 1.0, (count, dim))
    labels = np.where(np.arange(count) % 2 == 0, 1.0, -1.0)
    features[:, 0] += 0.8 * labels  # a useful positive weight
    features[:, 1] = 0.1 * features[:, 1] - 2.0 * labels  # wants a negative weight
    features[:, -1] = 1.0
    return TrainingSet(features, labels)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("c, epochs", [(0.1, 1), (1.0, 7), (5.0, 30), (40.0, 12)])
def test_train_weights_matches_naive_oracle_bit_for_bit(seed, c, epochs):
    rng = np.random.default_rng(100 + seed)
    training = mixed_sign_set(rng, int(rng.integers(6, 40)), int(rng.integers(3, 9)))
    w, objective = train_weights(training, c=c, epochs=epochs, seed=seed)
    expected_w, expected_objective = oracles.naive_train_weights(
        training, c=c, epochs=epochs, seed=seed
    )
    assert np.array_equal(w, expected_w)
    assert objective == expected_objective
    assert w.tobytes() == expected_w.tobytes()  # signed zeros too


def test_train_weights_matches_naive_oracle_where_clamp_fires():
    training = mixed_sign_set(np.random.default_rng(7), 30, 5)
    w, objective = train_weights(training, c=5.0, epochs=50, seed=4)
    expected_w, expected_objective = oracles.naive_train_weights(
        training, c=5.0, epochs=50, seed=4
    )
    assert w[1] == 0.0  # held at the bound by the clamp
    assert w.tobytes() == expected_w.tobytes()
    assert objective == expected_objective


def test_train_weights_matches_naive_oracle_on_separable_set():
    training = separable_set()
    w, objective = train_weights(training, c=5.0, epochs=300, seed=0)
    expected_w, expected_objective = oracles.naive_train_weights(
        training, c=5.0, epochs=300, seed=0
    )
    assert w.tobytes() == expected_w.tobytes()
    assert objective == expected_objective


def test_library_binary_round_trip(tmp_path, tiny3):
    annotations = annotations_tiny3(3)
    library, _ = library_for(tiny3, annotations)
    path = tmp_path / "lib.hpel"
    save_library(library, path)
    loaded = load_library(path, tiny3)
    save_library(loaded, tmp_path / "again.hpel")
    assert path.read_bytes() == (tmp_path / "again.hpel").read_bytes()
    assert sorted(loaded.nodes) == sorted(library.nodes)
    for node in tiny3.composite_nodes:
        a, b = library.arrays(node.id), loaded.arrays(node.id)
        assert a.sources == b.sources
        assert a.signature == b.signature
        for name in ("object_size", "locations", "geometry"):
            assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True)
        assert a.labels.keys() == b.labels.keys()
        for child in a.labels:
            assert np.array_equal(a.labels[child], b.labels[child])


def test_library_arrays_are_read_only(tiny3):
    library, _ = library_for(tiny3, annotations_tiny3(3))
    table = library.arrays(10)
    for values in (table.object_size, table.locations, table.geometry, table.labels[1]):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 0
    # the tables hold copies: the caller's arrays stay writable and apart
    locations = table.locations.copy()
    edited = replace(table, locations=locations)
    locations[0] = 0.0
    assert np.array_equal(edited.locations, table.locations, equal_nan=True)


def load_and_resave(data: bytes, hierarchy) -> bytes:
    """Load raw HPEL bytes and return what `save_library` writes back."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lib.hpel"
        path.write_bytes(data)
        save_library(load_library(path, hierarchy), path)
        return path.read_bytes()


def library_bytes(library) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lib.hpel"
        save_library(library, path)
        return path.read_bytes()


@lru_cache(maxsize=None)
def human_library_bytes():
    hierarchy = load_hierarchy(CONFIG_DIR / "human_hierarchy.json")
    library, _ = library_for(hierarchy, human_annotations(3))
    return hierarchy, library_bytes(library)


# small counts, sizes, labels, row and node ids, and float64 high words
# (NaN, -1.0, 1.0) alongside arbitrary words
WORDS = st.one_of(
    st.integers(0, 2**32 - 1),
    st.sampled_from([0, 1, 2, 3, 5, 7, 13, 14, 40, 2**31, 2**32 - 1,
                     0x7FF80000, 0xBFF00000, 0x3FF00000]),
)


@settings(max_examples=300)
@given(data=st.data())
def test_corrupt_library_reloads_bit_exact_or_raises_library_error(data):
    hierarchy, original = human_library_bytes()
    kind = data.draw(st.sampled_from(["word", "bit", "truncate"]))
    mutated = bytearray(original)
    if kind == "truncate":
        del mutated[data.draw(st.integers(0, len(original) - 1)):]
    elif kind == "bit":
        bit = data.draw(st.integers(0, 8 * len(original) - 1))
        mutated[bit // 8] ^= 1 << (bit % 8)
    else:
        at = data.draw(st.integers(0, len(original) - 4))
        mutated[at : at + 4] = struct.pack("<I", data.draw(WORDS))
    mutated = bytes(mutated)
    try:
        resaved = load_and_resave(mutated, hierarchy)
    except LibraryError:
        return
    assert resaved == mutated


def first_rows(table, count):
    """The first `count` exemplars of one node."""
    return replace(
        table, sources=table.sources[:count], object_size=table.object_size[:count],
        locations=table.locations[:count], geometry=table.geometry[:count],
        labels={child: values[:count] for child, values in table.labels.items()},
    )


def corrupt_tiny3_library(kind, hierarchy):
    """HPEL bytes of a tiny3 library with one field made invalid.  The
    edited tables are written through a namespace, not an `ExemplarLibrary`,
    so that only `load_library` checks them."""
    library, _ = library_for(hierarchy, annotations_tiny3(3))
    nodes = dict(library.nodes)
    first = nodes[10]
    locations = first.locations.copy()
    labels = {child: values.copy() for child, values in first.labels.items()}
    sizes = first.object_size.copy()
    if kind == "atomic node":
        nodes[1] = nodes.pop(10)
    elif kind == "unknown node":
        nodes[99] = nodes.pop(10)
    elif kind == "row outside the subtree":
        locations[0, hierarchy.atom_index(4)] = (1.0, 1.0)
    elif kind == "non-finite coordinate":
        locations[0, 0, 1] = math.inf
    elif kind == "label of a non-child":
        labels[4] = labels[1]
    elif kind == "missing label":
        del labels[1]
    elif kind == "label above the bins":
        labels[1][0] = library.atomic_bins[1] + 1
    elif kind == "label zero":
        labels[1][0] = 0
    elif kind in ("NaN size", "zero size", "negative size"):
        sizes[0] = {"NaN size": math.nan, "zero size": 0.0, "negative size": -2.0}[kind]
    if 10 in nodes:
        nodes[10] = replace(first, locations=locations, labels=labels, object_size=sizes)
    if kind == "fewer exemplars":
        nodes[11] = first_rows(nodes[11], 2)
    elif kind == "missing node":
        del nodes[11]
    elif kind == "no exemplars":
        nodes = {nid: first_rows(table, 0) for nid, table in nodes.items()}
    data = library_bytes(SimpleNamespace(
        nodes=nodes, atomic_bins=library.atomic_bins, composite_bins=library.composite_bins
    ))
    if kind == "source not UTF-8":
        data = data.replace(b"img0", b"\xffmg0", 1)
    elif kind == "renamed source":  # exemplar 0 of node 10 only
        data = data.replace(b"img0", b"mix0", 1)
    elif kind == "truncated":
        data = data[:-1]
    elif kind == "trailing bytes":
        data += b"\0"
    elif kind == "bad version":
        data = data[:4] + struct.pack("<I", 2) + data[8:]
    elif kind == "bad magic":
        data = b"HPSM" + data[4:]
    return data


@pytest.mark.parametrize("kind, message", [
    ("atomic node", "is atomic"),
    ("unknown node", "not in the hierarchy"),
    ("row outside the subtree", "subtree rows"),
    ("non-finite coordinate", "non-finite coordinates"),
    ("label of a non-child", "one per child"),
    ("missing label", "one per child"),
    ("label above the bins", "outside 1..8"),
    ("label zero", "outside 1..8"),
    ("NaN size", "not finite and positive"),
    ("zero size", "not finite and positive"),
    ("negative size", "not finite and positive"),
    ("source not UTF-8", "not UTF-8"),
    ("renamed source", "same sources in the same order"),
    ("fewer exemplars", "different exemplar counts"),
    ("no exemplars", "no exemplars"),
    ("missing node", "lacks composite node 11 "),
    ("truncated", "truncated"),
    ("trailing bytes", "trailing bytes"),
    ("bad version", "unsupported library version"),
    ("bad magic", "bad magic"),
])
def test_invalid_library_field_raises_library_error(kind, message, tiny3):
    data = corrupt_tiny3_library(kind, tiny3)
    with pytest.raises(LibraryError, match=message):
        load_and_resave(data, tiny3)


def test_annotations_json_round_trip(tmp_path, tiny3):
    annotations = annotations_tiny3(3)
    path = tmp_path / "ann.json"
    save_annotations(annotations, tiny3, path)
    loaded = load_annotations(path, tiny3)
    assert [a.image for a in loaded] == [a.image for a in annotations]
    for a, b in zip(annotations, loaded):
        assert np.array_equal(a.points, b.points)
