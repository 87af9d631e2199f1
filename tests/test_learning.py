import math
import re
import struct
import tempfile
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hierpose import _json
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
from hierpose.geometry import child_points
from hierpose.hierarchy import object_size
from hierpose.learning import ExemplarLibrary, hinge_objective

import oracles
from conftest import (
    CONFIG_DIR, annotations_tiny3, base_pose_tiny3, human_annotations, library_for, tiny3_doc,
)


def test_build_library_sizes_human(human_hierarchy):
    annotations = human_annotations(3)
    model = RelationTypeModel.build(
        human_hierarchy, annotations, atomic_bins=12, composite_bins=2
    )
    library = build_library(annotations[:1], human_hierarchy, model)
    assert len(human_hierarchy.composite_nodes) == 8
    assert library.points.shape == (1, 14, 2)
    assert sorted(library.labels) == sorted(
        node.id for node in human_hierarchy.nodes if node.id != human_hierarchy.root.id
    )
    for node in human_hierarchy.composite_nodes:
        assert len(library.geometry[node.id]) == 1


def test_build_library_counts_scale_with_augmentation(tiny3):
    annotations = annotations_tiny3(2)
    doubled = annotations + [
        Annotation(a.image + "_flip", a.points * (-1, 1) + (30, 0)) for a in annotations
    ]
    library, _ = library_for(tiny3, doubled)
    assert len(library.sources) == 4
    for node in tiny3.composite_nodes:
        assert len(library.geometry[node.id]) == 4


def test_build_library_round_trip_similarity(tiny3):
    annotations = annotations_tiny3(3)
    library, _ = library_for(tiny3, annotations)
    for row, ann in enumerate(annotations):
        assert library.sources[row] == ann.image
        assert np.array_equal(library.points[row], ann.points)
        for node in tiny3.composite_nodes:
            index, value = best_fit_pose(ann.points, node.id, library, tiny3)
            assert index == row
            assert value >= -1e-9


def test_build_library_rejects_degenerate(tiny3):
    annotations = annotations_tiny3(3)
    library, model = library_for(tiny3, annotations)
    bad = Annotation("dup", np.ones((6, 2)))
    with pytest.raises(ValueError, match="degenerate"):
        build_library([bad], tiny3, model)


def test_build_library_names_coincident_siblings(tiny3):
    """Two sibling atoms on one point have no relation type; the error names
    the annotation and both parts."""
    annotations = annotations_tiny3(3)
    library, model = library_for(tiny3, annotations)
    annotations[1].points[1] = annotations[1].points[0]
    message = "annotation 'img1': parts 'la' and 'lb' coincide, and a zero offset"
    with pytest.raises(ValueError, match=re.escape(message)):
        build_library(annotations, tiny3, model)


def test_library_bins_must_fit_the_hierarchy(tiny3):
    """The constructor checks the bin keys as `load_library` does."""
    library, _ = library_for(tiny3, annotations_tiny3(3))
    for atomic_bins, composite_bins, message in (
        (library.atomic_bins, {**library.composite_bins, 99: 2}, "parts [10, 11, 99]"),
        ({**library.atomic_bins, 20: 2}, library.composite_bins, "parts [1, 2, 3, 4, 5, 6, 20]"),
    ):
        with pytest.raises(LibraryError, match=re.escape(message)):
            ExemplarLibrary(
                tiny3, library.sources, library.points, library.labels, atomic_bins,
                composite_bins,
            )


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


@settings(max_examples=25)
@given(
    n=st.integers(2, 1500),
    dim=st.integers(1, 64),
    epochs=st.integers(1, 20),
    c=st.floats(1e-3, 1e3),
    wide=st.booleans(),
    separable=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=1500, dim=8, epochs=20, c=1e3, wide=False, separable=True, seed=0)
@example(n=1100, dim=64, epochs=3, c=1e-3, wide=True, separable=False, seed=1)
def test_train_weights_equals_the_one_step_oracle(n, dim, epochs, c, wide, separable, seed):
    """The block scan against the one-step loop, on integer-valued rows
    (margins land on whole numbers, 1.0 among them) or rows whose entries
    span twelve orders of magnitude.  On a separable set, where column 0
    has the sign of the label, most steps are satisfied and run in blocks,
    up to 1024 steps long once n is above 1024; on the others most steps
    are violated and run one at a time."""
    rng = np.random.default_rng(seed)
    if wide:
        features = rng.normal(0.0, 1.0, (n, dim)) * 10.0 ** rng.uniform(-6, 6, (n, dim))
    else:
        features = rng.integers(-3, 4, (n, dim)).astype(float)
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    labels[:2] = (1.0, -1.0)
    if separable:
        features[:, 0] = labels * (np.abs(features[:, 0]) + 1.0)
    training = TrainingSet(features, labels)
    w, objective = train_weights(training, c=c, epochs=epochs, seed=seed)
    expected_w, expected_objective = oracles.naive_train_weights(
        training, c=c, epochs=epochs, seed=seed
    )
    assert w.tobytes() == expected_w.tobytes()
    assert objective == expected_objective


@pytest.mark.parametrize("target, violated", [(1.0, False), (1.0 - 2.0**-53, True)],
                         ids=["margin-exactly-1", "margin-1-ulp-below"])
def test_train_weights_retests_a_margin_inside_the_slack_band(target, violated):
    """Rows (+-8, 0) with the label's sign and c * n = 1: step 1 sets w to
    (8, 0), the next steps are satisfied, and steps 18 to 49 run as one
    block.  Step 40's row is (x, 0) with x picked so that its margin,
    x * w_0, is `target` exactly.  That margin lies inside the block's slack
    band, so only the scalar re-test can tell a satisfied step (1.0 is not
    < 1.0) from a violated one (one ulp below)."""
    n, step = 64, 40
    order = np.random.default_rng(0).permutation(n)  # the first epoch's order
    labels = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    labels[order[step - 1]] = 1.0
    chain = [8.0]  # w_0 before each step from 2 on: the satisfied steps' shrinks
    for t in range(2, n + 1):
        chain.append(chain[-1] * (1.0 - 1.0 / t))
    w0 = chain[step - 2]
    x = 1.0 / w0
    while x * w0 != target:
        x = np.nextafter(x, -math.inf if x * w0 > target else math.inf)
    features = np.zeros((n, 2))
    features[:, 0] = 8.0 * labels
    features[order[step - 1], 0] = x
    assert 1.0 - 2.0**-52 < x * w0 < 1.0 + 2 * 2 * np.finfo(float).eps * x * w0  # in the band
    training = TrainingSet(features, labels)
    w, objective = train_weights(training, c=1 / 64, epochs=1, seed=0)
    expected_w, expected_objective = oracles.naive_train_weights(
        training, c=1 / 64, epochs=1, seed=0
    )
    assert w.tobytes() == expected_w.tobytes() and objective == expected_objective
    assert (w[0] != chain[-1]) == violated  # only a violated step leaves the chain


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_training_set_rejects_non_finite_features(value):
    features = np.ones((3, 4))
    features[2, 1] = value
    features[2, 3] = math.nan  # a later column of the same row is not named
    with pytest.raises(ValueError, match=re.escape(f"features row 2, column 1 is {value}, not finite")):
        TrainingSet(features, [1.0, -1.0, 1.0])


def assert_same_library(a, b, hierarchy):
    assert a.sources == b.sources
    for name in ("points", "object_size"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    assert a.labels.keys() == b.labels.keys()
    for part in a.labels:
        assert np.array_equal(a.labels[part], b.labels[part])
    assert (a.atomic_bins, a.composite_bins) == (b.atomic_bins, b.composite_bins)
    assert sorted(a.geometry) == sorted(b.geometry) == [node.id for node in hierarchy.composite_nodes]
    for node_id in a.geometry:
        assert a.geometry[node_id].shape == b.geometry[node_id].shape
        assert a.geometry[node_id].tobytes() == b.geometry[node_id].tobytes()


def test_library_binary_round_trip(tmp_path, tiny3):
    annotations = annotations_tiny3(3)
    library, _ = library_for(tiny3, annotations)
    path = tmp_path / "lib.hpel"
    save_library(library, path)
    loaded = load_library(path, tiny3)
    save_library(loaded, tmp_path / "again.hpel")
    assert path.read_bytes() == (tmp_path / "again.hpel").read_bytes()
    assert_same_library(library, loaded, tiny3)


@settings(max_examples=60)
@given(data=st.data())
def test_library_of_random_rows_round_trips_bit_exact(data):
    """A library built from random annotation rows, names and labels saves
    and loads back bit for bit, and every node's geometry is the child
    points of the rows."""
    hierarchy = load_hierarchy(tiny3_doc())
    count = data.draw(st.integers(1, 5))
    coordinate = st.floats(-1e6, 1e6)
    points = np.array(data.draw(st.lists(
        st.lists(st.tuples(coordinate, coordinate), min_size=6, max_size=6),
        min_size=count, max_size=count,
    )))
    assume(np.all(object_size(points) > 0))
    sources = data.draw(st.lists(st.text(max_size=4), min_size=count, max_size=count))
    atomic_bins = {part: data.draw(st.integers(1, 8)) for part in hierarchy.atomic_ids}
    composite_bins = {10: data.draw(st.integers(1, 3)), 11: data.draw(st.integers(1, 3))}
    labels = {
        part: data.draw(st.lists(
            st.integers(1, {**atomic_bins, **composite_bins}[part]),
            min_size=count, max_size=count,
        ))
        for part in (1, 2, 3, 4, 5, 6, 10, 11)
    }
    library = ExemplarLibrary(hierarchy, sources, points, labels, atomic_bins, composite_bins)
    loaded = load_library_bytes(library_bytes(library), hierarchy)
    assert library_bytes(loaded) == library_bytes(library)
    assert_same_library(library, loaded, hierarchy)
    for node in hierarchy.composite_nodes:
        expected = child_points(points, node.id, hierarchy)
        assert loaded.geometry[node.id].shape == expected.shape
        assert loaded.geometry[node.id].tobytes() == expected.tobytes()


def test_library_arrays_are_read_only(tiny3):
    library, _ = library_for(tiny3, annotations_tiny3(3))
    for values in (library.points, library.object_size, library.geometry[10],
                   library.labels[1]):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 0
    # the library holds copies: the caller's arrays stay writable and apart
    points = library.points.copy()
    copy = ExemplarLibrary(
        tiny3, library.sources, points, library.labels, library.atomic_bins,
        library.composite_bins,
    )
    points[0] = 0.0
    assert np.array_equal(copy.points, library.points)


def load_library_bytes(data: bytes, hierarchy):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lib.hpel"
        path.write_bytes(data)
        return load_library(path, hierarchy)


def load_and_resave(data: bytes, hierarchy) -> bytes:
    """Load raw HPEL bytes and return what `save_library` writes back."""
    return library_bytes(load_library_bytes(data, hierarchy))


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


def corrupt_tiny3_library(kind, hierarchy):
    """HPEL bytes of a tiny3 library with one field made invalid.  The
    edited table is written through a namespace, not an `ExemplarLibrary`,
    so that only `load_library` checks it."""
    library, _ = library_for(hierarchy, annotations_tiny3(3))
    sources, points = library.sources, library.points.copy()
    labels = {part: values.copy() for part, values in library.labels.items()}
    atomic_bins, composite_bins = library.atomic_bins, library.composite_bins
    if kind == "non-finite coordinate":
        points[0, 0, 1] = math.inf
    elif kind == "zero size":
        points[0] = points[0, 0]
    elif kind == "infinite size":
        points[0, :, 0] = (-1e308, 1e308, 0.0, 0.0, 0.0, 0.0)
    elif kind == "label above the bins":
        labels[1][0] = library.atomic_bins[1] + 1
    elif kind == "label zero":
        labels[1][0] = 0
    elif kind == "no exemplars":
        sources, points = (), points[:0]
        labels = {part: values[:0] for part, values in labels.items()}
    elif kind == "other part count":
        points = points[:, :5]
    elif kind == "composite bins of an unknown part":
        composite_bins = {**composite_bins, 99: 2}
    elif kind == "atomic bins of a composite part":
        atomic_bins = {**atomic_bins, 10: 8}
    elif kind == "atomic bins missing a part":
        atomic_bins = {part: bins for part, bins in atomic_bins.items() if part != 6}
    elif kind == "atomic bins of 10**9":
        atomic_bins = dict.fromkeys(atomic_bins, 10**9)
    elif kind == "composite bins of 1001":
        composite_bins = {**composite_bins, 11: 1001}
    elif kind == "collapsed model's library":  # no composite bins nor their labels
        composite_bins = {}
        labels = {part: labels[part] for part in atomic_bins}
    data = library_bytes(SimpleNamespace(
        sources=sources, points=points, labels=labels,
        atomic_bins=atomic_bins, composite_bins=composite_bins,
    ))
    if kind == "source not UTF-8":
        data = data.replace(b"img0", b"\xffmg0", 1)
    elif kind == "truncated":
        data = data[:-1]
    elif kind == "trailing bytes":
        data += b"\0"
    elif kind == "bad version":
        data = data[:4] + struct.pack("<I", 1) + data[8:]
    elif kind == "bad magic":
        data = b"HPSM" + data[4:]
    return data


@pytest.mark.parametrize("kind, message", [
    ("non-finite coordinate", "non-finite coordinates"),
    ("label above the bins", "outside 1..8"),
    ("label zero", "outside 1..8"),
    ("zero size", "not finite and positive"),
    ("infinite size", "not finite and positive"),
    ("source not UTF-8", "not UTF-8"),
    ("no exemplars", "no exemplars"),
    ("other part count", "hold 5 parts, the hierarchy 6"),
    ("truncated", "truncated"),
    ("trailing bytes", "trailing bytes"),
    ("bad version", "unsupported library version 1"),
    ("bad magic", "bad magic"),
    ("composite bins of an unknown part", re.escape(
        "non-root composite bins for parts [10, 11, 99], "
        "the hierarchy's non-root composite parts are [10, 11]"
    )),
    ("atomic bins of a composite part", re.escape(
        "atomic bins for parts [1, 2, 3, 4, 5, 6, 10], "
        "the hierarchy's atomic parts are [1, 2, 3, 4, 5, 6]"
    )),
    ("atomic bins missing a part", re.escape("atomic bins for parts [1, 2, 3, 4, 5],")),
    ("collapsed model's library", re.escape("non-root composite bins for parts [],")),
    ("atomic bins of 10**9", "library has 1000000000 atomic bins for part 1, more than 1000"),
    ("composite bins of 1001", "library has 1001 non-root composite bins for part 11, more than 1000"),
])
def test_invalid_library_field_raises_library_error(kind, message, tiny3):
    data = corrupt_tiny3_library(kind, tiny3)
    with pytest.raises(LibraryError, match=message):
        load_and_resave(data, tiny3)


def test_library_bin_counts_are_bounded_before_any_label_is_read(tiny3):
    """A bin count above `TYPE_BINS_MAX` is named even when the label
    columns it would bound are missing from the file."""
    data = corrupt_tiny3_library("atomic bins of 10**9", tiny3)
    labels = 4 * 3 * 8  # eight label columns of three exemplars
    message = "library has 1000000000 atomic bins for part 1, more than 1000"
    with pytest.raises(LibraryError, match=re.escape(message)):
        load_and_resave(data[:-labels], tiny3)


def test_annotations_json_round_trip(tmp_path, tiny3):
    annotations = annotations_tiny3(3)
    path = tmp_path / "ann.json"
    save_annotations(annotations, tiny3, path)
    loaded = load_annotations(path, tiny3)
    assert [a.image for a in loaded] == [a.image for a in annotations]
    for a, b in zip(annotations, loaded):
        assert np.array_equal(a.points, b.points)


@pytest.mark.parametrize("value, spec, expected", [
    ([1, 2.5], (float, float), [1.0, 2.5]),
    ([10**400], [int], [10**400]),  # an integer is not bounded where an integer is wanted
    ([], [float], []),
    ([1, True], (float, float), "w 1 must be a JSON number, got true"),
    ([2.5, math.inf], [float], "w 1 must be a finite number, got inf"),
    ([10**400, 1], (float, float), "w 0 must be a finite number, got an integer too large for a float"),
    ([1, "2"], (float, float), 'w 1 must be a JSON number, got "2"'),
    ([3, 2.5], [int], "w 1 must be a JSON integer, got 2.5"),
], ids=["pair", "huge-int", "empty", "bool", "inf", "huge-int-as-float", "string", "float-as-int"])
def test_number_lists_are_read_in_one_pass_with_per_entry_messages(value, spec, expected):
    """A list of plain `float` or `int` specs is checked in one pass; a
    failure is named by the per-entry path, with its usual message."""
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            _json.read(value, spec, "w", ValueError)
    else:
        out = _json.read(value, spec, "w", ValueError)
        assert out == expected and [type(v) for v in out] == [type(v) for v in expected]

