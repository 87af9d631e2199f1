import json

import numpy as np
import pytest

from hierpose import (
    BoundingBox,
    HierarchyError,
    RelationTypeModel,
    ScaleParams,
    load_hierarchy,
    object_size,
)
from hierpose.appearance import CoincidentPartsError

from conftest import CONFIG_DIR, limbs4_doc, tiny2_doc, tiny3_doc


def test_human_reference_hierarchy(human_hierarchy):
    assert human_hierarchy.levels == 4
    assert human_hierarchy.atomic_count == 14
    level2 = {n.name for n in human_hierarchy.nodes_at_level(2)}
    assert level2 == {"head", "r_arm", "l_arm", "r_leg", "l_leg"}
    level3 = {n.name for n in human_hierarchy.nodes_at_level(3)}
    assert level3 == {"head_arms", "legs"}
    assert human_hierarchy.root.name == "body"


def test_bird_reference_hierarchy(bird_hierarchy):
    assert bird_hierarchy.levels == 3
    assert bird_hierarchy.atomic_count == 15
    level2 = {n.name for n in bird_hierarchy.nodes_at_level(2)}
    assert level2 == {"head", "belly_legs", "back_tail"}
    assert bird_hierarchy.root.name == "bird"


def test_level_gap_rejected():
    doc = tiny3_doc()
    # point the root directly at an atomic part
    doc["nodes"][-1]["children"] = [10, 1]
    with pytest.raises(HierarchyError, match="level gap"):
        load_hierarchy(doc)


def test_multiple_parents_rejected():
    doc = tiny3_doc()
    doc["nodes"][7]["children"] = [4, 5, 6, 3]  # node 11 also claims atom 3
    with pytest.raises(HierarchyError, match="cycle detected"):
        load_hierarchy(doc)


def test_single_child_composite_rejected():
    doc = tiny2_doc()
    doc["nodes"].append(
        {"id": 11, "name": "extra", "level": 2, "children": [3], "anchor": {"c": 1.0}}
    )
    doc["nodes"][3]["children"] = [1, 2]
    doc["nodes"].append(
        {"id": 20, "name": "top", "level": 3, "children": [10, 11],
         "anchor": {"a": 0.5, "c": 0.5}}
    )
    doc["levels"] = 3
    doc["scale"]["level_factors"] = [1.0, 1.0, 1.0]
    with pytest.raises(HierarchyError, match="single-child"):
        load_hierarchy(doc)


def test_atomic_node_with_children_rejected():
    doc = tiny2_doc()
    doc["nodes"][0]["children"] = [2]
    with pytest.raises(HierarchyError, match="atomic node"):
        load_hierarchy(doc)


def test_anchor_non_descendant_rejected():
    doc = tiny3_doc()
    doc["nodes"][6]["anchor"] = {"ra": 1.0}  # node 10 anchored to node 11's atom
    with pytest.raises(HierarchyError, match="non-descendant"):
        load_hierarchy(doc)


def test_unknown_document_keys_rejected():
    doc = tiny2_doc()
    doc["bogus"] = 1
    with pytest.raises(HierarchyError, match="unknown hierarchy keys"):
        load_hierarchy(doc)


def test_canonical_node_order(tiny3):
    order = [(n.level, n.id) for n in tiny3.nodes]
    assert order == sorted(order)


def recursive_composites_below(hierarchy, node_id):
    """Pre-order composite nodes of a subtree, rebuilt by recursion."""
    node = hierarchy.node(node_id)
    if node.is_atomic:
        return ()
    below = (node_id,)
    for child in node.children:
        below += recursive_composites_below(hierarchy, child)
    return below


@pytest.mark.parametrize(
    "doc",
    [tiny2_doc(), tiny3_doc(), limbs4_doc(),
     CONFIG_DIR / "human_hierarchy.json", CONFIG_DIR / "bird_hierarchy.json"],
    ids=["tiny2", "tiny3", "limbs4", "human", "bird"],
)
def test_composites_below_equals_recursive_oracle(doc):
    hierarchy = load_hierarchy(doc)
    for node in hierarchy.nodes:
        assert hierarchy.composites_below(node.id) == recursive_composites_below(hierarchy, node.id)
    with pytest.raises(KeyError, match="unknown node id 999"):
        hierarchy.composites_below(999)


@pytest.mark.parametrize(
    "doc",
    [tiny2_doc(), tiny3_doc(), limbs4_doc(),
     CONFIG_DIR / "human_hierarchy.json", CONFIG_DIR / "bird_hierarchy.json"],
    ids=["tiny2", "tiny3", "limbs4", "human", "bird"],
)
def test_atom_rows_and_subtree_columns_equal_a_rebuild(doc):
    """Each node's atom rows and pre-order pose columns equal a rebuild from
    `atoms_below` and `composites_below`; both are read-only intp arrays,
    built once, so repeated calls return the same array."""
    hierarchy = load_hierarchy(doc)
    for node in hierarchy.nodes:
        rows, columns = hierarchy.atom_rows(node.id), hierarchy.subtree_columns(node.id)
        rebuilt_rows = [hierarchy.atom_index(p) for p in hierarchy.atoms_below(node.id)]
        rebuilt_columns = [hierarchy.composite_index(c) for c in hierarchy.composites_below(node.id)]
        assert rows.tolist() == rebuilt_rows and columns.tolist() == rebuilt_columns
        for array in (rows, columns):
            assert array.dtype == np.intp and not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        assert hierarchy.atom_rows(node.id) is rows
        assert hierarchy.subtree_columns(node.id) is columns
    with pytest.raises(KeyError, match="unknown node id 999"):
        hierarchy.subtree_columns(999)


def test_load_from_json_text():
    hierarchy = load_hierarchy(json.dumps(tiny2_doc()))
    assert hierarchy.atomic_count == 3


@pytest.mark.parametrize("digits, message", [
    (401, "must be a finite number, got an integer too large for a float"),
    (5001, "must be a finite number, got inf"),
], ids=["401-digits", "5001-digits"])
def test_huge_json_integers_raise_hierarchy_error(digits, message):
    """An integer too large for a float, where a number is wanted, used to
    raise OverflowError, and one of more digits than Python converts to
    `int` a plain ValueError from `json`; both now raise HierarchyError
    naming the field (the longer one reads as inf)."""
    huge = "1" + "0" * (digits - 1)
    text = json.dumps(tiny2_doc()).replace('"reference_length": 10.0', f'"reference_length": {huge}')
    with pytest.raises(HierarchyError, match=f"^hierarchy.scale 'reference_length' {message}$"):
        load_hierarchy(text)
    doc = tiny2_doc()
    doc["scale"]["reference_length"] = 10**400
    with pytest.raises(HierarchyError, match="must be a finite number, got an integer too large"):
        load_hierarchy(doc)


def test_tight_box_min_max(tiny2):
    X = np.array([[0.0, 0.0], [2.0, 4.0], [1.0, 1.0]])
    box = tiny2.tight_box(X, 10)
    assert np.allclose(box.top_left, (0, 0))
    assert np.allclose(box.bottom_right, (2, 4))


def test_tight_box_degenerate(tiny2):
    X = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
    box = tiny2.tight_box(X, 10)
    assert np.allclose(box.top_left, (1, 1))
    assert np.allclose(box.bottom_right, (1, 1))
    assert box.mean_side == 0.0


def test_tight_box_mixed_signs(tiny2):
    X = np.array([[3.0, -1.0], [0.0, 5.0], [2.0, 2.0]])
    box = tiny2.tight_box(X, 10)
    assert np.allclose(box.top_left, (0, -1))
    assert np.allclose(box.bottom_right, (3, 5))


def test_tight_box_translation_equivariant(tiny3):
    rng = np.random.default_rng(0)
    for _ in range(20):
        X = rng.random((6, 2)) * 10
        shift = rng.random(2) * 5
        a = tiny3.tight_box(X, 20)
        b = tiny3.tight_box(X + shift, 20)
        assert np.allclose(a.top_left + shift, b.top_left)
        assert np.allclose(a.bottom_right + shift, b.bottom_right)


def test_anchor_midpoint():
    doc = tiny2_doc()
    doc["nodes"][3]["anchor"] = {"a": 0.5, "b": 0.5}
    hierarchy = load_hierarchy(doc)
    X = np.array([[0.0, 0.0], [2.0, 4.0], [9.0, 9.0]])
    assert np.allclose(hierarchy.anchor_point(X, 10), (1, 2))


def test_anchor_identity(tiny2):
    X = np.array([[5.0, 7.0], [2.0, 4.0], [9.0, 9.0]])
    assert np.allclose(tiny2.anchor_point(X, 10), (5, 7))


def test_anchor_weighted_mean():
    doc = tiny2_doc()
    doc["nodes"][3]["anchor"] = {"a": 0.25, "b": 0.75}
    hierarchy = load_hierarchy(doc)
    X = np.array([[0.0, 0.0], [4.0, 0.0], [1.0, 1.0]])
    assert np.allclose(hierarchy.anchor_point(X, 10), (3, 0))


def test_anchor_inside_tight_box(tiny3):
    rng = np.random.default_rng(1)
    for _ in range(20):
        X = rng.random((6, 2)) * 20
        for node in tiny3.composite_nodes:
            box = tiny3.tight_box(X, node.id)
            anchor = tiny3.anchor_point(X, node.id)
            assert np.all(anchor >= box.top_left - 1e-12)
            assert np.all(anchor <= box.bottom_right + 1e-12)


def test_anchor_weights_must_sum_to_one():
    doc = tiny2_doc()
    doc["nodes"][3]["anchor"] = {"a": 0.5, "b": 0.6}
    with pytest.raises(HierarchyError, match="sum"):
        load_hierarchy(doc)


def atomic_type(x_i, x_j, bins=12) -> int:
    """Relation type of tiny2's part 1 at `x_i` against its reference, part
    2, at `x_j`; part 3 sits apart from both."""
    points = np.array([[x_i, x_j, (50.0, -70.0)]], dtype=float)
    return int(RelationTypeModel(bins, {}).labels(points, load_hierarchy(tiny2_doc()))[1][0])


def test_atomic_relation_examples():
    """The offset from part i to part j is x_j - x_i: (3, 4) lies in the
    second of 12 bins and (-3, -4) in the eighth; no offset has no type."""
    assert atomic_type((1, 2), (4, 6)) == 2
    assert atomic_type((4, 6), (1, 2)) == 8
    with pytest.raises(CoincidentPartsError, match="coincide"):
        atomic_type((3, 3), (3, 3))


def test_atomic_relation_antisymmetric():
    """Swapping the two parts turns the offset by half a turn, so the type
    moves by half of an even bin count."""
    rng = np.random.default_rng(2)
    for _ in range(20):
        a, b = rng.random(2), rng.random(2)
        assert atomic_type(b, a) == (atomic_type(a, b) - 1 + 6) % 12 + 1


def composite_type(anchor, box_points, centroids) -> int:
    """Relation type of tiny3's part 10 with its anchor (part 1) at
    `anchor`, against the box of its reference, part 11, whose three atoms
    are `box_points`; parts 2 and 3 sit inside that box."""
    points = np.array([[anchor, box_points[1], box_points[2], *box_points]], dtype=float)
    model = RelationTypeModel(8, {10: np.asarray(centroids, dtype=float), 11: np.zeros((2, 4))})
    return int(model.labels(points, load_hierarchy(tiny3_doc()))[10][0])


def test_composite_relation_examples():
    """The relation vector is (tl - anchor, br - anchor) over the object
    size, here the mean side of the reference box: the centroid equal to it
    is picked over centroids a little off it in each coordinate."""
    for anchor, box_points, vector in (
        ((1, 1), [(0, 0), (4, 4), (2, 1)], (-1, -1, 3, 3)),
        ((2, 3), [(2, 3), (5, 9), (3, 4)], (0, 0, 3, 6)),
    ):
        size = object_size(np.array(box_points, dtype=float))
        exact = np.array(vector, dtype=float) / size
        near = [exact + 0.01 * np.eye(4)[j] for j in range(4)] + [exact - 0.01]
        for at in range(len(near) + 1):
            centroids = near[:at] + [exact] + near[at:]
            assert composite_type(anchor, box_points, centroids) == at + 1


def test_composite_relation_point_box_has_coincident_atoms():
    """A reference box shrunk to a point puts sibling atoms on one point,
    which has no atomic type, so `labels` raises."""
    with pytest.raises(CoincidentPartsError, match="coincide"):
        composite_type((2, 0), [(2, 0), (2, 0), (2, 0)], np.zeros((2, 4)))


def test_scale_factor_examples():
    params = ScaleParams(reference_length=75.0, level_factors=(1.0, 1.0))
    X = np.array([[0.0, 0.0], [100.0, 50.0]])
    assert params.factor_from_size(object_size(X), 1) == pytest.approx(1.0)
    params2 = ScaleParams(reference_length=75.0, level_factors=(1.0, 2.0))
    X2 = np.array([[0.0, 0.0], [75.0, 75.0]])
    assert params2.factor_from_size(object_size(X2), 2) == pytest.approx(2.0)
    degenerate = np.zeros((3, 2))
    with pytest.raises(ValueError, match="degenerate"):
        params.factor_from_size(object_size(degenerate), 1)


def test_scale_factor_scale_equivariant():
    params = ScaleParams(reference_length=50.0, level_factors=(1.0, 2.0, 0.5))
    rng = np.random.default_rng(3)
    for _ in range(20):
        X = rng.random((5, 2)) * 30 + 1
        c = float(rng.random() * 3 + 0.5)
        for level in (1, 2, 3):
            assert params.factor_from_size(object_size(X * c), level) == pytest.approx(
                c * params.factor_from_size(object_size(X), level)
            )


def test_object_size_mean_side():
    X = np.array([[0.0, 0.0], [10.0, 4.0]])
    assert object_size(X) == pytest.approx(7.0)


def test_box_iou():
    a = BoundingBox((0, 0), (2, 2))
    b = BoundingBox((1, 1), (3, 3))
    assert a.iou(b) == pytest.approx(1.0 / 7.0)
    assert a.iou(BoundingBox((5, 5), (6, 6))) == 0.0
    assert a.iou(a) == pytest.approx(1.0)
