import copy
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from hierpose import (
    Annotation,
    PartHierarchy,
    RelationTypeModel,
    ScoreMapStack,
    build_library,
    load_hierarchy,
)
from hierpose.appearance import FORMAT_VERSION, ScaleMaps
from hierpose.synth import make_scene

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

# Property tests draw the same examples on every run and keep no example
# database, so a run does not depend on earlier runs; each test still sets
# its own max_examples.  Hypothesis also caches the constants it reads from
# source files, during collection; that cache goes to the system temporary
# directory, so a run writes no `.hypothesis/` into the checkout.
settings.register_profile("default", derandomize=True, database=None, deadline=None)
settings.load_profile("default")
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "hierpose-hypothesis")


@pytest.fixture(scope="session")
def human_hierarchy() -> PartHierarchy:
    return load_hierarchy(CONFIG_DIR / "human_hierarchy.json")


@pytest.fixture(scope="session")
def bird_hierarchy() -> PartHierarchy:
    return load_hierarchy(CONFIG_DIR / "bird_hierarchy.json")


def tiny2_doc() -> dict:
    """Depth-2 hierarchy: one composite root over 3 atoms."""
    return {
        "levels": 2,
        "nodes": [
            {"id": 1, "name": "a", "level": 1, "children": [], "anchor": None},
            {"id": 2, "name": "b", "level": 1, "children": [], "anchor": None},
            {"id": 3, "name": "c", "level": 1, "children": [], "anchor": None},
            {"id": 10, "name": "root", "level": 2, "children": [1, 2, 3],
             "anchor": {"a": 1.0}},
        ],
        "scale": {"reference_length": 10.0, "level_factors": [1.0, 1.0]},
    }


def tiny3_doc() -> dict:
    """3-level hierarchy: two 3-atom limbs under one root."""
    return {
        "levels": 3,
        "nodes": [
            {"id": 1, "name": "la", "level": 1, "children": [], "anchor": None},
            {"id": 2, "name": "lb", "level": 1, "children": [], "anchor": None},
            {"id": 3, "name": "lc", "level": 1, "children": [], "anchor": None},
            {"id": 4, "name": "ra", "level": 1, "children": [], "anchor": None},
            {"id": 5, "name": "rb", "level": 1, "children": [], "anchor": None},
            {"id": 6, "name": "rc", "level": 1, "children": [], "anchor": None},
            {"id": 10, "name": "left", "level": 2, "children": [1, 2, 3],
             "anchor": {"la": 1.0}},
            {"id": 11, "name": "right", "level": 2, "children": [4, 5, 6],
             "anchor": {"ra": 1.0}},
            {"id": 20, "name": "whole", "level": 3, "children": [10, 11],
             "anchor": {"la": 0.5, "ra": 0.5}},
        ],
        "scale": {"reference_length": 20.0, "level_factors": [1.0, 1.0, 1.0]},
    }


def limbs4_doc() -> dict:
    """4-level hierarchy: limbs and trunk groups under one whole-object root."""
    return {
        "levels": 4,
        "nodes": [
            {"id": 1, "name": "la", "level": 1, "children": [], "anchor": None},
            {"id": 2, "name": "lb", "level": 1, "children": [], "anchor": None},
            {"id": 3, "name": "lc", "level": 1, "children": [], "anchor": None},
            {"id": 4, "name": "ra", "level": 1, "children": [], "anchor": None},
            {"id": 5, "name": "rb", "level": 1, "children": [], "anchor": None},
            {"id": 6, "name": "rc", "level": 1, "children": [], "anchor": None},
            {"id": 7, "name": "ca", "level": 1, "children": [], "anchor": None},
            {"id": 8, "name": "cb", "level": 1, "children": [], "anchor": None},
            {"id": 9, "name": "ha", "level": 1, "children": [], "anchor": None},
            {"id": 10, "name": "hb", "level": 1, "children": [], "anchor": None},
            {"id": 11, "name": "left", "level": 2, "children": [1, 2, 3],
             "anchor": {"la": 1.0}},
            {"id": 12, "name": "right", "level": 2, "children": [4, 5, 6],
             "anchor": {"ra": 1.0}},
            {"id": 13, "name": "core", "level": 2, "children": [7, 8],
             "anchor": {"ca": 1.0}},
            {"id": 14, "name": "head", "level": 2, "children": [9, 10],
             "anchor": {"ha": 1.0}},
            {"id": 20, "name": "limbs", "level": 3, "children": [11, 12],
             "anchor": {"la": 0.5, "ra": 0.5}},
            {"id": 21, "name": "trunk", "level": 3, "children": [13, 14],
             "anchor": {"ca": 0.5, "ha": 0.5}},
            {"id": 30, "name": "body", "level": 4, "children": [20, 21],
             "anchor": {"la": 0.25, "ra": 0.25, "ca": 0.25, "ha": 0.25}},
        ],
        "scale": {"reference_length": 25.0, "level_factors": [1.0, 1.0, 1.0, 1.0]},
    }


@pytest.fixture()
def tiny2() -> PartHierarchy:
    return load_hierarchy(tiny2_doc())


@pytest.fixture()
def tiny3() -> PartHierarchy:
    return load_hierarchy(tiny3_doc())


def base_pose_tiny3(variant: int = 0) -> np.ndarray:
    """Hand-made poses for the tiny3 hierarchy, distinct per variant."""
    poses = [
        [(2, 2), (6, 3), (9, 7), (14, 2), (17, 6), (13, 9)],
        [(2, 3), (5, 7), (3, 11), (15, 3), (18, 7), (16, 11)],
        [(3, 2), (7, 2), (11, 3), (13, 4), (16, 8), (12, 12)],
        [(2, 5), (6, 8), (10, 5), (14, 6), (18, 9), (14, 12)],
        [(1, 2), (4, 6), (8, 9), (13, 2), (15, 7), (11, 10)],
    ]
    return np.array(poses[variant % len(poses)], dtype=float)


def annotations_tiny3(count: int = 3) -> list[Annotation]:
    return [Annotation(f"img{i}", base_pose_tiny3(i)) for i in range(count)]


def human_pose() -> np.ndarray:
    """A hand-made pose for `configs/human_hierarchy.json`."""
    return np.array(
        [
            (30, 95), (32, 75), (35, 55), (45, 55), (47, 75), (49, 95),
            (15, 50), (22, 40), (32, 30), (48, 30), (56, 40), (62, 50),
            (40, 25), (40, 10),
        ],
        dtype=float,
    )


def human_annotations(count=3) -> list[Annotation]:
    """The human pose, then jittered copies of it."""
    rng = np.random.default_rng(11)
    out = []
    for i in range(count):
        jitter = rng.normal(0, 2.0, (14, 2)) if i else np.zeros((14, 2))
        out.append(Annotation(f"h{i}", human_pose() + jitter, size=(120, 120)))
    return out


def bird_pose() -> np.ndarray:
    """A hand-placed side view, beak to the left, for
    `configs/bird_hierarchy.json`, in the order of its atoms."""
    return np.array(
        [
            (58, 36), (10, 30), (50, 64), (34, 52), (28, 20), (20, 24), (24, 28), (50, 82),
            (62, 46), (38, 24), (26, 30), (56, 84), (66, 50), (90, 56), (24, 40),
        ],
        dtype=float,
    )


def bird_annotations(count=12) -> list[Annotation]:
    """The bird pose, then copies of it jittered by 2 px (Gaussian sigma)."""
    rng = np.random.default_rng(11)
    base = bird_pose()
    out = [Annotation("b0", base)]
    for i in range(1, count):
        out.append(Annotation(f"b{i}", base + rng.normal(0, 2.0, base.shape)))
    return out


def library_for(hierarchy, annotations, atomic_bins=8, composite_bins=2, seed=0):
    model = RelationTypeModel.build(
        hierarchy, annotations, atomic_bins=atomic_bins,
        composite_bins=composite_bins, seed=seed,
    )
    return build_library(annotations, hierarchy, model), model


def root_draws_all_turned():
    """(human hierarchy, library, stack) of a three-scale mix scene whose
    every root draw fails the angle bound, with both child pools full: a
    full-mode `infer` with z=8, seed 8 and uniform weights finds level 4
    empty, having proposed 0 of its 160 draws."""
    human = load_hierarchy(CONFIG_DIR / "human_hierarchy.json")
    library, _ = library_for(human, human_annotations(6))
    scene = make_scene(library, human, seed=701, grid=(96, 96), mix=True, noise=0.05,
                       distractors=3, scales=(0.7, 1.0, 1.4))
    return human, library, scene.stack


def random_stack(
    hierarchy,
    atomic_bins: dict[int, int],
    composite_bins: dict[int, int],
    rng: np.random.Generator,
    grid=(12, 12),
    scales=(1.0,),
) -> ScoreMapStack:
    """Random but properly normalized stack for property tests."""
    height, width = grid
    table = [(0, 0)]
    for part in hierarchy.atomic_ids:
        for m in range(1, atomic_bins[part] + 1):
            table.append((part, m))
    maps = []
    for scale in scales:
        atomic = rng.random((len(table), height, width))
        atomic /= atomic.sum(axis=0)
        composite = {}
        for part, bins in composite_bins.items():
            data = rng.random((bins, height, width))
            data /= data.sum(axis=0)
            composite[part] = data
        maps.append(
            ScaleMaps(float(scale), np.array(table, dtype=np.uint32), atomic, composite)
        )
    return ScoreMapStack(maps)


def hpsm_old_bytes(stack: ScoreMapStack, version: int, hierarchy: PartHierarchy) -> bytes:
    """`stack` in an older layout of the score-map container, whose
    composite blocks held each part's level: version 1 stored every atomic
    row, and version 2 every row that holds a set bit, after their count
    and ids."""
    out = [b"HPSM", struct.pack("<II", version, stack.n_scales)]
    for maps in stack.scales:
        c, h, w = maps.atomic.shape
        atomic = maps.atomic.astype("<f4")
        out += [struct.pack("<dIII", maps.scale, h, w, c),
                maps.channel_table.astype("<u4").tobytes()]
        if version == 2:
            rows = np.flatnonzero(atomic.view("<u4").reshape(c, -1).max(axis=1))
            out += [struct.pack(f"<I{len(rows)}I", len(rows), *rows.tolist())]
            atomic = atomic[rows]
        out += [atomic.tobytes(), struct.pack("<I", len(maps.composite))]
        for part in sorted(maps.composite):
            data = maps.composite[part]
            out += [struct.pack("<III", part, hierarchy.node(part).level, data.shape[0]),
                    data.astype("<f4").tobytes()]
    return b"".join(out)


def sparse_hpsm_bytes(channels: int, grid, stored, values=None) -> bytes:
    """A one-scale HPSM file, written field by field: its channel table
    names `channels` channels (the background, then part 1's types 1, 2, ...),
    it stores the atomic rows `stored` with `values` (ones if None) and has
    no composite block."""
    h, w = grid
    table = np.zeros((channels, 2), "<u4")
    table[1:, 0] = 1
    table[1:, 1] = np.arange(1, channels)
    if values is None:
        values = np.ones((len(stored), h, w))
    return b"".join([
        b"HPSM", struct.pack("<IIdIII", FORMAT_VERSION, 1, 1.0, h, w, channels), table.tobytes(),
        struct.pack(f"<I{len(stored)}I", len(stored), *stored),
        np.asarray(values, "<f4").tobytes(), struct.pack("<I", 0),
    ])


def deep_copy_annotations(annotations):
    return [copy.deepcopy(a) for a in annotations]
