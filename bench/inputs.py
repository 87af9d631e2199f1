"""The benchmark's own input data.

These are copies, not imports from the test suite, so the workloads do not
shift when the tests' fixtures change.  Everything that varies per run is
derived from the benchmark seed by `derive_seed`.
"""

from __future__ import annotations

import numpy as np

# Search and scene settings per workload.  human-deep runs at z=8 rather
# than the z=50 of the full-size search: one z=50 scene takes 30-55 s on a
# 2-core machine, too long for a run to cover enough scenes to average out
# their spread in cost (about 23 % between scenes at z=8).
TINY3_Z = 30
TINY3_GRID = (48, 48)
HUMAN_Z = 8
HUMAN_GRID = (96, 96)
TRAIN_IMAGES = 30
TRAIN_GRID = (96, 96)
# With the default 0.12 margin the pose fills so much of a 96x96 image that
# some negatives cannot be placed at IoU < 0.3; 0.25 leaves room for all.
TRAIN_MARGIN = 0.25

TYPE_BINS_TINY3 = {"atomic_bins": 8, "composite_bins": 2, "seed": 0}
TYPE_BINS_HUMAN = {"atomic_bins": 12, "composite_bins": 4, "seed": 0}
WEIGHTS = {"atomic": 1.0, "pose_appearance": 0.3, "pose_similarity": 0.05}


def derive_seed(*key: int) -> int:
    """A 32-bit seed for one (workload, benchmark seed, item...) key."""
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


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


# Three limb shapes whose boxes coincide but whose interiors differ, so a
# mixed scene can only be matched exactly by combining exemplars per limb.
MIXABLE_SHAPES = (
    ((0.0, 0.0), (8.0, 2.0), (6.0, 9.0)),
    ((0.0, 0.0), (8.0, 9.0), (2.0, 4.0)),
    ((0.0, 0.0), (3.0, 9.0), (8.0, 3.0)),
)


def mixable_poses() -> list[tuple[str, np.ndarray]]:
    """One (name, tiny3 pose) per shape, the same shape on both limbs."""
    poses = []
    for k, shape in enumerate(MIXABLE_SHAPES):
        left = np.array(shape) + (2.0, 3.0)
        right = np.array(shape) + (16.0, 3.0)
        poses.append((f"mix{k}", np.vstack([left, right])))
    return poses


def tiny3_assignment(rotation: int) -> dict[int, int]:
    """Exemplar per composite node, rotated so each scene mixes sources."""
    return {20: rotation % 3, 10: (rotation + 1) % 3, 11: (rotation + 2) % 3}


# Standing human in the order of configs/human_hierarchy.json's atoms.
HUMAN_BASE_POSE = (
    (30, 95), (32, 75), (35, 55), (45, 55), (47, 75), (49, 95),
    (15, 50), (22, 40), (32, 30), (48, 30), (56, 40), (62, 50),
    (40, 25), (40, 10),
)
HUMAN_EXEMPLARS = 30
HUMAN_JITTER_SIGMA = 2.0
HUMAN_JITTER_SEED = 11


def human_poses() -> list[tuple[str, np.ndarray]]:
    """The base pose plus jittered copies (Gaussian, sigma 2 px per atom)."""
    rng = np.random.default_rng(HUMAN_JITTER_SEED)
    base = np.array(HUMAN_BASE_POSE, dtype=float)
    poses = [("h0", base)]
    for i in range(1, HUMAN_EXEMPLARS):
        poses.append((f"h{i}", base + rng.normal(0.0, HUMAN_JITTER_SIGMA, base.shape)))
    return poses


def train_config() -> dict:
    """`hierpose train` run config: 2 jitter copies and 2 negatives per
    positive, 200 epochs, every annotation used for both library and weights.
    Paths are relative to the config file."""
    return {
        "hierarchy": "hierarchy.json",
        "annotations": "annotations.json",
        "score_maps": "maps",
        "type_model": dict(TYPE_BINS_HUMAN),
        "augment": {"jitter_fraction": 0.03, "copies": 2, "seed": 1},
        "negatives": {"per_positive": 2, "noise_sigma": None, "seed": 2},
        "train": {"c": 5.0, "epochs": 200, "seed": 3, "holdout_fraction": 0.0},
        "output": {
            "weights": "out/weights.json",
            "log": "out/log.json",
            "libraries": "out/library.hpel",
        },
    }
