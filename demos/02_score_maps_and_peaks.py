"""Render a synthetic score-map stack and query it.

Builds a small exemplar library, renders Gaussian-bump score maps for one
sampled pose (with distractors), then seeds each part at its top peaks as
inference does, reads probability terms and round-trips the binary
container.
"""

import math
import tempfile
from pathlib import Path

import numpy as np

from hierpose import (
    Annotation,
    RelationTypeModel,
    build_library,
    load_hierarchy,
    load_score_maps,
    save_score_maps,
)
from hierpose.appearance import log_marginals_at
from hierpose.inference import InferenceParams, seed_atomic_hypotheses
from hierpose.synth import make_scene

HIERARCHY = {
    "levels": 3,
    "nodes": [
        {"id": 1, "name": "la", "level": 1, "children": [], "anchor": None},
        {"id": 2, "name": "lb", "level": 1, "children": [], "anchor": None},
        {"id": 3, "name": "lc", "level": 1, "children": [], "anchor": None},
        {"id": 4, "name": "ra", "level": 1, "children": [], "anchor": None},
        {"id": 5, "name": "rb", "level": 1, "children": [], "anchor": None},
        {"id": 6, "name": "rc", "level": 1, "children": [], "anchor": None},
        {"id": 10, "name": "left", "level": 2, "children": [1, 2, 3], "anchor": {"la": 1.0}},
        {"id": 11, "name": "right", "level": 2, "children": [4, 5, 6], "anchor": {"ra": 1.0}},
        {"id": 20, "name": "whole", "level": 3, "children": [10, 11],
         "anchor": {"la": 0.5, "ra": 0.5}},
    ],
    "scale": {"reference_length": 20.0, "level_factors": [1.0, 1.0, 1.0]},
}

POSES = [
    [(2, 2), (6, 3), (9, 7), (14, 2), (17, 6), (13, 9)],
    [(2, 3), (5, 7), (3, 11), (15, 3), (18, 7), (16, 11)],
    [(3, 2), (7, 2), (11, 3), (13, 4), (16, 8), (12, 12)],
]


def main():
    hierarchy = load_hierarchy(HIERARCHY)
    annotations = [Annotation(f"img{i}", np.array(p, float)) for i, p in enumerate(POSES)]
    model = RelationTypeModel.build(hierarchy, annotations, atomic_bins=8, composite_bins=2)
    library = build_library(annotations, hierarchy, model)

    scene = make_scene(library, hierarchy, seed=4, grid=(48, 48), distractors=3, noise=0.01)
    print("ground truth:")
    for name, point in zip(hierarchy.atomic_names, scene.configuration):
        print(f"  {name}: ({point[0]:.0f}, {point[1]:.0f})")

    stack = scene.stack
    print("\nseeds per part, z=3 (x, y, marginal):")
    seeds = seed_atomic_hypotheses(stack, hierarchy, InferenceParams(z=3, nms_radius=2.0))
    for row, part in enumerate(hierarchy.atomic_ids):
        marginal = stack.marginal(part, 0)
        rows = ", ".join(
            f"({x:.0f},{y:.0f})={marginal[int(y), int(x)]:.2f}"
            for x, y in seeds[part].locations[:, row]
        )
        print(f"  {hierarchy.name_of(part)}: {rows}")

    part = hierarchy.atomic_ids[0]
    truth = scene.configuration[0]
    at_truth, far = log_marginals_at(stack, [part], [[truth, (1, 45)]], 0)[0]
    print(f"\nlog p(la | pixel) at truth: {at_truth:.3f}")
    print(f"log p(la | pixel) far away: {far:.3f}"
          f"  (floor is log 1e-6 = {math.log(1e-6):.2f})")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "maps.hpsm"
        save_score_maps(stack, path)
        loaded = load_score_maps(path)
        again = Path(tmp) / "again.hpsm"
        save_score_maps(loaded, again)
        print(f"\nbinary container: {path.stat().st_size} bytes, "
              f"bit-exact round trip: {path.read_bytes() == again.read_bytes()}")


if __name__ == "__main__":
    main()
