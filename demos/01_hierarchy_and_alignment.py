"""Walk through the part hierarchy and the similarity-alignment toolkit.

Loads the reference human hierarchy, computes boxes, anchors and relation
types for a stick-figure pose, then shows the two transform fits and the
exemplar pose similarity score.
"""

import math
from pathlib import Path

import numpy as np

from hierpose import (
    Annotation,
    RelationTypeModel,
    SimilarityTransform,
    fit_least_squares,
    load_hierarchy,
    object_size,
)
from hierpose.geometry import child_points, fit_two_points_batch

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

POSE = np.array(
    [
        (30, 95), (32, 75), (35, 55), (45, 55), (47, 75), (49, 95),
        (15, 50), (22, 40), (32, 30), (48, 30), (56, 40), (62, 50),
        (40, 25), (40, 10),
    ],
    dtype=float,
)


def main():
    human = load_hierarchy(CONFIGS / "human_hierarchy.json")
    print(f"human hierarchy: {human.levels} levels, {human.atomic_count} atomic parts")
    for level in range(2, human.levels + 1):
        names = [n.name for n in human.nodes_at_level(level)]
        print(f"  level {level}: {names}")

    print(f"\npose object size (mean box side): {object_size(POSE):.1f} px")
    for name in ("r_arm", "legs", "body"):
        node = human.node(human.id_of(name))
        box = human.tight_box(POSE, node.id)
        anchor = human.anchor_point(POSE, node.id)
        print(
            f"  {name:9s} box [{box.top_left[0]:.0f},{box.top_left[1]:.0f}]..."
            f"[{box.bottom_right[0]:.0f},{box.bottom_right[1]:.0f}]  anchor {anchor}"
        )

    # relation types: each non-root part against its next sibling, an atom
    # by the orientation of the offset, a composite by the nearest of the
    # centroids fitted to jittered copies of the pose
    rng = np.random.default_rng(0)
    copies = [Annotation(f"p{i}", POSE + rng.normal(0, 2.0, POSE.shape)) for i in range(6)]
    model = RelationTypeModel.build(human, copies, atomic_bins=12, composite_bins=2)
    labels = model.labels(POSE[None], human)
    print("\nrelation types (12 orientation bins, 2 composite clusters):")
    for part in human.node(human.id_of("r_arm")).children + (human.id_of("r_arm"),):
        reference = human.name_of(human.reference_of(part))
        print(f"  {human.name_of(part):10s} against {reference:10s} type {labels[part][0]}")

    print("\n-- exact two-point fit --")
    scale, angle, translation = fit_two_points_batch([[(0, 0), (1, 0)]], [[(10, 10), (10, 14)]])
    print(f"scale {scale[0]:.2f}  angle {math.degrees(angle[0]):.0f} deg"
          f"  translation {translation[0]}")

    print("\n-- bounded least-squares fit --")
    src = np.array([(0.0, 0.0), (4.0, 0.0), (2.0, 3.0)])
    dst = SimilarityTransform(1.5, 0.25, (7.0, 2.0)).apply(src)
    fit, residual = fit_least_squares(src, dst, bound=math.pi / 3)
    print(f"recovered scale {fit.scale:.3f} angle {fit.angle:.3f}, residual {residual:.2e}")
    dst_far = SimilarityTransform(1.0, 2.5, (0.0, 0.0)).apply(src)
    fit, residual = fit_least_squares(src, dst_far, bound=math.pi / 3)
    print(f"rotation past the bound clamps to {fit.angle:.3f} rad, residual {residual:.2f}")

    # pose similarity: minus the residual of the exemplar's fit onto the pose
    print("\n-- pose similarity (zero iff a bound-respecting similarity image) --")
    arm = child_points(POSE, human.id_of("r_arm"), human).reshape(-1, 2)  # one point per atom
    moved = SimilarityTransform(2.0, 0.2, (5.0, -3.0)).apply(arm)
    bent = arm + [(0, 0), (6, -4), (0, 0)]
    print(f"  transformed copy: {-fit_least_squares(arm, moved)[1]:+.2e}")
    print(f"  bent elbow:       {-fit_least_squares(arm, bent)[1]:+.2f}")


if __name__ == "__main__":
    main()
