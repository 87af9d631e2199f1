"""Bottom-up hypothesize-and-test inference with local refinement.

Level-1 hypotheses are score-map peaks.  At each level above, exemplars are
similarity-aligned onto randomly chosen pairs of lower hypotheses (atomic
locations at level 2, composite anchors above), carrying over the exemplar's
subtree, object size, and per-node pose choices.  From level 3 up, child
subtrees may additionally be swapped with geometrically compatible lower
hypotheses.  Proposals, swaps and scores are computed as arrays over all
hypotheses of a part; hypotheses are then deduplicated and pruned to the
best Z per part.  Surviving root hypotheses are refined per atomic part
inside a disc and the best refined configuration wins.

Modes: "full" runs everything; "partial" stops before refinement and traces
the best root hypothesis; "no-hier" collapses the model to a depth-2
hierarchy that only uses whole-object exemplars.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .appearance import LOG_FLOOR, ScoreMapStack, top_peaks
from .geometry import AngleBound, DEFAULT_MAX_ANGLE, fit_two_points_batch, transform_points
from .hierarchy import BoundingBox, PartHierarchy, PartNode, ScaleParams, object_size
from .learning import Exemplar, ExemplarLibrary
from .scoring import WeightVector, best_fit_pose, refinement_score, subtree_scores

__all__ = [
    "NoConfigurationError",
    "InferenceParams",
    "Hypothesis",
    "hypothesis_from_config",
    "seed_atomic_hypotheses",
    "propose_hypotheses",
    "swap_subtrees",
    "score_and_prune",
    "prune_order",
    "refine_hypothesis",
    "collapse_model",
    "InferenceResult",
    "infer",
    "MODES",
]

MODES = ("full", "partial", "no-hier")


class NoConfigurationError(RuntimeError):
    """Inference ran out of hypotheses before reaching the root."""


@dataclass
class InferenceParams:
    """Search-budget and geometry knobs for one inference run."""

    z: int = 50
    samples_per_level: int | None = None  # defaults to 20 * z
    seed: int = 0
    max_angle: float = DEFAULT_MAX_ANGLE
    compatibility_tolerance: float = 0.1
    nms_radius: float = 2.0
    dedup_radius: float = 2.0
    search_radius_fraction: float = 0.15

    def __post_init__(self):
        if self.z < 1:
            raise ValueError("z must be >= 1")
        if self.samples_per_level is not None and self.samples_per_level < 1:
            raise ValueError("samples_per_level must be >= 1")
        AngleBound(self.max_angle)
        for name in ("compatibility_tolerance", "search_radius_fraction"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1]")
        if self.nms_radius < 0 or self.dedup_radius < 0:
            raise ValueError("radii must be non-negative")

    @property
    def samples(self) -> int:
        return self.samples_per_level if self.samples_per_level is not None else 20 * self.z


@dataclass
class Hypothesis:
    """A scored candidate placement of one part's whole subtree."""

    node_id: int
    level: int
    locations: np.ndarray  # (N, 2); NaN outside the subtree
    pose: dict[int, int]  # composite node -> exemplar index
    object_size: float
    box: BoundingBox
    score: float = float("nan")


def _subtree_box(locations: np.ndarray, rows: np.ndarray) -> BoundingBox:
    pts = locations[rows]
    return BoundingBox(pts.min(axis=0), pts.max(axis=0))


def hypothesis_from_config(
    X: np.ndarray,
    hierarchy: PartHierarchy,
    library: ExemplarLibrary,
    bound: AngleBound | float | None = None,
) -> Hypothesis:
    """Root hypothesis for a full configuration, with best-fit poses."""
    pose = {
        node.id: best_fit_pose(X, node.id, library, hierarchy, bound)[0]
        for node in hierarchy.composite_nodes
    }
    X = np.asarray(X, dtype=float)
    return Hypothesis(
        node_id=hierarchy.root.id,
        level=hierarchy.levels,
        locations=X.copy(),
        pose=pose,
        object_size=object_size(X),
        box=_subtree_box(X, hierarchy.atom_rows(hierarchy.root.id)),
    )


def seed_atomic_hypotheses(
    stack: ScoreMapStack, hierarchy: PartHierarchy, params: InferenceParams
) -> dict[int, list[Hypothesis]]:
    """Top peaks of every atomic part, merged over scales, as hypotheses."""
    n = hierarchy.atomic_count
    out: dict[int, list[Hypothesis]] = {}
    for part in hierarchy.atomic_ids:
        candidates: list[tuple[float, int, int, np.ndarray]] = []
        for scale_index, maps in enumerate(stack.scales):
            points, scores = top_peaks(stack, part, maps.scale, params.z, params.nms_radius)
            for rank, (point, score) in enumerate(zip(points, scores)):
                candidates.append((float(score), scale_index, rank, point))
        candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
        picked: list[np.ndarray] = []
        for _, _, _, point in candidates:
            if any(np.hypot(*(point - p)) < params.nms_radius for p in picked):
                continue
            picked.append(point)
            if len(picked) == params.z:
                break
        hyps = []
        row = hierarchy.atom_index(part)
        for point in picked:
            locations = np.full((n, 2), np.nan)
            locations[row] = point
            hyps.append(
                Hypothesis(
                    node_id=part,
                    level=1,
                    locations=locations,
                    pose={},
                    object_size=0.0,
                    box=BoundingBox(point, point),
                    score=0.0,
                )
            )
        out[part] = hyps
    return out


def _alignment_points(locations: np.ndarray, child_id: int, hierarchy: PartHierarchy) -> np.ndarray:
    """Alignment targets of stacked configurations: the child's location if
    atomic, else its anchor; (..., N, 2) -> (..., 2)."""
    if hierarchy.node(child_id).is_atomic:
        return locations[..., hierarchy.atom_index(child_id), :]
    return hierarchy.anchor_point(locations, child_id)


def _make_hypotheses(
    node: PartNode,
    locations: np.ndarray,
    poses: list[dict[int, int]],
    sizes: np.ndarray,
    rows: np.ndarray,
) -> list[Hypothesis]:
    """Hypotheses of one part from stacked (H, N, 2) locations."""
    subtree = locations[:, rows]
    lows, highs = subtree.min(axis=1), subtree.max(axis=1)
    return [
        Hypothesis(
            node_id=node.id,
            level=node.level,
            locations=locations[i],
            pose=poses[i],
            object_size=float(sizes[i]),
            box=BoundingBox(lows[i], highs[i]),
        )
        for i in range(len(poses))
    ]


def propose_hypotheses(
    node: PartNode,
    lower: dict[int, list[Hypothesis]],
    library: ExemplarLibrary,
    hierarchy: PartHierarchy,
    params: InferenceParams,
    rng: np.random.Generator,
) -> list[Hypothesis]:
    """Randomly align the node's exemplars onto pairs of lower hypotheses.

    Each draw picks an exemplar and two distinct child slots, fits the exact
    two-point similarity from the exemplar's child points (locations at level
    2, anchors above) onto the chosen lower hypotheses, and transforms the
    exemplar's full subtree.  Draws whose fitted rotation exceeds the angle
    bound are rejected; nearly coincident anchor pairs fall back to a
    rotation-free fit with the scale taken from the object-size ratio.

    The draws are made one by one, in a fixed order; the fits, transforms
    and boxes of all draws are then computed as arrays.
    """
    exemplars = library.exemplars(node.id)
    if not exemplars:
        return []
    children = node.children
    pools = [lower.get(child_id) or [] for child_id in children]
    draws = []  # (exemplar, slot, slot, pick, pick)
    for _ in range(params.samples):
        exemplar = int(rng.integers(len(exemplars)))
        slots = rng.choice(len(children), size=2, replace=False)
        picks = []
        for slot in slots:
            pool = pools[slot]
            if not pool:
                break
            picks.append(int(rng.integers(len(pool))))
        else:
            draws.append((exemplar, *slots, *picks))
    if not draws:
        return []
    draws = np.array(draws, dtype=np.intp)
    chosen, slots, picks = draws[:, 0], draws[:, 1:3], draws[:, 3:5]

    table = library.arrays(node.id)
    exemplar_points = np.stack(
        [_alignment_points(table.locations, child_id, hierarchy) for child_id in children],
        axis=1,
    )  # (E, C, 2)
    offsets = np.cumsum([0] + [len(pool) for pool in pools])
    pool_points = np.concatenate([
        _alignment_points(np.stack([h.locations for h in pool]), child_id, hierarchy)
        for child_id, pool in zip(children, pools) if pool
    ])
    pool_sizes = np.array([h.object_size for pool in pools for h in pool])
    targets = offsets[slots] + picks  # (A, 2) rows of pool_points
    src = exemplar_points[chosen[:, None], slots]  # (A, 2, 2)
    dst = pool_points[targets]

    segment_src = src[:, 1] - src[:, 0]
    segment_dst = dst[:, 1] - dst[:, 0]
    degenerate = (np.hypot(segment_src[:, 0], segment_src[:, 1]) < 1e-9) | (
        np.hypot(segment_dst[:, 0], segment_dst[:, 1]) < 1e-9
    )
    scale = np.zeros(len(draws))
    angle = np.zeros(len(draws))
    translation = np.zeros((len(draws), 2))
    pair = ~degenerate
    scale[pair], angle[pair], translation[pair] = fit_two_points_batch(src[pair], dst[pair])
    accepted = pair & ~(np.abs(angle) > params.max_angle)

    # single usable anchor: no rotation, scale from the object-size ratio
    child_size = pool_sizes[targets[:, 0]]
    exemplar_size = table.object_size[chosen]
    fallback = degenerate & ~((child_size <= 0) | (exemplar_size <= 0))
    scale[fallback] = child_size[fallback] / exemplar_size[fallback]
    translation[fallback] = dst[fallback, 0] - scale[fallback, None] * src[fallback, 0]
    accepted |= fallback

    keep = np.flatnonzero(accepted)
    rows = hierarchy.atom_rows(node.id)
    locations = np.full((len(keep),) + table.locations.shape[1:], np.nan)
    locations[:, rows] = transform_points(
        scale[keep], angle[keep], translation[keep], table.locations[chosen[keep]][:, rows]
    )
    pose_nodes = hierarchy.composites_below(node.id)
    pose_of: dict[int, dict[int, int]] = {}
    for index in np.unique(chosen[keep]).tolist():
        source = exemplars[index].source
        pose_of[index] = {nid: library.for_source(nid, source).index for nid in pose_nodes}
    poses = [dict(pose_of[index]) for index in chosen[keep].tolist()]
    return _make_hypotheses(
        node, locations, poses, scale[keep] * exemplar_size[keep], rows
    )


def swap_subtrees(
    hyps: list[Hypothesis],
    lower: dict[int, list[Hypothesis]],
    hierarchy: PartHierarchy,
    params: InferenceParams,
) -> list[Hypothesis]:
    """Augment one part's hypotheses by swapping child subtrees with compatible ones.

    A lower hypothesis of the same child part is compatible when each of its
    box corners lies within compatibility_tolerance x object_size of the
    current child box corner.  Originals are retained; each compatible
    alternative yields one extra hypothesis, in the order (hypothesis,
    child, alternative).  Compatibility is tested as an H x M array per
    child.
    """
    if not hyps:
        return []
    node = hierarchy.node(hyps[0].node_id)
    locations = np.stack([h.locations for h in hyps])
    tolerance = params.compatibility_tolerance * np.array([h.object_size for h in hyps])
    found = []  # (hypothesis, child slot, alternative)
    for slot, child_id in enumerate(node.children):
        pool = lower.get(child_id) or []
        if not pool:
            continue
        subtree = locations[:, hierarchy.atom_rows(child_id)]
        near = []
        corners = (
            (subtree.min(axis=1), [candidate.box.top_left for candidate in pool]),
            (subtree.max(axis=1), [candidate.box.bottom_right for candidate in pool]),
        )
        for current, other in corners:
            gap = np.array(other)[None] - current[:, None]
            near.append(np.hypot(gap[..., 0], gap[..., 1]) > tolerance[:, None])
        hyp_index, alt_index = np.nonzero(~(near[0] | near[1]))
        found.extend(zip(hyp_index.tolist(), [slot] * len(hyp_index), alt_index.tolist()))
    if not found:
        return list(hyps)
    found.sort()

    found = np.array(found, dtype=np.intp)
    swapped = locations[found[:, 0]]
    for slot, child_id in enumerate(node.children):
        picked = np.flatnonzero(found[:, 1] == slot)
        if picked.size:
            rows = hierarchy.atom_rows(child_id)
            pool = np.stack([h.locations[rows] for h in lower[child_id]])
            swapped[picked[:, None], rows] = pool[found[picked, 2]]
    poses = []
    for i, slot, j in found.tolist():
        pose = dict(hyps[i].pose)
        pose.update(lower[node.children[slot]][j].pose)
        poses.append(pose)
    sizes = np.array([h.object_size for h in hyps])[found[:, 0]]
    return list(hyps) + _make_hypotheses(
        node, swapped, poses, sizes, hierarchy.atom_rows(node.id)
    )


def prune_order(
    scores: np.ndarray, points: np.ndarray, z: int, dedup_radius: float
) -> list[int]:
    """Indices of the hypotheses `score_and_prune` keeps, best first.

    Scores are ranked rounded to 1e-9 with a stable sort, so hypotheses whose
    scores differ only by round-off keep their creation order.  A hypothesis
    whose points (H, R, 2) all lie within dedup_radius of a kept one is a
    duplicate; at most z are kept.  A later copy of identical points is
    always a duplicate, so only the first copy of each is tested.
    """
    order = np.argsort(-np.round(scores, 9), kind="stable")
    _, first = np.unique(points[order].reshape(len(order), -1), axis=0, return_index=True)
    kept: list[int] = []
    for i in order[np.sort(first)].tolist():
        if kept:
            gap = points[kept] - points[i]
            if np.any(np.max(np.hypot(gap[..., 0], gap[..., 1]), axis=1) <= dedup_radius):
                continue
        kept.append(i)
        if len(kept) == z:
            break
    return kept


def score_and_prune(
    hyps: list[Hypothesis],
    stack: ScoreMapStack,
    hierarchy: PartHierarchy,
    library: ExemplarLibrary,
    weights: WeightVector,
    z: int,
    dedup_radius: float,
    bound: AngleBound | float | None = None,
) -> list[Hypothesis]:
    """Score every hypothesis of one part, deduplicate, keep the top z.

    Scores are the subtree spatial sums, computed for all hypotheses at once
    with one kernel call per subtree node.  Duplicates are hypotheses whose
    atomic locations all lie within dedup_radius of a better-scoring
    survivor.  Scores that agree to 1e-9 keep earlier creation order (see
    `prune_order`).
    """
    if not hyps:
        return []
    node_id = hyps[0].node_id
    locations = np.stack([h.locations for h in hyps])
    scores = subtree_scores(
        locations, node_id, [h.pose for h in hyps], np.array([h.object_size for h in hyps]),
        stack, hierarchy, library, weights, bound,
    )
    for hyp, score in zip(hyps, scores.tolist()):
        hyp.score = score
    rows = hierarchy.atom_rows(node_id)
    return [hyps[i] for i in prune_order(scores, locations[:, rows], z, dedup_radius)]


def refine_hypothesis(
    root_hyp: Hypothesis,
    stack: ScoreMapStack,
    hierarchy: PartHierarchy,
    weights: WeightVector,
    params: InferenceParams,
) -> tuple[np.ndarray, float]:
    """Per-part refinement inside a disc around the hypothesized locations.

    Each atomic part maximizes its weighted detection log-probability minus
    its parent's alignment penalty over every pixel within
    search_radius_fraction x (root box mean side) of its hypothesized
    location; the exact starting point is always a candidate.  Ties prefer
    the smallest displacement, then row-major order.  Returns the refined
    configuration and its approximate score.
    """
    radius = params.search_radius_fraction * root_hyp.box.mean_side
    scale = hierarchy.scale.factor_from_size(root_hyp.object_size, 1)
    scale_index = stack.nearest_scale_index(scale)
    height, width = stack.scales[scale_index].grid_shape
    refined = root_hyp.locations.copy()
    for i, part in enumerate(hierarchy.atomic_ids):
        center = root_hyp.locations[i]
        w_part = float(weights.atomic[i])
        parent = hierarchy.parent_of(part)
        penalty = weights.node_weights(hierarchy, parent)[1]
        log_map = stack.log_marginal(part, scale_index)

        cols = np.arange(
            int(np.ceil(center[0] - radius)), int(np.floor(center[0] + radius)) + 1
        )
        rows_ = np.arange(
            int(np.ceil(center[1] - radius)), int(np.floor(center[1] + radius)) + 1
        )
        if cols.size and rows_.size:
            grid_x, grid_y = np.meshgrid(cols, rows_)
            xs = grid_x.ravel().astype(float)
            ys = grid_y.ravel().astype(float)
            dist = np.hypot(xs - center[0], ys - center[1])
            keep = dist <= radius
            xs, ys, dist = xs[keep], ys[keep], dist[keep]
        else:
            xs = np.empty(0)
            ys = np.empty(0)
            dist = np.empty(0)
        xs = np.append(xs, center[0])
        ys = np.append(ys, center[1])
        dist = np.append(dist, 0.0)

        log_values = np.full(xs.shape, LOG_FLOOR)
        px = np.floor(xs + 0.5).astype(int)
        py = np.floor(ys + 0.5).astype(int)
        inside = (px >= 0) & (px < width) & (py >= 0) & (py < height)
        log_values[inside] = log_map[py[inside], px[inside]]
        values = w_part * log_values - penalty * dist * dist

        ranking = np.lexsort((xs, ys, dist, -values))
        best = ranking[0]
        refined[i] = (xs[best], ys[best])
    return refined, refinement_score(refined, root_hyp, stack, hierarchy, weights)


def collapse_model(
    hierarchy: PartHierarchy, library: ExemplarLibrary, weights: WeightVector
) -> tuple[PartHierarchy, ExemplarLibrary, WeightVector]:
    """Depth-2 view: the root directly over all atoms, whole-object exemplars.

    Atomic relation-type labels of each collapsed exemplar are joined from
    the level-2 exemplars of the same source annotation.
    """
    from .geometry import child_geometry

    root = hierarchy.root
    nodes = [
        PartNode(id=pid, name=hierarchy.name_of(pid), level=1)
        for pid in hierarchy.atomic_ids
    ]
    nodes.append(
        PartNode(
            id=root.id,
            name=root.name,
            level=2,
            children=hierarchy.atomic_ids,
            anchor=root.anchor,
        )
    )
    factors = hierarchy.scale.level_factors
    flat = PartHierarchy(
        nodes, ScaleParams(hierarchy.scale.reference_length, (factors[0], factors[-1]))
    )
    exemplars = []
    for ex in library.exemplars(root.id):
        labels: dict[int, int] = {}
        for node in hierarchy.nodes_at_level(2):
            source_ex = library.for_source(node.id, ex.source)
            labels.update(source_ex.child_labels)
        exemplars.append(
            Exemplar(
                node_id=root.id,
                index=ex.index,
                source=ex.source,
                object_size=ex.object_size,
                locations=ex.locations.copy(),
                child_labels=labels,
                geometry=child_geometry(ex.locations, root.id, flat),
            )
        )
    alpha, beta = weights.node_weights(hierarchy, root.id)
    flat_library = ExemplarLibrary(
        {root.id: exemplars}, library.atomic_bins, composite_bins={}
    )
    flat_weights = WeightVector(weights.atomic.copy(), [alpha], [beta], weights.bias)
    return flat, flat_library, flat_weights


@dataclass
class InferenceResult:
    configuration: np.ndarray
    score: float
    mode: str
    diagnostics: dict
    partial_configuration: np.ndarray
    partial_score: float
    root_hypotheses: list[Hypothesis] = field(default_factory=list)


def infer(
    stack: ScoreMapStack,
    hierarchy: PartHierarchy,
    library: ExemplarLibrary,
    weights: WeightVector,
    params: InferenceParams,
    mode: str = "full",
) -> InferenceResult:
    """Run the full inference procedure and return the best configuration.

    Deterministic given the seed: hypothesis proposal draws use one RNG
    stream per (level, part), derived from (seed, level, part index).
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if mode == "no-hier":
        hierarchy, library, weights = collapse_model(hierarchy, library, weights)

    seeds = seed_atomic_hypotheses(stack, hierarchy, params)
    level_diags: list[dict] = []
    n_seeded = sum(len(v) for v in seeds.values())
    level_diags.append(
        {
            "level": 1,
            "kept": n_seeded,
            "per_part": {hierarchy.name_of(p): len(seeds[p]) for p in hierarchy.atomic_ids},
        }
    )
    if n_seeded == 0:
        raise NoConfigurationError("no configuration found: no score-map peaks at level 1")

    lower: dict[int, list[Hypothesis]] = seeds
    for level in range(2, hierarchy.levels + 1):
        current: dict[int, list[Hypothesis]] = {}
        proposed = augmented = 0
        for node_index, node in enumerate(hierarchy.nodes_at_level(level)):
            rng = np.random.default_rng(
                np.random.SeedSequence(params.seed, spawn_key=(level, node_index))
            )
            raw = propose_hypotheses(node, lower, library, hierarchy, params, rng)
            proposed += len(raw)
            if level > 2:
                raw = swap_subtrees(raw, lower, hierarchy, params)
            augmented += len(raw)
            current[node.id] = score_and_prune(
                raw, stack, hierarchy, library, weights,
                params.z, params.dedup_radius, params.max_angle,
            )
        kept = sum(len(v) for v in current.values())
        best = max(
            (h.score for hyps in current.values() for h in hyps), default=None
        )
        level_diags.append(
            {
                "level": level,
                "proposed": proposed,
                "augmented": augmented,
                "kept": kept,
                "per_part": {
                    node.name: len(current[node.id])
                    for node in hierarchy.nodes_at_level(level)
                },
                "best_subtree_score": best,
            }
        )
        if kept == 0:
            raise NoConfigurationError(f"no configuration found: level {level} is empty")
        lower = current

    roots = lower[hierarchy.root.id]
    partial_hyp = roots[0]
    partial_config = partial_hyp.locations.copy()
    partial_score = refinement_score(partial_config, partial_hyp, stack, hierarchy, weights)

    if mode == "partial":
        configuration, score = partial_config, partial_score
    else:
        configuration, score = None, -np.inf
        for hyp in roots:
            refined, value = refine_hypothesis(hyp, stack, hierarchy, weights, params)
            if value > score:
                configuration, score = refined, value
        assert configuration is not None

    diagnostics = {
        "mode": mode,
        "seed": params.seed,
        "z": params.z,
        "samples_per_level": params.samples,
        "levels": level_diags,
        "root_hypotheses": len(roots),
        "partial_score": partial_score,
        "final_score": float(score),
    }
    return InferenceResult(
        configuration=configuration,
        score=float(score),
        mode=mode,
        diagnostics=diagnostics,
        partial_configuration=partial_config,
        partial_score=float(partial_score),
        root_hypotheses=roots,
    )
