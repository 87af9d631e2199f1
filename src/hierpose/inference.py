"""Bottom-up hypothesize-and-test inference with local refinement.

Level-1 hypotheses are score-map peaks.  At each level above, exemplars are
similarity-aligned onto randomly chosen pairs of lower hypotheses (atomic
locations at level 2, composite anchors above), carrying over the exemplar's
subtree and object size; every node of the subtree takes the drawn exemplar
row, since row e of every node comes from one annotation.  From level 3 up,
child subtrees may additionally be swapped with geometrically compatible
lower hypotheses.  Exact copies among the proposals are dropped, every
hypothesis is scored, and near duplicates (copies made by a swap too) are
pruned to the best Z per part, testing a block of ranked candidates against
the kept rows in one array op.  Surviving root hypotheses are refined per
atomic part inside a disc and the best refined configuration wins (the
first, in root order, on a tie).

A score is a sum of independent per-node terms, so each hypothesis keeps
its terms, each either known or NaN (to be computed), and the terms of
different parts can be computed together.  `infer` runs each level as
stages over all of its parts: (1) propose for every part, each from its
own random stream, and (2) drop exact copies; from level 3 up, (3) give
every part's proposals their children's subtree terms in one fill pass and
(4) swap; then (5) fill every remaining NaN term of every part's subtree in
one more pass, and (6) prune each part, which drops the copies a swap made
(a copy scores to its first copy's bits and lies within any dedup_radius
of it).  A fill pass (`_fill_parts`, over `scoring.fill_terms`) makes one
kernel call per child geometry shape among the nodes it computes.  A
swapped hypothesis copies its base row's terms, except those of the
subtree it takes from the level below, which it carries from there (where
its object size reads the same stored scale), so pass (5) fits the part's
own node and whatever is still NaN.  `score_and_prune` is the one-part
call of passes (5) and (6).

The hypotheses of one part are one `HypothesisSet`: stacked locations
(H, N, 2), an (H, C) exemplar index per composite node (-1 outside the
subtree), object sizes, scores and an (H, C) weighted term per node.  No
box is stored: a part's box is the min and max of its subtree's locations.
Seeding, proposal, swap and scoring/pruning take and return these sets, so
the search never handles a hypothesis on its own; `Hypothesis` is the
one-row view that `HypothesisSet.row` returns, with the same (C,) pose row.
Refinement (`refine_roots`) sorts the roots by stored scale and window span
and ranks each chunk of a few roots, all their atomic parts and candidate
pixels, in one array pass; `refine_hypothesis` is its one-row call.

Modes: "full" runs everything; "partial" stops before refinement and traces
the best root hypothesis; "no-hier" collapses the model to a depth-2
hierarchy that only uses whole-object exemplars (`collapse_model`: the
same annotation rows, with the atoms' labels).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace

import numpy as np

from .appearance import ScoreMapStack, _greedy_nms, _ranked_maxima, log_marginals_at
from .geometry import DEFAULT_MAX_ANGLE, check_max_angle, fit_two_points_batch, transform_points
from .hierarchy import BoundingBox, PartHierarchy, PartNode, ScaleParams, object_size
from .learning import ExemplarLibrary
from .scoring import (
    WeightVector,
    best_fit_pose,
    check_model,
    fill_terms,
    refinement_score,
    refinement_scores,
    scale_indices,
    subtree_scope,
    subtree_total,
)

__all__ = [
    "NoConfigurationError",
    "InferenceParams",
    "Hypothesis",
    "HypothesisSet",
    "hypothesis_from_config",
    "seed_atomic_hypotheses",
    "propose_hypotheses",
    "swap_subtrees",
    "score_and_prune",
    "prune_order",
    "refine_roots",
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
        for name in ("z", "samples_per_level", "seed"):
            value = getattr(self, name)
            if value is None and name == "samples_per_level":
                continue
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("max_angle", "compatibility_tolerance", "nms_radius", "dedup_radius",
                     "search_radius_fraction"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if self.z < 1:
            raise ValueError("z must be >= 1")
        if self.samples_per_level is not None and self.samples_per_level < 1:
            raise ValueError("samples_per_level must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        check_max_angle(self.max_angle)
        for name in ("compatibility_tolerance", "search_radius_fraction"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1]")
        if not (self.nms_radius >= 0 and self.dedup_radius >= 0):
            raise ValueError("radii must be non-negative numbers")

    @property
    def samples(self) -> int:
        return self.samples_per_level if self.samples_per_level is not None else 20 * self.z


@dataclass
class Hypothesis:
    """A scored candidate placement of one part's whole subtree: one row of
    a `HypothesisSet`, as its own object."""

    node_id: int
    level: int
    locations: np.ndarray  # (N, 2); NaN outside the subtree
    pose: np.ndarray  # (C,) exemplar index per composite node; -1 outside the subtree
    object_size: float
    score: float = float("nan")

    @property
    def box(self) -> BoundingBox:
        """The tight box of the subtree: the min and max of the finite
        locations."""
        points = self.locations[np.isfinite(self.locations).all(axis=1)]
        return BoundingBox(points.min(axis=0), points.max(axis=0))


_ROW_FIELDS = ("locations", "pose", "object_size", "score", "terms")


@dataclass
class HypothesisSet:
    """The hypotheses of one part, stacked; row i is one hypothesis.

    `pose` holds each row's exemplar index per composite node, one column
    per node of the hierarchy's `composite_nodes`, and -1 for nodes outside
    the part's subtree.  Scores are NaN until `score_and_prune` sets them.
    `terms` holds each row's weighted spatial term per composite node, in
    the columns of `pose`, and NaN where it is not known and is still to be
    computed.
    """

    node_id: int
    level: int
    locations: np.ndarray  # (H, N, 2); NaN outside the subtree
    pose: np.ndarray  # (H, C) int
    object_size: np.ndarray  # (H,)
    score: np.ndarray  # (H,)
    terms: np.ndarray  # (H, C); NaN where not known

    @classmethod
    def build(
        cls,
        node: PartNode,
        locations: np.ndarray,
        pose: np.ndarray,
        sizes: np.ndarray,
        score: np.ndarray | None = None,
    ) -> "HypothesisSet":
        """Hypotheses of one part from stacked arrays; scores default to NaN,
        and no terms are known."""
        return cls(
            node.id, node.level, locations, pose, np.asarray(sizes, dtype=float),
            np.full(len(locations), np.nan) if score is None else score,
            np.full(pose.shape, np.nan),
        )

    @classmethod
    def of(cls, hyps, hierarchy: PartHierarchy) -> "HypothesisSet":
        """Stack one part's `Hypothesis` rows (at least one); no terms are
        known."""
        hyps = list(hyps)
        if not hyps:
            raise ValueError("need at least one hypothesis")
        first = hyps[0]
        if any(h.node_id != first.node_id for h in hyps):
            raise ValueError("hypotheses of one set must belong to one part")
        columns = len(hierarchy.composite_nodes)
        if any(np.shape(h.pose) != (columns,) for h in hyps):
            raise ValueError(f"a pose row needs one exemplar index per composite node ({columns})")
        pose = np.array([h.pose for h in hyps], dtype=np.intp)
        return cls(
            first.node_id, first.level,
            np.stack([np.asarray(h.locations, dtype=float) for h in hyps]),
            pose,
            np.array([h.object_size for h in hyps], dtype=float),
            np.array([h.score for h in hyps], dtype=float),
            np.full(pose.shape, np.nan),
        )

    def __len__(self) -> int:
        return len(self.score)

    def __iter__(self):
        return (self.row(i) for i in range(len(self)))

    def row(self, i: int) -> Hypothesis:
        """Hypothesis i as its own object."""
        return Hypothesis(
            self.node_id, self.level, self.locations[i].copy(), self.pose[i].copy(),
            float(self.object_size[i]), float(self.score[i]),
        )

    def take(self, index) -> "HypothesisSet":
        """The rows `index`, in that order."""
        index = np.asarray(index, dtype=np.intp)
        return replace(self, **{name: getattr(self, name)[index] for name in _ROW_FIELDS})

    def concat(self, other: "HypothesisSet") -> "HypothesisSet":
        """These rows followed by the rows of `other`, a set of the same part."""
        return replace(self, **{
            name: np.concatenate([getattr(self, name), getattr(other, name)])
            for name in _ROW_FIELDS
        })


def _no_hypotheses(node: PartNode, hierarchy: PartHierarchy) -> HypothesisSet:
    return HypothesisSet.build(
        node, np.empty((0, hierarchy.atomic_count, 2)),
        np.empty((0, len(hierarchy.composite_nodes)), dtype=np.intp), np.empty(0),
    )


def hypothesis_from_config(
    X: np.ndarray,
    hierarchy: PartHierarchy,
    library: ExemplarLibrary,
    bound: float = DEFAULT_MAX_ANGLE,
) -> Hypothesis:
    """Root hypothesis for a full configuration, with best-fit poses."""
    pose = np.array([
        best_fit_pose(X, node.id, library, hierarchy, bound)[0]
        for node in hierarchy.composite_nodes
    ], dtype=np.intp)
    X = np.asarray(X, dtype=float)
    return Hypothesis(hierarchy.root.id, hierarchy.levels, X.copy(), pose, object_size(X))


def seed_atomic_hypotheses(
    stack: ScoreMapStack, hierarchy: PartHierarchy, params: InferenceParams
) -> dict[int, HypothesisSet]:
    """Top peaks of every atomic part, as hypotheses: the strict maxima of
    all scales, ranked together by descending score (ties: lower scale, then
    row-major order), pass one greedy NMS to z points, each at distance
    >= nms_radius from every point kept before it."""
    n, columns = hierarchy.atomic_count, len(hierarchy.composite_nodes)
    out: dict[int, HypothesisSet] = {}
    for part in hierarchy.atomic_ids:
        peaks = [_ranked_maxima(stack, part, index) for index in range(stack.n_scales)]
        order = np.argsort(-np.concatenate([score for _, score in peaks]), kind="stable")
        points = np.concatenate([point for point, _ in peaks])[order]
        picked = points[_greedy_nms(points, params.nms_radius, params.z)]
        count = len(picked)
        locations = np.full((count, n, 2), np.nan)
        locations[:, hierarchy.atom_index(part)] = picked
        out[part] = HypothesisSet.build(
            hierarchy.node(part), locations,
            np.full((count, columns), -1, dtype=np.intp), np.zeros(count), np.zeros(count),
        )
    return out


def _alignment_points(locations: np.ndarray, child_id: int, hierarchy: PartHierarchy) -> np.ndarray:
    """Alignment targets of stacked configurations: the child's location if
    atomic, else its anchor; (..., N, 2) -> (..., 2)."""
    if hierarchy.node(child_id).is_atomic:
        return locations[..., hierarchy.atom_index(child_id), :]
    return hierarchy.anchor_point(locations, child_id)


def _draw_proposals(
    rng: np.random.Generator, samples: int, exemplar_count: int, counts
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All proposal draws of one part, made in one array pass.

    Each of the `samples` draws takes an exemplar index in
    [0, exemplar_count), an ordered pair of distinct child slots, uniform over
    all such pairs of the len(counts) >= 2 slots, and one row of each slot's
    pool, whose size is `counts[slot]`.  Draws that touch an empty pool are
    dropped.  Returns the (A,) exemplar indices, (A, 2) slots and (A, 2)
    picks of the A kept draws, in draw order.  The generator is called four
    times, whatever `samples` is.
    """
    counts = np.asarray(counts, dtype=np.intp)
    exemplar = rng.integers(exemplar_count, size=samples)
    first = rng.integers(len(counts), size=samples)
    second = rng.integers(len(counts) - 1, size=samples)
    second += second >= first
    slots = np.stack([first, second], axis=1)
    sizes = counts[slots]
    picks = rng.integers(np.maximum(sizes, 1))
    keep = (sizes > 0).all(axis=1)
    return exemplar[keep], slots[keep], picks[keep]


def propose_hypotheses(
    node: PartNode,
    lower: dict[int, HypothesisSet],
    library: ExemplarLibrary,
    hierarchy: PartHierarchy,
    params: InferenceParams,
    rng: np.random.Generator,
    counts: dict | None = None,
) -> HypothesisSet:
    """Randomly align the node's exemplars onto pairs of lower hypotheses.

    Each draw picks an exemplar and two distinct child slots, fits the exact
    two-point similarity from the exemplar's child points (point 0 of each
    child in the stored child geometry) onto the chosen lower hypotheses, and
    transforms the exemplar's full subtree.  Draws whose fitted rotation
    exceeds the angle bound are rejected; nearly coincident anchor pairs fall
    back to a rotation-free fit with the scale taken from the object-size
    ratio.  Level-1 seeds carry object size 0, so at level 2 that fallback
    never fires: a coincident pair there is always rejected as degenerate.

    All `params.samples` draws of the part are made in one array pass by
    `_draw_proposals`; the fits and transforms of all draws are then computed
    as arrays.  `counts["empty_pool"]`, `["rejected_angle"]`,
    `["rejected_degenerate"]` and `["fallback"]`, if given, grow by the draws
    that touch an empty pool, fail the angle bound, are degenerate with no
    usable size ratio, and are kept by the size-ratio fit.
    """
    children = node.children
    pools = [lower.get(child_id) or () for child_id in children]
    sizes = [len(pool) for pool in pools]
    chosen, slots, picks = _draw_proposals(rng, params.samples, len(library.sources), sizes)
    if counts is not None:
        counts["empty_pool"] = counts.get("empty_pool", 0) + params.samples - len(chosen)
    if not len(chosen):
        return _no_hypotheses(node, hierarchy)

    offsets = np.cumsum([0] + sizes)
    pool_points = np.concatenate([
        _alignment_points(pool.locations, child_id, hierarchy)
        for child_id, pool in zip(children, pools) if pool
    ])
    pool_sizes = np.concatenate([pool.object_size for pool in pools if pool])
    targets = offsets[slots] + picks  # (A, 2) rows of pool_points
    src = library.geometry[node.id][chosen[:, None], slots, 0]  # (A, 2, 2)
    dst = pool_points[targets]

    segment_src = src[:, 1] - src[:, 0]
    segment_dst = dst[:, 1] - dst[:, 0]
    degenerate = (np.hypot(segment_src[:, 0], segment_src[:, 1]) < 1e-9) | (
        np.hypot(segment_dst[:, 0], segment_dst[:, 1]) < 1e-9
    )
    scale = np.zeros(len(chosen))
    angle = np.zeros(len(chosen))
    translation = np.zeros((len(chosen), 2))
    pair = ~degenerate
    scale[pair], angle[pair], translation[pair] = fit_two_points_batch(src[pair], dst[pair])
    turned = pair & (np.abs(angle) > params.max_angle)

    # single usable anchor: no rotation, scale from the object-size ratio
    child_size = pool_sizes[targets[:, 0]]
    exemplar_size = library.object_size[chosen]
    fallback = degenerate & ~((child_size <= 0) | (exemplar_size <= 0))
    scale[fallback] = child_size[fallback] / exemplar_size[fallback]
    translation[fallback] = dst[fallback, 0] - scale[fallback, None] * src[fallback, 0]
    if counts is not None:
        for key, drawn in (("rejected_angle", turned),
                           ("rejected_degenerate", degenerate & ~fallback), ("fallback", fallback)):
            counts[key] = counts.get(key, 0) + int(drawn.sum())

    keep = np.flatnonzero((pair & ~turned) | fallback)
    rows = hierarchy.atom_rows(node.id)
    locations = np.full((len(keep),) + library.points.shape[1:], np.nan)
    locations[:, rows] = transform_points(
        scale[keep], angle[keep], translation[keep], library.points[chosen[keep]][:, rows]
    )
    # row e of every node comes from one annotation: the subtree takes the drawn row
    pose = np.full((len(keep), len(hierarchy.composite_nodes)), -1, dtype=np.intp)
    pose[:, hierarchy.subtree_columns(node.id)] = chosen[keep, None]
    return HypothesisSet.build(node, locations, pose, scale[keep] * exemplar_size[keep])


def swap_subtrees(
    hyps: HypothesisSet,
    lower: dict[int, HypothesisSet],
    stack: ScoreMapStack,
    hierarchy: PartHierarchy,
    params: InferenceParams,
) -> HypothesisSet:
    """Augment one part's hypotheses by swapping child subtrees with compatible ones.

    A lower hypothesis of the same child part is compatible when each of its
    box corners lies within compatibility_tolerance x object_size of the
    current child box corner.  Originals are retained; each compatible
    alternative yields one extra hypothesis, in the order (hypothesis,
    child, alternative), which takes over the alternative's subtree
    locations and poses.  Compatibility is tested as an H x M array per
    child.

    A swapped row keeps its base row's terms except the part's own node's,
    and takes the alternative's stored term of each node of the swapped
    child's subtree where its own object size reads the same stored scale
    (`scale_indices`) as the alternative's; the rest are NaN.
    """
    if not hyps:
        return hyps
    node = hierarchy.node(hyps.node_id)
    tolerance = params.compatibility_tolerance * hyps.object_size
    found = []  # (hypothesis, child slot, alternative) per compatible pair
    for slot, child_id in enumerate(node.children):
        pool = lower.get(child_id)
        if not pool:
            continue
        rows = hierarchy.atom_rows(child_id)
        current, other = hyps.locations[:, rows], pool.locations[:, rows]
        far = np.zeros((len(hyps), len(pool)), dtype=bool)
        for corner in (np.min, np.max):
            gap = corner(other, axis=1)[None] - corner(current, axis=1)[:, None]
            far |= np.hypot(gap[..., 0], gap[..., 1]) > tolerance[:, None]
        hyp_index, alt_index = np.nonzero(~far)
        found.append(np.stack([hyp_index, np.full_like(hyp_index, slot), alt_index], axis=1))
    found = np.concatenate(found) if found else np.empty((0, 3), dtype=np.intp)
    if not len(found):
        return hyps
    # slot-major blocks of row-major (hypothesis, alternative) pairs: a stable
    # sort on the hypothesis gives (hypothesis, child, alternative) order
    found = found[np.argsort(found[:, 0], kind="stable")]

    base = found[:, 0]
    locations = hyps.locations[base]
    pose = hyps.pose[base]
    size = hyps.object_size[base]
    terms = hyps.terms[base]
    terms[:, hierarchy.composite_index(node.id)] = np.nan
    for slot, child_id in enumerate(node.children):
        picked = np.flatnonzero(found[:, 1] == slot)
        if picked.size:
            pool = lower[child_id]
            alternative = found[picked, 2]
            rows = hierarchy.atom_rows(child_id)
            locations[picked[:, None], rows] = pool.locations[alternative[:, None], rows]
            child_pose = pool.pose[alternative]
            pose[picked] = np.where(child_pose >= 0, child_pose, pose[picked])
            columns = hierarchy.subtree_columns(child_id)
            carried = pool.terms[alternative[:, None], columns]
            if len(stack.scales) > 1:  # with one stored scale, every size reads it
                for j, composite in enumerate(hierarchy.composites_below(child_id)):
                    level = hierarchy.node(composite).level - 1
                    ours, theirs = (
                        scale_indices(sizes, level, stack, hierarchy)
                        for sizes in (size[picked], pool.object_size[alternative])
                    )
                    carried[ours != theirs, j] = np.nan
            terms[picked[:, None], columns] = carried
    swapped = HypothesisSet.build(node, locations, pose, size)
    return hyps.concat(replace(swapped, terms=terms))


def prune_order(
    scores: np.ndarray, points: np.ndarray, z: int, dedup_radius: float
) -> list[int]:
    """Indices of the hypotheses `score_and_prune` keeps, best first.

    Scores are ranked rounded to 1e-9 with a stable sort, so hypotheses whose
    scores differ only by round-off keep their creation order.  A hypothesis
    whose points (H, R, 2) all lie within dedup_radius of a kept one is a
    duplicate, and so is any later copy of a kept one; at most z are kept.

    Candidates are taken in blocks of rank order, at least as many as places
    are left (and at least 16): one array op tests a block against every
    kept row and against itself, then the block's clashes are resolved in
    rank order, so the kept list is that of a one-row-at-a-time greedy pass.
    The kept points fill one preallocated (z, R, 2) array in keep order.
    """
    order = np.argsort(-np.round(scores, 9), kind="stable")
    held = np.empty((min(z, len(order)),) + points.shape[1:])
    kept: list[int] = []
    start = 0
    while start < len(order) and len(kept) < z:
        block = order[start : start + max(z - len(kept), 16)]
        start += len(block)
        others = np.concatenate([held[: len(kept)], points[block]])
        gap = others[None] - points[block][:, None]  # (B, kept + B, R, 2)
        near = np.max(np.hypot(gap[..., 0], gap[..., 1]), axis=2) <= dedup_radius
        clear = np.flatnonzero(~near[:, : len(kept)].any(axis=1)).tolist()
        within = near[:, len(kept):].tolist()
        fresh: list[int] = []
        for b in clear:
            if any(within[b][a] for a in fresh):
                continue
            fresh.append(b)
            if len(kept) + len(fresh) == z:
                break
        held[len(kept) : len(kept) + len(fresh)] = points[block[fresh]]
        kept.extend(block[fresh].tolist())
    return kept


def _drop_copies(hyps: HypothesisSet, hierarchy: PartHierarchy) -> HypothesisSet:
    """The first copy, in creation order, of each group of rows equal in
    subtree locations, subtree poses and object size (one unique over their
    bytes)."""
    if not hyps:
        return hyps
    rows, columns = hierarchy.atom_rows(hyps.node_id), hierarchy.subtree_columns(hyps.node_id)
    fields = (hyps.locations[:, rows], hyps.pose[:, columns], hyps.object_size[:, None])
    key = np.hstack([np.ascontiguousarray(f).reshape(len(hyps), -1).view(np.uint8) for f in fields])
    _, first = np.unique(key.view(np.dtype((np.void, key.shape[1])))[:, 0], return_index=True)
    return hyps.take(np.sort(first))


def score_and_prune(
    hyps: HypothesisSet,
    stack: ScoreMapStack,
    hierarchy: PartHierarchy,
    library: ExemplarLibrary,
    weights: WeightVector,
    z: int,
    dedup_radius: float,
    bound: float = DEFAULT_MAX_ANGLE,
    counts: dict | None = None,
) -> HypothesisSet:
    """Score every hypothesis of one part, deduplicate, keep the top z: the
    one-part call of `_score_parts`."""
    return _score_parts(
        [hyps], stack, hierarchy, library, weights, z, dedup_radius, bound, counts
    )[0]


def _fill_parts(
    sets: list[HypothesisSet], tops, stack, hierarchy, library, weights, bound, counts
) -> list[HypothesisSet]:
    """The sets, each with every NaN term of the subtrees of its `tops` (a
    tuple of node ids per set) computed, in one `fill_terms` pass over the
    rows of all of them."""
    scope = np.concatenate([
        subtree_scope(hierarchy, nodes, len(hyps)) for hyps, nodes in zip(sets, tops)
    ])
    fields = [[getattr(hyps, name) for hyps in sets]
              for name in ("locations", "pose", "object_size", "terms")]
    terms = fill_terms(
        *(field[0] if len(sets) == 1 else np.concatenate(field) for field in fields),
        scope, stack, hierarchy, library, weights, bound, counts,
    )
    ends = np.cumsum([len(hyps) for hyps in sets])[:-1]
    return [replace(hyps, terms=part) for hyps, part in zip(sets, np.split(terms, ends))]


def _score_parts(
    sets: list[HypothesisSet],
    stack: ScoreMapStack,
    hierarchy: PartHierarchy,
    library: ExemplarLibrary,
    weights: WeightVector,
    z: int,
    dedup_radius: float,
    bound: float,
    counts: dict | None,
) -> list[HypothesisSet]:
    """Score every hypothesis of several parts, deduplicate, keep the top z
    per part.

    A row is scored by the pre-order sum of its subtree's node terms
    (`subtree_total`).  A row's known terms are reused, and the NaN terms
    of every part's subtree are computed in one `fill_terms` pass, one
    kernel call per child geometry shape.  Duplicates are hypotheses whose
    atomic locations all lie within dedup_radius of a better-scoring
    survivor.
    Scores that agree to 1e-9 keep earlier creation order (see
    `prune_order`), so of exact copies, which score to the same bits, only
    the first can be kept.  Returns each part's kept rows, best first, with
    their scores and every subtree term; `counts["scored"]`,
    `counts["kernel_rows"]` and `counts["kernel_calls"]`, if given, grow by
    the rows scored, the (row, node) terms computed and the kernel calls.
    """
    if counts is not None:
        counts["scored"] = counts.get("scored", 0) + sum(len(hyps) for hyps in sets)
    sets = _fill_parts(
        sets, [(hyps.node_id,) for hyps in sets], stack, hierarchy, library, weights, bound, counts
    )
    out = []
    for hyps in sets:
        scores = subtree_total(hyps.terms, hyps.node_id, hierarchy)
        points = hyps.locations[:, hierarchy.atom_rows(hyps.node_id)]
        out.append(replace(hyps, score=scores).take(prune_order(scores, points, z, dedup_radius)))
    return out


_REFINE_CHUNK = 8  # roots ranked per array pass; caps the padded window memory


def refine_roots(
    roots: HypothesisSet,
    stack: ScoreMapStack,
    hierarchy: PartHierarchy,
    weights: WeightVector,
    params: InferenceParams,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-part refinement of every root hypothesis inside a disc around its
    locations: the (R, P, 2) refined configurations and (R,) scores, in root
    order.

    Each atomic part maximizes its weighted detection log-probability minus
    its parent's alignment penalty over every pixel within
    search_radius_fraction x (root box mean side) of its hypothesized
    location; the exact starting point is always a candidate.  Ties prefer
    the smallest displacement, then the smallest y, then the smallest x.

    Roots are sorted by (stored scale index, window span), stably, and
    ranked in chunks of up to `_REFINE_CHUNK` roots of one scale: a chunk is
    one (C, P, K) array of candidates, the pixels of a square window per
    part, padded to the chunk's largest span and masked to each part's disc,
    plus each part's starting point, with one map lookup for all of them.
    The refined rows are scored (`refinement_scores`) from the same lookup.
    """
    centers = roots.locations
    if not np.isfinite(centers).all():
        raise ValueError("root hypothesis has undefined locations")
    if not np.isfinite(roots.score).all():
        raise ValueError("root hypothesis must be scored before refinement")
    count, parts = centers.shape[:2]
    sides = centers.max(axis=1) - centers.min(axis=1)
    radius = params.search_radius_fraction * (0.5 * (sides[:, 0] + sides[:, 1]))
    scale_index = scale_indices(roots.object_size, 1, stack, hierarchy)
    # candidate pixels: the integer window [ceil(c - r), floor(c + r)] per part
    low = np.ceil(centers - radius[:, None, None]).astype(int)
    high = np.floor(centers + radius[:, None, None]).astype(int)
    span = np.maximum((high - low).max(axis=1) + 1, 0)  # (R, 2)
    order = np.lexsort((span[:, 1], span[:, 0], scale_index))
    penalty = np.array([
        weights.node_weights(hierarchy, hierarchy.parent_of(part))[1]
        for part in hierarchy.atomic_ids
    ])[:, None]
    w_atomic = weights.atomic[:, None]

    refined = np.empty((count, parts, 2))
    log_probs = np.empty((count, parts))
    breaks = np.flatnonzero(np.diff(scale_index[order])) + 1
    for group in np.split(order, breaks):
        for at in range(0, len(group), _REFINE_CHUNK):
            chunk = group[at : at + _REFINE_CHUNK]
            c, width = len(chunk), span[chunk].max(axis=0)
            cols = low[chunk, :, 0, None] + np.arange(width[0])  # (C, P, Kx)
            rows = low[chunk, :, 1, None] + np.arange(width[1])  # (C, P, Ky)
            inside = (
                (rows <= high[chunk, :, 1, None])[..., :, None]
                & (cols <= high[chunk, :, 0, None])[..., None, :]
            )
            # the window's pixels in row-major order, NaN (never in the disc)
            # past the part's own window, then the part's starting point
            start = centers[chunk]
            xs = np.where(inside, cols[..., None, :], np.nan).reshape(c, parts, -1)
            ys = np.where(inside, rows[..., :, None], np.nan).reshape(c, parts, -1)
            xs = np.concatenate([xs, start[..., :1]], axis=2)
            ys = np.concatenate([ys, start[..., 1:]], axis=2)
            dist = np.hypot(xs - start[..., :1], ys - start[..., 1:])
            valid = dist <= radius[chunk, None, None]
            points = np.stack([xs, ys], axis=-1).transpose(1, 0, 2, 3)  # (P, C, K, 2)
            log_values = log_marginals_at(
                stack, hierarchy.atomic_ids, points.reshape(parts, -1, 2),
                int(scale_index[chunk[0]]),
            ).reshape(parts, c, -1).transpose(1, 0, 2)
            values = w_atomic * log_values - penalty * dist * dist

            # max value, then min dist: as candidates run row-major with the start
            # point last, the first one left has the least y, then the least x
            best = valid & (values == np.where(valid, values, -np.inf).max(axis=2, keepdims=True))
            best &= dist == np.where(best, dist, np.inf).min(axis=2, keepdims=True)
            choice = best.argmax(axis=2)[..., None]
            refined[chunk] = np.stack(
                [np.take_along_axis(key, choice, axis=2)[..., 0] for key in (xs, ys)], axis=-1
            )
            log_probs[chunk] = np.take_along_axis(log_values, choice, axis=2)[..., 0]
    scores = refinement_scores(log_probs, refined, centers, roots.score, hierarchy, weights)
    return refined, scores


def refine_hypothesis(
    root_hyp: Hypothesis,
    stack: ScoreMapStack,
    hierarchy: PartHierarchy,
    weights: WeightVector,
    params: InferenceParams,
) -> tuple[np.ndarray, float]:
    """One root's refined configuration and score: the one-row call of
    `refine_roots`."""
    configs, scores = refine_roots(
        HypothesisSet.of([root_hyp], hierarchy), stack, hierarchy, weights, params
    )
    return configs[0], float(scores[0])


def collapse_model(
    hierarchy: PartHierarchy, library: ExemplarLibrary, weights: WeightVector
) -> tuple[PartHierarchy, ExemplarLibrary, WeightVector]:
    """Depth-2 view: the root directly over all atoms, whole-object exemplars.

    The collapsed library is the same annotation rows with the atoms'
    labels, which are their relation types under their level-2 parents.
    """
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
    alpha, beta = weights.node_weights(hierarchy, root.id)
    flat_library = ExemplarLibrary(
        flat, library.sources, library.points, library.labels, library.atomic_bins,
        composite_bins={},
    )
    flat_weights = WeightVector(weights.atomic.copy(), [alpha], [beta], weights.bias)
    return flat, flat_library, flat_weights


# a level's proposal-draw counters, which also name what emptied it
_DRAW_COUNTS = ("proposed", "empty_pool", "rejected_angle", "rejected_degenerate", "fallback")


@dataclass
class InferenceResult:
    configuration: np.ndarray
    score: float
    mode: str
    diagnostics: dict
    partial_configuration: np.ndarray
    partial_score: float
    root_hypotheses: HypothesisSet


def infer(
    stack: ScoreMapStack,
    hierarchy: PartHierarchy,
    library: ExemplarLibrary,
    weights: WeightVector,
    params: InferenceParams,
    mode: str = "full",
) -> InferenceResult:
    """Run the full inference procedure and return the best configuration.

    The model is checked against the stack first (`check_model`), and in
    "no-hier" mode the collapsed model too, so a mismatch raises
    `ModelMismatchError` before the search.  Deterministic given the seed:
    each (level, part) has its own RNG stream, derived from (seed, level,
    part index), and all proposal draws of that part are taken from it in
    one array pass (`_draw_proposals`).
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    check_model(hierarchy, library, weights, stack)
    if mode == "no-hier":
        hierarchy, library, weights = collapse_model(hierarchy, library, weights)
        check_model(hierarchy, library, weights, stack)

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

    lower: dict[int, HypothesisSet] = seeds
    for level in range(2, hierarchy.levels + 1):
        nodes = hierarchy.nodes_at_level(level)
        counts = dict.fromkeys(_DRAW_COUNTS + (
            "augmented", "scored", "kernel_rows", "kernel_calls",
        ), 0)
        sets = [
            propose_hypotheses(
                node, lower, library, hierarchy, params,
                np.random.default_rng(
                    np.random.SeedSequence(params.seed, spawn_key=(level, index))
                ),
                counts,
            )
            for index, node in enumerate(nodes)
        ]
        counts["proposed"] = sum(len(hyps) for hyps in sets)
        sets = [_drop_copies(hyps, hierarchy) for hyps in sets]
        if level > 2:
            sets = _fill_parts(
                sets, [node.children for node in nodes],
                stack, hierarchy, library, weights, params.max_angle, counts,
            )
            sets = [swap_subtrees(hyps, lower, stack, hierarchy, params) for hyps in sets]
        counts["augmented"] = sum(len(hyps) for hyps in sets)
        current = dict(zip(
            (node.id for node in nodes),
            _score_parts(
                sets, stack, hierarchy, library, weights,
                params.z, params.dedup_radius, params.max_angle, counts,
            ),
        ))
        kept = sum(len(v) for v in current.values())
        best = max(
            (float(hyps.score.max()) for hyps in current.values() if hyps), default=None
        )
        level_diags.append(
            {
                "level": level,
                **counts,
                "kept": kept,
                "per_part": {
                    node.name: len(current[node.id])
                    for node in hierarchy.nodes_at_level(level)
                },
                "best_subtree_score": best,
            }
        )
        if kept == 0:
            draws = ", ".join(f"{counts[key]} {key}" for key in _DRAW_COUNTS)
            raise NoConfigurationError(
                f"no configuration found: level {level} is empty (draws: {draws})"
            )
        lower = current

    roots = lower[hierarchy.root.id]
    partial_hyp = roots.row(0)
    partial_config = partial_hyp.locations.copy()
    partial_score = refinement_score(partial_config, partial_hyp, stack, hierarchy, weights)

    if mode == "partial":
        configuration, score, winner = partial_config, partial_score, 0
    else:
        configs, scores = refine_roots(roots, stack, hierarchy, weights, params)
        winner = int(np.argmax(scores))  # the first maximum, in root order
        configuration, score = configs[winner].copy(), scores[winner]

    diagnostics = {
        "mode": mode,
        "seed": params.seed,
        "z": params.z,
        "samples_per_level": params.samples,
        "levels": level_diags,
        "root_hypotheses": len(roots),
        "winning_root": winner,
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
