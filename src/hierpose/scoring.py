"""The configuration energy: appearance plus multi-level exemplar terms.

A configuration X is scored as

    total = sum_i w_i * log p(part_i | x_i)                   (appearance)
          + sum_nodes [pose_appearance * log-pose-prob
                       + pose_similarity * alignment score]   (spatial)
          + bias

which is linear in the weights, so the same quantities double as the
feature vector used for max-margin training.

Every per-node (log-pose-prob, alignment score) pair comes from one batched
kernel, `pose_terms`: for M (row, node) pairs whose nodes' stored child
geometry has one shape (n children, S points each) it gathers each pair's
child geometry and exemplar, runs the bounded similarity fit on all pairs
at once, and looks the relation-type probabilities up at each pair's
stored scale, at each child's point 0.  Child kinds follow from the level
rule (every child sits one level below its parent) and show in the shape:
a level-2 node's children are all atoms (S = 1), and those of a node
above all composites (S = 3), each read at its anchor; either kind is
looked up in one call per stored scale.
One rule, `scale_indices`, picks every stored scale read: the one nearest
the scale a row's object size sets at the level read.  A part's spatial
score is the pre-order sum (`subtree_total`) of its subtree's weighted node
terms, which are independent of each other.  `fill_terms` computes the
wanted ones of H rows of any parts, kept as an (H, C) matrix with NaN where
a term is unknown, reading each row's exemplar per node from an (H, C) pose
array (-1 outside the subtree): known terms, such as those a swapped-in
subtree carries from the level below, are not recomputed, and the pairs of
all nodes with one child geometry shape go to one kernel call.
`subtree_score` is the sum for one hypothesis.  Every angle bound is one
float, by default DEFAULT_MAX_ANGLE.  `check_model` checks, before a search
or a training run, that a hierarchy, library, weights and stack fit
together, the shape of every node's stored child geometry included, and
raises `ModelMismatchError` if not.

Training features come from one batched pass, `feature_matrix`: for S
configurations, each read on its own score-map stack, it first fits blocks
of a composite node's exemplars to all rows in bounded fits of at most
`_FIT_ROWS` pairs and keeps each row's best exemplar, which needs no stack.
Then it draws the stacks one at a time, in order: per stack it gathers its
rows' atomic columns at each row's nearest scale and reads the relation
types with the lookup half of `pose_terms`, once per child geometry shape,
and releases the stack before drawing the next, so a generator that loads
each stack keeps one in memory.  `feature_vector` and `best_fit_pose` are
one-row calls of it and of its best-fit step; `build_training_set` stacks
all samples, taking one shared stack or a per-image source, and streams
the per-image stacks, each loaded once, in order of first appearance.
`total_score` is the weights times the feature vector, and `spatial_score`
weights its composite slice.
Candidate refinements are scored by a separable approximation that freezes
everything except the atomic appearance terms and the level-2 alignment
penalties; `refinement_scores` scores many refined roots at once, and
`refinement_score` is its one-row call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _json
from .appearance import (
    ScoreMapStack,
    log_marginals_at,
    log_type_prob_atomic,
    log_type_prob_composite,
)
from .geometry import DEFAULT_MAX_ANGLE, child_points, fit_least_squares_batch
from .hierarchy import PartHierarchy, object_size
from .learning import ExemplarLibrary, TrainingSet

__all__ = [
    "ModelMismatchError",
    "check_model",
    "WeightVector",
    "save_weights",
    "load_weights",
    "best_fit_pose",
    "spatial_score",
    "total_score",
    "pose_terms",
    "scale_indices",
    "fill_terms",
    "subtree_scope",
    "subtree_total",
    "subtree_score",
    "refinement_score",
    "refinement_scores",
    "feature_matrix",
    "feature_vector",
    "feature_length",
    "build_training_set",
]


@dataclass
class WeightVector:
    """Scoring weights: per-atom appearance, per-node pose terms, and a bias.

    All components are finite, and all except the bias are non-negative.
    Array components are aligned to the hierarchy's canonical
    atomic/composite orders.
    """

    atomic: np.ndarray
    pose_appearance: np.ndarray
    pose_similarity: np.ndarray
    bias: float = 0.0

    def __post_init__(self):
        self.atomic = np.asarray(self.atomic, dtype=float)
        self.pose_appearance = np.asarray(self.pose_appearance, dtype=float)
        self.pose_similarity = np.asarray(self.pose_similarity, dtype=float)
        if self.pose_appearance.shape != self.pose_similarity.shape:
            raise ValueError("pose weight arrays must have matching shapes")
        for name in ("atomic", "pose_appearance", "pose_similarity"):
            values = getattr(self, name)
            if values.ndim != 1:
                raise ValueError(f"{name} weights must be 1-D")
            if not np.all((values >= 0) & (values < np.inf)):
                raise ValueError(f"{name} weights must be finite and non-negative")
        if not math.isfinite(self.bias):
            raise ValueError(f"bias must be finite, got {self.bias}")

    @classmethod
    def uniform(cls, hierarchy: PartHierarchy, atomic: float = 1.0,
                pose_appearance: float = 1.0, pose_similarity: float = 1.0,
                bias: float = 0.0) -> "WeightVector":
        n, c = hierarchy.atomic_count, len(hierarchy.composite_nodes)
        return cls(np.full(n, atomic), np.full(c, pose_appearance),
                   np.full(c, pose_similarity), bias)

    def as_array(self) -> np.ndarray:
        """Flat layout matching the feature vector: atoms, node pairs, bias."""
        pairs = np.empty(2 * len(self.pose_appearance))
        pairs[0::2] = self.pose_appearance
        pairs[1::2] = self.pose_similarity
        return np.concatenate([self.atomic, pairs, [self.bias]])

    @classmethod
    def from_array(cls, values: np.ndarray, hierarchy: PartHierarchy) -> "WeightVector":
        values = np.asarray(values, dtype=float)
        n, c = hierarchy.atomic_count, len(hierarchy.composite_nodes)
        if values.shape != (n + 2 * c + 1,):
            raise ValueError(f"weight array must have length {n + 2 * c + 1}")
        pairs = values[n:-1]
        return cls(values[:n], pairs[0::2], pairs[1::2], float(values[-1]))

    def node_weights(self, hierarchy: PartHierarchy, node_id: int) -> tuple[float, float]:
        i = hierarchy.composite_index(node_id)
        return float(self.pose_appearance[i]), float(self.pose_similarity[i])

    def to_json(self, hierarchy: PartHierarchy) -> str:
        doc = {
            "bias": self.bias,
            "atomic": {
                name: float(self.atomic[i]) for i, name in enumerate(hierarchy.atomic_names)
            },
            "pose_appearance": {
                node.name: float(self.pose_appearance[i])
                for i, node in enumerate(hierarchy.composite_nodes)
            },
            "pose_similarity": {
                node.name: float(self.pose_similarity[i])
                for i, node in enumerate(hierarchy.composite_nodes)
            },
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str, hierarchy: PartHierarchy) -> "WeightVector":
        """Read `to_json` text; every part and node name must appear once."""
        nodes = dict.fromkeys((n.name for n in hierarchy.composite_nodes), float)
        spec = {"bias": float, "atomic": dict.fromkeys(hierarchy.atomic_names, float),
                "pose_appearance": nodes, "pose_similarity": nodes}
        doc = _json.load(text, spec, "weights", ValueError)
        terms = [list(doc[key].values()) for key in ("atomic", "pose_appearance", "pose_similarity")]
        return cls(*terms, doc["bias"])


def save_weights(weights: WeightVector, hierarchy: PartHierarchy, path) -> None:
    Path(path).write_text(weights.to_json(hierarchy))


def load_weights(path, hierarchy: PartHierarchy) -> WeightVector:
    return WeightVector.from_json(Path(path).read_text(), hierarchy)


# -- scoring -----------------------------------------------------------------


class ModelMismatchError(ValueError):
    """A hierarchy, exemplar library, weights and score-map stack that do
    not fit together."""


def check_model(
    hierarchy: PartHierarchy,
    library: ExemplarLibrary,
    weights: WeightVector | None,
    stack: ScoreMapStack,
) -> None:
    """Raise `ModelMismatchError` unless a search can read all it needs.

    The library must hold the hierarchy's composite nodes, each with the
    child geometry shape the hierarchy gives it (E rows, n children, one
    point per atomic child at level 2 and three per composite child above),
    and one label column per non-root part; `weights`, if
    given (training has none yet), one atomic weight per atomic part and one
    pose weight pair per composite node.  At every stored scale the stack
    must hold a channel for each (atomic part, type) the library labels, and
    maps for each non-root composite part with a type for each of its
    labels.  The channels of all parts are found in one search per scale.
    """
    def compare(what: str, have, want) -> None:
        if set(have) != set(want):
            extra, missing = sorted(set(have) - set(want)), sorted(set(want) - set(have))
            raise ModelMismatchError(
                f"{what} do not match the hierarchy: extra {extra}, missing {missing}"
            )

    composites = [node.id for node in hierarchy.composite_nodes]
    compare("library nodes", library.geometry, composites)
    for node in composites:
        _node_geometry(library, node, hierarchy)
    compare("library label parts", library.labels,
            [node.id for node in hierarchy.nodes if node.id != hierarchy.root.id])
    if weights is not None and (
        len(weights.atomic), len(weights.pose_appearance)
    ) != (hierarchy.atomic_count, len(composites)):
        raise ModelMismatchError(
            f"weights for {len(weights.atomic)} atomic parts and {len(weights.pose_appearance)} "
            f"composite nodes, the hierarchy has {hierarchy.atomic_count} and {len(composites)}"
        )
    atoms = hierarchy.atomic_ids
    parts = np.repeat(atoms, len(library.sources))
    types = np.concatenate([library.labels[part] for part in atoms])
    for index, maps in enumerate(stack.scales):
        try:
            stack.channel_rows(parts, types, index)
        except KeyError as exc:
            raise ModelMismatchError(f"{exc.args[0]} at scale {maps.scale}") from None
        for part in library.labels:
            if hierarchy.node(part).is_atomic:
                continue
            found = maps.composite.get(part)
            if found is None:
                raise ModelMismatchError(
                    f"no composite maps for part {part} at scale {maps.scale}"
                )
            labels = library.labels[part]
            bad = labels[(labels < 1) | (labels > len(found))]
            if bad.size:
                raise ModelMismatchError(
                    f"no composite type {int(bad[0])} for part {part} "
                    f"({len(found)} types) at scale {maps.scale}"
                )


def _node_geometry(library: ExemplarLibrary, node_id: int, hierarchy: PartHierarchy) -> np.ndarray:
    """The library's (E, n, S, 2) child geometry of a composite node;
    `ModelMismatchError` unless n and S are the hierarchy's (one point per
    atomic child at level 2, three per composite child above)."""
    node = hierarchy.node(node_id)
    geometry = library.geometry.get(node_id)
    if geometry is None:
        raise ModelMismatchError(f"library has no child geometry for node {node_id}")
    have = geometry.shape[1:]
    want = (len(node.children), 1 if node.level == 2 else 3, 2)
    if have != want:
        raise ModelMismatchError(
            f"library child geometry of node {node_id} has shape {have}, the hierarchy's {want}"
        )
    return geometry


def best_fit_pose(
    X: np.ndarray,
    node_id: int,
    library: ExemplarLibrary,
    hierarchy: PartHierarchy,
    bound: float = DEFAULT_MAX_ANGLE,
) -> tuple[int, float]:
    """Row of the node's exemplar whose pose best matches X (ties: lowest
    index), and its alignment score."""
    geometry = _node_geometry(library, node_id, hierarchy)
    current = child_points(np.asarray(X, dtype=float)[None], node_id, hierarchy)
    best, similarity = _best_fits(geometry, current, bound)
    return int(best[0]), float(similarity[0])


_FIT_ROWS = 1024  # (row, exemplar) pairs per bounded fit of `_best_fits`


def _best_fits(exemplars: np.ndarray, current: np.ndarray, bound) -> tuple[np.ndarray, np.ndarray]:
    """Per row of `current` (S, n, P, 2): the index of the best-fitting of
    the (E, n, P, 2) exemplar geometries (ties: lowest index) and its
    alignment score; a NaN score is never picked, and a row with no score
    above -inf keeps exemplar 0 at -inf.  Each block of max(1, _FIT_ROWS // S)
    exemplars is fitted to all S rows in one bounded fit, so memory grows
    with S, not with S x E."""
    count = len(current)
    step = max(1, _FIT_ROWS // max(count, 1))
    best = np.zeros(count, dtype=np.intp)
    best_score = np.full(count, -np.inf)
    rows = np.arange(count)
    for start in range(0, len(exemplars), step):
        block = exemplars[start : start + step]
        _, _, _, residual = fit_least_squares_batch(
            np.repeat(block, count, axis=0),
            np.tile(current, (len(block),) + (1,) * (current.ndim - 1)), bound,
        )
        score = -residual.reshape(len(block), count)
        score[np.isnan(score)] = -np.inf
        pick = score.argmax(axis=0)  # the first maximum of each row
        value = score[pick, rows]
        better = value > best_score
        best[better] = start + pick[better]
        best_score[better] = value[better]
    return best, best_score


def pose_terms(
    locations: np.ndarray,
    nodes,
    exemplar_index: np.ndarray,
    size: np.ndarray,
    stack: ScoreMapStack,
    hierarchy: PartHierarchy,
    library: ExemplarLibrary,
    bound: float = DEFAULT_MAX_ANGLE,
) -> tuple[np.ndarray, np.ndarray]:
    """(log-pose-probability, alignment score) of M (row, node) pairs.

    `nodes` is one composite node id or (M,) ids of nodes whose stored
    child geometry has one shape (n, S, 2).  `locations` (M, N, 2) holds
    each pair's row, `exemplar_index` (M,) the exemplar of the pair's node and
    `size` (M,) the row's object size, which sets the score-map scale.  The
    alignment score is the negative residual of the bounded least-squares fit
    of the exemplar's child geometry onto the row's.  All pairs share one
    fit and, per stored scale, one relation-type lookup (`_log_pose_probs`);
    each pair's terms are computed by the same arithmetic whatever else
    shares the call.  Pairs of one node that are adjacent are handled as
    one run, so callers pass them node by node.
    """
    exemplar_index = np.asarray(exemplar_index, dtype=np.intp)
    nodes = np.broadcast_to(np.asarray(nodes, dtype=np.intp), exemplar_index.shape)
    runs = _node_runs(nodes)
    shape = library.geometry[runs[0][0]].shape[1:]
    current = np.empty((len(nodes),) + shape)
    exemplars = np.empty_like(current)
    for node_id, run in runs:
        geometry = library.geometry[node_id]
        if geometry.shape[1:] != shape:
            raise ValueError(
                f"one kernel call needs one child geometry shape: node {node_id} has "
                f"{geometry.shape[1:]}, node {runs[0][0]} {shape}"
            )
        current[run] = child_points(locations[run], node_id, hierarchy)
        exemplars[run] = geometry[exemplar_index[run]]
    _, _, _, residual = fit_least_squares_batch(exemplars, current, bound)
    log_prob = _log_pose_probs(
        runs, library.labels, exemplar_index, current, size, stack, hierarchy
    )
    return log_prob, -residual


def _node_runs(nodes: np.ndarray) -> list[tuple[int, slice]]:
    """(node id, slice) of each run of equal adjacent entries of `nodes`."""
    bounds = [0] + (np.flatnonzero(nodes[1:] != nodes[:-1]) + 1).tolist() + [len(nodes)]
    return [(int(nodes[a]), slice(a, b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def scale_indices(
    size, level: int, stack: ScoreMapStack, hierarchy: PartHierarchy
) -> np.ndarray:
    """Index of the stored scale that rows of object size `size` (H,) read
    at hierarchy level `level`: the one nearest the scale the size sets
    there.  Atomic appearance reads level 1; the term of a composite node
    reads the level of the node's children."""
    return stack.nearest_scale_indices(
        hierarchy.scale.factor_from_size(np.asarray(size, dtype=float), level)
    )


def _log_pose_probs(runs, labels, exemplar_index, current, size, stack, hierarchy):
    """Log-pose-probability of M (row, node) pairs whose nodes share one
    child geometry shape, given as (node id, slice of pairs) `runs`: the
    floored log relation-type probabilities of each pair's exemplar labels,
    read at point 0 of each child of its child geometry `current`
    (M, n, S, 2) on the stored scale
    nearest the one its object size (M,) sets at its node's level, and
    added child by child (0 + c1 + c2 + ...).

    Pairs are grouped by stored scale.  Per scale, one call looks up every
    child of every pair: `log_type_prob_atomic` at level 2, where all
    children are atoms, and `log_type_prob_composite` above.
    """
    size = np.asarray(size, dtype=float)
    nodes = [hierarchy.node(node_id) for node_id, _ in runs]
    # the level rule: a level-2 node's children are all atoms, any other's none
    lookup = log_type_prob_atomic if nodes[0].level == 2 else log_type_prob_composite
    children = np.empty((len(exemplar_index), len(nodes[0].children)), dtype=np.int64)
    types = np.empty(children.shape, dtype=np.intp)
    level = np.empty(len(exemplar_index), dtype=np.intp)
    for node, (_, run) in zip(nodes, runs):
        children[run] = node.children
        for slot, child in enumerate(node.children):
            types[run, slot] = labels[child][exemplar_index[run]]
        level[run] = node.level
    levels = sorted({node.level for node in nodes})
    scale_index = np.empty(len(exemplar_index), dtype=np.intp)
    for at in levels:
        rows = slice(None) if len(levels) == 1 else level == at
        scale_index[rows] = scale_indices(size[rows], at - 1, stack, hierarchy)
    present = np.flatnonzero(np.bincount(scale_index, minlength=stack.n_scales)).tolist()
    log_prob = np.zeros(len(exemplar_index))
    for idx in present:
        rows = slice(None) if len(present) == 1 else np.flatnonzero(scale_index == idx)
        values = lookup(stack, children[rows], types[rows], current[rows, :, 0], idx)
        for slot in range(values.shape[1]):
            log_prob[rows] += values[:, slot]
    return log_prob


def spatial_score(
    X: np.ndarray,
    stack: ScoreMapStack,
    hierarchy: PartHierarchy,
    library: ExemplarLibrary,
    weights: WeightVector,
    bound: float = DEFAULT_MAX_ANGLE,
) -> float:
    """Sum of the spatial terms of every composite node, with best-fit poses:
    the composite slice of the feature vector, weighted."""
    spatial = slice(hierarchy.atomic_count, -1)
    features = feature_vector(X, stack, hierarchy, library, bound)
    return float(weights.as_array()[spatial] @ features[spatial])


def total_score(
    X: np.ndarray,
    stack: ScoreMapStack,
    hierarchy: PartHierarchy,
    library: ExemplarLibrary,
    weights: WeightVector,
    bound: float = DEFAULT_MAX_ANGLE,
) -> float:
    """Full configuration energy, appearance + spatial + bias: the weights
    times the feature vector."""
    return float(weights.as_array() @ feature_vector(X, stack, hierarchy, library, bound))


def fill_terms(
    locations: np.ndarray,
    pose: np.ndarray,
    size: np.ndarray,
    terms: np.ndarray,
    scope: np.ndarray,
    stack: ScoreMapStack,
    hierarchy: PartHierarchy,
    library: ExemplarLibrary,
    weights: WeightVector,
    bound: float = DEFAULT_MAX_ANGLE,
    counts: dict | None = None,
) -> np.ndarray:
    """A copy of `terms` (H, C) with every NaN term inside `scope` computed.

    Row h of `locations` (H, N, 2), `pose` (H, C) and `size` (H,) is one
    hypothesis, of any part; `pose` holds its exemplar index per node of
    `hierarchy.composite_nodes`.  `scope` (H, C) marks the (row, node) pairs
    whose terms are wanted; a known term is not recomputed.  Term (h, j) is
    w_app * log-pose-prob + w_sim * alignment score of node j with row h's
    stored exemplar, not a re-fit.  The pairs of all nodes whose stored
    child geometry has one shape go to one `pose_terms` call, so a pass
    makes one kernel call per such shape that has any pair.  `counts["kernel_rows"]` and
    `counts["kernel_calls"]`, if given, grow by the pairs computed and the
    calls made.
    """
    pose = np.asarray(pose, dtype=np.intp)
    size = np.asarray(size, dtype=float)
    out = np.array(terms, dtype=float)
    todo = np.asarray(scope, dtype=bool) & np.isnan(out)
    ids = np.array([node.id for node in hierarchy.composite_nodes])
    groups: dict[tuple[int, ...], list[int]] = {}
    for column in np.flatnonzero(todo.any(axis=0)).tolist():
        groups.setdefault(library.geometry[int(ids[column])].shape[1:], []).append(column)
    for columns in groups.values():
        columns = np.array(columns)
        slot, row = np.nonzero(todo[:, columns].T)  # node by node, rows in order
        column = columns[slot]
        index = pose[row, column]
        if np.any(index < 0):
            raise ValueError(
                f"hypothesis subtree is missing a pose for node {ids[column[index < 0][0]]}"
            )
        # one node's rows that form one block are passed as views, not copies
        block = len(columns) == 1 and row[-1] - row[0] + 1 == len(row)
        rows = slice(row[0], row[-1] + 1) if block else row
        log_prob, similarity = pose_terms(
            locations[rows], ids[column], index, size[rows], stack, hierarchy, library, bound
        )
        w_app, w_sim = weights.pose_appearance[column], weights.pose_similarity[column]
        out[row, column] = w_app * log_prob + w_sim * similarity
    if counts is not None:
        counts["kernel_rows"] = counts.get("kernel_rows", 0) + int(todo.sum())
        counts["kernel_calls"] = counts.get("kernel_calls", 0) + len(groups)
    return out


def subtree_scope(hierarchy: PartHierarchy, node_ids, count: int) -> np.ndarray:
    """(count, C) `fill_terms` scope that wants, on every row, each node of
    the subtrees of `node_ids`."""
    scope = np.zeros((count, len(hierarchy.composite_nodes)), dtype=bool)
    for top in node_ids:
        scope[:, hierarchy.subtree_columns(top)] = True
    return scope


def subtree_total(terms: np.ndarray, node_id: int, hierarchy: PartHierarchy) -> np.ndarray:
    """(H,) spatial scores from the (H, C) terms of one part: its subtree's
    node terms added in pre-order, one at a time, so that a row's score
    depends only on its own terms."""
    total = np.zeros(len(terms))
    for column in hierarchy.subtree_columns(node_id).tolist():
        total += terms[:, column]
    return total


def subtree_score(
    hypothesis,
    stack: ScoreMapStack,
    hierarchy: PartHierarchy,
    library: ExemplarLibrary,
    weights: WeightVector,
    bound: float = DEFAULT_MAX_ANGLE,
) -> float:
    """Spatial score of one hypothesis with its stored poses: the
    `subtree_total` of its subtree's terms (`fill_terms`), none known
    beforehand.  Atomic parts score zero."""
    pose = np.asarray(hypothesis.pose, dtype=np.intp)[None]
    terms = fill_terms(
        np.asarray(hypothesis.locations, dtype=float)[None], pose, [hypothesis.object_size],
        np.full(pose.shape, np.nan), subtree_scope(hierarchy, [hypothesis.node_id], 1),
        stack, hierarchy, library, weights, bound,
    )
    return float(subtree_total(terms, hypothesis.node_id, hierarchy)[0])


def refinement_score(
    X_hat: np.ndarray,
    root_hypothesis,
    stack: ScoreMapStack,
    hierarchy: PartHierarchy,
    weights: WeightVector,
) -> float:
    """Separable approximation of the total score around a root hypothesis.

    Appearance terms are live (at the scale frozen from the hypothesis);
    level-2 alignment terms are penalties against the hypothesis's own
    locations (alignment frozen, not re-fit); everything else, including the
    hypothesis subtree score and the bias, is the frozen constant.  The
    one-row call of `refinement_scores`.
    """
    if not np.isfinite(root_hypothesis.score):
        raise ValueError("root hypothesis must be scored before refinement")
    X_hat = np.asarray(X_hat, dtype=float)
    scale_index = int(scale_indices([root_hypothesis.object_size], 1, stack, hierarchy)[0])
    log_probs = log_marginals_at(stack, hierarchy.atomic_ids, X_hat[:, None], scale_index)
    return float(refinement_scores(
        log_probs.T, X_hat[None], np.asarray(root_hypothesis.locations, dtype=float)[None],
        np.array([root_hypothesis.score], dtype=float), hierarchy, weights,
    )[0])


def refinement_scores(
    log_probs: np.ndarray,
    refined: np.ndarray,
    anchors: np.ndarray,
    root_scores: np.ndarray,
    hierarchy: PartHierarchy,
    weights: WeightVector,
) -> np.ndarray:
    """`refinement_score` of R rows at once: (R,) scores of the (R, P, 2)
    refined configurations around the (R, P, 2) root locations `anchors`,
    given each row's (R, P) log marginals at its refined points and its root
    subtree score.  Terms are added part by part and node by node in the
    same order for every row, so each row's score does not depend on the
    others."""
    total = np.zeros(len(root_scores))
    for w, log_prob in zip(weights.atomic.tolist(), log_probs.T):
        if w != 0.0:
            total += w * log_prob
    for node in hierarchy.nodes_at_level(2):
        _, w_sim = weights.node_weights(hierarchy, node.id)
        if w_sim == 0.0:
            continue
        rows = hierarchy.atom_rows(node.id)
        drift = refined[:, rows] - anchors[:, rows]
        total -= w_sim * np.sum((drift * drift).reshape(len(total), -1), axis=1)
    return total + root_scores + weights.bias


# -- features -----------------------------------------------------------------


def feature_length(hierarchy: PartHierarchy) -> int:
    return hierarchy.atomic_count + 2 * len(hierarchy.composite_nodes) + 1


def feature_matrix(
    configurations: np.ndarray,
    stacks,
    stack_index,
    hierarchy: PartHierarchy,
    library: ExemplarLibrary,
    bound: float = DEFAULT_MAX_ANGLE,
) -> np.ndarray:
    """Feature rows of S configurations, each read on its own stack.

    `configurations` is (S, N, 2); row s reads stack `stack_index[s]` of
    `stacks`, any iterable that yields the stacks 0, 1, ... in order (a list,
    or a generator that loads each one).  Each row holds the per-atom
    log-probabilities at the atomic scale, one (log-pose-prob, similarity)
    pair per composite node with the node's best-fitting exemplar (ties:
    lowest index), and a trailing constant 1, so that
    total_score == <weights, features>.

    The stack-free part comes first: every node's best fits and similarities
    over all S rows.  Then each stack is drawn once, in order: its rows'
    atomic columns are gathered, the log-pose-probs of all nodes with one
    child geometry shape are read in one `_log_pose_probs` call, and the
    stack is released before the next one is drawn.
    """
    X = np.asarray(configurations, dtype=float)
    stack_index = np.asarray(stack_index, dtype=np.intp)
    if X.ndim != 3 or X.shape[1:] != (hierarchy.atomic_count, 2):
        raise ValueError(f"configurations must be (S, {hierarchy.atomic_count}, 2)")
    if stack_index.shape != (len(X),) or (stack_index < 0).any():
        raise ValueError("need one non-negative stack index per configuration")
    size = object_size(X)
    out = np.empty((len(X), feature_length(hierarchy)))
    shapes: dict[tuple[int, ...], list] = {}
    for index, node in enumerate(hierarchy.composite_nodes):
        geometry = library.geometry[node.id]
        current = child_points(X, node.id, hierarchy)
        best, similarity = _best_fits(geometry, current, bound)
        column = hierarchy.atomic_count + 2 * index
        out[:, column + 1] = similarity
        shapes.setdefault(geometry.shape[1:], []).append((node.id, column, current, best))
    # not zip or enumerate over `stacks`: each keeps its last tuple, and with
    # it the old stack, until the next one has been drawn
    source = iter(stacks)
    for group in range(stack_index.max(initial=-1) + 1):
        stack = next(source, None)
        if stack is None:
            raise ValueError(f"no stack for stack index {group}")
        rows = np.flatnonzero(stack_index == group)
        if len(rows):
            _read_stack(out, rows, X, size, stack, shapes.values(), hierarchy, library)
        del stack  # released before the next stack is drawn
    out[:, -1] = 1.0
    return out


def _read_stack(out, rows, X, size, stack, shapes, hierarchy, library) -> None:
    """Fill the columns of `out` read on `stack` at `rows`, the rows that
    read it: the atomic log-probabilities, and per child geometry shape one
    `_log_pose_probs` call with each node's rows as one run.  `X` and `size`
    are the configurations and object sizes of all rows, and `shapes` lists
    per child geometry shape each node's (id, column, child points, best
    exemplars) over all rows."""
    size = size[rows]
    out[rows, : hierarchy.atomic_count] = _appearance_features(X[rows], size, stack, hierarchy)
    for fits in shapes:
        columns = [column for _, column, _, _ in fits]
        runs = [(node_id, slice(k * len(rows), (k + 1) * len(rows)))
                for k, (node_id, *_) in enumerate(fits)]
        log_prob = _log_pose_probs(
            runs, library.labels, np.concatenate([best[rows] for *_, best in fits]),
            np.concatenate([current[rows] for _, _, current, _ in fits]),
            np.tile(size, len(fits)), stack, hierarchy,
        )
        out[rows[:, None], columns] = log_prob.reshape(len(fits), -1).T


def _appearance_features(
    X: np.ndarray, size: np.ndarray, stack: ScoreMapStack, hierarchy: PartHierarchy
) -> np.ndarray:
    """(R, N) atomic log-probabilities at the atomic scale of R
    configurations of object sizes `size` (R,) that all read `stack`; the
    rows are gathered once per stored scale."""
    out = np.empty(X.shape[:2])
    scale_index = scale_indices(size, 1, stack, hierarchy)
    for idx in np.unique(scale_index).tolist():
        picked = scale_index == idx
        points = X[picked].transpose(1, 0, 2)  # (N, K, 2): one row per part
        out[picked] = log_marginals_at(stack, hierarchy.atomic_ids, points, idx).T
    return out


def feature_vector(
    X: np.ndarray,
    stack: ScoreMapStack,
    hierarchy: PartHierarchy,
    library: ExemplarLibrary,
    bound: float = DEFAULT_MAX_ANGLE,
) -> np.ndarray:
    """`feature_matrix` of one configuration."""
    return feature_matrix(np.asarray(X, dtype=float)[None], [stack], [0], hierarchy, library,
                          bound)[0]


def build_training_set(
    positives,
    negatives,
    stacks,
    hierarchy: PartHierarchy,
    library: ExemplarLibrary,
    bound: float = DEFAULT_MAX_ANGLE,
    load=None,
) -> TrainingSet:
    """Feature rows for annotated configurations with +/-1 labels.

    `stacks` is one ScoreMapStack shared by every sample, or a function that
    names the map source of a sample's image (such as its map file); then
    `load(source)` returns that source's stack.  Every sample's source is
    named before any stack loads.  Samples are grouped by source in order of
    first appearance, and the groups' stacks are loaded in that order, one
    at a time, each released before the next loads.  Rows follow the
    samples, positives first; every feature is extracted in one
    `feature_matrix` pass.
    """
    positives, negatives = list(positives), list(negatives)
    samples = positives + negatives
    if not samples:
        raise ValueError("no training samples")
    if isinstance(stacks, ScoreMapStack):
        loaded, stack_index = [stacks], [0] * len(samples)
    else:
        position: dict = {}
        stack_index = [position.setdefault(stacks(ann.image), len(position)) for ann in samples]
        loaded = map(load, position)
    features = feature_matrix(
        np.stack([ann.points for ann in samples]), loaded, stack_index, hierarchy, library, bound,
    )
    labels = np.concatenate([np.ones(len(positives)), -np.ones(len(negatives))])
    return TrainingSet(features, labels)
