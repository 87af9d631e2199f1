"""Naive reference implementations used to cross-check the library.

Everything here is recomputed from first principles with plain loops and its
own lookup/marginalization code (`naive_log_part_prob`) and similarity fit
(`naive_fit_least_squares`, itself checked against the lattice-search oracle
`grid_search_pose_similarity`).  Two loops borrow library arithmetic: the
proposal loop takes its random draws from the library's `_draw_proposals`,
so that both sides follow one stream, and the exemplar loop of the feature
composition scores with the one-row `fit_least_squares`, so that exact
ties break as in the batched selection.
The scalar scorer, fit, proposal loop, feature composition and per-part
refinement loop that the batched library code replaced are kept here, as
they were, to check the batched code against, and so are the plain SGD loop
that clamps after every step (`naive_train_weights`) and the prune that
drops copies with a row sort before its greedy pass (`naive_prune_order`).
`exhaustive_best_config` scores every configuration of a candidate product
in one batch to check the search; `naive_exhaustive_best_config` is its
one-configuration-at-a-time loop.  `naive_relation_labels` is the scalar
relation-type rule, one (row, part) at a time, as it was before the batched
`RelationTypeModel.labels`; it takes boxes, anchors and object sizes from the
one-configuration forms of the hierarchy helpers.  `per_node_subtree_terms`
is the per-node fill that the grouped `fill_terms` replaced: one kernel call
per node, each with one relation-type lookup per child, reading a cached
marginal map where there is one, as the library did before its lookups were
fused; the grouped fill must equal it bit for bit.
`three_pass_validate` is the score-map check as it was before its screens,
`per_exemplar_best_fits` the best-fit loop that fitted one exemplar per
call, and `per_node_feature_matrix` the feature pass that looked each
node's relation types up once per stack; the library must accept and
reject exactly as the first, with the same message, and equal the other two
bit for bit.  `copy_dropping_score_parts` is the scoring pass as it was when
it dropped exact copies itself, before it filled, totalled and pruned; the
library, which leaves the copies a swap makes to the prune, must keep the
same rows with the same bits.  `dense_render_score_maps` is the renderer as
it was when it held a float64 map of every channel, and
`buffered_save_score_maps` the writer that built the whole container in
memory; `make_scene` and `save_score_maps` must give their bytes.
"""

import itertools
import math
import struct
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy import optimize

from hierpose.appearance import (
    FORMAT_VERSION, LOG_FLOOR, MAGIC, NORM_TOL, PROB_FLOOR, CompositeMaps, ScaleMaps,
    ScoreMapError, ScoreMapStack, _pixels, log_type_prob_composite,
)
from hierpose.geometry import (
    SimilarityTransform, child_points, fit_least_squares, fit_least_squares_batch,
    transform_points,
)
from hierpose.hierarchy import object_size
from hierpose.inference import (
    Hypothesis, _draw_proposals, _drop_copies, _fill_parts, prune_order,
)
from hierpose.learning import hinge_objective
from hierpose.scoring import (
    _appearance_features, _check_signature, _log_pose_probs, feature_length, feature_matrix,
    pose_terms, refinement_score, scale_indices, subtree_total, total_score,
)

FLOOR = 1e-6
MAX_ANGLE = math.pi / 3  # the rotation bound that the scoring entry points default to


class NaiveChildGeometry(NamedTuple):
    """Stacked child points of one composite part and the child kinds
    ("atom" or "comp") they come from, in canonical child order."""

    points: np.ndarray
    signature: tuple[str, ...]


def _nearest_scale(stack, scale):
    values = [abs(m.scale - scale) for m in stack.scales]
    return values.index(min(values))


def _lookup(grid, point):
    col = math.floor(float(point[0]) + 0.5)
    row = math.floor(float(point[1]) + 0.5)
    if 0 <= row < grid.shape[0] and 0 <= col < grid.shape[1]:
        return float(grid[row, col])
    return None


def _part_channels(maps, part):
    rows = [i for i, (p, _) in enumerate(maps.channel_table.tolist()) if p == part]
    return rows


def naive_object_size(X):
    xs = [p[0] for p in X]
    ys = [p[1] for p in X]
    return 0.5 * ((max(xs) - min(xs)) + (max(ys) - min(ys)))


def naive_scale(X, level, params):
    return params.level_factors[level - 1] * naive_object_size(X) / params.reference_length


def naive_log_part_prob(stack, part, point, scale):
    maps = stack.scales[_nearest_scale(stack, scale)]
    total = 0.0
    seen = False
    for row in _part_channels(maps, part):
        value = _lookup(maps.atomic[row].astype(np.float64), point)
        if value is None:
            return math.log(FLOOR)
        total += value
        seen = True
    assert seen
    # numpy's log, as the library takes it: math.log can differ in the last bit
    return float(np.log(max(total, FLOOR)))


def naive_appearance(X, stack, hierarchy, weights):
    scale = naive_scale(X, 1, hierarchy.scale)
    total = 0.0
    for i, part in enumerate(hierarchy.atomic_ids):
        total += weights.atomic[i] * naive_log_part_prob(stack, part, X[i], scale)
    return total


def naive_child_geometry(X, node_id, hierarchy):
    node = hierarchy.node(node_id)
    pts = []
    sig = []
    for child in node.children:
        if hierarchy.node(child).is_atomic:
            pts.append(np.asarray(X[hierarchy.atom_index(child)], dtype=float))
            sig.append("atom")
        else:
            rows = [hierarchy.atom_index(p) for p in hierarchy.atoms_below(child)]
            sub = np.asarray(X, dtype=float)[rows]
            anchor = np.zeros(2)
            for pid, w in hierarchy.node(child).anchor.weights.items():
                anchor += w * np.asarray(X[hierarchy.atom_index(pid)], dtype=float)
            pts.extend([anchor, sub.min(axis=0), sub.max(axis=0)])
            sig.append("comp")
    pts = np.stack(pts)
    if not np.isfinite(pts).all():
        raise ValueError(f"child geometry of node {node_id} uses undefined locations")
    return NaiveChildGeometry(pts, tuple(sig))


def naive_sibling_ring(hierarchy):
    """Reference map of the relation types: each child of a composite node
    points at the next child in the node's child order, wrapping."""
    refs = {}
    for node in hierarchy.composite_nodes:
        kids = node.children
        for i, child in enumerate(kids):
            refs[child] = kids[(i + 1) % len(kids)]
    return refs


def naive_orientation_bin(offset, bins):
    """Uniform orientation bin of a nonzero offset; angle 0 maps to type 1."""
    dx, dy = float(offset[0]), float(offset[1])
    if dx == 0.0 and dy == 0.0:
        raise ValueError("zero offset has no orientation")
    angle = math.atan2(dy, dx) % (2.0 * math.pi)
    width = 2.0 * math.pi / bins
    return 1 + int(angle // width) % bins


def naive_box_corner_vector(anchor, top_left, bottom_right):
    """4-vector (tl - anchor, br - anchor) relating an anchor to a box."""
    a = np.asarray(anchor, dtype=float)
    return np.concatenate([np.asarray(top_left) - a, np.asarray(bottom_right) - a])


def naive_nearest_centroid(vector, centroids):
    """1-based index of the nearest centroid; ties go to the lowest index."""
    d2 = np.sum((np.asarray(centroids, dtype=float) - np.asarray(vector, dtype=float)) ** 2, axis=1)
    return int(np.argmin(d2)) + 1


def naive_relation_labels(points, hierarchy, model):
    """{part: [label per row]} of every non-root part, one (row, part) at a
    time: an atom's orientation bin of the offset to its reference, a
    composite's nearest centroid of its anchor-to-reference-box vector over
    the object size."""
    refs = naive_sibling_ring(hierarchy)
    labels = {}
    for part in sorted(refs):
        column = []
        for X in np.asarray(points, dtype=float):
            if hierarchy.node(part).is_atomic:
                offset = X[hierarchy.atom_index(refs[part])] - X[hierarchy.atom_index(part)]
                column.append(naive_orientation_bin(offset, model.atomic_bins))
            else:
                box = hierarchy.tight_box(X, refs[part])
                rel = naive_box_corner_vector(
                    hierarchy.anchor_point(X, part), box.top_left, box.bottom_right
                )
                column.append(naive_nearest_centroid(rel / object_size(X), model.centroids[part]))
        labels[part] = column
    return labels


def stored_geometry(library, node_id, index):
    """The child geometry the library stores for exemplar row `index`."""
    table = library.arrays(node_id)
    return NaiveChildGeometry(table.geometry[index], table.signature)


def stored_labels(library, node_id, index):
    """{part: relation-type label} of exemplar row `index` of a node.  Row e
    of every node is annotation e, so the row holds one label per non-root
    part; the node reads those of its children."""
    library.arrays(node_id)  # the node must have exemplars
    return {part: int(values[index]) for part, values in library.labels.items()}


def naive_similarity(current, exemplar, bound):
    """Alignment score of an exemplar's child geometry onto the pose: minus
    the residual of `naive_fit_least_squares`."""
    if current.signature != exemplar.signature:
        raise ValueError(
            f"child geometry signature mismatch: {current.signature} vs {exemplar.signature}"
        )
    return -naive_fit_least_squares(exemplar.points, current.points, bound)[2]


def naive_best_fit(X, node_id, library, hierarchy, bound):
    current = naive_child_geometry(X, node_id, hierarchy)
    best_index, best_value = None, -np.inf
    for index in range(len(library.sources)):
        value = naive_similarity(current, stored_geometry(library, node_id, index), bound)
        if value > best_value:
            best_index, best_value = index, value
    return best_index, best_value


def naive_pose_log_prob(X, node_id, labels, stack, hierarchy, size):
    if not size > 0:
        raise ValueError("degenerate object: zero-extent bounding box")
    node = hierarchy.node(node_id)
    scale = hierarchy.scale.level_factors[node.level - 2] * size / hierarchy.scale.reference_length
    maps = stack.scales[_nearest_scale(stack, scale)]
    total = 0.0
    for child in node.children:
        label = labels[child]
        if hierarchy.node(child).is_atomic:
            point = X[hierarchy.atom_index(child)]
            joint = None
            denom = 0.0
            for row, (p, m) in enumerate(maps.channel_table.tolist()):
                if p != child:
                    continue
                value = _lookup(maps.atomic[row].astype(np.float64), point)
                if value is None:
                    joint, denom = None, 0.0
                    break
                denom += value
                if m == label:
                    joint = value
            if joint is None and _lookup(maps.atomic[0], point) is not None:
                raise KeyError(f"no channel for part {child}, type {label}")
            if joint is None:
                total += math.log(FLOOR)
            else:
                cond = joint / denom if denom > 0 else 0.0
                total += math.log(max(cond, FLOOR))
        else:
            anchor = np.zeros(2)
            for pid, w in hierarchy.node(child).anchor.weights.items():
                anchor += w * np.asarray(X[hierarchy.atom_index(pid)], dtype=float)
            comp = maps.composite[child]
            if not 1 <= label <= comp.data.shape[0]:
                raise KeyError(f"no composite type {label} for part {child}")
            value = _lookup(comp.data[label - 1].astype(np.float64), anchor)
            total += math.log(max(value, FLOOR)) if value is not None else math.log(FLOOR)
    return total


def naive_spatial(X, stack, hierarchy, library, weights, bound):
    size = naive_object_size(X)
    total = 0.0
    for index, node in enumerate(hierarchy.composite_nodes):
        alpha = weights.pose_appearance[index]
        beta = weights.pose_similarity[index]
        best_index, best_value = naive_best_fit(X, node.id, library, hierarchy, bound)
        labels = stored_labels(library, node.id, best_index)
        log_prob = naive_pose_log_prob(X, node.id, labels, stack, hierarchy, size)
        total += alpha * log_prob + beta * best_value
    return total


def naive_total(X, stack, hierarchy, library, weights, bound):
    return (
        naive_appearance(X, stack, hierarchy, weights)
        + naive_spatial(X, stack, hierarchy, library, weights, bound)
        + weights.bias
    )


def naive_subtree_score(hypothesis, stack, hierarchy, library, weights, bound):
    """The recursive subtree scorer: children's scores plus the node's own
    spatial term with the stored exemplar, node by node."""
    composites = [node.id for node in hierarchy.composite_nodes]

    def recurse(node_id):
        node = hierarchy.node(node_id)
        if node.is_atomic:
            return 0.0
        total = sum(recurse(child) for child in node.children)
        index = int(hypothesis.pose[composites.index(node_id)])
        if index < 0:
            raise ValueError(f"hypothesis subtree is missing a pose for node {node_id}")
        current = naive_child_geometry(hypothesis.locations, node_id, hierarchy)
        similarity = naive_similarity(current, stored_geometry(library, node_id, index), bound)
        log_prob = naive_pose_log_prob(
            hypothesis.locations, node_id, stored_labels(library, node_id, index),
            stack, hierarchy, hypothesis.object_size,
        )
        position = composites.index(node_id)
        return (
            total
            + weights.pose_appearance[position] * log_prob
            + weights.pose_similarity[position] * similarity
        )

    return recurse(hypothesis.node_id)


def per_node_subtree_terms(locations, node_id, pose, size, stack, hierarchy, library, weights,
                           bound, terms=None):
    """(H, C) weighted terms of H hypotheses of one part, node by node: the
    NaN entries of `terms` (or all, if None) of each subtree node, in
    pre-order, with one `per_node_pose_terms` call per node that has any."""
    pose = np.asarray(pose, dtype=np.intp)
    size = np.asarray(size, dtype=float)
    out = np.full(pose.shape, np.nan) if terms is None else np.array(terms, dtype=float)
    for composite in hierarchy.composites_below(node_id):
        column = hierarchy.composite_index(composite)
        rows = np.flatnonzero(np.isnan(out[:, column]))
        if not rows.size:
            continue
        index = pose[rows, column]
        if np.any(index < 0):
            raise ValueError(f"hypothesis subtree is missing a pose for node {composite}")
        w_app, w_sim = weights.node_weights(hierarchy, composite)
        log_prob, similarity = per_node_pose_terms(
            locations[rows], composite, index, size[rows], stack, hierarchy, library, bound
        )
        out[rows, column] = w_app * log_prob + w_sim * similarity
    return out


def per_node_pose_terms(locations, node_id, exemplar_index, size, stack, hierarchy, library,
                        bound):
    """(log-pose-probability, alignment score) of H rows of one node: the
    bounded fit of the stored exemplars and, per stored scale, one lookup
    per child, added in child order."""
    exemplar_index = np.asarray(exemplar_index, dtype=np.intp)
    current = child_points(locations, node_id, hierarchy)
    _, _, _, residual = fit_least_squares_batch(
        library.arrays(node_id).geometry[exemplar_index], current, bound
    )
    node = hierarchy.node(node_id)
    scale_index = scale_indices(size, node.level - 1, stack, hierarchy)
    log_prob = np.zeros(len(exemplar_index))
    for idx in np.unique(scale_index).tolist():
        rows = np.flatnonzero(scale_index == idx)
        point = 0
        for child in node.children:
            atomic = hierarchy.node(child).is_atomic
            lookup = _one_part_log_type_prob_atomic if atomic else log_type_prob_composite
            labels = library.labels[child][exemplar_index[rows]]
            log_prob[rows] += lookup(stack, child, labels, current[rows, point], idx)
            point += 1 if atomic else 3
    return log_prob, -residual


def _one_part_log_type_prob_atomic(stack, part, labels, points, scale_index):
    """Floored log p(label | part, pixel) of one atomic part's rows, with the
    part's marginal summed from its channels at the looked-up pixels in
    table order."""
    labels = np.asarray(labels)
    pixel, on_grid = _pixels(np.asarray(points, dtype=float), stack.scales[scale_index].grid_shape)
    pixel = pixel[on_grid]
    atomic = stack.scales[scale_index].atomic
    flat = atomic.reshape(len(atomic), -1)
    joint = flat[stack.channel_rows(part, labels[on_grid], scale_index), pixel].astype(np.float64)
    rows = np.flatnonzero(stack.scales[scale_index].channel_table[:, 0] == part)
    if part == 0 or rows.size == 0:
        raise KeyError(f"no channels for part {part}")
    denom = flat[rows[0], pixel].astype(np.float64)
    for row in rows[1:]:
        denom += flat[row, pixel]
    cond = np.divide(joint, denom, out=np.zeros_like(joint), where=denom > 0.0)
    out = np.full(len(labels), LOG_FLOOR)
    out[on_grid] = np.log(np.maximum(cond, PROB_FLOOR))
    return out


def three_pass_validate(stack):
    """Per tensor of every scale: `min` and `max` within NORM_TOL of [0, 1]
    (NaN fails), then each pixel's float64 channel sum within NORM_TOL of 1,
    reporting the worst pixel."""
    for maps in stack.scales:
        tensors = [(f"scale {maps.scale}: atomic", maps.atomic)] + [
            (f"composite part {part} at scale {maps.scale}:", comp.data)
            for part, comp in maps.composite.items()
        ]
        for name, data in tensors:
            if not (data.min() >= -NORM_TOL and data.max() <= 1.0 + NORM_TOL):
                raise ScoreMapError(f"{name} values outside [0, 1] or NaN")
            sums = data.sum(axis=0, dtype=np.float64)
            err = np.abs(sums - 1.0)
            worst = np.unravel_index(int(err.argmax()), err.shape)
            if err[worst] > NORM_TOL:
                raise ScoreMapError(
                    f"{name} channels sum to {sums[worst]:.6f} "
                    f"at pixel (row={worst[0]}, col={worst[1]})"
                )


def dense_render_score_maps(
    X, hierarchy, atomic_labels, composite_labels, atomic_bins, composite_bins,
    grid=(64, 64), sigma=1.5, amplitude=0.8, distractors=0, noise=0.0, rng=None,
    scales=(1.0,),
):
    """`synth.render_score_maps` as it was before it kept only the lit rows:
    one dense float64 foreground of every channel, noise drawn for all of
    them at once, and every scale a copy of the finished tensors."""
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be finite and > 0, got {sigma}")
    if not (math.isfinite(noise) and noise >= 0):
        raise ValueError(f"noise must be finite and >= 0, got {noise}")
    if distractors < 0:
        raise ValueError(f"distractors must be >= 0, got {distractors}")
    if distractors or noise:
        if rng is None:
            raise ValueError("distractors/noise need an rng")
    height, width = int(grid[0]), int(grid[1])
    if not 0 < amplitude <= 0.9:
        raise ValueError("amplitude must lie in (0, 0.9]")
    yy, xx = np.mgrid[0:height, 0:width].astype(float)

    def bump(center, spread=sigma):
        d2 = (xx - center[0]) ** 2 + (yy - center[1]) ** 2
        return np.exp(-d2 / (2.0 * spread * spread))

    table = [(0, 0)]
    channel_of = {}
    for part in hierarchy.atomic_ids:
        for m in range(1, atomic_bins[part] + 1):
            channel_of[(part, m)] = len(table)
            table.append((part, m))

    foreground = np.zeros((len(table) - 1, height, width))
    for row, part in enumerate(hierarchy.atomic_ids):
        label = atomic_labels[part]
        foreground[channel_of[(part, label)] - 1] += amplitude * bump(X[row])
    for _ in range(distractors):
        part = int(rng.choice(hierarchy.atomic_ids))
        label = int(rng.integers(1, atomic_bins[part] + 1))
        center = rng.random(2) * (width - 1, height - 1)
        strength = amplitude * (0.3 + 0.6 * rng.random())
        foreground[channel_of[(part, label)] - 1] += strength * bump(center)
    if noise:
        foreground += noise * rng.random(foreground.shape)

    cap = 0.98
    total = foreground.sum(axis=0)
    over = total > cap
    if np.any(over):
        foreground[:, over] *= cap / total[over]
    foreground32 = foreground.astype(np.float32)
    background = (1.0 - foreground32.astype(np.float64).sum(axis=0)).astype(np.float32)
    atomic = np.concatenate([background[None], foreground32], axis=0)

    composite = {}
    for part, bins in composite_bins.items():
        label = composite_labels[part]
        anchor = hierarchy.anchor_point(X, part)
        mixture = amplitude * bump(anchor, spread=2.0 * sigma)
        data = np.empty((bins, height, width), dtype=np.float32)
        uniform = (1.0 - mixture) / bins
        for m in range(1, bins + 1):
            value = uniform + (mixture if m == label else 0.0)
            if m < bins:
                data[m - 1] = value.astype(np.float32)
        head = data[: bins - 1].astype(np.float64).sum(axis=0)
        data[bins - 1] = (1.0 - head).astype(np.float32)
        composite[part] = CompositeMaps(part, hierarchy.node(part).level, data)

    maps = []
    for scale in scales:
        maps.append(
            ScaleMaps(
                scale=float(scale),
                channel_table=np.array(table, dtype=np.uint32),
                atomic=atomic.copy(),
                composite={p: CompositeMaps(c.part_id, c.level, c.data.copy())
                           for p, c in composite.items()},
            )
        )
    return ScoreMapStack(maps)


def buffered_save_score_maps(stack, path):
    """`save_score_maps` as it was before it streamed: the whole container
    built in one `bytearray`, then written at once."""
    out = bytearray()
    out += MAGIC
    out += struct.pack("<II", FORMAT_VERSION, stack.n_scales)
    for maps in stack.scales:
        c, h, w = maps.atomic.shape
        out += struct.pack("<dIII", maps.scale, h, w, c)
        out += maps.channel_table.astype("<u4").tobytes()
        out += maps.atomic.astype("<f4").tobytes()
        out += struct.pack("<I", len(maps.composite))
        for part in sorted(maps.composite):
            comp = maps.composite[part]
            out += struct.pack("<III", comp.part_id, comp.level, comp.data.shape[0])
            out += comp.data.astype("<f4").tobytes()
    Path(path).write_bytes(bytes(out))


def per_exemplar_best_fits(exemplars, current, bound):
    """Each exemplar fitted to all S rows in its own bounded fit, keeping a
    running best with a strict `>`: ties go to the lowest index, and a NaN
    score is never picked."""
    best = np.zeros(len(current), dtype=np.intp)
    best_score = np.full(len(current), -np.inf)
    for e, exemplar in enumerate(exemplars):
        _, _, _, residual = fit_least_squares_batch(
            np.broadcast_to(exemplar, current.shape), current, bound
        )
        better = -residual > best_score
        best[better] = e
        best_score[better] = -residual[better]
    return best, best_score


def per_node_feature_matrix(configurations, stacks, stack_index, hierarchy, library, bound):
    """`feature_matrix` node by node: per composite node the loop of
    `per_exemplar_best_fits`, then one `_log_pose_probs` call per stack."""
    X = np.asarray(configurations, dtype=float)
    stack_index = np.asarray(stack_index, dtype=np.intp)
    groups = [
        (stacks[g], np.flatnonzero(stack_index == g)) for g in np.unique(stack_index).tolist()
    ]
    size = object_size(X)
    out = np.empty((len(X), feature_length(hierarchy)))
    for stack, rows in groups:
        out[rows, : hierarchy.atomic_count] = _appearance_features(
            X[rows], size[rows], stack, hierarchy
        )
    column = hierarchy.atomic_count
    for node in hierarchy.composite_nodes:
        table = library.arrays(node.id)
        _check_signature(table.signature, node.id, hierarchy)
        current = child_points(X, node.id, hierarchy)
        best, similarity = per_exemplar_best_fits(table.geometry, current, bound)
        for stack, rows in groups:
            out[rows, column] = _log_pose_probs(
                [(node.id, slice(None))], library.labels, best[rows], current[rows], size[rows],
                stack, hierarchy,
            )
        out[:, column + 1] = similarity
        column += 2
    out[:, -1] = 1.0
    return out


def reference_fit_least_squares_batch(src, dst, bound):
    """`geometry.fit_least_squares_batch` as it was written before its means
    and fitted points were computed in fewer passes: numpy means over the
    point axis and two `transform_points`; the library fit must equal it
    bit for bit."""
    rows, flat = src.shape[0], 2 * src.shape[1]
    src_mean = src.mean(axis=1)
    dst_mean = dst.mean(axis=1)
    sc = src - src_mean[:, None]
    dc = dst - dst_mean[:, None]
    spread = (sc * sc).reshape(rows, flat).sum(axis=1)
    a = (sc * dc).reshape(rows, flat).sum(axis=1)
    b = (sc[..., 0] * dc[..., 1] - sc[..., 1] * dc[..., 0]).sum(axis=1)
    angle = np.where((a == 0.0) & (b == 0.0), 0.0, np.arctan2(b, a))
    gain_pos = a * math.cos(bound) + b * math.sin(bound)
    gain_neg = a * math.cos(bound) - b * math.sin(bound)
    endpoint = np.where(
        gain_pos > gain_neg, bound,
        np.where(gain_neg > gain_pos, -bound, np.copysign(bound, angle)),
    )
    angle = np.where(np.abs(angle) > bound, endpoint, angle)
    angle = np.where(angle <= -math.pi, angle + 2.0 * math.pi, angle)
    gain = a * np.cos(angle) + b * np.sin(angle)
    scale = np.maximum(gain / spread, 1e-9)
    zero = np.zeros((rows, 2))
    translation = dst_mean - transform_points(scale, angle, zero, src_mean[:, None])[:, 0]
    fitted = transform_points(scale, angle, translation, src)
    residual = ((dst - fitted) ** 2).reshape(rows, flat).sum(axis=1)
    return scale, angle, translation, residual


def naive_prune_order(scores, points, z, dedup_radius):
    """The prune as it was before exact copies were dropped ahead of
    scoring: rank by score rounded to 1e-9 (stable), keep the first copy of
    each identical (R, 2) point set with a row sort, then greedily skip every
    row whose points all lie within dedup_radius of a kept row's."""
    order = np.argsort(-np.round(scores, 9), kind="stable")
    _, first = np.unique(points[order].reshape(len(order), -1), axis=0, return_index=True)
    kept = []
    for i in order[np.sort(first)].tolist():
        if kept:
            gap = points[kept] - points[i]
            if np.any(np.max(np.hypot(gap[..., 0], gap[..., 1]), axis=1) <= dedup_radius):
                continue
        kept.append(i)
        if len(kept) == z:
            break
    return kept


def copy_dropping_score_parts(sets, stack, hierarchy, library, weights, z, dedup_radius, bound,
                              counts):
    """`inference._score_parts` with its own copy pass: only the first copy,
    in creation order, of rows equal in subtree locations, subtree poses and
    object size (`_drop_copies`) is filled, totalled and pruned;
    `counts["scored"]` grows by the rows left."""
    sets = [_drop_copies(hyps, hierarchy) for hyps in sets]
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


def naive_fit_least_squares(src, dst, max_angle):
    """The scalar bounded least-squares similarity fit: (scale, angle, residual)."""
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    sc = src - src.mean(axis=0)
    dc = dst - dst.mean(axis=0)
    spread = float(np.sum(sc * sc))
    if spread <= 0.0:
        raise ValueError("all source points are identical")
    a = float(np.sum(sc * dc))
    b = float(np.sum(sc[:, 0] * dc[:, 1] - sc[:, 1] * dc[:, 0]))
    angle = 0.0 if a == 0.0 and b == 0.0 else math.atan2(b, a)
    if abs(angle) > max_angle:
        gain_pos = a * math.cos(max_angle) + b * math.sin(max_angle)
        gain_neg = a * math.cos(max_angle) - b * math.sin(max_angle)
        if gain_pos > gain_neg:
            angle = max_angle
        elif gain_neg > gain_pos:
            angle = -max_angle
        else:
            angle = math.copysign(max_angle, angle)
    scale = max((a * math.cos(angle) + b * math.sin(angle)) / spread, 1e-9)
    transform = SimilarityTransform(scale, angle, np.zeros(2))
    translation = dst.mean(axis=0) - transform.apply(src.mean(axis=0))[0]
    transform = SimilarityTransform(scale, angle, translation)
    return scale, transform.angle, float(np.sum((dst - transform.apply(src)) ** 2))


def _naive_two_point_fit(src, dst):
    ratio = complex(*(dst[1] - dst[0])) / complex(*(src[1] - src[0]))
    transform = SimilarityTransform(abs(ratio), math.atan2(ratio.imag, ratio.real), np.zeros(2))
    translation = dst[0] - transform.apply(src[0])[0]
    return SimilarityTransform(transform.scale, transform.angle, translation)


def _naive_alignment_point(locations, child_id, hierarchy):
    child = hierarchy.node(child_id)
    if child.is_atomic:
        return locations[hierarchy.atom_index(child_id)]
    anchor = np.zeros(2)
    for pid, w in child.anchor.weights.items():
        anchor += w * locations[hierarchy.atom_index(pid)]
    return anchor


def _naive_composites_below(node_id, hierarchy):
    node = hierarchy.node(node_id)
    if node.is_atomic:
        return []
    below = [node_id]
    for child in node.children:
        below.extend(_naive_composites_below(child, hierarchy))
    return below


def naive_propose_hypotheses(node, lower, library, hierarchy, params, rng):
    """The scalar proposal loop: one fit and transform per draw.

    The (exemplar, slots, picks) draws come from the library's own
    `_draw_proposals`, so both sides see the same random stream; everything
    after the draw is recomputed here one draw at a time.  `lower` maps
    child parts to `HypothesisSet`s; the drawn rows are read one by one
    through `HypothesisSet.row`, and the result is a list of `Hypothesis`
    rows, each with a pose row of -1 outside the subtree.  Every subtree
    node's pose is the drawn row, since exemplar e of every part is
    annotation e."""
    children = node.children
    rows = hierarchy.atom_rows(node.id)
    composites = [n.id for n in hierarchy.composite_nodes]
    subtree_nodes = _naive_composites_below(node.id, hierarchy)
    pools = [lower.get(child_id) or [] for child_id in children]
    draws = _draw_proposals(rng, params.samples, len(library.sources), [len(p) for p in pools])
    out = []
    for index, slots, picks in zip(*(d.tolist() for d in draws)):
        exemplar_locations, exemplar_size = library.points[index], library.object_size[index]
        chosen = [(children[slot], pools[slot].row(pick)) for slot, pick in zip(slots, picks)]
        src = np.array([
            _naive_alignment_point(exemplar_locations, cid, hierarchy) for cid, _ in chosen
        ])
        dst = np.array([
            _naive_alignment_point(hyp.locations, cid, hierarchy) for cid, hyp in chosen
        ])
        if min(np.hypot(*(src[1] - src[0])), np.hypot(*(dst[1] - dst[0]))) >= 1e-9:
            transform = _naive_two_point_fit(src, dst)
            if abs(transform.angle) > params.max_angle:
                continue
        else:
            child_hyp = chosen[0][1]
            if child_hyp.object_size <= 0 or exemplar_size <= 0:
                continue
            scale = child_hyp.object_size / exemplar_size
            transform = SimilarityTransform(scale, 0.0, dst[0] - scale * src[0])
        locations = np.full_like(exemplar_locations, np.nan)
        locations[rows] = transform.apply(exemplar_locations[rows])
        pose = np.full(len(composites), -1, dtype=np.intp)
        for nid in subtree_nodes:
            pose[composites.index(nid)] = index
        out.append(Hypothesis(
            node.id, node.level, locations, pose, transform.scale * exemplar_size
        ))
    return out


def naive_refine_hypothesis(root_hyp, stack, hierarchy, weights, params):
    """The per-part refinement loop: one disc, lookup and lexsort per atomic
    part (ties: max value, then min displacement, then min y, then min x)."""
    points = root_hyp.locations
    box_sides = points.max(axis=0) - points.min(axis=0)
    radius = params.search_radius_fraction * (0.5 * (box_sides[0] + box_sides[1]))
    scale = hierarchy.scale.factor_from_size(root_hyp.object_size, 1)
    scale_index = _nearest_scale(stack, scale)
    height, width = stack.scales[scale_index].grid_shape
    refined = root_hyp.locations.copy()
    for i, part in enumerate(hierarchy.atomic_ids):
        center = root_hyp.locations[i]
        w_part = float(weights.atomic[i])
        parent = hierarchy.parent_of(part)
        penalty = weights.node_weights(hierarchy, parent)[1]
        log_map = np.log(np.maximum(stack.marginal(part, scale_index), PROB_FLOOR))

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


def naive_feature_vector(X, stack, hierarchy, library, bound):
    """The scalar feature composition: `naive_log_part_prob` per atom, then
    per composite node the best exemplar from the loop of
    `_one_row_best_fit` and the one-row `pose_terms` with it."""
    out = np.empty(feature_length(hierarchy))
    scale = naive_scale(X, 1, hierarchy.scale)
    for i, part in enumerate(hierarchy.atomic_ids):
        out[i] = naive_log_part_prob(stack, part, X[i], scale)
    size = object_size(X)
    offset = hierarchy.atomic_count
    for node in hierarchy.composite_nodes:
        exemplar_index = _one_row_best_fit(X, node.id, library, hierarchy, bound)
        log_prob, similarity = pose_terms(
            np.asarray(X, dtype=float)[None], node.id, [exemplar_index], [size],
            stack, hierarchy, library, bound,
        )
        out[offset] = log_prob[0]
        out[offset + 1] = similarity[0]
        offset += 2
    out[-1] = 1.0
    return out


def _one_row_best_fit(X, node_id, library, hierarchy, bound):
    """The node's exemplars walked in index order, each scored alone with the
    library's one-row `fit_least_squares`; the first strict maximum wins.

    Exemplars that fit a pose exactly tie up to rounding (residuals of 1e-28
    against 1e-27), so only the library's fit arithmetic breaks those ties
    as the batched selection does; `naive_best_fit`, with the naive fit,
    checks the selection up to such ties (test_scoring)."""
    current = naive_child_geometry(X, node_id, hierarchy)
    best_index, best_value = None, -np.inf
    for index, geometry in enumerate(library.arrays(node_id).geometry):
        value = -fit_least_squares(geometry, current.points, bound)[1]
        if value > best_value:
            best_index, best_value = index, value
    return best_index


def naive_train_weights(training, c=1.0, epochs=200, seed=0):
    """The projected SGD of `train_weights` one step at a time, clamping
    every non-bias component after every step."""
    if len(np.unique(training.labels)) < 2:
        raise ValueError("training set must contain both classes")
    rng = np.random.default_rng(seed)
    n, dim = training.features.shape
    w = np.zeros(dim)
    t = 0
    for _ in range(epochs):
        order = rng.permutation(n)
        for i in order:
            t += 1
            step = 1.0 / t
            feature = training.features[i]
            label = training.labels[i]
            violated = label * (feature @ w) < 1.0
            w *= 1.0 - step
            if violated:
                w += step * c * n * label * feature
            np.maximum(w[:-1], 0.0, out=w[:-1])
    return w, hinge_objective(w, training, c)


def grid_search_pose_similarity(
    current,
    exemplar,
    bound=MAX_ANGLE,
    scale_range: tuple[float, float] = (0.5, 2.0),
    scale_step: float = 0.02,
    angle_step: float = 0.01,
    translation_step: float = 0.25,
    translation_span: float = 1.0,
    refine: bool = True,
) -> float:
    """Lattice-search reference for the pose similarity score.

    Sweeps scale x angle x translation (translations on a lattice around the
    centroid offset of each scale/angle cell) and polishes the best cell with
    a bounded local minimizer.  Used to cross-check the closed-form fit.
    """
    cur = np.asarray(current, dtype=float)
    ex = np.asarray(exemplar, dtype=float)
    max_angle = bound
    k = cur.shape[0]

    scales = np.arange(scale_range[0], scale_range[1] + scale_step / 2, scale_step)
    angles = np.arange(-max_angle, max_angle, angle_step)
    angles = np.append(angles, max_angle)
    steps = np.arange(-translation_span, translation_span + translation_step / 2, translation_step)
    ox, oy = np.meshgrid(steps, steps)
    offsets = np.stack([ox.ravel(), oy.ravel()], axis=1)

    cos, sin = np.cos(angles), np.sin(angles)
    rot = np.stack([np.stack([cos, -sin], -1), np.stack([sin, cos], -1)], -2)  # (A,2,2)
    placed = scales[:, None, None, None] * np.einsum("aij,kj->aki", rot, ex)[None]  # (S,A,k,2)
    center = cur.mean(axis=0) - placed.mean(axis=2)  # (S,A,2): centroid-offset translation
    diff = cur[None, None] - placed - center[:, :, None, :]  # (S,A,k,2)
    base = np.einsum("sakc,sakc->sa", diff, diff)
    linear = diff.sum(axis=2)  # (S,A,2)
    resid = (
        base[:, :, None]
        - 2.0 * np.einsum("sac,oc->sao", linear, offsets)
        + k * np.einsum("oc,oc->o", offsets, offsets)[None, None]
    )
    flat = int(np.argmin(resid))
    si, ai, oi = np.unravel_index(flat, resid.shape)
    best = float(resid[si, ai, oi])
    start = np.array(
        [
            scales[si],
            angles[ai],
            center[si, ai, 0] + offsets[oi, 0],
            center[si, ai, 1] + offsets[oi, 1],
        ]
    )

    if refine:

        def objective(params):
            s, theta, tx, ty = params
            c, sn = np.cos(theta), np.sin(theta)
            moved = s * ex @ np.array([[c, sn], [-sn, c]]) + (tx, ty)
            return float(np.sum((cur - moved) ** 2))

        result = optimize.minimize(
            objective,
            start,
            method="L-BFGS-B",
            bounds=[(1e-9, None), (-max_angle, max_angle), (None, None), (None, None)],
        )
        best = min(best, float(result.fun))
    return -best


def _candidate_lists(hierarchy, candidates, budget):
    """Each part's candidates sorted lexicographically; raises when their
    Cartesian product exceeds `budget`."""
    lists = []
    for cand in candidates:
        cand = np.asarray(cand, dtype=float).reshape(-1, 2)
        lists.append(cand[np.lexsort((cand[:, 1], cand[:, 0]))])
    if len(lists) != hierarchy.atomic_count:
        raise ValueError("need one candidate list per atomic part")
    total = math.prod(len(cand) for cand in lists)
    if total > budget:
        raise ValueError(f"candidate budget exceeded: {total} > {budget}")
    return lists


def exhaustive_best_config(
    stack, hierarchy, library, weights, candidates, bound=MAX_ANGLE, budget=10**5
):
    """Exact argmax of the total score over per-part candidate locations.

    The feature rows of the whole Cartesian product come from one
    `feature_matrix` pass; each score is the weights' dot product with its
    row, summed as `total_score` sums it.  Ties resolve to the
    lexicographically smallest configuration.  Raises when the product
    exceeds the budget.
    """
    lists = _candidate_lists(hierarchy, candidates, budget)
    index = np.indices([len(cand) for cand in lists]).reshape(len(lists), -1)
    X = np.stack([cand[i] for cand, i in zip(lists, index)], axis=1)  # product order
    features = feature_matrix(X, [stack], np.zeros(len(X), dtype=np.intp), hierarchy, library,
                              bound)
    w = weights.as_array()
    scores = np.array([w @ row for row in features])  # as `total_score` sums each row
    best = int(np.argmax(scores))
    return X[best].copy(), float(scores[best])


def naive_exhaustive_best_config(
    stack, hierarchy, library, weights, candidates, bound=MAX_ANGLE, budget=10**5
):
    """`exhaustive_best_config` one configuration at a time, with `total_score`."""
    best_score = -np.inf
    best = None
    X = np.empty((hierarchy.atomic_count, 2))
    for combo in itertools.product(*_candidate_lists(hierarchy, candidates, budget)):
        X[:] = combo
        score = total_score(X, stack, hierarchy, library, weights, bound)
        if score > best_score:
            best_score = score
            best = X.copy()
    return best, float(best_score)
