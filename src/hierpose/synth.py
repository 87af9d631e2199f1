"""Synthetic scenes with known ground truth.

Scenes are desk-scale surrogates for real images: a pose is sampled from an
exemplar library (optionally mixing exemplars across parts), placed into a
pixel grid, and rendered as a score-map stack with Gaussian bumps on the
correct (part, relation-type) channels.
"""

from __future__ import annotations

import json
import math
import mmap
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _json
from ._json import NUMBER, Map
from .appearance import CompositeMaps, ScaleMaps, ScoreMapStack, save_score_maps, load_score_maps
from .geometry import SimilarityTransform, fit_least_squares
from .hierarchy import PartHierarchy
from .learning import Annotation, ExemplarLibrary, load_annotations, save_annotations

__all__ = [
    "generate_pose",
    "render_score_maps",
    "SynthScene",
    "make_scene",
    "save_scene",
    "load_scene",
]


def generate_pose(
    library: ExemplarLibrary,
    hierarchy: PartHierarchy,
    rng: np.random.Generator,
    mix: bool = False,
    assignment: dict[int, int] | None = None,
) -> tuple[np.ndarray, dict[int, int]]:
    """Sample a configuration top-down from the exemplar library.

    The root exemplar fixes the layout of its children; each composite child
    picks its own exemplar (the parent's row, that is, the exemplar of the
    same annotation, unless `mix`) and is similarity-aligned onto the
    anchor/box the parent assigned to it, recursing down to the atomic
    leaves.  `assignment` pins exemplar rows per node.  Returns the
    configuration and the per-node rows chosen.
    """
    chosen: dict[int, int] = {}

    def pick(node_id: int, parent_row: int | None) -> int:
        if assignment is not None and node_id in assignment:
            row = assignment[node_id]
        elif mix or parent_row is None:
            row = int(rng.integers(len(library.sources)))
        else:
            row = parent_row
        chosen[node_id] = row
        return row

    X = np.full((hierarchy.atomic_count, 2), np.nan)

    def anchor_box_points(locations: np.ndarray, node_id: int) -> np.ndarray:
        box = hierarchy.tight_box(locations, node_id)
        return np.stack(
            [hierarchy.anchor_point(locations, node_id), box.top_left, box.bottom_right]
        )

    def place(node_id: int, transform: SimilarityTransform, row: int) -> None:
        node = hierarchy.node(node_id)
        locations = library.points[row]
        placed = np.full_like(locations, np.nan)
        rows = hierarchy.atom_rows(node_id)
        placed[rows] = transform.apply(locations[rows])
        for child_id in node.children:
            child = hierarchy.node(child_id)
            if child.is_atomic:
                X[hierarchy.atom_index(child_id)] = placed[hierarchy.atom_index(child_id)]
            else:
                target = anchor_box_points(placed, child_id)
                child_row = pick(child_id, row)
                source = library.points[child_row]
                fit, _ = fit_least_squares(anchor_box_points(source, child_id), target, bound=np.pi)
                place(child_id, fit, child_row)

    place(hierarchy.root.id, SimilarityTransform.identity(), pick(hierarchy.root.id, None))
    if not np.isfinite(X).all():
        raise RuntimeError("pose generation left unplaced atomic parts")
    return X, chosen


def render_score_maps(
    X: np.ndarray,
    hierarchy: PartHierarchy,
    atomic_labels: dict[int, int],
    composite_labels: dict[int, int],
    atomic_bins: dict[int, int],
    composite_bins: dict[int, int],
    grid: tuple[int, int] = (64, 64),
    sigma: float = 1.5,
    amplitude: float = 0.8,
    distractors: int = 0,
    noise: float = 0.0,
    rng: np.random.Generator | None = None,
    scales: tuple[float, ...] = (1.0,),
) -> ScoreMapStack:
    """Gaussian-bump score maps with the correct channels lit at X.

    Atomic channels get a bump of `amplitude` at each part location on its
    labeled type channel; composite tensors mix a uniform type distribution
    toward the labeled type near each part's anchor.  Optional distractor
    bumps and uniform channel noise are rng-driven; per-pixel channel sums
    are exactly renormalized.
    """
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be finite and > 0, got {sigma}")
    if 2.0 * sigma * sigma == 0:
        raise ValueError(f"sigma is too small: 2 * sigma**2 underflows to 0, got {sigma}")
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

    def bump(center, spread=sigma) -> np.ndarray:
        d2 = (xx - center[0]) ** 2 + (yy - center[1]) ** 2
        return np.exp(-d2 / (2.0 * spread * spread))

    table = [(0, 0)]
    channel_of: dict[tuple[int, int], int] = {}
    for part in hierarchy.atomic_ids:
        for m in range(1, atomic_bins[part] + 1):
            channel_of[(part, m)] = len(table)
            table.append((part, m))

    # Only the rows a bump or the noise lights are held, as float64 maps.
    # Every value is >= +0, so an all-+0 row changes no per-pixel sum: summing
    # the lit rows in row order gives numpy's axis-0 sum over every row bit
    # for bit, and the cap and background follow as over a dense tensor.
    lit: dict[int, np.ndarray] = {}

    def light(row: int, values: np.ndarray) -> None:
        if row in lit:
            lit[row] += values
        else:
            lit[row] = values

    def row_sum(maps) -> np.ndarray:
        total = np.zeros((height, width))
        for values in maps:
            total += values
        return total

    for row, part in enumerate(hierarchy.atomic_ids):
        label = atomic_labels[part]
        light(channel_of[(part, label)], amplitude * bump(X[row]))
    for _ in range(distractors):
        part = int(rng.choice(hierarchy.atomic_ids))
        label = int(rng.integers(1, atomic_bins[part] + 1))
        center = rng.random(2) * (width - 1, height - 1)
        strength = amplitude * (0.3 + 0.6 * rng.random())
        light(channel_of[(part, label)], strength * bump(center))
    if noise:
        # row by row, the same stream as one (C, H, W) draw
        for row in range(1, len(table)):
            light(row, noise * rng.random((height, width)))

    cap = 0.98
    rows = sorted(lit)
    total = row_sum(lit[row] for row in rows)
    over = total > cap
    if np.any(over):
        shrink = cap / total[over]
        for values in lit.values():
            values[over] *= shrink
    atomic = _mapped_array((len(table), height, width), np.float32)
    for row in range(1, len(table)):
        atomic[row] = lit.pop(row, 0.0)
    atomic[0] = 1.0 - row_sum(atomic[row] for row in rows)

    composite: dict[int, CompositeMaps] = {}
    for part, bins in composite_bins.items():
        label = composite_labels[part]
        anchor = hierarchy.anchor_point(X, part)
        mixture = amplitude * bump(anchor, spread=2.0 * sigma)
        data = _mapped_array((bins, height, width), np.float32)
        uniform = (1.0 - mixture) / bins
        for m in range(1, bins + 1):
            value = uniform + (mixture if m == label else 0.0)
            if m < bins:
                data[m - 1] = value.astype(np.float32)
        head = data[: bins - 1].astype(np.float64).sum(axis=0)
        data[bins - 1] = (1.0 - head).astype(np.float32)
        composite[part] = CompositeMaps(part, hierarchy.node(part).level, data)

    maps = []
    for index, scale in enumerate(scales):
        if index:
            atomic = _mapped_copy(atomic)
            composite = {p: CompositeMaps(c.part_id, c.level, _mapped_copy(c.data))
                         for p, c in composite.items()}
        maps.append(ScaleMaps(float(scale), np.array(table, dtype=np.uint32), atomic, composite))
    return ScoreMapStack(maps)


def _mapped_array(shape: tuple[int, ...], dtype) -> np.ndarray:
    """An array on a private anonymous memory map of its own, for a
    rendered tensor.

    A tensor takes megabytes.  Taken from malloc, the first one freed raises
    glibc's mmap threshold and the later ones land on the brk heap, whose
    size then depends on where small allocations fell between them: 30
    renders and saves, each freeing the scene before last, peaked at 54 or
    60 MB of resident memory as the process environment changed by one byte.
    A map of its own is returned to the system when the array is freed.  It
    gets the huge-page advice that numpy gives its own arrays of 4 MB and up.
    """
    count = math.prod(shape)
    size = max(count * np.dtype(dtype).itemsize, 1)
    if hasattr(mmap, "MAP_PRIVATE"):  # not shared with forked children
        buffer = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    else:
        buffer = mmap.mmap(-1, size)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        buffer.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buffer, dtype, count).reshape(shape)


def _mapped_copy(array: np.ndarray) -> np.ndarray:
    copy = _mapped_array(array.shape, array.dtype)
    copy[...] = array
    return copy


@dataclass
class SynthScene:
    """Ground-truth configuration, rendered stack, and how it was made."""

    configuration: np.ndarray
    stack: ScoreMapStack
    provenance: dict


def make_scene(
    library: ExemplarLibrary,
    hierarchy: PartHierarchy,
    seed: int,
    grid: tuple[int, int] = (64, 64),
    mix: bool = False,
    assignment: dict[int, int] | None = None,
    sigma: float = 1.5,
    amplitude: float = 0.8,
    noise: float = 0.0,
    distractors: int = 0,
    margin: float = 0.12,
    max_rotation: float = 0.15,
    snap: bool = True,
    scales: tuple[float, ...] = (1.0,),
) -> SynthScene:
    """Sample a pose, place it inside the grid, and render its score maps."""
    if not 0 <= margin < 0.5:
        raise ValueError(f"margin must lie in [0, 0.5), got {margin}")
    if not max_rotation >= 0:
        raise ValueError(f"max_rotation must be >= 0, got {max_rotation}")
    if max_rotation > math.pi:
        raise ValueError(f"max_rotation must be <= pi, got {max_rotation}")
    if min(grid) < 2:
        raise ValueError(f"grid sides must be >= 2, got {list(grid)}")
    rng = np.random.default_rng(seed)
    pose, chosen = generate_pose(library, hierarchy, rng, mix=mix, assignment=assignment)

    angle = float(rng.uniform(-max_rotation, max_rotation)) if max_rotation else 0.0
    rotated = SimilarityTransform(1.0, angle, np.zeros(2)).apply(pose)
    extent = rotated.max(axis=0) - rotated.min(axis=0)
    height, width = grid
    pad = margin * min(width - 1, height - 1)
    room = np.array([width - 1, height - 1]) - 2 * pad
    scale = float(np.min(room / np.maximum(extent, 1e-9)))
    scaled = rotated * scale
    span = np.array([width - 1, height - 1]) - 2 * pad - (scaled.max(axis=0) - scaled.min(axis=0))
    origin = pad + rng.random(2) * np.maximum(span, 0.0)
    X = scaled - scaled.min(axis=0) + origin
    if snap:
        X = np.floor(X + 0.5)

    atomic_labels: dict[int, int] = {}
    composite_labels: dict[int, int] = {}
    for level in range(2, hierarchy.levels + 1):
        target = atomic_labels if level == 2 else composite_labels
        for node in hierarchy.nodes_at_level(level):
            for child_id in node.children:
                target[child_id] = int(library.labels[child_id][chosen[node.id]])

    stack = render_score_maps(
        X,
        hierarchy,
        atomic_labels,
        composite_labels,
        library.atomic_bins,
        library.composite_bins,
        grid=grid,
        sigma=sigma,
        amplitude=amplitude,
        distractors=distractors,
        noise=noise,
        rng=rng,
        scales=scales,
    )
    provenance = {
        "seed": seed,
        "mix": mix,
        "grid": [height, width],
        "sigma": sigma,
        "amplitude": amplitude,
        "noise": noise,
        "distractors": distractors,
        "margin": margin,
        "max_rotation": max_rotation,
        "snap": snap,
        "scales": list(scales),
        "assignment": {str(node): index for node, index in sorted(chosen.items())},
        "sources": {str(node): library.sources[row] for node, row in sorted(chosen.items())},
    }
    return SynthScene(configuration=X, stack=stack, provenance=provenance)


def save_scene(scene: SynthScene, directory, hierarchy: PartHierarchy) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    grid = scene.provenance.get("grid")
    size = (grid[1], grid[0]) if grid else None
    save_annotations(
        [Annotation("scene", scene.configuration, size)], hierarchy,
        directory / "annotation.json",
    )
    save_score_maps(scene.stack, directory / "maps.hpsm")
    (directory / "provenance.json").write_text(
        json.dumps(scene.provenance, indent=2, sort_keys=True) + "\n"
    )


# numbers are kept as written, so a loaded provenance saves back unchanged
_PROVENANCE = {
    "seed": int, "mix": bool, "snap": bool, "grid": (int, int), "distractors": int,
    **dict.fromkeys(("sigma", "amplitude", "noise", "margin", "max_rotation"), NUMBER),
    "scales": [NUMBER], "assignment": Map(int), "sources": Map(str),
}


def load_scene(directory, hierarchy: PartHierarchy) -> SynthScene:
    directory = Path(directory)
    annotation = load_annotations(directory / "annotation.json", hierarchy)[0]
    stack = load_score_maps(directory / "maps.hpsm")
    text = (directory / "provenance.json").read_text()
    provenance = _json.load(text, _PROVENANCE, "provenance", ValueError)
    return SynthScene(annotation.points, stack, provenance)
