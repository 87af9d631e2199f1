"""Tree-structured part models: atomic keypoints grouped into composite parts.

A hierarchy has L >= 2 levels.  Level-1 nodes are the N atomic parts
(keypoints with pixel locations); a node at level l > 1 is a composite part
covering its children at level l - 1 and is summarized by the tight bounding
box of its descendant atomic locations.  A full pose ("configuration") is an
(N, 2) float array of atomic locations in canonical part order.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _json
from ._json import Map, Nullable, Optional

ANCHOR_WEIGHT_TOL = 1e-9

__all__ = [
    "HierarchyError",
    "BoundingBox",
    "AnchorSpec",
    "PartNode",
    "ScaleParams",
    "PartHierarchy",
    "load_hierarchy",
    "as_configuration",
    "object_size",
]


class HierarchyError(ValueError):
    """A hierarchy document violates a structural invariant."""


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box given by its top-left and bottom-right corners."""

    top_left: np.ndarray
    bottom_right: np.ndarray

    def __post_init__(self):
        tl = np.asarray(self.top_left, dtype=float).reshape(2)
        br = np.asarray(self.bottom_right, dtype=float).reshape(2)
        if br[0] < tl[0] or br[1] < tl[1]:
            raise ValueError("bottom_right must be >= top_left componentwise")
        object.__setattr__(self, "top_left", tl)
        object.__setattr__(self, "bottom_right", br)

    @property
    def width(self) -> float:
        return float(self.bottom_right[0] - self.top_left[0])

    @property
    def height(self) -> float:
        return float(self.bottom_right[1] - self.top_left[1])

    @property
    def mean_side(self) -> float:
        return 0.5 * (self.width + self.height)

    @property
    def area(self) -> float:
        return self.width * self.height

    def iou(self, other: "BoundingBox") -> float:
        lo = np.maximum(self.top_left, other.top_left)
        hi = np.minimum(self.bottom_right, other.bottom_right)
        if np.any(hi <= lo):
            inter = 0.0
        else:
            inter = float(np.prod(hi - lo))
        union = self.area + other.area - inter
        if union <= 0.0:
            return 0.0
        return inter / union


@dataclass(frozen=True)
class AnchorSpec:
    """Anchor of a composite part: a convex combination of atomic locations.

    Anchors mark the relatively rigid reference point of a composite part and
    are part of the hierarchy data, not code.
    """

    weights: dict[int, float]

    def __post_init__(self):
        if not self.weights:
            raise HierarchyError("anchor must reference at least one atomic part")
        if any(w < 0 for w in self.weights.values()):
            raise HierarchyError("anchor weights must be non-negative")
        total = sum(self.weights.values())
        if abs(total - 1.0) > ANCHOR_WEIGHT_TOL:
            raise HierarchyError(f"anchor weights sum to {total!r}, expected 1.0")


@dataclass(frozen=True)
class PartNode:
    id: int
    name: str
    level: int
    children: tuple[int, ...] = ()
    anchor: AnchorSpec | None = None

    @property
    def is_atomic(self) -> bool:
        return self.level == 1


@dataclass(frozen=True)
class ScaleParams:
    """Per-level scaling: canonical object size plus one multiplier per level."""

    reference_length: float
    level_factors: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "level_factors", tuple(float(f) for f in self.level_factors))
        if self.reference_length <= 0:
            raise HierarchyError("reference_length must be positive")
        if not self.level_factors or any(f <= 0 for f in self.level_factors):
            raise HierarchyError("level_factors must all be positive")

    def factor_from_size(self, size: float, level: int) -> float:
        """Scale factor at `level` for an object whose box mean side is `size`.

        `size` may be an array of sizes; the factor is then per element.
        """
        if not 1 <= level <= len(self.level_factors):
            raise ValueError(f"level {level} outside 1..{len(self.level_factors)}")
        if np.any(np.asarray(size) <= 0):
            raise ValueError("degenerate object: zero-extent bounding box")
        return self.level_factors[level - 1] * size / self.reference_length


class PartHierarchy:
    """Validated part tree with canonical node order (by level, then id); it
    builds each node's atom rows and subtree pose columns once."""

    def __init__(self, nodes: list[PartNode], scale: ScaleParams):
        by_id: dict[int, PartNode] = {}
        for node in nodes:
            if node.id in by_id:
                raise HierarchyError(f"duplicate node id {node.id}")
            by_id[node.id] = node
        if not by_id:
            raise HierarchyError("empty hierarchy")

        levels = max(n.level for n in by_id.values())
        if levels < 2:
            raise HierarchyError("hierarchy needs at least 2 levels")
        if min(n.level for n in by_id.values()) != 1:
            raise HierarchyError("hierarchy has no atomic (level-1) parts")
        if len(scale.level_factors) != levels:
            raise HierarchyError(
                f"scale has {len(scale.level_factors)} level_factors, hierarchy has {levels} levels"
            )

        parent: dict[int, int] = {}
        for node in by_id.values():
            if node.is_atomic:
                if node.children:
                    raise HierarchyError(f"atomic node {node.id} has children")
                if node.anchor is not None:
                    raise HierarchyError(f"atomic node {node.id} carries an anchor")
                continue
            if len(node.children) < 2:
                raise HierarchyError(
                    f"composite node {node.id} has {len(node.children)} child(ren); "
                    "single-child pass-throughs are rejected"
                )
            if node.anchor is None:
                raise HierarchyError(f"composite node {node.id} is missing an anchor")
            for child_id in node.children:
                child = by_id.get(child_id)
                if child is None:
                    raise HierarchyError(f"node {node.id} references unknown child {child_id}")
                if child.level != node.level - 1:
                    raise HierarchyError(
                        f"level gap: node {node.id} (level {node.level}) has "
                        f"child {child_id} (level {child.level})"
                    )
                if child_id in parent:
                    raise HierarchyError(
                        f"cycle detected: node {child_id} reachable from both "
                        f"{parent[child_id]} and {node.id}"
                    )
                parent[child_id] = node.id

        roots = [n for n in by_id.values() if n.id not in parent]
        if len(roots) != 1:
            ids = sorted(n.id for n in roots)
            raise HierarchyError(f"hierarchy must have exactly one root, found {ids}")
        root = roots[0]
        if root.level != levels:
            raise HierarchyError(f"root {root.id} sits at level {root.level}, expected {levels}")

        self.nodes: tuple[PartNode, ...] = tuple(
            sorted(by_id.values(), key=lambda n: (n.level, n.id))
        )
        self.levels = levels
        self.root = root
        self.scale = scale
        self._by_id = by_id
        self._parent = parent
        self.atomic_ids: tuple[int, ...] = tuple(
            n.id for n in self.nodes if n.is_atomic
        )
        self.atomic_count = len(self.atomic_ids)
        self._atom_index = {pid: i for i, pid in enumerate(self.atomic_ids)}
        self.composite_nodes: tuple[PartNode, ...] = tuple(
            n for n in self.nodes if not n.is_atomic
        )
        self._composite_index = {n.id: i for i, n in enumerate(self.composite_nodes)}
        self._name_to_id: dict[str, int] = {}
        for node in self.nodes:
            if node.name in self._name_to_id:
                raise HierarchyError(f"duplicate node name {node.name!r}")
            self._name_to_id[node.name] = node.id

        self._atoms_below: dict[int, tuple[int, ...]] = {}
        self._composites_below: dict[int, tuple[int, ...]] = {}
        self._atom_rows: dict[int, np.ndarray] = {}
        self._subtree_columns: dict[int, np.ndarray] = {}
        for node in self.nodes:  # children precede parents in canonical order
            atoms, composites = ([node.id], []) if node.is_atomic else ([], [node.id])
            for child_id in node.children:
                atoms.extend(self._atoms_below[child_id])
                composites.extend(self._composites_below[child_id])
            atoms.sort()
            self._atoms_below[node.id] = tuple(atoms)
            self._composites_below[node.id] = tuple(composites)
            rows = np.array([self._atom_index[p] for p in atoms], dtype=np.intp)
            columns = np.array([self._composite_index[c] for c in composites], dtype=np.intp)
            rows.flags.writeable = columns.flags.writeable = False
            self._atom_rows[node.id], self._subtree_columns[node.id] = rows, columns

        for node in self.composite_nodes:
            below = set(self._atoms_below[node.id])
            for pid in node.anchor.weights:
                if pid not in below:
                    raise HierarchyError(
                        f"anchor of node {node.id} references non-descendant part {pid}"
                    )

    # -- lookups ---------------------------------------------------------

    def node(self, node_id: int) -> PartNode:
        try:
            return self._by_id[node_id]
        except KeyError:
            raise KeyError(f"unknown node id {node_id}") from None

    def id_of(self, name: str) -> int:
        try:
            return self._name_to_id[name]
        except KeyError:
            raise KeyError(f"unknown part name {name!r}") from None

    def name_of(self, node_id: int) -> str:
        return self.node(node_id).name

    def parent_of(self, node_id: int) -> int | None:
        return self._parent.get(node_id)

    def reference_of(self, node_id: int) -> int:
        """The part a non-root part's relation type is read against: its
        next sibling in its parent's child order, wrapping."""
        siblings = self._by_id[self._parent[node_id]].children
        return siblings[(siblings.index(node_id) + 1) % len(siblings)]

    def nodes_at_level(self, level: int) -> tuple[PartNode, ...]:
        return tuple(n for n in self.nodes if n.level == level)

    def atoms_below(self, node_id: int) -> tuple[int, ...]:
        return self._atoms_below[node_id]

    def atom_index(self, part_id: int) -> int:
        """Row of an atomic part in the configuration array."""
        try:
            return self._atom_index[part_id]
        except KeyError:
            raise KeyError(f"node {part_id} is not atomic") from None

    def composite_index(self, node_id: int) -> int:
        """Position of a composite node in `composite_nodes`."""
        try:
            return self._composite_index[node_id]
        except KeyError:
            raise KeyError(f"node {node_id} is not composite") from None

    def atom_rows(self, node_id: int) -> np.ndarray:
        """Configuration rows of `atoms_below(node_id)`, read-only."""
        return self._atom_rows[node_id]

    def composites_below(self, node_id: int) -> tuple[int, ...]:
        """Composite nodes of the subtree rooted at `node_id`, in pre-order."""
        try:
            return self._composites_below[node_id]
        except KeyError:
            raise KeyError(f"unknown node id {node_id}") from None

    def subtree_columns(self, node_id: int) -> np.ndarray:
        """Pose columns of `composites_below(node_id)`, in pre-order, read-only."""
        try:
            return self._subtree_columns[node_id]
        except KeyError:
            raise KeyError(f"unknown node id {node_id}") from None

    @property
    def atomic_names(self) -> tuple[str, ...]:
        return tuple(self._by_id[p].name for p in self.atomic_ids)

    # -- geometry over configurations -------------------------------------

    def tight_box(self, X: np.ndarray, node_id: int) -> BoundingBox:
        """Componentwise min/max box over the node's descendant atoms."""
        node = self.node(node_id)
        if node.is_atomic:
            raise ValueError(f"tight_box is defined for composite nodes, got atomic {node_id}")
        pts = np.asarray(X, dtype=float)[self.atom_rows(node_id)]
        if not np.isfinite(pts).all():
            raise ValueError(f"configuration has non-finite locations under node {node_id}")
        return BoundingBox(pts.min(axis=0), pts.max(axis=0))

    def anchor_point(self, X: np.ndarray, node_id: int) -> np.ndarray:
        """Weighted mean of the anchored atomic locations.

        `X` may stack configurations, (..., N, 2); the result is (..., 2).
        """
        node = self.node(node_id)
        if node.is_atomic or node.anchor is None:
            raise ValueError(f"node {node_id} has no anchor")
        X = np.asarray(X, dtype=float)
        out = np.zeros(X.shape[:-2] + (2,))
        for pid, w in node.anchor.weights.items():
            out += w * X[..., self._atom_index[pid], :]
        return out


def as_configuration(points) -> np.ndarray:
    """Validate and return an (N, 2) float64 configuration array."""
    X = np.asarray(points, dtype=float)
    if X.ndim != 2 or X.shape[1] != 2:
        raise ValueError(f"configuration must be (N, 2), got {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("configuration contains non-finite coordinates")
    return X


def object_size(X: np.ndarray) -> float | np.ndarray:
    """Mean side length of the bounding box of all atomic locations.

    `X` is (N, 2), or (S, N, 2) for S configurations; the size is then per
    configuration.
    """
    X = np.asarray(X, dtype=float)
    size = (X.max(axis=-2) - X.min(axis=-2)).mean(axis=-1)
    return float(size) if size.ndim == 0 else size


_HIERARCHY = {
    "levels": int,
    "nodes": [{"id": int, "name": str, "level": int, "children": Optional(Nullable([int])),
               "anchor": Optional(Nullable(Map(float)))}],
    "scale": {"reference_length": float, "level_factors": [float]},
}


def load_hierarchy(document) -> PartHierarchy:
    """Build a hierarchy from a config document (dict, JSON text, or path).

    Schema::

        {"levels": L,
         "nodes": [{"id": 1, "name": "neck", "level": 1,
                    "children": [...], "anchor": {"part name": weight}}, ...],
         "scale": {"reference_length": px, "level_factors": [f1, ..., fL]}}

    Anchor keys are part names (atomic descendants of the node).
    """
    if isinstance(document, Path) or isinstance(document, str) and document.lstrip()[:1] != "{":
        document = Path(document).read_text()
    read = _json.load if isinstance(document, str) else _json.read
    document = read(document, _HIERARCHY, "hierarchy", HierarchyError)

    names = {raw["name"]: raw["id"] for raw in document["nodes"]}
    nodes: list[PartNode] = []
    for raw in document["nodes"]:
        anchor = None
        if raw.get("anchor") is not None:
            weights: dict[int, float] = {}
            for key, w in raw["anchor"].items():
                if key not in names:
                    raise HierarchyError(f"anchor references unknown part {key!r}")
                weights[names[key]] = w
            anchor = AnchorSpec(weights)
        children = tuple(raw.get("children") or ())
        nodes.append(PartNode(raw["id"], raw["name"], raw["level"], children, anchor))

    hierarchy = PartHierarchy(nodes, ScaleParams(**document["scale"]))
    if document["levels"] != hierarchy.levels:
        raise HierarchyError(
            f"document declares {document['levels']} levels, nodes span {hierarchy.levels}"
        )
    return hierarchy
