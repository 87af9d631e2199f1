"""Score-map stacks: gridded part/relation-type probabilities and lookups.

A stack stores, per scale, an atomic tensor of p(part, relation_type | pixel)
channels (channel (0, 0) is background) and, for composite parts that have a
reference sibling, conditional type tensors p(type | part, pixel), one
(T, H, W) float32 array per part id.  Stacks stand in for whatever produced
the detection scores; the library only reads them, and scales may share
their arrays.  Every lookup gathers nearest pixels at one stored scale (callers
group their rows by the stored scale nearest each row's scale) and clamps
probabilities at a 1e-6 floor before taking logs.  The two relation-type
lookups have one form: each takes one part id, or one per item, and reads
all its items at one scale in one call.  Channels are found by
(part, type) key in a sorted key array per scale.  The marginal
p(part | pixel) has one form, a per-scale table of every part's map, which
only peak ranking (`_ranked_maxima`, which seeding calls, through
`ScoreMapStack.marginal`) builds;
every other marginal lookup is one `marginals_at` gather, of that table if
it is built and otherwise of the parts' channels at the looked-up pixels
only, summed with the same bits.  The type ids of those channels come from
one batched rule, `RelationTypeModel.labels`.  A loaded stack's range and
normalization are checked per tensor by two cheap screens (`_validate`),
and exactly where a screen fails.
"""

from __future__ import annotations

import math
import mmap
import struct
from dataclasses import dataclass, field

import numpy as np

from .hierarchy import PartHierarchy, object_size

PROB_FLOOR = 1e-6
LOG_FLOOR = math.log(PROB_FLOOR)
NORM_TOL = 1e-3  # slack of the [0, 1] range and per-pixel sum checks
KMEANS_MAX_ITER = 100
TYPE_BINS_MAX = 1_000  # relation types per part, atomic and composite

MAGIC = b"HPSM"
FORMAT_VERSION = 3
ATOMIC_MAX_BYTES = 2**30  # n_channels * H * W * 4 of one loaded atomic tensor
_ID_MAX = 0xFFFFFFFF  # part and type ids are u32

__all__ = [
    "PROB_FLOOR",
    "LOG_FLOOR",
    "ScoreMapError",
    "ScaleMaps",
    "ScoreMapStack",
    "load_score_maps",
    "save_score_maps",
    "log_marginals_at",
    "log_type_prob_atomic",
    "log_type_prob_composite",
    "fit_relation_clusters",
    "annotation_points",
    "CoincidentPartsError",
    "RelationTypeModel",
]


class ScoreMapError(ValueError):
    """Malformed or inconsistent score-map data."""


@dataclass
class ScaleMaps:
    """All maps stored for a single scale.  The composite dict is the
    scale's own; its arrays, like the atomic tensor, may be shared with
    other scales."""

    scale: float
    channel_table: np.ndarray  # (C, 2) uint32 rows of (part_id, type_id)
    atomic: np.ndarray  # (C, H, W) float32
    composite: dict[int, np.ndarray] = field(default_factory=dict)  # part: (T, H, W) float32

    def __post_init__(self):
        self.channel_table = np.ascontiguousarray(self.channel_table, dtype=np.uint32)
        self.atomic = np.ascontiguousarray(self.atomic, dtype=np.float32)
        if self.atomic.ndim != 3:
            raise ScoreMapError("atomic tensor must be (C, H, W)")
        if self.channel_table.shape != (self.atomic.shape[0], 2):
            raise ScoreMapError("channel table does not match atomic tensor")
        if 0 in self.atomic.shape:
            raise ScoreMapError(f"empty atomic tensor {self.atomic.shape}")
        self.composite = {part: np.ascontiguousarray(data, dtype=np.float32)
                          for part, data in self.composite.items()}
        for part, data in self.composite.items():
            if data.ndim != 3:
                raise ScoreMapError("composite maps must be (T, H, W)")
            if 0 in data.shape:
                raise ScoreMapError(f"composite part {part}: empty maps {data.shape}")
            if data.shape[1:] != self.grid_shape:
                raise ScoreMapError("composite maps do not match the atomic grid")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ScoreMapError(f"scale must be finite and positive, got {self.scale}")

    @property
    def grid_shape(self) -> tuple[int, int]:
        return self.atomic.shape[1], self.atomic.shape[2]


class ScoreMapStack:
    """Immutable multi-scale stack.  A scale's marginal maps are built once,
    all together, when `marginal` is first asked for one of them;
    `marginals_at` reads them if they are built and gathers the channels at
    the pixels otherwise."""

    def __init__(self, scales: list[ScaleMaps]):
        if not scales:
            raise ScoreMapError("stack needs at least one scale")
        self.scales: tuple[ScaleMaps, ...] = tuple(scales)
        values = [s.scale for s in self.scales]
        if len(set(values)) != len(values):
            raise ScoreMapError("duplicate scale values in stack")
        self._scale_values = np.array(values)
        # per scale: the channel keys part << 32 | type, sorted, and the
        # atomic-tensor row of each sorted key
        self._keys: list[np.ndarray] = []
        self._key_rows: list[np.ndarray] = []
        for maps in self.scales:
            keys = maps.channel_table[:, 0].astype(np.uint64) << np.uint64(32)
            keys |= maps.channel_table[:, 1]
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            duplicate = np.flatnonzero(keys[1:] == keys[:-1])
            if duplicate.size:
                row = maps.channel_table[order[duplicate[0]]]
                raise ScoreMapError(f"duplicate channel {(int(row[0]), int(row[1]))}")
            self._keys.append(keys)
            self._key_rows.append(order)
        # per scale, once first asked: `_part_channels`, and the read-only
        # (parts, H * W) table of every part's marginal map in its order
        self._part_tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._marginal_tables: dict[int, np.ndarray] = {}

    @property
    def n_scales(self) -> int:
        return len(self.scales)

    def nearest_scale_indices(self, scales: np.ndarray) -> np.ndarray:
        """Index of the stored scale nearest each element of a 1-D array of
        scales (ties: the lower index)."""
        return np.argmin(np.abs(self._scale_values[None, :] - scales[:, None]), axis=1)

    def channel_rows(self, part, type_ids, scale_index: int) -> np.ndarray:
        """Atomic-tensor rows of the (part, type) channels, one per type id;
        `part` is one part id or an array of one per type id.  Every key is
        found in one search."""
        type_ids = np.asarray(type_ids, dtype=np.int64)
        parts = np.broadcast_to(np.asarray(part, dtype=np.int64), type_ids.shape)
        keys, rows = self._keys[scale_index], self._key_rows[scale_index]
        valid = (type_ids >= 0) & (type_ids <= _ID_MAX) & (parts >= 0) & (parts <= _ID_MAX)
        wanted = np.where(valid, parts, 0).astype(np.uint64) << np.uint64(32)
        wanted |= np.where(valid, type_ids, 0).astype(np.uint64)
        at = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
        missing = ~valid | (keys[at] != wanted)
        if missing.any():
            first = np.flatnonzero(missing.ravel())[0]
            raise KeyError(
                f"no channel for part {int(parts.flat[first])}, type {int(type_ids.flat[first])}"
            )
        return rows[at]

    def _part_channels(self, scale_index: int) -> tuple[np.ndarray, np.ndarray]:
        """The part ids of the scale's channel table, sorted, and each part's
        atomic-tensor rows in table order, padded with -1."""
        if scale_index not in self._part_tables:
            owner = self.scales[scale_index].channel_table[:, 0].astype(np.int64)
            parts = np.unique(owner)
            rows = [np.flatnonzero(owner == part) for part in parts]
            padded = np.full((len(parts), max(map(len, rows))), -1, dtype=np.intp)
            for i, part_rows in enumerate(rows):
                padded[i, : len(part_rows)] = part_rows
            self._part_tables[scale_index] = (parts, padded)
        return self._part_tables[scale_index]

    def _part_positions(self, parts, scale_index: int) -> np.ndarray:
        """Row of each part id in the scale's `_part_channels`; a part with
        no type channel raises KeyError."""
        parts = np.asarray(parts, dtype=np.int64)
        known = self._part_channels(scale_index)[0]
        at = np.minimum(np.searchsorted(known, parts), len(known) - 1)
        missing = (known[at] != parts) | (parts == 0)
        if missing.any():
            raise KeyError(f"no channels for part {int(parts[missing][0])}")
        return at

    def marginal(self, part: int, scale_index: int) -> np.ndarray:
        """p(part | pixel): type channels summed, as float64.  The first call
        at a scale builds the marginal maps of all its parts."""
        at = int(self._part_positions([part], scale_index)[0])
        if scale_index not in self._marginal_tables:
            parts, rows = self._part_channels(scale_index)
            atomic = self.scales[scale_index].atomic
            table = np.zeros((len(parts), atomic[0].size))
            for i in np.flatnonzero(parts):  # the background row (part 0) is never read
                table[i] = _channel_sum(atomic[rows[i][rows[i] >= 0]]).ravel()
            table.flags.writeable = False
            self._marginal_tables[scale_index] = table
        return self._marginal_tables[scale_index][at].reshape(self.scales[scale_index].grid_shape)

    def marginals_at(self, parts, pixel, scale_index: int) -> np.ndarray:
        """p(parts[i] | pixel[i]) of an array of part ids and one of flat
        pixel indices that broadcast together, bit for bit as `marginal`:
        the part ids are searched as given, then one gather reads the
        scale's marginal table if `marginal` built it, else every item's
        channels, which are summed in table order as float64."""
        pixel = np.asarray(pixel)
        at = self._part_positions(parts, scale_index)
        atomic = self.scales[scale_index].atomic
        size = atomic[0].size  # gathers take flat indices: faster than (row, pixel) pairs
        table = self._marginal_tables.get(scale_index)
        if table is not None:
            return table.ravel()[at * size + pixel]
        rows = self._part_channels(scale_index)[1][at]
        values = atomic.ravel()[rows * size + pixel[..., None]].astype(np.float64)
        # padding rows read 0: adding +0.0 leaves a sum's bits unchanged
        values = np.where(rows < 0, 0.0, values)
        return np.cumsum(values, axis=-1)[..., -1]  # left to right, as `_channel_sum`


def _validate(stack: ScoreMapStack, atomic_screens: list[np.ndarray]) -> None:
    """Check value range (NaN fails it) and per-pixel normalization of every
    tensor, to within NORM_TOL.  A tensor that passes `_screened` surely
    passes the exact check (`min`, `max` and a float64 per-pixel sum),
    which runs only on the others and reads the whole tensor.  Each scale's
    atomic tensor is screened by `atomic_screens`: the tensor, or those of
    its rows that hold a set bit, since the other rows are +0.0, which
    changes no bound of `_screened` and no sum."""
    for maps, screen in zip(stack.scales, atomic_screens):
        tensors = [(f"scale {maps.scale}: atomic", maps.atomic, screen)] + [
            (f"composite part {part} at scale {maps.scale}:", data, data)
            for part, data in maps.composite.items()
        ]
        for name, data, screen in tensors:
            if _screened(screen):
                continue
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


_HIGH_BITS = int(np.float32(1.0 + NORM_TOL).view(np.uint32))


def _screened(data: np.ndarray) -> bool:
    """Whether a (C, H, W) float32 tensor surely passes the exact check of
    `_validate`, by two cheaper passes.  (1) As uint32, the
    bits of +0 up to float32(1 + NORM_TOL) are the smallest patterns, and
    those of -0, negatives, +inf and NaN lie above them, so one integer
    `max` tells that every value lies in that range.  (2) Then a float32
    per-pixel sum s of C values x >= 0 lies within g * sum(x) of the exact
    sum, g = (C-1)u / (1 - (C-1)u) with u = 2**-24, and so does the exact
    check's float64 sum, with a far smaller u; so
    |s - 1| <= NORM_TOL - 2 * g * (1 + NORM_TOL) / (1 - g) leaves that
    float64 sum, and every value, within NORM_TOL of 1."""
    if int(data.view(np.uint32).max()) > _HIGH_BITS:
        return False
    rounding = (len(data) - 1) * 2.0**-24
    g = rounding / (1.0 - rounding)
    deviation = float(np.abs(np.add.reduce(data, axis=0) - np.float32(1.0)).max())
    return deviation <= NORM_TOL - 2.0 * g * (1.0 + NORM_TOL) / (1.0 - g)


def _channel_sum(channels: np.ndarray) -> np.ndarray:
    """Sum over the first axis as float64, one channel at a time in row
    order, so a sum over whole maps and one over gathered pixels agree."""
    total = channels[0].astype(np.float64)
    for channel in channels[1:]:
        total += channel
    return total


# -- binary container ------------------------------------------------------


def save_score_maps(stack: ScoreMapStack, path) -> None:
    """Write the little-endian "HPSM" container (bit-exact round trip),
    each header and tensor straight to the file, with no copy of a tensor
    that is already little-endian and contiguous.  Of each atomic tensor
    only the rows that hold a set bit are written, after their ids; a row
    of -0.0 is one of them, and the rows left out read +0.0 when loaded."""
    with open(path, "wb") as out:
        out.write(MAGIC)
        out.write(struct.pack("<II", FORMAT_VERSION, stack.n_scales))
        for maps in stack.scales:
            c, h, w = maps.atomic.shape
            out.write(struct.pack("<dIII", maps.scale, h, w, c))
            out.write(np.ascontiguousarray(maps.channel_table, "<u4"))
            atomic = np.ascontiguousarray(maps.atomic, "<f4")
            # one max per row over the bits, with no full-size temporary
            rows = np.flatnonzero(atomic.view("<u4").reshape(c, h * w).max(axis=1, initial=0))
            out.write(struct.pack("<I", len(rows)))
            out.write(rows.astype("<u4"))
            for row in rows.tolist():
                out.write(atomic[row])
            out.write(struct.pack("<I", len(maps.composite)))
            for part in sorted(maps.composite):
                data = maps.composite[part]
                out.write(struct.pack("<II", part, data.shape[0]))
                out.write(np.ascontiguousarray(data, "<f4"))


class _Reader:
    """Bounds-checked cursor over one buffer of a container's bytes; slices
    and the arrays of `array` are views of it, so nothing is copied after
    the read.  A read past the end raises `error("truncated <name> file")`."""

    def __init__(self, data, error: type[ValueError], name: str):
        self.data = memoryview(data)
        self.pos = 0
        self.error = error
        self.name = name

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.data):
            raise self.error(f"truncated {self.name} file")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, dtype: str, count: int, shape: tuple[int, ...]) -> np.ndarray:
        raw = self.take(count * np.dtype(dtype).itemsize)
        return np.frombuffer(raw, dtype=dtype).reshape(shape)


def load_score_maps(path) -> ScoreMapStack:
    """Read an "HPSM" container and validate normalization invariants.

    The file is read into one buffer, and the composite tensors are views
    of it.  An atomic tensor whose rows are all stored is one too; any
    other is a zero `_mapped_array` with the stored rows copied in, so the
    rows the file leaves out commit no memory.  Its range and sums are
    screened on the stored rows alone."""
    reader = _Reader(np.fromfile(path, dtype=np.uint8), ScoreMapError, "score-map")
    if reader.take(4) != MAGIC:
        raise ScoreMapError(f"bad magic in {path}: not a score-map file")
    version, n_scales = reader.unpack("<II")
    if version != FORMAT_VERSION:
        raise ScoreMapError(f"unsupported score-map version {version}")
    scales: list[ScaleMaps] = []
    screens: list[np.ndarray] = []
    for _ in range(n_scales):
        scale, h, w, c = reader.unpack("<dIII")
        if 0 in (c, h, w):
            raise ScoreMapError(f"empty atomic tensor {(c, h, w)}")
        if 4 * c * h * w > ATOMIC_MAX_BYTES:
            raise ScoreMapError(
                f"scale {scale}: atomic tensor of n_channels x H x W = {c} x {h} x {w} "
                f"float32 values exceeds {ATOMIC_MAX_BYTES} bytes"
            )
        table = reader.array("<u4", c * 2, (c, 2))
        (n_stored,) = reader.unpack("<I")
        if not 1 <= n_stored <= c:
            raise ScoreMapError(f"scale {scale}: n_stored must lie in [1, {c}], got {n_stored}")
        rows = reader.array("<u4", n_stored, (n_stored,))
        if rows[-1] >= c or np.any(rows[1:] <= rows[:-1]):
            raise ScoreMapError(
                f"scale {scale}: stored row ids must increase strictly and stay below {c}"
            )
        stored = reader.array("<f4", n_stored * h * w, (n_stored, h, w))
        empty = np.flatnonzero(stored.view("<u4").reshape(n_stored, h * w).max(axis=1) == 0)
        if empty.size:
            raise ScoreMapError(f"scale {scale}: stored row {rows[empty[0]]} holds only +0.0")
        if n_stored == c:
            atomic = stored
        else:
            atomic = _mapped_array((c, h, w), np.float32)
            atomic[rows] = stored
        screens.append(stored)
        (n_comp,) = reader.unpack("<I")
        composite: dict[int, np.ndarray] = {}
        for _ in range(n_comp):
            part, n_types = reader.unpack("<II")
            if part <= max(composite, default=-1):
                raise ScoreMapError(f"composite part {part} out of order or repeated")
            composite[part] = reader.array("<f4", n_types * h * w, (n_types, h, w))
        scales.append(ScaleMaps(scale, table, atomic, composite))
    if reader.pos != len(reader.data):
        raise ScoreMapError("trailing bytes after score-map payload")
    stack = ScoreMapStack(scales)
    _validate(stack, screens)
    return stack


def _mapped_array(shape: tuple[int, ...], dtype) -> np.ndarray:
    """A zero array on a private anonymous memory map of its own, for a
    rendered or loaded tensor.

    A tensor takes megabytes.  Taken from malloc, the first one freed raises
    glibc's mmap threshold and the later ones land on the brk heap, whose
    size then depends on where small allocations fell between them: 30
    renders and saves, each freeing the scene before last, peaked at 54 or
    60 MB of resident memory as the process environment changed by one byte.
    A map of its own is returned to the system when the array is freed.

    Only the pages a caller writes are committed, so a row the caller never
    writes reads +0.0 and costs no memory.  The map is advised against huge
    pages, where one written row would commit 2 MB.
    """
    count = math.prod(shape)
    size = max(count * np.dtype(dtype).itemsize, 1)
    if hasattr(mmap, "MAP_PRIVATE"):  # not shared with forked children
        buffer = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    else:
        buffer = mmap.mmap(-1, size)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buffer.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buffer, dtype, count).reshape(shape)


# -- probability lookups ----------------------------------------------------


def _pixels(points: np.ndarray, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Flat nearest-pixel index of (..., 2) (x, y) points on a grid of
    `shape`, and the mask of the points on the grid (the index of the others
    is 0)."""
    height, width = shape
    cols = np.floor(points[..., 0] + 0.5)
    rows = np.floor(points[..., 1] + 0.5)
    on_grid = (rows >= 0) & (rows < height) & (cols >= 0) & (cols < width)
    return np.where(on_grid, rows * width + cols, 0).astype(np.intp), on_grid


def log_marginals_at(stack: ScoreMapStack, parts, points, scale_index: int) -> np.ndarray:
    """(P, K) log p(part | pixel) of (P, K, 2) points: row p is the floored
    log of `parts[p]`'s marginal at one stored scale; off-grid points read
    LOG_FLOOR."""
    pixel, on_grid = _pixels(np.asarray(points, dtype=float), stack.scales[scale_index].grid_shape)
    marginals = stack.marginals_at(np.asarray(parts)[:, None], pixel, scale_index)
    out = np.log(np.maximum(marginals, PROB_FLOOR))
    out[~on_grid] = LOG_FLOOR
    return out


def log_type_prob_atomic(
    stack: ScoreMapStack, part, labels, points, scale_index: int
) -> np.ndarray:
    """Per item: floored log p(label | part, pixel) at an atomic part's point.

    `labels` has any shape, `points` that shape plus (2,), and `part` is one
    part id or an array of one per item; all are read at one stored scale,
    and off-grid points read LOG_FLOOR.  Only the looked-up pixels are
    gathered: the on-grid items of every part take one channel-key search,
    one joint gather and one marginal gather (`marginals_at`).
    """
    labels = np.asarray(labels)
    parts = np.broadcast_to(np.asarray(part, dtype=np.int64), labels.shape)
    pixel, on_grid = _pixels(np.asarray(points, dtype=float), stack.scales[scale_index].grid_shape)
    pixel, parts = pixel[on_grid], parts[on_grid]
    atomic = stack.scales[scale_index].atomic
    channels = stack.channel_rows(parts, labels[on_grid], scale_index)
    joint = atomic.reshape(len(atomic), -1)[channels, pixel].astype(np.float64)
    denom = stack.marginals_at(parts, pixel, scale_index)
    cond = np.divide(joint, denom, out=np.zeros_like(joint), where=denom > 0.0)
    out = np.full(labels.shape, LOG_FLOOR)
    out[on_grid] = np.log(np.maximum(cond, PROB_FLOOR))
    return out


def log_type_prob_composite(
    stack: ScoreMapStack, part, labels, anchors, scale_index: int
) -> np.ndarray:
    """Per item: floored log relation-type probability at a composite anchor.

    Arguments are per item as in `log_type_prob_atomic`, `part` one part id
    or one per item.  A label outside 1..T, T being its part's type count at
    that scale, raises KeyError.  Each part's items are gathered in one read.
    """
    labels = np.asarray(labels)
    parts = np.broadcast_to(np.asarray(part, dtype=np.int64), labels.shape)
    # every composite tensor lies on its scale's atomic grid (`ScaleMaps`)
    pixel, on_grid = _pixels(np.asarray(anchors, dtype=float), stack.scales[scale_index].grid_shape)
    out = np.full(labels.shape, LOG_FLOOR)
    for one in sorted(set(parts.ravel().tolist())):
        data = stack.scales[scale_index].composite.get(one)
        if data is None:
            raise KeyError(f"no composite maps for part {one}")
        mine = parts == one
        kinds = labels[mine]
        bad = (kinds < 1) | (kinds > len(data))
        if bad.any():
            raise KeyError(
                f"no composite type {int(kinds[bad][0])} for part {one} ({len(data)} types)"
            )
        mine &= on_grid
        values = data.reshape(len(data), -1)[labels[mine] - 1, pixel[mine]].astype(np.float64)
        out[mine] = np.log(np.maximum(values, PROB_FLOOR))
    return out


def _ranked_maxima(
    stack: ScoreMapStack, part: int, scale_index: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every strict 8-neighborhood maximum of p(part | pixel) at one stored
    scale: (K, 2) (x, y) points and their (K,) scores, by descending score
    (ties: row-major order)."""
    grid = stack.marginal(part, scale_index)
    padded = np.full((grid.shape[0] + 2, grid.shape[1] + 2), -np.inf)
    padded[1:-1, 1:-1] = grid
    center = padded[1:-1, 1:-1]
    strict = np.ones_like(grid, dtype=bool)
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr == 0 and dc == 0:
                continue
            neighbor = padded[1 + dr : padded.shape[0] - 1 + dr, 1 + dc : padded.shape[1] - 1 + dc]
            strict &= center > neighbor
    rows, cols = np.nonzero(strict)  # row-major: a stable sort keeps it among ties
    order = np.argsort(-grid[rows, cols], kind="stable")
    rows, cols = rows[order], cols[order]
    return np.stack([cols, rows], axis=1).astype(float), grid[rows, cols]


def _greedy_nms(points: np.ndarray, radius: float, count: int) -> list[int]:
    """Greedy non-maximum suppression of (K, 2) points ranked best first.

    Returns the indices, in rank order, of at most `count` points, each of
    which lies at distance >= radius from every point kept before it.
    """
    kept: list[int] = []
    for k, point in enumerate(points):
        gap = points[kept] - point
        if np.any(np.hypot(gap[:, 0], gap[:, 1]) < radius):
            continue
        kept.append(k)
        if len(kept) == count:
            break
    return kept


# -- relation types ----------------------------------------------------------


def fit_relation_clusters(vectors, count: int, seed: int = 0) -> np.ndarray:
    """Deterministic k-means (k-means++ init, at most KMEANS_MAX_ITER
    iterations).

    Vectors are clustered as given; relation vectors are expected to be
    normalized by object size before fitting.
    """
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim != 2:
        raise ValueError("vectors must be a 2-D array")
    if count < 1:
        raise ValueError("count must be >= 1")
    if vectors.shape[0] < count:
        raise ValueError(f"need at least {count} vectors, got {vectors.shape[0]}")
    rng = np.random.default_rng(seed)

    centroids = np.empty((count, vectors.shape[1]))
    centroids[0] = vectors[rng.integers(vectors.shape[0])]
    dist2 = np.sum((vectors - centroids[0]) ** 2, axis=1)
    for k in range(1, count):
        total = dist2.sum()
        if total <= 0.0:
            centroids[k] = vectors[0]
            continue
        r = rng.random() * total
        pick = int(np.searchsorted(np.cumsum(dist2), r))
        pick = min(pick, vectors.shape[0] - 1)
        centroids[k] = vectors[pick]
        dist2 = np.minimum(dist2, np.sum((vectors - centroids[k]) ** 2, axis=1))

    assignment = np.full(vectors.shape[0], -1)
    for _ in range(KMEANS_MAX_ITER):
        new_assignment = _nearest_centroid(vectors, centroids)
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        for k in range(count):
            members = vectors[assignment == k]
            if members.size:
                centroids[k] = members.mean(axis=0)
    return centroids


def _nearest_centroid(vectors: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """0-based index of the centroid nearest each (E, D) row in squared
    distance; ties go to the lowest index."""
    return np.argmin(np.sum((vectors[:, None, :] - centroids[None, :, :]) ** 2, axis=2), axis=1)


def _composite_vectors(points: np.ndarray, part: int, hierarchy: PartHierarchy) -> np.ndarray:
    """(E, 4) relation of a composite part to its reference in each (N, 2)
    row of `points`: the reference's tight-box corners minus the part's
    anchor, (tl - anchor, br - anchor), over the row's object size."""
    anchor = hierarchy.anchor_point(points, part)
    box = points[:, hierarchy.atom_rows(hierarchy.reference_of(part))]
    corners = np.concatenate([box.min(axis=1) - anchor, box.max(axis=1) - anchor], axis=1)
    return corners / object_size(points)[:, None]


def annotation_points(annotations, hierarchy: PartHierarchy) -> np.ndarray:
    """The (E, N, 2) points of a list of `Annotation`s; an annotation whose
    points all coincide raises ValueError naming it."""
    for ann in annotations:
        if object_size(ann.points) <= 0:
            raise ValueError(f"degenerate annotation {ann.image!r}: all points identical")
    return np.reshape(
        [ann.points for ann in annotations], (len(annotations), hierarchy.atomic_count, 2)
    )


class CoincidentPartsError(ValueError):
    """A row puts an atomic part on its reference, whose zero offset has
    no orientation; `row` is the row's index."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


@dataclass(frozen=True, eq=False)
class RelationTypeModel:
    """The relation type of every non-root part against its reference
    (`PartHierarchy.reference_of`).

    An atomic part's type is the uniform orientation bin, out of
    `atomic_bins`, of the offset from it to its reference; angle 0 is type
    1.  A non-root composite part's type is 1 + the index of the centroid
    nearest its relation vector (`_composite_vectors`), out of its
    `centroids` (k, 4).
    """

    atomic_bins: int
    centroids: dict[int, np.ndarray]

    @classmethod
    def build(
        cls,
        hierarchy: PartHierarchy,
        annotations,
        atomic_bins: int = 12,
        composite_bins: int = 24,
        seed: int = 0,
    ) -> "RelationTypeModel":
        """Fit the composite centroids from a list of `Annotation`s."""
        cls.check_arguments(atomic_bins, composite_bins, seed)
        points = annotation_points(annotations, hierarchy)
        centroids = {
            node.id: fit_relation_clusters(
                _composite_vectors(points, node.id, hierarchy), composite_bins, seed=seed
            )
            for node in hierarchy.composite_nodes
            if node.id != hierarchy.root.id
        }
        return cls(atomic_bins, centroids)

    @staticmethod
    def check_arguments(atomic_bins: int, composite_bins: int, seed: int) -> None:
        """ValueError naming the first argument of `build` out of its range:
        each bin count in [2, TYPE_BINS_MAX], the seed >= 0."""
        for name, value, least, most in (("atomic_bins", atomic_bins, 2, TYPE_BINS_MAX),
                                         ("composite_bins", composite_bins, 2, TYPE_BINS_MAX),
                                         ("seed", seed, 0, math.inf)):
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
            if value > most:
                raise ValueError(f"{name} must be <= {most}, got {value}")

    def labels(self, points, hierarchy: PartHierarchy) -> dict[int, np.ndarray]:
        """{part: (E,) relation types} of every non-root part, by part id,
        in (E, N, 2) finite `points`.  An atomic part on its reference
        raises `CoincidentPartsError`."""
        points = np.asarray(points, dtype=float)
        atoms = hierarchy.atomic_ids
        refs = [hierarchy.atom_index(hierarchy.reference_of(part)) for part in atoms]
        offset = points[:, refs] - points
        coincide = np.argwhere((offset == 0.0).all(axis=2))
        if len(coincide):
            row, atom = coincide[0]
            raise CoincidentPartsError(
                f"parts {hierarchy.name_of(atoms[atom])!r} and "
                f"{hierarchy.name_of(atoms[refs[atom]])!r} coincide, "
                "and a zero offset has no orientation",
                int(row),
            )
        angle = np.arctan2(offset[..., 1], offset[..., 0]) % (2.0 * math.pi)
        bins = 1 + (angle // (2.0 * math.pi / self.atomic_bins)).astype(np.intp) % self.atomic_bins
        out = {part: bins[:, i] for i, part in enumerate(atoms)}
        for part, centroids in self.centroids.items():
            vectors = _composite_vectors(points, part, hierarchy)
            out[part] = _nearest_centroid(vectors, centroids) + 1
        return dict(sorted(out.items()))

    def atomic_bins_map(self, hierarchy: PartHierarchy) -> dict[int, int]:
        return dict.fromkeys(hierarchy.atomic_ids, self.atomic_bins)

    def composite_bins_map(self) -> dict[int, int]:
        return {part: len(centroids) for part, centroids in self.centroids.items()}
