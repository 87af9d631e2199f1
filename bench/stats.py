"""Summary statistics and result fingerprints for benchmark runs."""

from __future__ import annotations

import hashlib
import math

import numpy as np

# Percentiles considered for reporting, highest first.
PERCENTILES = (99.9, 99.0, 90.0, 50.0)


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile, the same rule as numpy's default."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(n: int, min_tail: int = 10) -> float:
    """Highest percentile in PERCENTILES with at least `min_tail` samples
    beyond it; the median when no percentile has that many."""
    for p in PERCENTILES:
        if n * (1000 - round(p * 10)) >= min_tail * 1000:
            return p
    return 50.0


def fingerprint(*parts) -> str:
    """SHA-256 over arrays (dtype, shape and bytes), numbers and strings.

    Floats are hashed through repr, so two results that differ in the last
    digit get different fingerprints.
    """
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            array = np.ascontiguousarray(part)
            digest.update(f"{array.dtype.str}{array.shape}".encode())
            digest.update(array.tobytes())
        elif isinstance(part, bytes):
            digest.update(part)
        else:
            digest.update(repr(part).encode())
        digest.update(b"|")
    return digest.hexdigest()
