"""Which library functions the traced run wraps, and the per-layer metrics.

Each span is named `<module>.<function>` after the module that defines the
function, and is installed at every module attribute the library looks it
up through.  `hierarchy` helpers are too fine-grained to wrap; their time
counts as self time of their caller.
"""

from __future__ import annotations

import os

from tracing import SpanSpec, UnitTrace


def _infer_name(arguments) -> str:
    return f"inference.infer-{arguments['mode']}"


def _infer_hook(tracer, arguments, result) -> None:
    if arguments["mode"] == "full":
        tracer.count("refine.infers")
        tracer.count("refine.gain_sum", result.score - result.partial_score)


def _propose_hook(tracer, arguments, result) -> None:
    tracer.count("propose.draws", arguments["params"].samples)
    tracer.count("propose.returned", len(result))


def _swap_hook(tracer, arguments, result) -> None:
    hierarchy, lower, hyps = arguments["hierarchy"], arguments["lower"], arguments["hyps"]
    tested = sum(
        len(lower.get(child) or [])
        for hyp in hyps
        for child in hierarchy.node(hyp.node_id).children
    )
    tracer.count("swap.tested", tested)
    tracer.count("swap.added", len(result) - len(hyps))


def _prune_hook(tracer, arguments, result) -> None:
    tracer.count("prune.in", len(arguments["hyps"]))
    tracer.count("prune.kept", len(result))


def _load_hook(tracer, arguments, result) -> None:
    tracer.count("load.bytes", os.path.getsize(arguments["path"]))


def _negatives_hook(tracer, arguments, result) -> None:
    expected = len(arguments["annotations"]) * arguments["per_positive"]
    tracer.count("negatives.skipped", expected - len(result))


def _train_hook(tracer, arguments, result) -> None:
    tracer.count("train.steps", arguments["training"].features.shape[0] * arguments["epochs"])


SPANS = (
    SpanSpec(_infer_name, ("hierpose.infer", "hierpose.inference.infer"), _infer_hook),
    SpanSpec("inference.seed_atomic_hypotheses", ("hierpose.inference.seed_atomic_hypotheses",)),
    SpanSpec("inference.propose_hypotheses", ("hierpose.inference.propose_hypotheses",),
             _propose_hook),
    SpanSpec("inference.swap_subtrees", ("hierpose.inference.swap_subtrees",), _swap_hook),
    SpanSpec("inference.score_and_prune", ("hierpose.inference.score_and_prune",), _prune_hook),
    SpanSpec("inference.refine_hypothesis", ("hierpose.inference.refine_hypothesis",)),
    SpanSpec("scoring.subtree_score", ("hierpose.inference.subtree_score",)),
    SpanSpec("scoring.refinement_score", ("hierpose.inference.refinement_score",)),
    SpanSpec("scoring.feature_vector", ("hierpose.scoring.feature_vector",)),
    SpanSpec("scoring.best_fit_pose",
             ("hierpose.scoring.best_fit_pose", "hierpose.inference.best_fit_pose")),
    SpanSpec("geometry.pose_similarity", ("hierpose.scoring.pose_similarity",)),
    SpanSpec("geometry.fit_least_squares", ("hierpose.geometry.fit_least_squares",)),
    SpanSpec("geometry.child_geometry", (
        "hierpose.scoring.child_geometry",
        "hierpose.learning.child_geometry",
        "hierpose.geometry.child_geometry",
    )),
    SpanSpec("geometry.fit_two_points", ("hierpose.inference.fit_two_points",)),
    SpanSpec("appearance.log_pose_prob_atomic", ("hierpose.scoring.log_pose_prob_atomic",)),
    SpanSpec("appearance.log_pose_prob_composite",
             ("hierpose.scoring.log_pose_prob_composite",)),
    SpanSpec("appearance.log_part_prob", ("hierpose.scoring.log_part_prob",)),
    SpanSpec("appearance.top_peaks", ("hierpose.inference.top_peaks",)),
    SpanSpec("appearance.load_score_maps", ("hierpose.cli.load_score_maps",), _load_hook),
    SpanSpec("learning.build_library", ("hierpose.cli.build_library",)),
    SpanSpec("learning.generate_negatives", ("hierpose.cli.generate_negatives",),
             _negatives_hook),
    SpanSpec("learning.train_weights", ("hierpose.cli.train_weights",), _train_hook),
    SpanSpec("cli.main", ("hierpose.cli.main",)),
)

# Every span name the metrics report, including both names of the split
# `infer` span.
SPAN_NAMES = ("inference.infer-full", "inference.infer-no-hier") + tuple(
    spec.name for spec in SPANS if isinstance(spec.name, str)
)

# Per-layer metrics that depend only on the inputs: two runs of one commit
# with the same seed and run length must report them identically.
DETERMINISTIC = tuple(f"{name}.calls" for name in SPAN_NAMES) + (
    "inference.propose.yield",
    "inference.swap.accept_ratio",
    "inference.prune.keep_ratio",
    "scoring.pose_evals_per_hyp",
    "inference.refine.gain_mean",
    "learning.generate_negatives.skipped",
)


def _ratio(numerator: float, denominator: float) -> float:
    """numerator / denominator, or 0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0


def layer_metrics(totals: UnitTrace, overhead_frac: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as {name: (value, unit)} from merged unit traces."""
    metrics: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        stats = totals.spans.get(name)
        metrics[f"{name}.self_s"] = (stats.self_s if stats else 0.0, "s")
        metrics[f"{name}.calls"] = (stats.calls if stats else 0, "count")
    counts = totals.counts

    def self_s(name: str) -> float:
        return metrics[f"{name}.self_s"][0]

    hypotheses = metrics["scoring.subtree_score.calls"][0]
    pose_evals = totals.edges.get(("scoring.subtree_score", "geometry.pose_similarity"), 0)
    metrics.update({
        "inference.propose.yield": (
            _ratio(counts.get("propose.returned", 0), counts.get("propose.draws", 0)), "frac"),
        "inference.swap.accept_ratio": (
            _ratio(counts.get("swap.added", 0), counts.get("swap.tested", 0)), "frac"),
        "inference.prune.keep_ratio": (
            _ratio(counts.get("prune.kept", 0), counts.get("prune.in", 0)), "frac"),
        "scoring.pose_evals_per_hyp": (_ratio(pose_evals, hypotheses), "count"),
        "inference.refine.gain_mean": (
            _ratio(counts.get("refine.gain_sum", 0.0), counts.get("refine.infers", 0)), "energy"),
        "learning.train_weights.steps_per_s": (
            _ratio(counts.get("train.steps", 0), self_s("learning.train_weights")), "1/s"),
        "appearance.load_score_maps.mb_per_s": (
            _ratio(counts.get("load.bytes", 0) / 1e6, self_s("appearance.load_score_maps")),
            "MB/s"),
        "learning.generate_negatives.skipped": (counts.get("negatives.skipped", 0), "count"),
        "trace.overhead_frac": (overhead_frac, "frac"),
    })
    return metrics


def metric_bases(totals: UnitTrace) -> dict[str, float]:
    """The numerators and denominators behind the ratio metrics."""
    bases = dict(sorted(totals.counts.items()))
    bases["pose_evals_under_subtree_score"] = totals.edges.get(
        ("scoring.subtree_score", "geometry.pose_similarity"), 0
    )
    return bases


def scoring_share(totals: UnitTrace) -> float:
    """Time inside `subtree_score`, children included, over time in `infer`."""
    infer_s = sum(
        totals.spans[name].total_s
        for name in ("inference.infer-full", "inference.infer-no-hier")
        if name in totals.spans
    )
    scoring = totals.spans.get("scoring.subtree_score")
    return scoring.total_s / infer_s if scoring and infer_s else 0.0
