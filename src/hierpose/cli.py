"""Command-line surface: infer / train / eval / synth / score.

Every command reads a single JSON run-config that is the source of all
parameters; flags only select the config path and override the mode or seed.
Re-running a command with the same config and inputs produces byte-identical
outputs.  Exit codes: 0 success, 1 error, 2 no configuration found.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import _json, inference, learning, scoring, synth
from ._json import NUMBER, Either, Map, Nullable, Optional
from .appearance import RelationTypeModel, load_score_maps
from .geometry import check_max_angle
from .hierarchy import load_hierarchy, object_size
from .inference import InferenceParams, NoConfigurationError, infer
from .learning import (
    augment_positives,
    build_library,
    generate_negatives,
    load_annotations,
    load_library,
    save_annotations,
    save_library,
    train_weights,
)
from .metrics import REPORT_FORMATS, Segment, emit_report, pcp_radius, pcp_segments, pdj_curve
from .scoring import load_weights, save_weights, WeightVector

__all__ = ["main", "console_main"]


class ConfigError(ValueError):
    """A run config is malformed or references missing inputs."""


def _load_config(path, spec: dict) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return _json.load(path.read_text(), spec, "config", ConfigError)


def _input_path(doc: dict, key: str, base: Path) -> Path:
    path = Path(doc[key])
    path = path if path.is_absolute() else (base / path).resolve()
    if not path.exists():
        raise ConfigError(f"missing {key} file: {path}")
    return path


def _output_path(base: Path, value: str) -> Path:
    path = base / value
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


# Each command's config: every key with its JSON type (see `_json`)
_TYPE_MODEL = {"atomic_bins": int, "composite_bins": int, "seed": int}
_INFER = {
    "hierarchy": str, "libraries": str, "weights": str, "score_maps": str,
    "mode": Optional(str), "image": Optional(Nullable(str)),
    "params": {
        "z": int, "samples_per_level": Nullable(int), "seed": int, "max_angle": float,
        "compatibility_tolerance": float, "nms_radius": float, "dedup_radius": float,
        "search_radius_fraction": float,
    },
    "output": {"pose": str, "diagnostics": str},
}
_TRAIN = {
    "hierarchy": str, "annotations": str, "score_maps": str, "max_angle": Optional(float),
    "type_model": _TYPE_MODEL,
    "augment": {"jitter_fraction": float, "copies": int, "seed": int},
    "negatives": {"per_positive": int, "noise_sigma": Nullable(float), "seed": int},
    "train": {"c": float, "epochs": int, "seed": int, "holdout_fraction": float},
    "output": {"weights": str, "log": str, "libraries": Optional(str)},
}
_EVAL = {
    "metric": str, "hierarchy": str, "predictions": str, "ground_truth": str,
    "format": str, "output": str,
    "segments": Optional([{"name": str, "a": str, "b": str}]),
    "sigmas": Optional(Either(Map(float), [float])), "factor": Optional(float),
    "thresholds": Optional([float]), "normalizer": Optional(Either(str, Map(float), float)),
}
_SYNTH = {
    "hierarchy": str, "annotations": str, "output_dir": str, "type_model": _TYPE_MODEL,
    "scenes": {
        "seeds": Either({"start": int, "count": int}, [int]), "grid": (int, int),
        # optional `make_scene` arguments; scales are kept as written for the provenance
        "mix": Optional(bool), "snap": Optional(bool), "distractors": Optional(int),
        **dict.fromkeys(["sigma", "amplitude", "noise", "margin", "max_rotation"], Optional(float)),
        "scales": Optional([NUMBER]),
    },
}
_SCORE = {
    "hierarchy": str, "libraries": str, "weights": str, "score_maps": str, "pose": str,
    "max_angle": Optional(float),
}


def cmd_infer(args) -> int:
    base = Path(args.config).resolve().parent
    doc = _load_config(args.config, _INFER)
    if args.seed is not None:
        doc["params"]["seed"] = args.seed
    params = InferenceParams(**doc["params"])
    mode = args.mode or doc.get("mode", "full")
    if mode not in inference.MODES:
        raise ConfigError(f"mode must be one of {inference.MODES}")
    hierarchy = load_hierarchy(_input_path(doc, "hierarchy", base))
    library = load_library(_input_path(doc, "libraries", base), hierarchy)
    weights = load_weights(_input_path(doc, "weights", base), hierarchy)
    maps_path = _input_path(doc, "score_maps", base)
    stack = load_score_maps(maps_path)
    out = doc["output"]

    result = infer(stack, hierarchy, library, weights, params, mode=mode)

    image = doc.get("image") or maps_path.stem
    save_annotations(
        [learning.Annotation(image, result.configuration)],
        hierarchy,
        _output_path(base, out["pose"]),
    )
    lines = [json.dumps(level, sort_keys=True) for level in result.diagnostics["levels"]]
    summary = {k: v for k, v in result.diagnostics.items() if k != "levels"}
    lines.append(json.dumps(summary, sort_keys=True))
    _output_path(base, out["diagnostics"]).write_text("\n".join(lines) + "\n")
    return 0


def cmd_train(args) -> int:
    base = Path(args.config).resolve().parent
    doc = _load_config(args.config, _TRAIN)
    bound = check_max_angle(doc.get("max_angle", inference.DEFAULT_MAX_ANGLE))
    if args.seed is not None:
        doc["augment"]["seed"] = args.seed
    hierarchy = load_hierarchy(_input_path(doc, "hierarchy", base))
    annotations = load_annotations(_input_path(doc, "annotations", base), hierarchy)
    if not annotations:
        raise ConfigError("annotation file is empty")
    maps_path = _input_path(doc, "score_maps", base)
    aug, neg, train, out = doc["augment"], doc["negatives"], doc["train"], doc["output"]

    holdout = train["holdout_fraction"]
    if not 0.0 <= holdout < 1.0:
        raise ConfigError("holdout_fraction must lie in [0, 1)")
    cut = len(annotations) - int(round(holdout * len(annotations)))
    cut = max(cut, 1)
    exemplar_set = annotations[:cut]
    weight_set = annotations[cut:] if cut < len(annotations) else annotations

    type_model = RelationTypeModel.build(hierarchy, exemplar_set, **doc["type_model"])
    library = build_library(exemplar_set, hierarchy, type_model)

    positives = list(weight_set) + augment_positives(
        weight_set,
        np.random.default_rng(aug["seed"]),
        jitter_fraction=aug["jitter_fraction"],
        copies=aug["copies"],
    )
    negatives = generate_negatives(
        weight_set,
        None,
        np.random.default_rng(neg["seed"]),
        noise_sigma=neg["noise_sigma"],
        per_positive=neg["per_positive"],
    )
    # a negative is named "<image>#neg<k>" after its positive and reads the positive's maps
    for negative in negatives:
        negative.image = negative.image.rpartition("#neg")[0]

    def map_file(image: str) -> Path:
        if not maps_path.is_dir():
            return maps_path
        path = maps_path / f"{image}.hpsm"
        if not path.exists():
            raise ConfigError(f"missing score-map file: {path}")
        return path

    def checked_stack(path: Path):
        stack = load_score_maps(path)
        scoring.check_model(hierarchy, library, None, stack)
        return stack

    # every map file is named before the first loads; each loads once, in
    # order of first appearance, and is released before the next loads
    training = scoring.build_training_set(
        positives, negatives, map_file, hierarchy, library, bound, load=checked_stack
    )

    weights_array, objective = train_weights(
        training, c=train["c"], epochs=train["epochs"], seed=train["seed"]
    )
    weights = WeightVector.from_array(weights_array, hierarchy)
    save_weights(weights, hierarchy, _output_path(base, out["weights"]))
    margins = training.labels * (training.features @ weights_array)
    log = {
        "samples": {"positive": len(positives), "negative": len(negatives)},
        "holdout_fraction": holdout,
        "exemplar_annotations": len(exemplar_set),
        "objective": objective,
        "training_accuracy": float(np.mean(margins > 0)),
        "epochs": train["epochs"],
        "c": train["c"],
        "seed": train["seed"],
    }
    _output_path(base, out["log"]).write_text(json.dumps(log, indent=2, sort_keys=True) + "\n")
    if "libraries" in out:
        save_library(library, _output_path(base, out["libraries"]))
    return 0


def _by_image(annotations, key: str) -> dict:
    """{image: annotation} of the `key` file; a repeated image raises."""
    by_image = {}
    for ann in annotations:
        if ann.image in by_image:
            raise ConfigError(f"{key} file repeats image {ann.image!r}")
        by_image[ann.image] = ann
    return by_image


def _match_annotations(preds, gts):
    pred_by_image = _by_image(preds, "predictions")
    gt_by_image = _by_image(gts, "ground_truth")
    if set(pred_by_image) != set(gt_by_image):
        raise ConfigError("prediction and ground-truth image sets differ")
    images = sorted(pred_by_image)
    return (
        [pred_by_image[i].points for i in images],
        [gt_by_image[i].points for i in images],
        images,
    )


# each metric: the key it needs and its kind, and every key it reads
_METRIC_KEYS = {
    "pcp_segments": ("segments", "list", {"segments"}),
    "pcp_radius": ("sigmas", "map", {"sigmas", "factor"}),
    "pdj": ("thresholds", "list", {"thresholds", "normalizer"}),
}
_ANY_METRIC_KEY = set().union(*(reads for _, _, reads in _METRIC_KEYS.values()))


def cmd_eval(args) -> int:
    base = Path(args.config).resolve().parent
    doc = _load_config(args.config, _EVAL)
    metric = doc["metric"]
    if metric not in _METRIC_KEYS:
        raise ConfigError(f"unknown metric {metric!r}")
    key, kind, reads = _METRIC_KEYS[metric]
    if key not in doc:
        raise ConfigError(f"{metric} needs a '{key}' {kind}")
    if unread := sorted((_ANY_METRIC_KEY - reads).intersection(doc)):
        raise ConfigError(f"{metric} does not read '{unread[0]}'")
    if doc["format"] not in REPORT_FORMATS:
        raise ConfigError(f"unknown report format {doc['format']!r}")
    normalizer = doc.get("normalizer", "gt_box_mean_side")
    if isinstance(normalizer, str) and normalizer != "gt_box_mean_side":
        raise ConfigError(f"unknown normalizer {normalizer!r}")
    hierarchy = load_hierarchy(_input_path(doc, "hierarchy", base))
    preds = load_annotations(_input_path(doc, "predictions", base), hierarchy)
    gts = load_annotations(_input_path(doc, "ground_truth", base), hierarchy)
    pred_pts, gt_pts, images = _match_annotations(preds, gts)

    if metric == "pcp_segments":
        row = lambda name: hierarchy.atom_index(hierarchy.id_of(name))
        segments = [Segment(s["name"], row(s["a"]), row(s["b"])) for s in doc["segments"]]
        report = pcp_segments(pred_pts, gt_pts, segments)
    elif metric == "pcp_radius":
        report = pcp_radius(pred_pts, gt_pts, doc["sigmas"], factor=doc.get("factor", 1.5),
                            part_names=hierarchy.atomic_names)
    else:
        if isinstance(normalizer, dict):
            if missing := sorted(set(images) - set(normalizer)):
                raise ConfigError(f"config 'normalizer' has no entry for image {missing[0]!r}")
            values = [normalizer[i] for i in images]
        elif isinstance(normalizer, float):
            values = [normalizer] * len(gt_pts)
        else:  # "gt_box_mean_side"
            values = [object_size(g) for g in gt_pts]
        report = pdj_curve(pred_pts, gt_pts, values, doc["thresholds"])

    text = emit_report(report, doc["format"])
    _output_path(base, doc["output"]).write_text(text)
    return 0


def cmd_synth(args) -> int:
    base = Path(args.config).resolve().parent
    doc = _load_config(args.config, _SYNTH)
    # absent optional fields take make_scene's defaults
    options = dict(doc["scenes"])
    seeds, grid = options.pop("seeds"), tuple(options.pop("grid"))
    if isinstance(seeds, dict):
        seeds = list(range(seeds["start"], seeds["start"] + seeds["count"]))
    field = "scenes 'seeds'" if args.seed is None else "--seed"
    seeds = seeds if args.seed is None else [args.seed]
    if not seeds:
        raise ConfigError(f"{field} names no seed")
    if min(seeds) < 0:
        raise ConfigError(f"{field} must be >= 0, got {min(seeds)}")
    hierarchy = load_hierarchy(_input_path(doc, "hierarchy", base))
    annotations = load_annotations(_input_path(doc, "annotations", base), hierarchy)

    type_model = RelationTypeModel.build(hierarchy, annotations, **doc["type_model"])
    library = build_library(annotations, hierarchy, type_model)
    out_dir = _output_path(base, doc["output_dir"])
    for seed in seeds:
        scene = synth.make_scene(library, hierarchy, seed=seed, grid=grid, **options)
        synth.save_scene(scene, out_dir / f"scene_{seed}", hierarchy)
    return 0


def cmd_score(args) -> int:
    base = Path(args.config).resolve().parent
    doc = _load_config(args.config, _SCORE)
    bound = check_max_angle(doc.get("max_angle", inference.DEFAULT_MAX_ANGLE))
    hierarchy = load_hierarchy(_input_path(doc, "hierarchy", base))
    library = load_library(_input_path(doc, "libraries", base), hierarchy)
    weights = load_weights(_input_path(doc, "weights", base), hierarchy)
    stack = load_score_maps(_input_path(doc, "score_maps", base))
    scoring.check_model(hierarchy, library, weights, stack)
    poses = load_annotations(_input_path(doc, "pose", base), hierarchy)
    points = np.reshape([ann.points for ann in poses], (len(poses), hierarchy.atomic_count, 2))
    features = scoring.feature_matrix(points, [stack], [0] * len(poses), hierarchy, library, bound)
    for ann, row in zip(poses, features):
        print(f"{ann.image}\t{float(weights.as_array() @ row)!r}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Exit code 1 on usage errors; 2 is reserved for \"no configuration\"."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(f"error: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hierpose",
        description="Hierarchical exemplar-based pose estimation on score maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_infer = sub.add_parser("infer", help="run inference on a score-map stack")
    p_infer.add_argument("config", help="run-config JSON path")
    p_infer.add_argument("--mode", choices=inference.MODES, help="override config mode")
    p_infer.add_argument("--seed", type=int, help="override the inference seed")
    p_infer.set_defaults(func=cmd_infer)

    p_train = sub.add_parser("train", help="build libraries and train weights")
    p_train.add_argument("config", help="run-config JSON path")
    p_train.add_argument("--seed", type=int, help="override the augmentation seed")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="score predictions against ground truth")
    p_eval.add_argument("config", help="run-config JSON path")
    p_eval.set_defaults(func=cmd_eval)

    p_synth = sub.add_parser("synth", help="generate synthetic scene bundles")
    p_synth.add_argument("config", help="run-config JSON path")
    p_synth.add_argument("--seed", type=int, help="generate a single scene for this seed")
    p_synth.set_defaults(func=cmd_synth)

    p_score = sub.add_parser("score", help="print the total score of pose files")
    p_score.add_argument("config", help="run-config JSON path")
    p_score.set_defaults(func=cmd_score)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NoConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, OSError, ValueError, KeyError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


def console_main() -> None:
    raise SystemExit(main())
