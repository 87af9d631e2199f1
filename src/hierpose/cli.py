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

from . import inference, learning, scoring, synth
from .appearance import RelationTypeModel, load_score_maps
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
from .metrics import Segment, emit_report, pcp_radius, pcp_segments, pdj_curve
from .scoring import load_weights, save_weights, total_score, WeightVector

__all__ = ["main", "console_main"]


class ConfigError(ValueError):
    """A run config is malformed or references missing inputs."""


def _load_config(path, required: set[str], optional: set[str]) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    doc = json.loads(path.read_text())
    if not isinstance(doc, dict):
        raise ConfigError("run config must be a JSON object")
    unknown = set(doc) - required - optional
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = required - set(doc)
    if missing:
        raise ConfigError(f"config missing keys: {sorted(missing)}")
    return doc


def _section(doc: dict, key: str, required: set[str], optional: set[str] = frozenset()) -> dict:
    sec = doc.get(key)
    if not isinstance(sec, dict):
        raise ConfigError(f"config section {key!r} must be an object")
    unknown = set(sec) - required - optional
    if unknown:
        raise ConfigError(f"unknown keys in {key!r}: {sorted(unknown)}")
    missing = required - set(sec)
    if missing:
        raise ConfigError(f"section {key!r} missing keys: {sorted(missing)}")
    return sec


def _input_path(doc: dict, key: str, base: Path) -> Path:
    path = (base / str(doc[key])).resolve() if not Path(str(doc[key])).is_absolute() else Path(str(doc[key]))
    if not path.exists():
        raise ConfigError(f"missing {key} file: {path}")
    return path


def _output_path(base: Path, value: str) -> Path:
    path = Path(str(value))
    if not path.is_absolute():
        path = base / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


_PARAM_KEYS = {
    "z",
    "samples_per_level",
    "seed",
    "max_angle",
    "compatibility_tolerance",
    "nms_radius",
    "dedup_radius",
    "search_radius_fraction",
}


def _integer_param(sec: dict | list, key, section: str = "params") -> int:
    """A config value that must be a JSON integer.  Booleans, strings and
    numbers with a fraction or exponent are rejected, not converted."""
    value = sec[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{section} {key!r} must be a JSON integer, got {json.dumps(value)}")
    return value


def _real_param(sec: dict | list, key, section: str = "params", default=None) -> float:
    """A config value that must be a JSON number.  Booleans, strings,
    null and lists are rejected, not converted.  An optional key that
    `sec` lacks reads `default`."""
    if default is not None and key not in sec:
        return default
    value = sec[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{section} {key!r} must be a JSON number, got {json.dumps(value)}")
    return float(value)


def _list_param(sec: dict, key: str, section: str, read) -> list:
    """A config value that must be a JSON list, each entry read by `read`
    (`_integer_param` or `_real_param`)."""
    values = sec[key]
    if not isinstance(values, list):
        raise ConfigError(f"{section} {key!r} must be a JSON list, got {json.dumps(values)}")
    return [read(values, i, f"{section} {key!r}") for i in range(len(values))]


def _bool_param(sec: dict, key: str, section: str) -> bool:
    """A config value that must be a JSON boolean."""
    value = sec[key]
    if not isinstance(value, bool):
        raise ConfigError(f"{section} {key!r} must be a JSON boolean, got {json.dumps(value)}")
    return value


def _type_model_params(doc: dict) -> dict:
    """The `type_model` section, as keyword arguments of `RelationTypeModel.build`."""
    sec = _section(doc, "type_model", {"atomic_bins", "composite_bins", "seed"})
    return {key: _integer_param(sec, key, "type_model") for key in sorted(sec)}


def _inference_params(doc: dict, seed_override: int | None) -> InferenceParams:
    sec = _section(doc, "params", _PARAM_KEYS)
    if seed_override is not None:
        sec = dict(sec, seed=seed_override)
    return InferenceParams(
        z=_integer_param(sec, "z"),
        samples_per_level=(
            None if sec["samples_per_level"] is None else _integer_param(sec, "samples_per_level")
        ),
        seed=_integer_param(sec, "seed"),
        max_angle=_real_param(sec, "max_angle"),
        compatibility_tolerance=_real_param(sec, "compatibility_tolerance"),
        nms_radius=_real_param(sec, "nms_radius"),
        dedup_radius=_real_param(sec, "dedup_radius"),
        search_radius_fraction=_real_param(sec, "search_radius_fraction"),
    )


def cmd_infer(args) -> int:
    base = Path(args.config).resolve().parent
    doc = _load_config(
        args.config,
        required={"hierarchy", "libraries", "weights", "score_maps", "params", "output"},
        optional={"mode", "image"},
    )
    hierarchy = load_hierarchy(_input_path(doc, "hierarchy", base))
    library = load_library(_input_path(doc, "libraries", base), hierarchy)
    weights = load_weights(_input_path(doc, "weights", base), hierarchy)
    maps_path = _input_path(doc, "score_maps", base)
    stack = load_score_maps(maps_path)
    params = _inference_params(doc, args.seed)
    mode = args.mode or doc.get("mode", "full")
    out = _section(doc, "output", {"pose", "diagnostics"})

    result = infer(stack, hierarchy, library, weights, params, mode=mode)

    image = str(doc.get("image") or maps_path.stem)
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


def _stack_for(image: str, maps_path: Path, cache: dict):
    if maps_path.is_dir():
        path = maps_path / f"{image}.hpsm"
        if not path.exists():
            raise ConfigError(f"missing score-map file: {path}")
    else:
        path = maps_path
    if path not in cache:
        cache[path] = load_score_maps(path)
    return cache[path]


def cmd_train(args) -> int:
    base = Path(args.config).resolve().parent
    doc = _load_config(
        args.config,
        required={"hierarchy", "annotations", "score_maps", "type_model", "augment",
                  "negatives", "train", "output"},
        optional={"max_angle"},
    )
    hierarchy = load_hierarchy(_input_path(doc, "hierarchy", base))
    annotations = load_annotations(_input_path(doc, "annotations", base), hierarchy)
    if not annotations:
        raise ConfigError("annotation file is empty")
    maps_path = _input_path(doc, "score_maps", base)
    bound = _real_param(doc, "max_angle", "config", inference.DEFAULT_MAX_ANGLE)

    type_params = _type_model_params(doc)
    aug_sec = _section(doc, "augment", {"jitter_fraction", "copies", "seed"})
    neg_sec = _section(doc, "negatives", {"per_positive", "noise_sigma", "seed"})
    train_sec = _section(doc, "train", {"c", "epochs", "seed", "holdout_fraction"})
    out = _section(doc, "output", {"weights", "log"}, optional={"libraries"})
    if args.seed is not None:
        aug_sec = dict(aug_sec, seed=args.seed)
    copies = _integer_param(aug_sec, "copies", "augment")
    aug_seed = _integer_param(aug_sec, "seed", "augment")
    per_positive = _integer_param(neg_sec, "per_positive", "negatives")
    neg_seed = _integer_param(neg_sec, "seed", "negatives")
    epochs = _integer_param(train_sec, "epochs", "train")
    train_seed = _integer_param(train_sec, "seed", "train")
    jitter = _real_param(aug_sec, "jitter_fraction", "augment")
    noise_sigma = (
        None if neg_sec["noise_sigma"] is None
        else _real_param(neg_sec, "noise_sigma", "negatives")
    )
    c = _real_param(train_sec, "c", "train")

    holdout = _real_param(train_sec, "holdout_fraction", "train")
    if not 0.0 <= holdout < 1.0:
        raise ConfigError("holdout_fraction must lie in [0, 1)")
    cut = len(annotations) - int(round(holdout * len(annotations)))
    cut = max(cut, 1)
    exemplar_set = annotations[:cut]
    weight_set = annotations[cut:] if cut < len(annotations) else annotations

    type_model = RelationTypeModel.build(hierarchy, exemplar_set, **type_params)
    library = build_library(exemplar_set, hierarchy, type_model)

    positives = list(weight_set) + augment_positives(
        weight_set,
        np.random.default_rng(aug_seed),
        jitter_fraction=jitter,
        copies=copies,
    )
    negatives = generate_negatives(
        weight_set,
        None,
        np.random.default_rng(neg_seed),
        noise_sigma=noise_sigma,
        per_positive=per_positive,
    )

    cache: dict = {}
    training = scoring.build_training_set(
        positives,
        negatives,
        lambda image: _stack_for(image.split("#")[0], maps_path, cache),
        hierarchy,
        library,
        bound,
    )

    weights_array, objective = train_weights(training, c=c, epochs=epochs, seed=train_seed)
    weights = WeightVector.from_array(weights_array, hierarchy)
    save_weights(weights, hierarchy, _output_path(base, out["weights"]))
    margins = training.labels * (training.features @ weights_array)
    log = {
        "samples": {"positive": len(positives), "negative": len(negatives)},
        "holdout_fraction": holdout,
        "exemplar_annotations": len(exemplar_set),
        "objective": objective,
        "training_accuracy": float(np.mean(margins > 0)),
        "epochs": epochs,
        "c": c,
        "seed": train_seed,
    }
    _output_path(base, out["log"]).write_text(json.dumps(log, indent=2, sort_keys=True) + "\n")
    if "libraries" in out:
        save_library(library, _output_path(base, out["libraries"]))
    return 0


def _match_annotations(preds, gts):
    pred_by_image = {a.image: a for a in preds}
    gt_by_image = {a.image: a for a in gts}
    if set(pred_by_image) != set(gt_by_image):
        raise ConfigError("prediction and ground-truth image sets differ")
    images = sorted(pred_by_image)
    return (
        [pred_by_image[i].points for i in images],
        [gt_by_image[i].points for i in images],
        images,
    )


def cmd_eval(args) -> int:
    base = Path(args.config).resolve().parent
    doc = _load_config(
        args.config,
        required={"metric", "hierarchy", "predictions", "ground_truth", "format", "output"},
        optional={"segments", "sigmas", "factor", "thresholds", "normalizer"},
    )
    hierarchy = load_hierarchy(_input_path(doc, "hierarchy", base))
    preds = load_annotations(_input_path(doc, "predictions", base), hierarchy)
    gts = load_annotations(_input_path(doc, "ground_truth", base), hierarchy)
    pred_pts, gt_pts, images = _match_annotations(preds, gts)

    metric = str(doc["metric"])
    if metric == "pcp_segments":
        if "segments" not in doc:
            raise ConfigError("pcp_segments needs a 'segments' list")
        segments = [
            Segment(
                str(s["name"]),
                hierarchy.atom_index(hierarchy.id_of(s["a"])),
                hierarchy.atom_index(hierarchy.id_of(s["b"])),
            )
            for s in doc["segments"]
        ]
        report = pcp_segments(pred_pts, gt_pts, segments)
    elif metric == "pcp_radius":
        if "sigmas" not in doc:
            raise ConfigError("pcp_radius needs a 'sigmas' map")
        sigmas = doc["sigmas"]
        if isinstance(sigmas, dict):
            sigmas = {name: _real_param(sigmas, name, "sigmas") for name in sigmas}
        else:
            sigmas = _list_param(doc, "sigmas", "config", _real_param)
        report = pcp_radius(
            pred_pts,
            gt_pts,
            sigmas,
            factor=_real_param(doc, "factor", "config", 1.5),
            part_names=hierarchy.atomic_names,
        )
    elif metric == "pdj":
        if "thresholds" not in doc:
            raise ConfigError("pdj needs a 'thresholds' list")
        normalizer = doc.get("normalizer", "gt_box_mean_side")
        if normalizer == "gt_box_mean_side":
            values = [object_size(g) for g in gt_pts]
        elif isinstance(normalizer, dict):
            values = [_real_param(normalizer, i, "normalizer") for i in images]
        else:
            values = [_real_param(doc, "normalizer", "config")] * len(gt_pts)
        thresholds = _list_param(doc, "thresholds", "config", _real_param)
        report = pdj_curve(pred_pts, gt_pts, values, thresholds)
    else:
        raise ConfigError(f"unknown metric {metric!r}")

    fmt = str(doc["format"])
    _output_path(base, doc["output"]).write_text(emit_report(report, fmt))
    return 0


# optional `scenes` fields of `synth`, each with the reader of its type
_SCENE_FIELDS = {
    "mix": _bool_param,
    "snap": _bool_param,
    "sigma": _real_param,
    "amplitude": _real_param,
    "noise": _real_param,
    "margin": _real_param,
    "max_rotation": _real_param,
    "distractors": _integer_param,
}


def cmd_synth(args) -> int:
    base = Path(args.config).resolve().parent
    doc = _load_config(
        args.config,
        required={"hierarchy", "annotations", "type_model", "scenes", "output_dir"},
        optional=set(),
    )
    hierarchy = load_hierarchy(_input_path(doc, "hierarchy", base))
    annotations = load_annotations(_input_path(doc, "annotations", base), hierarchy)
    type_params = _type_model_params(doc)
    scene_sec = _section(
        doc, "scenes", {"seeds", "grid"}, optional=set(_SCENE_FIELDS) | {"scales"}
    )

    seeds = scene_sec["seeds"]
    if isinstance(seeds, dict):
        start = _integer_param(seeds, "start", "scenes.seeds")
        seeds = list(range(start, start + _integer_param(seeds, "count", "scenes.seeds")))
    else:
        seeds = _list_param(scene_sec, "seeds", "scenes", _integer_param)
    if args.seed is not None:
        seeds = [args.seed]
    # absent optional fields take make_scene's defaults
    options = {
        key: read(scene_sec, key, "scenes")
        for key, read in _SCENE_FIELDS.items() if key in scene_sec
    }
    if "scales" in scene_sec:
        # checked, but passed as written: the provenance records them
        _list_param(scene_sec, "scales", "scenes", _real_param)
        options["scales"] = tuple(scene_sec["scales"])

    type_model = RelationTypeModel.build(hierarchy, annotations, **type_params)
    library = build_library(annotations, hierarchy, type_model)
    out_dir = _output_path(base, doc["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    for seed in seeds:
        scene = synth.make_scene(
            library, hierarchy, seed=seed, grid=tuple(scene_sec["grid"]), **options
        )
        synth.save_scene(scene, out_dir / f"scene_{seed}", hierarchy)
    return 0


def cmd_score(args) -> int:
    base = Path(args.config).resolve().parent
    doc = _load_config(
        args.config,
        required={"hierarchy", "libraries", "weights", "score_maps", "pose"},
        optional={"max_angle"},
    )
    hierarchy = load_hierarchy(_input_path(doc, "hierarchy", base))
    library = load_library(_input_path(doc, "libraries", base), hierarchy)
    weights = load_weights(_input_path(doc, "weights", base), hierarchy)
    stack = load_score_maps(_input_path(doc, "score_maps", base))
    poses = load_annotations(_input_path(doc, "pose", base), hierarchy)
    bound = _real_param(doc, "max_angle", "config", inference.DEFAULT_MAX_ANGLE)
    for ann in poses:
        value = total_score(ann.points, stack, hierarchy, library, weights, bound)
        print(f"{ann.image}\t{value!r}")
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
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    raise SystemExit(main())
