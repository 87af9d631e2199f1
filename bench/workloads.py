"""The three benchmark workloads.

Constructing a workload is its set-up: it builds the model and synthesizes
every input from the benchmark seed.  `unit(i)` runs one unit of work, times
only the calls into the library, and checks the outputs.  Units call
`hierpose.infer` and `hierpose.cli.main` through the module attribute at
call time, so the tracer's wrappers apply when they are installed.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import hierpose
import hierpose.cli
from hierpose import (
    Annotation,
    RelationTypeModel,
    ScoreMapStack,
    WeightVector,
    build_library,
    load_hierarchy,
    load_weights,
    save_annotations,
    save_score_maps,
)
from hierpose.inference import InferenceParams
from hierpose.metrics import pcp_radius
from hierpose.synth import make_scene

import inputs
from stats import fingerprint

RECALL_RADIUS_PX = 2.0


@dataclass
class UnitResult:
    seconds: float
    fingerprint: str
    violations: list[str] = field(default_factory=list)
    data: dict = field(default_factory=dict)


def _library(hierarchy, poses, bins):
    annotations = [Annotation(name, points) for name, points in poses]
    model = RelationTypeModel.build(hierarchy, annotations, **bins)
    return build_library(annotations, hierarchy, model)


def _check_inference(result, n_parts: int, label: str) -> list[str]:
    """Output checks on one inference result."""
    problems = []
    config = np.asarray(result.configuration)
    if config.shape != (n_parts, 2) or not np.isfinite(config).all():
        problems.append(f"{label}: configuration is not a finite ({n_parts}, 2) array")
    if not np.isfinite(result.score):
        problems.append(f"{label}: score is not finite")
    if result.mode == "full" and not result.score >= result.partial_score - 1e-9:
        problems.append(
            f"{label}: refinement lowered the score "
            f"({result.partial_score!r} -> {result.score!r})"
        )
    return problems


def _recall(configs, truths) -> float:
    """Share of atomic parts within 2 px of the ground truth."""
    n_parts = truths[0].shape[0]
    report = pcp_radius(configs, truths, np.full(n_parts, RECALL_RADIUS_PX), factor=1.0)
    return float(report.aggregate)


class Tiny3Ablation:
    """Criterion-6 mix-and-match scenes, inferred in `full` then `no-hier`."""

    name = "tiny3-ablation"
    key = 1
    scenes_per_setup = 32
    min_units = 4
    nominal_unit_s = 1.6

    def __init__(self, seed: int, root: Path, workdir: Path):
        self.hierarchy = load_hierarchy(inputs.tiny3_doc())
        self.library = _library(self.hierarchy, inputs.mixable_poses(), inputs.TYPE_BINS_TINY3)
        self.weights = WeightVector.uniform(self.hierarchy, **inputs.WEIGHTS)
        self.seed = seed
        self.scenes = [
            make_scene(
                self.library, self.hierarchy,
                seed=inputs.derive_seed(self.key, seed, i), grid=inputs.TINY3_GRID,
                mix=True, assignment=inputs.tiny3_assignment(seed + i),
            )
            for i in range(self.scenes_per_setup)
        ]

    def unit(self, i: int) -> UnitResult:
        scene = self.scenes[i % len(self.scenes)]
        params = InferenceParams(z=inputs.TINY3_Z, seed=inputs.derive_seed(self.key, self.seed, i, 1))
        start = perf_counter()
        stack = ScoreMapStack(list(scene.stack.scales))
        full = hierpose.infer(stack, self.hierarchy, self.library, self.weights, params, mode="full")
        flat = hierpose.infer(stack, self.hierarchy, self.library, self.weights, params, mode="no-hier")
        seconds = perf_counter() - start
        n = self.hierarchy.atomic_count
        return UnitResult(
            seconds,
            fingerprint(full.configuration, float(full.score), flat.configuration, float(flat.score)),
            _check_inference(full, n, "full") + _check_inference(flat, n, "no-hier"),
            {"truth": scene.configuration, "full": full.configuration, "flat": flat.configuration,
             "score": full.score},
        )

    @staticmethod
    def quality(results: list[UnitResult]) -> dict:
        truths = [r.data["truth"] for r in results]
        full = _recall([r.data["full"] for r in results], truths)
        flat = _recall([r.data["flat"] for r in results], truths)
        return {
            "score_mean": (float(np.mean([r.data["score"] for r in results])), "energy", "higher"),
            "recall_2px": (full, "frac", "higher"),
            "recall_2px_no_hier": (flat, "frac", "higher"),
            "ablation_gap": (full - flat, "frac", "higher"),
        }


class HumanDeep:
    """Mix-and-match scenes on the 14-part, 4-level human hierarchy."""

    name = "human-deep"
    key = 2
    scenes_per_setup = 24
    min_units = 2
    nominal_unit_s = 1.8

    def __init__(self, seed: int, root: Path, workdir: Path):
        self.hierarchy = load_hierarchy(root / "configs" / "human_hierarchy.json")
        self.library = _library(self.hierarchy, inputs.human_poses(), inputs.TYPE_BINS_HUMAN)
        self.weights = WeightVector.uniform(self.hierarchy, **inputs.WEIGHTS)
        self.seed = seed
        self.scenes = [
            make_scene(
                self.library, self.hierarchy,
                seed=inputs.derive_seed(self.key, seed, i), grid=inputs.HUMAN_GRID, mix=True,
            )
            for i in range(self.scenes_per_setup)
        ]

    def unit(self, i: int) -> UnitResult:
        scene = self.scenes[i % len(self.scenes)]
        params = InferenceParams(z=inputs.HUMAN_Z, seed=inputs.derive_seed(self.key, self.seed, i, 1))
        start = perf_counter()
        stack = ScoreMapStack(list(scene.stack.scales))
        result = hierpose.infer(stack, self.hierarchy, self.library, self.weights, params, mode="full")
        seconds = perf_counter() - start
        return UnitResult(
            seconds,
            fingerprint(result.configuration, float(result.score)),
            _check_inference(result, self.hierarchy.atomic_count, "full"),
            {"truth": scene.configuration, "full": result.configuration, "score": result.score},
        )

    @staticmethod
    def quality(results: list[UnitResult]) -> dict:
        truths = [r.data["truth"] for r in results]
        return {
            "score_mean": (float(np.mean([r.data["score"] for r in results])), "energy", "higher"),
            "recall_2px": (_recall([r.data["full"] for r in results], truths), "frac", "higher"),
        }


class TrainCli:
    """`hierpose train` over a directory of per-image score-map files."""

    name = "train-cli"
    key = 3
    min_units = 2
    nominal_unit_s = 3.5

    def __init__(self, seed: int, root: Path, workdir: Path):
        self.workdir = workdir
        hierarchy_path = root / "configs" / "human_hierarchy.json"
        hierarchy = load_hierarchy(hierarchy_path)
        self.hierarchy = hierarchy
        library = _library(hierarchy, inputs.human_poses(), inputs.TYPE_BINS_HUMAN)
        maps_dir = self.workdir / "maps"
        maps_dir.mkdir(parents=True, exist_ok=True)
        annotations = []
        height, width = inputs.TRAIN_GRID
        for i in range(inputs.TRAIN_IMAGES):
            scene = make_scene(
                library, hierarchy, seed=inputs.derive_seed(self.key, seed, i),
                grid=inputs.TRAIN_GRID, mix=True, margin=inputs.TRAIN_MARGIN,
            )
            image = f"img{i:03d}"
            save_score_maps(scene.stack, maps_dir / f"{image}.hpsm")
            annotations.append(Annotation(image, scene.configuration, size=(width, height)))
        save_annotations(annotations, hierarchy, self.workdir / "annotations.json")
        (self.workdir / "hierarchy.json").write_text(hierarchy_path.read_text())
        self.config = self.workdir / "train.json"
        self.config.write_text(json.dumps(inputs.train_config(), indent=2))
        self.first_outputs: bytes | None = None

    def unit(self, i: int) -> UnitResult:
        out = self.workdir / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = perf_counter()
            code = hierpose.cli.main(["train", str(self.config)])
            seconds = perf_counter() - start
        problems = []
        if code != 0:
            return UnitResult(seconds, fingerprint(code), [f"train exited with code {code}"])
        outputs = b"".join(
            (out / name).read_bytes() for name in ("weights.json", "log.json", "library.hpel")
        )
        try:
            weights = load_weights(out / "weights.json", self.hierarchy)
        except (ValueError, KeyError) as exc:
            problems.append(f"weights file does not load: {exc}")
        else:
            parts = (weights.atomic, weights.pose_appearance, weights.pose_similarity)
            if min(float(p.min()) for p in parts) < 0.0:
                problems.append("a non-bias weight is negative")
        if self.first_outputs is None:
            self.first_outputs = outputs
        elif outputs != self.first_outputs:
            problems.append("outputs differ from the first run with the same inputs")
        log = json.loads((out / "log.json").read_text())
        skipped = sum("too small to place a negative" in str(w.message) for w in caught)
        return UnitResult(
            seconds,
            fingerprint(outputs),
            problems,
            {"accuracy": log["training_accuracy"], "negatives_skipped": skipped},
        )

    @staticmethod
    def quality(results: list[UnitResult]) -> dict:
        results = [r for r in results if r.data]
        return {
            "train_accuracy": (
                float(np.mean([r.data["accuracy"] for r in results])), "frac", "higher"),
            "negatives_skipped": (
                int(sum(r.data["negatives_skipped"] for r in results)), "count", "lower"),
        }


WORKLOADS = {w.name: w for w in (Tiny3Ablation, HumanDeep, TrainCli)}
