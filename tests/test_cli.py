import contextlib
import copy
import functools
import io
import json
import math
import operator
import os
import re
import shutil
import struct
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hierpose.cli
from hierpose import (
    HierarchyError,
    augment_positives,
    generate_negatives,
    load_annotations,
    load_hierarchy,
    load_library,
    load_score_maps,
    load_weights,
    save_annotations,
    save_library,
    save_score_maps,
    save_weights,
    train_weights,
)
from hierpose.cli import main
from hierpose.inference import DEFAULT_MAX_ANGLE, InferenceParams, collapse_model
from hierpose.learning import TrainingSet
from hierpose.metrics import pcp_radius, pdj_curve
from hierpose.scoring import WeightVector, total_score
from hierpose.synth import make_scene

import oracles
from conftest import (
    CONFIG_DIR, annotations_tiny3, hpsm_old_bytes, library_for, root_draws_all_turned,
    sparse_hpsm_bytes, tiny3_doc,
)


def overflowing_json(doc) -> str:
    """`doc` as JSON text with each infinity written as 1e400 or -1e400:
    number literals that Python's parser reads as +-inf, where it rejects
    the Infinity token as such."""
    return json.dumps(doc).replace("Infinity", "1e400")


def make_workspace(tmp_path):
    """Hierarchy, annotations, library, weights, and scene bundles on disk."""
    hierarchy_path = tmp_path / "hierarchy.json"
    hierarchy_path.write_text(json.dumps(tiny3_doc()))
    hierarchy = load_hierarchy(hierarchy_path)

    annotations = annotations_tiny3(4)
    for ann in annotations:
        ann.size = (24, 24)
    annotations_path = tmp_path / "annotations.json"
    save_annotations(annotations, hierarchy, annotations_path)

    library, _ = library_for(hierarchy, annotations)
    library_path = tmp_path / "library.hpel"
    save_library(library, library_path)

    weights = WeightVector.uniform(
        hierarchy, atomic=1.0, pose_appearance=0.3, pose_similarity=0.05
    )
    weights_path = tmp_path / "weights.json"
    save_weights(weights, hierarchy, weights_path)

    synth_config = tmp_path / "synth.json"
    synth_config.write_text(
        json.dumps(
            {
                "hierarchy": "hierarchy.json",
                "annotations": "annotations.json",
                "type_model": {"atomic_bins": 8, "composite_bins": 2, "seed": 0},
                "scenes": {
                    "seeds": [0, 1, 2, 3, 4],
                    "grid": [48, 48],
                    "mix": False,
                    "sigma": 1.5,
                    "amplitude": 0.8,
                },
                "output_dir": "scenes",
            }
        )
    )
    assert main(["synth", str(synth_config)]) == 0
    return tmp_path


@pytest.fixture()
def workspace(tmp_path):
    return make_workspace(tmp_path)


@pytest.fixture(scope="module")
def shared_workspace(tmp_path_factory):
    """One workspace for tests that only read it and write under new names."""
    return make_workspace(tmp_path_factory.mktemp("shared"))


def infer_config(workspace, name="infer.json", **overrides):
    doc = {
        "hierarchy": "hierarchy.json",
        "libraries": "library.hpel",
        "weights": "weights.json",
        "score_maps": "scenes/scene_0/maps.hpsm",
        "mode": "full",
        "params": {
            "z": 20,
            "samples_per_level": 300,
            "seed": 7,
            "max_angle": 1.0471975511965976,
            "compatibility_tolerance": 0.1,
            "nms_radius": 2.0,
            "dedup_radius": 2.0,
            "search_radius_fraction": 0.15,
        },
        "output": {"pose": "out/pose.json", "diagnostics": "out/diag.jsonl"},
    }
    doc.update(overrides)
    path = workspace / name
    path.write_text(overflowing_json(doc))
    return path


def test_synth_bundles_written(workspace):
    bundles = sorted(p.name for p in (workspace / "scenes").iterdir())
    assert bundles == [f"scene_{i}" for i in range(5)]
    for bundle in bundles:
        root = workspace / "scenes" / bundle
        assert (root / "annotation.json").exists()
        assert (root / "maps.hpsm").exists()
        provenance = json.loads((root / "provenance.json").read_text())
        assert provenance["mix"] is False


def test_synth_regeneration_identical(workspace, tmp_path):
    config = json.loads((workspace / "synth.json").read_text())
    config["output_dir"] = str(tmp_path / "again")
    redo = workspace / "synth2.json"
    redo.write_text(json.dumps(config))
    assert main(["synth", str(redo)]) == 0
    for i in range(5):
        for name in ("annotation.json", "maps.hpsm", "provenance.json"):
            a = (workspace / "scenes" / f"scene_{i}" / name).read_bytes()
            b = (tmp_path / "again" / f"scene_{i}" / name).read_bytes()
            assert a == b


def synth_config(workspace, **scenes):
    """The workspace's synth config writing to `bad_scenes/`, with `scenes`
    fields replaced."""
    doc = json.loads((workspace / "synth.json").read_text())
    doc["scenes"].update(scenes)
    doc["output_dir"] = "bad_scenes"
    path = workspace / "bad_synth.json"
    path.write_text(overflowing_json(doc))
    return path, doc


def test_synth_truncating_config_rejected(workspace, capsys):
    """Each of these values used to be truncated by int() and the run
    exited 0 having written only scene_0."""
    path, doc = synth_config(workspace, seeds={"start": 0.5, "count": 1.9}, distractors=1.7)
    doc["type_model"].update(atomic_bins=8.9, seed=True)
    path.write_text(json.dumps(doc))
    assert main(["synth", str(path)]) == 1
    assert_rejected(capsys, "type_model 'atomic_bins' must be a JSON integer")
    assert not (workspace / "bad_scenes").exists()


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("type_model", "composite_bins", 2.0,
         "type_model 'composite_bins' must be a JSON integer"),
        ("type_model", "seed", True, "type_model 'seed' must be a JSON integer"),
        ("scenes", "seeds", {"start": 0.5, "count": 1},
         "scenes.seeds 'start' must be a JSON integer"),
        ("scenes", "seeds", {"start": 0, "count": 1.9},
         "scenes.seeds 'count' must be a JSON integer"),
        ("scenes", "seeds", [0, 1.5], "scenes 'seeds' 1 must be a JSON integer"),
        ("scenes", "distractors", 1.7, "scenes 'distractors' must be a JSON integer"),
        ("scenes", "mix", 1, "scenes 'mix' must be a JSON boolean"),
        ("scenes", "snap", "false", "scenes 'snap' must be a JSON boolean"),
        ("scenes", "sigma", None, "scenes 'sigma' must be a JSON number"),
        ("scenes", "amplitude", "0.8", "scenes 'amplitude' must be a JSON number"),
        ("scenes", "scales", [1.0, None], "scenes 'scales' 1 must be a JSON number"),
        ("scenes", "scales", [1.0, 10**400],  # used to end in an OverflowError traceback
         "scenes 'scales' 1 must be a finite number, got an integer too large for a float"),
    ],
)
def test_synth_fields_must_have_json_types(workspace, capsys, section, key, value, message):
    path, doc = synth_config(workspace)
    doc[section][key] = value
    path.write_text(json.dumps(doc))
    assert main(["synth", str(path)]) == 1
    assert_rejected(capsys, message)
    assert not (workspace / "bad_scenes").exists()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("sigma", 0.0, "sigma must be finite and > 0"),
        ("sigma", -1.0, "sigma must be finite and > 0"),
        ("sigma", math.inf, "sigma must be finite and > 0"),
        ("noise", -0.5, "noise must be finite and >= 0"),
        ("noise", math.nan, "noise must be finite and >= 0"),
        ("noise", -math.inf, "noise must be finite and >= 0"),
        ("distractors", -3, "distractors must be >= 0"),
        ("margin", 0.6, "margin must lie in [0, 0.5)"),
        ("margin", -0.1, "margin must lie in [0, 0.5)"),
        ("sigma", 1e-300, "sigma is too small: 2 * sigma**2 underflows to 0"),
        ("max_rotation", -0.2, "max_rotation must be >= 0"),
        ("max_rotation", 3.2, "max_rotation must be <= pi, got 3.2"),
        ("max_rotation", 1e308, "max_rotation must be <= pi, got 1e+308"),
        ("grid", [1, 1], "grid sides must be >= 2, got [1, 1]"),
        ("grid", [48, 1], "grid sides must be >= 2, got [48, 1]"),
        ("grid", [0, 0], "grid sides must be >= 2, got [0, 0]"),
        ("grid", [-5, 48], "grid sides must be >= 2, got [-5, 48]"),
    ],
)
def test_synth_rejects_bad_scene_options(workspace, capsys, key, value, message):
    """Scene options that used to be accepted (sigma 0, a sigma whose
    2 * sigma**2 underflows, and negative noise wrote score maps that
    `load_score_maps` rejects) or to fail inside numpy (a negative
    max_rotation, or one so large that `rng.uniform` overflows) raise a
    ValueError that names the field, from `make_scene` and from
    `hierpose synth`, which exits 1 and writes no scene directory.  A 1x1
    grid used to write poses with every part at (0, 0), which
    `build_library` rejects as degenerate, and [0, 0] and [-5, 48] failed
    with messages that did not name the grid.  JSON cannot carry NaN, so
    only the library sees it; an infinity is written as 1e400 or -1e400,
    which the config reader rejects before the library sees it."""
    hierarchy = load_hierarchy(workspace / "hierarchy.json")
    library, _ = library_for(hierarchy, load_annotations(workspace / "annotations.json", hierarchy))
    with pytest.raises(ValueError, match=re.escape(message)):
        make_scene(library, hierarchy, seed=0, **{"grid": (48, 48), key: value})
    if not isinstance(value, list) and math.isnan(value):
        return
    path, _ = synth_config(workspace, **{key: value})
    assert main(["synth", str(path)]) == 1
    overflows = isinstance(value, float) and math.isinf(value)
    assert_rejected(capsys, f"scenes '{key}' must be a finite" if overflows else message)
    assert not (workspace / "bad_scenes").exists()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("grid", [10**9, 10**9], "scenes 'grid' sides must be <= 1024, got [1000000000, 1000000000]"),
        ("grid", [96, 1025], "scenes 'grid' sides must be <= 1024, got [96, 1025]"),
        ("seeds", {"start": 0, "count": 10**15},
         "scenes 'seeds' names 1000000000000000 seeds, more than 10000"),
        ("seeds", list(range(10_001)), "scenes 'seeds' names 10001 seeds, more than 10000"),
    ],
    ids=["absurd-grid", "grid-1025", "absurd-count", "seed-list"],
)
def test_synth_sizes_are_bounded_before_any_file_is_read(workspace, key, value, message):
    """A grid side above 1024 or more than 10,000 scenes exits 1 naming the
    key, before any file is read or directory made.  The run is a child
    process with a capped address space, so a missed check fails fast: the
    absurd grid would ask for its pixel coordinates, and the count for its
    seed list."""
    path, doc = synth_config(workspace, **{key: value})
    doc["hierarchy"] = "absent.json"
    path.write_text(json.dumps(doc))
    done = run_capped(["synth", str(path)])
    assert (done.returncode, done.stdout, done.stderr) == (1, "", f"error: {message}\n")
    assert not (workspace / "bad_scenes").exists()


@pytest.mark.parametrize(
    "seeds, flag, message",
    [
        ({"start": 0, "count": -3}, None, "scenes 'seeds' names no seed"),
        ({"start": 0, "count": 0}, None, "scenes 'seeds' names no seed"),
        ([], None, "scenes 'seeds' names no seed"),
        ({"start": -2, "count": 3}, None, "scenes 'seeds' must be >= 0, got -2"),
        ([3, -1], None, "scenes 'seeds' must be >= 0, got -1"),
        ([0], "-1", "--seed must be >= 0, got -1"),
    ],
)
def test_synth_rejects_an_empty_or_negative_seed_set(workspace, capsys, seeds, flag, message):
    """An empty seed set used to exit 0 having written no scene, and a
    negative seed to fail inside numpy with a message that named no field;
    both exit 1 before any input is read or directory made."""
    path, doc = synth_config(workspace, seeds=seeds)
    doc["hierarchy"] = "absent.json"
    path.write_text(json.dumps(doc))
    assert main(["synth", str(path)] + (["--seed", flag] if flag else [])) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (workspace / "bad_scenes").exists()


def test_infer_smoke_and_determinism(workspace):
    config = infer_config(workspace)
    assert main(["infer", str(config)]) == 0
    pose_path = workspace / "out" / "pose.json"
    diag_path = workspace / "out" / "diag.jsonl"
    records = json.loads(pose_path.read_text())
    assert len(records) == 1
    assert len(records[0]["parts"]) == 6
    first = (pose_path.read_bytes(), diag_path.read_bytes())
    assert main(["infer", str(config)]) == 0
    assert (pose_path.read_bytes(), diag_path.read_bytes()) == first
    truth = json.loads(
        (workspace / "scenes" / "scene_0" / "annotation.json").read_text()
    )[0]["parts"]
    for name, xy in records[0]["parts"].items():
        assert np.hypot(xy[0] - truth[name][0], xy[1] - truth[name][1]) <= 2.0


def test_infer_missing_maps_exit_1(workspace, capsys):
    config = infer_config(workspace, name="bad.json", score_maps="nowhere.hpsm")
    assert main(["infer", str(config)]) == 1
    assert "nowhere.hpsm" in capsys.readouterr().err


def infer_with_edited_library(workspace, capsys, old: bytes, new: bytes) -> str:
    """stderr of a failed `infer` after the first `old` in the library file
    is replaced by `new`."""
    path = workspace / "library.hpel"
    data = path.read_bytes()
    assert data.count(old) >= 1
    path.write_bytes(data.replace(old, new, 1))
    assert main(["infer", str(infer_config(workspace))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    return err


def test_infer_corrupt_library_exit_1(workspace, capsys):
    # the exemplar and part counts; 1000 parts per row is not the hierarchy's 6
    library = load_library(workspace / "library.hpel", load_hierarchy(workspace / "hierarchy.json"))
    counts = struct.pack("<II", len(library.sources), 6)
    err = infer_with_edited_library(
        workspace, capsys, counts, struct.pack("<II", len(library.sources), 1000)
    )
    assert "hold 1000 parts, the hierarchy 6" in err


def test_infer_library_with_absurd_bin_counts_exit_1(workspace, capsys):
    """An HPEL file whose atomic bin counts read 10**9 used to load; the
    loader names the first part whose count is above 1,000."""
    library = load_library(workspace / "library.hpel", load_hierarchy(workspace / "hierarchy.json"))
    bins = library.atomic_bins
    table = b"".join(struct.pack("<II", part, bins[part]) for part in sorted(bins))
    huge = b"".join(struct.pack("<II", part, 10**9) for part in sorted(bins))
    err = infer_with_edited_library(workspace, capsys, table, huge)
    assert err == "error: library has 1000000000 atomic bins for part 1, more than 1000\n"


def test_infer_library_without_a_node_exit_1(workspace, capsys):
    """A library of the collapsed model has no composite bins, nor the label
    columns of nodes 10 and 11; the loader says it does not fit."""
    path = workspace / "library.hpel"
    hierarchy = load_hierarchy(workspace / "hierarchy.json")
    weights = load_weights(workspace / "weights.json", hierarchy)
    _, flat_library, _ = collapse_model(hierarchy, load_library(path, hierarchy), weights)
    save_library(flat_library, path)
    assert main(["infer", str(infer_config(workspace))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "non-root composite bins for parts [], the hierarchy's non-root composite" in err


def test_infer_nan_bias_exit_1(workspace, capsys):
    path = workspace / "weights.json"
    doc = json.loads(path.read_text())
    doc["bias"] = math.nan
    path.write_text(json.dumps(doc))  # writes the bare token NaN
    assert main(["infer", str(infer_config(workspace))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "weights holds NaN" in err
    assert "Traceback" not in err
    # a NaN bias that does not come from JSON is caught by the weights
    with pytest.raises(ValueError, match="bias must be finite"):
        WeightVector(np.ones(6), np.ones(3), np.ones(3), math.nan)


def with_params(workspace, **changes):
    params = json.loads(infer_config(workspace).read_text())["params"]
    return infer_config(workspace, name="params.json", params=dict(params, **changes))


@pytest.mark.parametrize("argv", [[], ["--seed", "-1"]])
def test_infer_negative_seed_exit_1(workspace, capsys, argv):
    config = with_params(workspace, seed=-1) if not argv else infer_config(workspace)
    assert main(["infer", str(config)] + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed must be >= 0" in err
    assert "Traceback" not in err
    assert not (workspace / "out").exists()


def run_capped(argv) -> subprocess.CompletedProcess:
    """`hierpose <argv>` in a child process whose address space is capped at
    2 GB, so that an allocation an unchecked size asks for fails at once."""
    resource = pytest.importorskip("resource")
    cap = 2 * 1024**3
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    return run_child(argv, f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n")


def run_child(argv, before: str = "", after: str = "") -> subprocess.CompletedProcess:
    """`hierpose <argv>` in a child process, with the Python lines `before`
    and `after` it run there; `resource` and `sys` are imported and `code`
    holds the exit code."""
    child = (
        "import resource, sys\n"
        f"{before}"
        "from hierpose.cli import main\n"
        "code = main(sys.argv[1:])\n"
        f"{after}"
        "sys.exit(code)\n"
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    src = str(Path(hierpose.cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run(
        [sys.executable, "-c", child, *argv], env=env, capture_output=True, text=True, timeout=120,
    )


def test_infer_names_the_draw_counters_of_an_empty_level(tmp_path, capsys):
    """`hierpose infer` on a scene whose every root draw fails the angle
    bound exits 2 with one `error:` line that ends with the empty level's
    draw counters, and writes no pose."""
    human, library, stack = root_draws_all_turned()
    save_library(library, tmp_path / "library.hpel")
    save_weights(WeightVector.uniform(human), human, tmp_path / "weights.json")
    save_score_maps(stack, tmp_path / "maps.hpsm")
    params = InferenceParams(z=8, seed=8)
    config = tmp_path / "infer.json"
    config.write_text(json.dumps({
        "hierarchy": str(CONFIG_DIR / "human_hierarchy.json"), "libraries": "library.hpel",
        "weights": "weights.json", "score_maps": "maps.hpsm", "mode": "full",
        "params": {name: getattr(params, name) for name in hierpose.cli._INFER["params"]},
        "output": {"pose": "out/pose.json", "diagnostics": "out/diag.jsonl"},
    }))
    assert main(["infer", str(config)]) == 2
    assert capsys.readouterr().err == (
        "error: no configuration found: level 4 is empty (draws: 0 proposed, 0 empty_pool, "
        "160 rejected_angle, 0 rejected_degenerate, 0 fallback)\n"
    )
    assert not (tmp_path / "out").exists()


def test_infer_out_of_memory_exits_1_with_one_line(workspace):
    """A `MemoryError` ends in exit 1 and one `error:` line, not a traceback.
    `infer` at its bounds, z 1,000 and 100,000 draws per level, needs about
    75 MB more than loading its inputs does; it runs in a child process
    whose address space is capped 32 MB above what the process has mapped
    once the library is imported, so the search's allocations fail."""
    if not Path("/proc/self/statm").exists():
        pytest.skip("needs /proc/self/statm to read the mapped size")
    config = with_params(workspace, z=1_000, samples_per_level=100_000)
    done = run_child(["infer", str(config)], (
        "import hierpose.cli, os\n"
        "mapped = int(open('/proc/self/statm').read().split()[0]) * os.sysconf('SC_PAGE_SIZE')\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "cap = mapped + 32 * 1024**2\n"
        "cap = cap if hard == resource.RLIM_INFINITY else min(cap, hard)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
    ))
    assert done.returncode == 1, done.stderr
    assert done.stdout == ""
    assert done.stderr.startswith("error: out of memory: ") and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr
    assert not (workspace / "out").exists()


@pytest.mark.parametrize("key, limit", [("z", 1_000), ("samples_per_level", 100_000)])
def test_infer_sizes_are_bounded_before_any_file_is_read(workspace, key, limit):
    """An absurd z or draw count per level exits 1 naming the key, before
    any file is read or output written.  The run is a child process with a
    capped address space, so a check that came after the allocation a size
    asks for would fail fast there."""
    config = with_params(workspace, **{key: 10**15})
    doc = json.loads(config.read_text())
    doc["hierarchy"] = "absent.json"
    config.write_text(json.dumps(doc))
    done = run_capped(["infer", str(config)])
    message = f"error: params '{key}' must be <= {limit}, got {10**15}\n"
    assert (done.returncode, done.stdout, done.stderr) == (1, "", message)
    assert not (workspace / "out").exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("z", 2.7),
        ("z", 3.0),
        ("z", True),
        ("z", "3"),
        ("samples_per_level", 300.5),
        ("samples_per_level", 1e3),
        ("samples_per_level", "300"),
        ("seed", 1.5),
        ("seed", False),
        ("seed", "7"),
        ("seed", None),
    ],
)
def test_infer_integer_params_must_be_json_integers(workspace, capsys, key, value):
    assert main(["infer", str(with_params(workspace, **{key: value}))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"params '{key}' must be a JSON integer" in err
    assert not (workspace / "out").exists()


def assert_rejected(capsys, message):
    """The command exited 1 (checked by the caller) with one `error:` line
    naming the field, and wrote nothing."""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "key, value",
    [
        ("max_angle", None),
        ("nms_radius", [1]),
        ("compatibility_tolerance", "0.1"),
        ("dedup_radius", True),
        ("search_radius_fraction", {"value": 0.15}),
        ("nms_radius", math.inf),  # written as 1e400, which overflows
        ("max_angle", -math.inf),
    ],
)
def test_infer_real_params_must_be_json_numbers(workspace, capsys, key, value):
    overflows = isinstance(value, float) and math.isinf(value)
    assert main(["infer", str(with_params(workspace, **{key: value}))]) == 1
    assert_rejected(capsys, f"params '{key}' must be a {'finite' if overflows else 'JSON'} number")
    assert not (workspace / "out").exists()


def test_infer_unknown_config_key_rejected(workspace):
    config = infer_config(workspace, name="extra.json", extra_key=1)
    assert main(["infer", str(config)]) == 1


def test_infer_partial_mode_flag(workspace):
    config = infer_config(
        workspace, name="partial.json",
        output={"pose": "out2/pose.json", "diagnostics": "out2/diag.jsonl"},
    )
    assert main(["infer", str(config), "--mode", "partial"]) == 0
    diag = (workspace / "out2" / "diag.jsonl").read_text().strip().splitlines()
    summary = json.loads(diag[-1])
    assert summary["mode"] == "partial"


def train_config(workspace, name="train.json", **overrides):
    doc = {
        "hierarchy": "hierarchy.json",
        "annotations": "annotations.json",
        "score_maps": "scenes/scene_0/maps.hpsm",
        "type_model": {"atomic_bins": 8, "composite_bins": 2, "seed": 0},
        "augment": {"jitter_fraction": 0.03, "copies": 2, "seed": 1},
        "negatives": {"per_positive": 2, "noise_sigma": None, "seed": 2},
        "train": {"c": 5.0, "epochs": 120, "seed": 3, "holdout_fraction": 0.0},
        "output": {"weights": "out/trained.json", "log": "out/train_log.json"},
    }
    doc.update(overrides)
    path = workspace / name
    path.write_text(json.dumps(doc))
    return path


def test_train_smoke_and_determinism(workspace):
    config = train_config(workspace)
    assert main(["train", str(config)]) == 0
    weights_path = workspace / "out" / "trained.json"
    log_path = workspace / "out" / "train_log.json"
    doc = json.loads(weights_path.read_text())
    for section in ("atomic", "pose_appearance", "pose_similarity"):
        assert all(v >= 0 for v in doc[section].values())
    first = (weights_path.read_bytes(), log_path.read_bytes())
    assert main(["train", str(config)]) == 0
    assert (weights_path.read_bytes(), log_path.read_bytes()) == first


def test_train_outputs_identical_with_naive_sgd(workspace, monkeypatch):
    """The library SGD and the oracle loop that clamps after every step give
    byte-identical weights, log and library files."""
    out = {"weights": "out/weights.json", "log": "out/log.json", "libraries": "out/library.hpel"}
    config = train_config(workspace, output=out)

    def outputs():
        assert main(["train", str(config)]) == 0
        return [(workspace / path).read_bytes() for path in out.values()]

    first = outputs()
    calls = []

    def naive(*args, **kwargs):
        calls.append(kwargs)
        return oracles.naive_train_weights(*args, **kwargs)

    monkeypatch.setattr(hierpose.cli, "train_weights", naive)  # the name `train` calls
    assert outputs() == first
    assert calls == [{"c": 5.0, "epochs": 120, "seed": 3}]


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("type_model", "atomic_bins", 8.0),
        ("type_model", "composite_bins", "2"),
        ("type_model", "seed", True),
        ("augment", "copies", 2.5),
        ("augment", "seed", 1.9),
        ("negatives", "per_positive", "2"),
        ("negatives", "seed", None),
        ("train", "epochs", 2.7),
        ("train", "seed", True),
    ],
)
def test_train_integer_fields_must_be_json_integers(workspace, capsys, section, key, value):
    doc = json.loads(train_config(workspace).read_text())
    doc[section][key] = value
    config = train_config(workspace, name="bad_int.json", **{section: doc[section]})
    assert main(["train", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{section} '{key}' must be a JSON integer" in err
    assert "Traceback" not in err
    assert not (workspace / "out").exists()


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("train", "c", None),
        ("train", "holdout_fraction", "0.0"),
        ("negatives", "noise_sigma", "0.5"),
        ("negatives", "noise_sigma", [0.5]),
        ("augment", "jitter_fraction", True),
    ],
)
def test_train_real_fields_must_be_json_numbers(workspace, capsys, section, key, value):
    doc = json.loads(train_config(workspace).read_text())
    doc[section][key] = value
    config = train_config(workspace, name="bad_real.json", **{section: doc[section]})
    assert main(["train", str(config)]) == 1
    assert_rejected(capsys, f"{section} '{key}' must be a JSON number")
    assert not (workspace / "out").exists()


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("train", "epochs", 0, "epochs must be >= 1"),
        ("train", "epochs", -5, "epochs must be >= 1"),
        ("train", "c", 0.0, "c must be finite and > 0"),
        ("train", "c", -1.0, "c must be finite and > 0"),
        ("train", "c", math.inf, "c must be finite and > 0"),
        ("train", "c", math.nan, "c must be finite and > 0"),
        ("augment", "copies", -1, "copies must be >= 0"),
        ("augment", "jitter_fraction", -0.1, "jitter_fraction must be finite and >= 0"),
        ("augment", "jitter_fraction", math.nan, "jitter_fraction must be finite and >= 0"),
        ("augment", "jitter_fraction", math.inf, "jitter_fraction must be finite and >= 0"),
        ("negatives", "per_positive", -2, "per_positive must be >= 0"),
        ("negatives", "noise_sigma", -1.0, "noise_sigma must be finite and >= 0"),
        ("negatives", "noise_sigma", math.nan, "noise_sigma must be finite and >= 0"),
        ("negatives", "noise_sigma", math.inf, "noise_sigma must be finite and >= 0"),
    ],
)
def test_train_rejects_bad_sgd_inputs(workspace, capsys, section, key, value, message):
    """SGD and training-sample inputs that used to be accepted (epochs <= 0
    and c <= 0 wrote all-zero weights, copies -1 ran as 0, a non-finite
    jitter_fraction gave non-finite positives, per_positive -2 and a NaN
    noise_sigma gave no negatives, noise_sigma -1 raised numpy's bare
    "scale < 0") raise a ValueError naming the field from `train_weights`,
    `augment_positives` or `generate_negatives`, and `hierpose train` exits
    1 and writes no weights.  JSON cannot carry the non-finite values, so
    only the library sees those."""
    with pytest.raises(ValueError, match=re.escape(message)):
        if section == "augment":
            augment_positives(
                annotations_tiny3(2), np.random.default_rng(0), **{"jitter_fraction": 0.03, key: value}
            )
        elif section == "negatives":
            generate_negatives(annotations_tiny3(2), (100.0, 100.0), np.random.default_rng(0),
                               **{key: value})
        else:
            training = TrainingSet(np.array([[1.0, 1.0], [-1.0, 1.0]]), np.array([1.0, -1.0]))
            train_weights(training, **{key: value})
    if math.isfinite(value):
        doc = json.loads(train_config(workspace).read_text())
        doc[section][key] = value
        config = train_config(workspace, name="bad_sgd.json", **{section: doc[section]})
        assert main(["train", str(config)]) == 1
        assert_rejected(capsys, message)
        assert not (workspace / "out").exists()


@pytest.mark.parametrize(
    "section, key, limit",
    [
        ("augment", "copies", 1000),
        ("negatives", "per_positive", 1000),
        ("train", "epochs", 10_000),
    ],
)
def test_train_sizes_are_bounded_before_any_file_is_read(workspace, section, key, limit):
    """An absurd jitter-copy count, negatives per positive or epoch count
    exits 1 naming the key, before any file is read or output written.  The
    run is a child process with a capped address space, so a missed check
    fails fast; each limit is far above the values the tests, demos and
    bench use."""
    doc = json.loads(train_config(workspace).read_text())
    doc[section][key] = 10**15
    config = train_config(workspace, name="huge.json", hierarchy="absent.json",
                          **{section: doc[section]})
    done = run_capped(["train", str(config)])
    message = f"error: {section} '{key}' must be <= {limit}, got {10**15}\n"
    assert (done.returncode, done.stdout, done.stderr) == (1, "", message)
    assert not (workspace / "out").exists()


def train_on_an_old_map_file(workspace, capsys, tiny3, version):
    """`train` on the workspace's map file written in the layout of
    `version` exits 1 with the version message, and writes nothing."""
    stack = load_score_maps(workspace / "scenes" / "scene_0" / "maps.hpsm")
    (workspace / "old.hpsm").write_bytes(hpsm_old_bytes(stack, version, tiny3))
    config = train_config(workspace, name="old.json", score_maps="old.hpsm")
    assert main(["train", str(config)]) == 1
    assert_rejected(capsys, f"unsupported score-map version {version}")
    assert not (workspace / "out").exists()


def test_train_rejects_a_version_1_map_file(workspace, capsys, tiny3):
    """The layout that stored every atomic row."""
    train_on_an_old_map_file(workspace, capsys, tiny3, 1)


def test_train_rejects_a_version_2_map_file(workspace, capsys, tiny3):
    """The layout whose composite blocks held each part's level."""
    train_on_an_old_map_file(workspace, capsys, tiny3, 2)


@pytest.mark.parametrize("command", ["train", "synth"])
@pytest.mark.parametrize("key, value", [("atomic_bins", 10**20), ("composite_bins", 10**400)],
                         ids=["atomic-1e20", "composite-1e400"])
def test_type_bins_are_bounded_before_any_file_is_read(workspace, command, key, value):
    """A relation-type bin count above 1,000 exits 1 naming the key, before
    any file is read or directory made, by the check of
    `RelationTypeModel.build`; 10**20 atomic bins used to overflow in
    `RelationTypeModel.labels` and 10**400 in its float division, each a
    traceback.  The run is a child process with a capped address space."""
    if command == "train":
        doc = json.loads(train_config(workspace).read_text())
        doc["type_model"][key] = value
        config = train_config(workspace, name="huge.json", hierarchy="absent.json",
                              type_model=doc["type_model"])
        output = workspace / "out"
    else:
        config, doc = synth_config(workspace)
        doc["type_model"][key] = value
        doc["hierarchy"] = "absent.json"
        config.write_text(json.dumps(doc))
        output = workspace / "bad_scenes"
    done = run_capped([command, str(config)])
    message = f"error: {key} must be <= 1000, got {value}\n"
    assert (done.returncode, done.stdout, done.stderr) == (1, "", message)
    assert not output.exists()


@pytest.mark.parametrize("key, digits, message", [
    ("max_angle", 401, "config 'max_angle' must be a finite number, "
                       "got an integer too large for a float"),
    ("max_angle", 5001, "config 'max_angle' must be a finite number, got inf"),
    ("epochs", 5001, "config.train 'epochs' must be a JSON integer, got Infinity"),
], ids=["max_angle-401-digits", "max_angle-5001-digits", "epochs-5001-digits"])
def test_train_huge_json_integers_exit_1_naming_the_field(workspace, key, digits, message):
    """An integer too large for a float where a number is wanted used to end
    in an OverflowError traceback, and one of more digits than Python
    converts to `int` in a `json` ValueError that named no field; such an
    integer now reads as inf."""
    text = train_config(workspace).read_text()
    if key == "max_angle":
        text = text.replace('{"hierarchy"', '{"max_angle": 0, "hierarchy"')
    text = re.sub(rf'"{key}": [0-9]+', f'"{key}": 1{"0" * (digits - 1)}', text)
    (workspace / "huge.json").write_text(text)
    done = run_child(["train", str(workspace / "huge.json")])
    assert (done.returncode, done.stdout, done.stderr) == (1, "", f"error: {message}\n")
    assert not (workspace / "out").exists()


def test_train_bounds_a_map_files_unstored_channels(workspace):
    """A map file whose channel table claims 60,000 channels of 96x96 (a
    2.2 GB tensor) but stores one row exits 1 naming the field, before any
    memory is mapped.  The run is a child process with a capped address
    space, so a missed check fails there."""
    (workspace / "huge.hpsm").write_bytes(sparse_hpsm_bytes(60_000, (96, 96), [0]))
    config = train_config(workspace, name="huge.json", score_maps="huge.hpsm")
    done = run_capped(["train", str(config)])
    assert (done.returncode, done.stdout) == (1, ""), done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "n_channels x H x W = 60000 x 96 x 96" in done.stderr
    assert "Traceback" not in done.stderr
    assert not (workspace / "out").exists()


@pytest.mark.parametrize("command", ["train", "score"])
def test_max_angle_must_be_a_json_number(workspace, capsys, command):
    if command == "train":
        config = train_config(workspace, name="bad_angle.json", max_angle="1.0")
    else:
        config = score_config(workspace, max_angle=None)
    assert main([command, str(config)]) == 1
    assert_rejected(capsys, "config 'max_angle' must be a JSON number")
    assert not (workspace / "out").exists()


@pytest.mark.parametrize("command", ["train", "synth"])
@pytest.mark.parametrize("key, value, message", [
    ("atomic_bins", 1, "atomic_bins must be >= 2, got 1"),
    ("composite_bins", 0, "composite_bins must be >= 2, got 0"),
    ("seed", -1, "seed must be >= 0, got -1"),
])
def test_type_model_values_exit_1_naming_the_field(shared_workspace, capsys, command, key, value,
                                                   message):
    """A negative seed used to fail inside numpy's random generator."""
    if command == "train":
        doc = json.loads(train_config(shared_workspace).read_text())
        doc["type_model"][key] = value
        doc["output"] = {"weights": "bad_types/weights.json", "log": "bad_types/log.json"}
        config = train_config(shared_workspace, name="bad_types.json", **doc)
        output = shared_workspace / "bad_types"
    else:
        config, doc = synth_config(shared_workspace)
        doc["type_model"][key] = value
        config.write_text(json.dumps(doc))
        output = shared_workspace / "bad_scenes"
    assert main([command, str(config)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not output.exists()


def test_train_empty_annotations_exit_1(workspace):
    (workspace / "empty.json").write_text("[]")
    config = train_config(workspace, name="train_empty.json", annotations="empty.json")
    assert main(["train", str(config)]) == 1


def per_image_maps(workspace, hierarchy):
    """Three annotated images, each with its own `<image>.hpsm` in maps/."""
    annotations = annotations_tiny3(3)
    (workspace / "maps").mkdir()
    for k, ann in enumerate(annotations):
        ann.size = (24, 24)
        shutil.copy(
            workspace / "scenes" / f"scene_{k}" / "maps.hpsm",
            workspace / "maps" / f"{ann.image}.hpsm",
        )
    save_annotations(annotations, hierarchy, workspace / "three.json")
    config = train_config(
        workspace, name="per_image.json", annotations="three.json", score_maps="maps"
    )
    return annotations, config


def test_train_per_image_maps_matches_oracle_features(workspace, tiny3):
    annotations, config = per_image_maps(workspace, tiny3)
    assert main(["train", str(config)]) == 0

    # the same run with the scalar oracle's features, one sample at a time
    library, _ = library_for(tiny3, annotations)
    positives = annotations + augment_positives(
        annotations, np.random.default_rng(1), jitter_fraction=0.03, copies=2
    )
    rng = np.random.default_rng(2)
    negatives = [  # one positive at a time, in order, so each negative knows its positive
        (negative, ann.image) for ann in annotations
        for negative in generate_negatives([ann], None, rng, noise_sigma=None, per_positive=2)
    ]
    stacks = {a.image: load_score_maps(workspace / "maps" / f"{a.image}.hpsm") for a in annotations}
    features = np.stack([
        oracles.naive_feature_vector(a.points, stacks[image], tiny3, library, DEFAULT_MAX_ANGLE)
        for a, image in [(a, a.image) for a in positives] + negatives
    ])
    labels = np.array([1.0] * len(positives) + [-1.0] * len(negatives))
    training = TrainingSet(features, labels)
    weights, objective = train_weights(training, c=5.0, epochs=120, seed=3)
    expected = WeightVector.from_array(weights, tiny3).to_json(tiny3)
    assert (workspace / "out" / "trained.json").read_text() == expected
    log = json.loads((workspace / "out" / "train_log.json").read_text())
    assert log == {
        "samples": {"positive": len(positives), "negative": len(negatives)},
        "holdout_fraction": 0.0,
        "exemplar_annotations": 3,
        "objective": objective,
        "training_accuracy": float(np.mean(labels * (features @ weights) > 0)),
        "epochs": 120,
        "c": 5.0,
        "seed": 3,
    }


def test_train_reads_the_maps_of_image_names_with_hash(workspace, tiny3):
    """An image name may hold '#', even "#neg<k>": positives and their jittered
    copies read the maps of their name as written, and each negative those of
    the positive it was made from, so renaming every image (and its maps)
    leaves the trained weights and log unchanged."""
    annotations, config = per_image_maps(workspace, tiny3)
    assert main(["train", str(config)]) == 0
    expected = [(workspace / "out" / name).read_bytes() for name in ("trained.json", "train_log.json")]
    (workspace / "hashed").mkdir()
    for ann in annotations:
        shutil.copy(workspace / "maps" / f"{ann.image}.hpsm",
                    workspace / "hashed" / f"{ann.image}#neg0.hpsm")
        ann.image += "#neg0"
    save_annotations(annotations, tiny3, workspace / "hashed.json")
    config = train_config(
        workspace, name="hashed_train.json", annotations="hashed.json", score_maps="hashed",
        output={"weights": "hashed_out/trained.json", "log": "hashed_out/train_log.json"},
    )
    assert main(["train", str(config)]) == 0
    assert [
        (workspace / "hashed_out" / name).read_bytes() for name in ("trained.json", "train_log.json")
    ] == expected


@pytest.mark.parametrize("command", ["train", "score", "infer"])
@pytest.mark.parametrize("max_angle", [4.0, 0.0, -1.0])
def test_bad_max_angle_exits_1_before_any_file_is_read(workspace, capsys, command, max_angle):
    """The key is checked as soon as the config is read: the inputs it names
    do not exist here, and the error names the key and its value."""
    doc = {"hierarchy": "absent.json", "max_angle": max_angle}
    if command == "train":
        config = train_config(workspace, name="bad_angle.json", **doc)
    elif command == "score":
        config = score_config(workspace, **doc)
    else:
        params = json.loads(infer_config(workspace).read_text())["params"]
        config = infer_config(workspace, name="bad_angle.json", hierarchy="absent.json",
                              params={**params, "max_angle": max_angle})
    assert main([command, str(config)]) == 1
    assert capsys.readouterr().err == f"error: max_angle must lie in (0, pi], got {max_angle}\n"
    assert not (workspace / "out").exists()


def test_infer_bad_mode_exits_1_before_any_file_is_read(workspace, capsys):
    config = infer_config(workspace, name="bad_mode.json", hierarchy="absent.json", mode="bogus")
    assert main(["infer", str(config)]) == 1
    assert capsys.readouterr().err == "error: mode must be one of ('full', 'partial', 'no-hier')\n"
    assert not (workspace / "out").exists()


def counted_loads(monkeypatch) -> tuple[list, list]:
    """Patch the CLI's `load_score_maps` to record the name of each file it
    loads and, just before each load, how many stacks loaded earlier are
    still reachable."""
    loads, alive, refs = [], [], []

    def load(path):
        alive.append(sum(ref() is not None for ref in refs))
        stack = load_score_maps(path)
        loads.append(path.name)
        refs.append(weakref.ref(stack))
        return stack

    monkeypatch.setattr(hierpose.cli, "load_score_maps", load)
    return loads, alive


def test_train_missing_per_image_maps_exit_1(workspace, tiny3, capsys, monkeypatch):
    """Every map file is named before the first loads."""
    _, config = per_image_maps(workspace, tiny3)
    (workspace / "maps" / "img1.hpsm").unlink()
    loads, _ = counted_loads(monkeypatch)
    assert main(["train", str(config)]) == 1
    assert "img1.hpsm" in capsys.readouterr().err
    assert loads == []


def test_train_corrupt_per_image_map_exit_1_with_the_loader_message(workspace, tiny3, capsys):
    _, config = per_image_maps(workspace, tiny3)
    path = workspace / "maps" / "img1.hpsm"
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(ValueError) as error:
        load_score_maps(path)
    assert main(["train", str(config)]) == 1
    assert capsys.readouterr().err == f"error: {error.value}\n"


@pytest.mark.parametrize("shared", [False, True], ids=["per image", "one file"])
def test_train_loads_each_map_once_and_holds_one_at_a_time(workspace, tiny3, monkeypatch, shared):
    """Each map file loads once, in order of first appearance (here not the
    order of the names), and every stack loaded earlier is unreachable when
    the next load starts; one shared file loads once."""
    annotations, config = per_image_maps(workspace, tiny3)
    save_annotations([annotations[k] for k in (2, 0, 1)], tiny3, workspace / "three.json")
    if shared:
        config = train_config(workspace, name="shared.json", annotations="three.json")
    loads, alive = counted_loads(monkeypatch)
    assert main(["train", str(config)]) == 0
    assert loads == (["maps.hpsm"] if shared else ["img2.hpsm", "img0.hpsm", "img1.hpsm"])
    assert alive == [0] * len(loads)


def train_peak_rss(tmp_path, count: int) -> tuple[int, int]:
    """Peak resident memory, in bytes, of a child process that runs
    `hierpose train` once over `count` tiny3 images, each with its own copy
    of one noisy 96x96 map file, and the size of that file.  Noise lights
    every atomic row, so the file stores them all.  The child reads the peak
    of its own address space (`VmHWM`): Linux's `ru_maxrss` would also count
    the resident set of the test process it was started from."""
    status = Path("/proc/self/status")
    if "VmHWM:" not in (status.read_text() if status.exists() else ""):
        pytest.skip("no VmHWM in /proc/self/status")
    tmp_path.mkdir()
    (tmp_path / "hierarchy.json").write_text(json.dumps(tiny3_doc()))
    hierarchy = load_hierarchy(tmp_path / "hierarchy.json")
    annotations = annotations_tiny3(count)
    library, _ = library_for(hierarchy, annotations[:5])
    maps = tmp_path / "maps"
    maps.mkdir()
    scene = make_scene(library, hierarchy, seed=0, grid=(96, 96), noise=0.01)
    save_score_maps(scene.stack, maps / "one.hpsm")
    for ann in annotations:
        ann.size = (24, 24)
        shutil.copy(maps / "one.hpsm", maps / f"{ann.image}.hpsm")
    save_annotations(annotations, hierarchy, tmp_path / "annotations.json")
    config = train_config(tmp_path, score_maps="maps")
    done = run_child(
        ["train", str(config)],
        after="print(next(line.split()[1] for line in open('/proc/self/status') "
              "if line.startswith('VmHWM:')))\n",
    )
    assert done.returncode == 0, done.stderr
    return int(done.stdout) * 1024, (maps / "one.hpsm").stat().st_size


@pytest.fixture(scope="module")
def train_peak(tmp_path_factory):
    """`train_peak_rss` of each image count, run once per module."""
    peaks = {}

    def peak(count):
        if count not in peaks:
            peaks[count] = train_peak_rss(tmp_path_factory.mktemp("train") / str(count), count)
        return peaks[count]
    return peak


@pytest.mark.parametrize("count, fewer", [(4, 2), (16, 4)], ids=["4", "16"])
def test_train_memory_is_one_stack_whatever_the_image_count(train_peak, count, fewer):
    """`train` holds one image's stack at a time, so 16 images peak within
    1 MB of 4 images, and 4 within 1 MB of 2.  The peak is that of a child
    process, since the tensors a load maps are not traced by tracemalloc;
    holding every stack would add a 2 MB map file per image."""
    peak_fewer, stack_bytes = train_peak(fewer)
    peak, _ = train_peak(count)
    assert stack_bytes > 1_900_000
    assert peak - peak_fewer < 1_000_000, (peak_fewer, peak)


def eval_config(workspace, metric, name, **overrides):
    doc = {
        "metric": metric,
        "hierarchy": "hierarchy.json",
        "predictions": "annotations.json",
        "ground_truth": "annotations.json",
        "format": "json",
        "output": f"out/{name}.report",
    }
    doc.update(overrides)
    path = workspace / f"{name}.json"
    path.write_text(json.dumps(doc))
    return path


def test_eval_pcp_perfect(workspace):
    config = eval_config(
        workspace, "pcp_segments", "pcp",
        segments=[{"name": "upper", "a": "la", "b": "lb"},
                  {"name": "lower", "a": "rb", "b": "rc"}],
        format="json",
    )
    assert main(["eval", str(config)]) == 0
    report = json.loads((workspace / "out" / "pcp.report").read_text())
    assert report["aggregate"] == 1.0


def test_eval_pdj_rows(workspace):
    thresholds = [0.05, 0.1, 0.2, 0.5]
    config = eval_config(
        workspace, "pdj", "pdj", thresholds=thresholds, format="csv"
    )
    assert main(["eval", str(config)]) == 0
    lines = (workspace / "out" / "pdj.report").read_text().strip().splitlines()
    assert len(lines) == 1 + len(thresholds) + 1  # header + rows + aggregate


def test_eval_byte_stable(workspace):
    config = eval_config(
        workspace, "pcp_radius", "radius",
        sigmas={n: 2.0 for n in ("la", "lb", "lc", "ra", "rb", "rc")},
        factor=1.5, format="csv",
    )
    assert main(["eval", str(config)]) == 0
    first = (workspace / "out" / "radius.report").read_bytes()
    assert main(["eval", str(config)]) == 0
    assert (workspace / "out" / "radius.report").read_bytes() == first


def test_eval_pcp_radius_scores_visible_parts_only(workspace):
    """`pcp_radius` reads the ground truth's `visible` flags: a part marked
    occluded is not scored, however far its prediction lies, and a record
    without flags is all visible."""
    truth = json.loads((workspace / "annotations.json").read_text())[:2]
    truth[0]["visible"] = {"la": False}
    preds = json.loads(json.dumps(truth))
    del preds[0]["visible"]
    preds[0]["parts"]["la"][0] += 50.0
    (workspace / "truth.json").write_text(json.dumps(truth))
    (workspace / "preds.json").write_text(json.dumps(preds))
    config = eval_config(workspace, "pcp_radius", "visible", sigmas=SIGMAS, factor=1.5,
                         predictions="preds.json", ground_truth="truth.json")
    assert main(["eval", str(config)]) == 0
    report = json.loads((workspace / "out" / "visible.report").read_text())
    assert report["labels"][0] == "la"
    assert report["rates"] == [1.0] * 6
    assert report["aggregate"] == 1.0


def test_eval_mismatched_sets_exit_1(workspace):
    other = workspace / "other.json"
    records = json.loads((workspace / "annotations.json").read_text())[:2]
    other.write_text(json.dumps(records))
    config = eval_config(
        workspace, "pdj", "mismatch", thresholds=[0.1], predictions="other.json"
    )
    assert main(["eval", str(config)]) == 1


@pytest.mark.parametrize("key", ["predictions", "ground_truth"])
def test_eval_repeated_image_exit_1_names_file_and_image(workspace, capsys, key):
    """Predictions [x, x] against ground truth [x] scored one sample, taken
    from the last x, and exited 0."""
    records = json.loads((workspace / "annotations.json").read_text())
    (workspace / "twice.json").write_text(json.dumps(records + records[:1]))
    config = eval_config(workspace, "pdj", "repeated", thresholds=[0.1], **{key: "twice.json"})
    assert main(["eval", str(config)]) == 1
    assert_rejected(capsys, f"{key} file repeats image {records[0]['image']!r}")
    assert not (workspace / "out" / "repeated.report").exists()


SIGMAS = {name: 2.0 for name in ("la", "lb", "lc", "ra", "rb", "rc")}
SEGMENTS = [{"name": "upper", "a": "la", "b": "lb"}]


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"metric": "bogus", "thresholds": [0.1]}, "unknown metric 'bogus'"),
        ({"metric": "pcp_segments", "sigmas": SIGMAS}, "pcp_segments needs a 'segments' list"),
        ({"metric": "pcp_radius"}, "pcp_radius needs a 'sigmas' map"),
        ({"metric": "pdj", "sigmas": SIGMAS}, "pdj needs a 'thresholds' list"),
        ({"metric": "pdj", "thresholds": [0.1], "format": "xml"}, "unknown report format 'xml'"),
        ({"metric": "pdj", "thresholds": [0.1], "normalizer": "bogus"},
         "unknown normalizer 'bogus'"),
        ({"metric": "pcp_segments", "segments": SEGMENTS, "normalizer": "bogus"},
         "pcp_segments does not read 'normalizer'"),
        ({"metric": "pcp_segments", "segments": SEGMENTS, "thresholds": [0.1]},
         "pcp_segments does not read 'thresholds'"),
        ({"metric": "pcp_segments", "segments": SEGMENTS, "sigmas": SIGMAS},
         "pcp_segments does not read 'sigmas'"),
        ({"metric": "pcp_segments", "segments": SEGMENTS, "factor": 1.5},
         "pcp_segments does not read 'factor'"),
        ({"metric": "pdj", "thresholds": [0.1], "segments": SEGMENTS},
         "pdj does not read 'segments'"),
        ({"metric": "pdj", "thresholds": [0.1], "factor": 1.5}, "pdj does not read 'factor'"),
        ({"metric": "pcp_radius", "sigmas": SIGMAS, "thresholds": [0.1]},
         "pcp_radius does not read 'thresholds'"),
        ({"metric": "pcp_radius", "sigmas": SIGMAS, "factor": 1.5, "segments": SEGMENTS,
          "normalizer": "bogus"}, "pcp_radius does not read 'normalizer'"),
    ],
    ids=["metric", "segments", "sigmas", "thresholds", "format", "normalizer",
         "segments-normalizer", "segments-thresholds", "segments-sigmas", "segments-factor",
         "pdj-segments", "pdj-factor", "radius-thresholds", "radius-first-unread"],
)
def test_eval_bad_config_exits_1_before_any_file_is_read(workspace, capsys, overrides, message):
    """Each value is checked as soon as the config is read: the inputs it
    names do not exist here, and no output directory is made.  A bad format
    used to be found only when the report was written, after every input
    was read and the metric computed, and left the output's directories
    behind.  Each metric reads only its own keys (`pcp_segments` its
    segments, `pcp_radius` its sigmas and factor, `pdj` its thresholds and
    normalizer); a key of another metric used to be ignored, and the run
    exited 0 with a report.  The first such key is named."""
    doc = {"hierarchy": "absent.json", "output": "reports/deep/out.txt", **overrides}
    config = eval_config(workspace, doc.pop("metric"), "bad_config", **doc)
    assert main(["eval", str(config)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (workspace / "reports").exists()


@pytest.mark.parametrize(
    "metric, overrides, message",
    [
        ("pcp_radius", {"sigmas": SIGMAS, "factor": None},
         "config 'factor' must be a JSON number"),
        ("pcp_radius", {"sigmas": [2.0] * 5 + ["2"]}, "config 'sigmas' 5 must be a JSON number"),
        ("pcp_radius", {"sigmas": dict(SIGMAS, la=None)}, "sigmas 'la' must be a JSON number"),
        ("pdj", {"thresholds": [0.1, None]}, "config 'thresholds' 1 must be a JSON number"),
        ("pdj", {"thresholds": 0.1}, "config 'thresholds' must be a JSON list"),
        ("pdj", {"thresholds": [0.1], "normalizer": [10.0]},
         "config 'normalizer' must be a JSON number"),
    ],
)
def test_eval_real_fields_must_be_json_numbers(workspace, capsys, metric, overrides, message):
    config = eval_config(workspace, metric, "bad_eval", **overrides)
    assert main(["eval", str(config)]) == 1
    assert_rejected(capsys, message)
    assert not (workspace / "out").exists()


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "metric, overrides, cli_message, library_message",
    [
        ("pcp_radius", {"sigmas": [NAN] * 6}, "config holds NaN", "sigmas must be finite"),
        ("pcp_radius", {"sigmas": dict(SIGMAS, la=INF)}, "config holds Infinity",
         "sigmas must be finite"),
        ("pcp_radius", {"factor": NAN}, "config holds NaN", "factor must be finite"),
        ("pcp_radius", {"factor": -INF}, "config holds -Infinity", "factor must be finite"),
        ("pcp_radius", {"factor": -1.0}, "factor must be finite and positive, got -1.0",
         "factor must be finite and positive"),
        ("pdj", {"normalizer": NAN}, "config holds NaN", "normalizers must be finite"),
        ("pdj", {"thresholds": [0.1, NAN]}, "config holds NaN", "thresholds must be finite"),
    ],
    ids=["nan-sigmas", "inf-sigma", "nan-factor", "-inf-factor", "negative-factor",
         "nan-normalizer", "nan-threshold"],
)
def test_eval_rejects_non_finite_metric_parameters(
    shared_workspace, capsys, metric, overrides, cli_message, library_message
):
    """A config written by Python's `json.dump`, which writes NaN and
    Infinity, exits 1 without a report; the metric functions reject the same
    values, and a factor <= 0, with ValueError."""
    doc = {"sigmas": SIGMAS, "factor": 1.5} if metric == "pcp_radius" else {"thresholds": [0.1]}
    doc.update(overrides)
    config = eval_config(shared_workspace, metric, "non_finite", **doc)
    assert main(["eval", str(config)]) == 1
    assert_rejected(capsys, cli_message)
    assert not (shared_workspace / "out" / "non_finite.report").exists()

    gts = np.random.default_rng(0).random((3, 6, 2)) * 20
    preds = gts + 0.5
    with pytest.raises(ValueError, match=library_message):
        if metric == "pcp_radius":
            pcp_radius(preds, gts, doc["sigmas"], doc["factor"], part_names=tuple(SIGMAS))
        else:
            pdj_curve(preds, gts, doc.get("normalizer", 10.0), doc["thresholds"])


def score_config(workspace, **overrides):
    doc = {
        "hierarchy": "hierarchy.json",
        "libraries": "library.hpel",
        "weights": "weights.json",
        "score_maps": "scenes/scene_0/maps.hpsm",
        "pose": "scenes/scene_0/annotation.json",
    }
    doc.update(overrides)
    path = workspace / "score.json"
    path.write_text(json.dumps(doc))
    return path


def test_score_prints_totals(workspace, capsys):
    config = score_config(workspace)
    assert main(["score", str(config)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1
    name, value = out[0].split("\t")
    float(value)


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for command in ("infer", "train", "eval", "synth", "score"):
        assert command in text


def test_unknown_flag_fails_fast(workspace):
    config = infer_config(workspace, name="flags.json")
    with pytest.raises(SystemExit) as exc:
        main(["infer", str(config), "--bogus"])
    assert exc.value.code != 0


def test_infer_no_solution_exit_2(workspace, tiny3):
    import numpy as np

    from hierpose.appearance import ScaleMaps, ScoreMapStack, save_score_maps
    from hierpose.learning import load_library

    library = load_library(workspace / "library.hpel", tiny3)
    table = [(0, 0)] + [
        (p, m) for p in tiny3.atomic_ids for m in range(1, library.atomic_bins[p] + 1)
    ]
    atomic = np.full((len(table), 12, 12), 1.0 / len(table), dtype=np.float32)
    composite = {
        part: np.full((bins, 12, 12), 1.0 / bins, dtype=np.float32)
        for part, bins in library.composite_bins.items()
    }
    flat = ScoreMapStack([ScaleMaps(1.0, np.array(table, np.uint32), atomic, composite)])
    save_score_maps(flat, workspace / "flat.hpsm")
    config = infer_config(workspace, name="flat.json", score_maps="flat.hpsm")
    assert main(["infer", str(config)]) == 2


def test_infer_stack_with_fewer_types_exit_1(workspace, tiny3, capsys):
    """A stack with fewer atomic types than the library labels is a model
    mismatch: `infer` exits 1 before the search, naming the part, the type
    and the scale, in every mode."""
    import numpy as np

    from hierpose.appearance import ScaleMaps, ScoreMapStack, save_score_maps

    stack = load_score_maps(workspace / "scenes" / "scene_0" / "maps.hpsm")
    maps = stack.scales[0]
    keep = maps.channel_table[:, 1] <= 1
    atomic = maps.atomic[keep] / maps.atomic[keep].sum(axis=0)
    save_score_maps(
        ScoreMapStack([ScaleMaps(1.0, maps.channel_table[keep], atomic, maps.composite)]),
        workspace / "fewer.hpsm",
    )
    config = infer_config(workspace, name="fewer.json", score_maps="fewer.hpsm")
    for mode in ("full", "partial", "no-hier"):
        assert main(["infer", str(config), "--mode", mode]) == 1
        err = capsys.readouterr().err
        assert re.search(r"no channel for part \d+, type \d+ at scale 1\.0", err)


def test_train_library_with_more_types_than_the_stack_exit_1(workspace, capsys):
    """`train` checks each stack against the model when it loads it: a type
    model with more atomic bins than the score maps hold exits 1."""
    types = {"atomic_bins": 24, "composite_bins": 2, "seed": 0}
    config = train_config(workspace, name="more_bins.json", type_model=types)
    assert main(["train", str(config)]) == 1
    err = capsys.readouterr().err
    assert re.search(r"no channel for part \d+, type \d+ at scale 1\.0", err)
    assert not (workspace / "out" / "trained.json").exists()


def test_score_matches_total_score_per_pose(shared_workspace, capsys):
    """`score` takes every pose's features from one feature pass and prints
    the same bytes as `total_score` of each pose; no poses print nothing."""
    config = score_config(shared_workspace, pose="annotations.json")
    assert main(["score", str(config)]) == 0
    hierarchy = load_hierarchy(shared_workspace / "hierarchy.json")
    library = load_library(shared_workspace / "library.hpel", hierarchy)
    weights = load_weights(shared_workspace / "weights.json", hierarchy)
    stack = load_score_maps(shared_workspace / "scenes" / "scene_0" / "maps.hpsm")
    poses = load_annotations(shared_workspace / "annotations.json", hierarchy)
    assert len(poses) == 4
    expected = "".join(
        f"{ann.image}\t{total_score(ann.points, stack, hierarchy, library, weights, DEFAULT_MAX_ANGLE)!r}\n"
        for ann in poses
    )
    assert capsys.readouterr().out == expected

    (shared_workspace / "no_poses.json").write_text("[]")
    assert main(["score", str(score_config(shared_workspace, pose="no_poses.json"))]) == 0
    assert capsys.readouterr().out == ""


# -- malformed JSON inputs ----------------------------------------------------


def assert_one_error_line(capsys):
    """The command exited 1 (checked by the caller) with exactly one `error:`
    line on stderr and nothing on stdout."""
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("grid", [None, [48.0, 48]])
def test_synth_grid_must_be_two_json_integers(shared_workspace, capsys, grid):
    """A null grid ended in a TypeError traceback, and a float entry was accepted."""
    path, _ = synth_config(shared_workspace, grid=grid)
    assert main(["synth", str(path)]) == 1
    assert_one_error_line(capsys)
    assert not (shared_workspace / "bad_scenes").exists()


def test_eval_segment_must_be_an_object(shared_workspace, capsys):
    """A segment written as `1` ended in a TypeError traceback."""
    config = eval_config(shared_workspace, "pcp_segments", "bad_segments", segments=[1])
    assert main(["eval", str(config)]) == 1
    assert_one_error_line(capsys)
    assert not (shared_workspace / "out" / "bad_segments.report").exists()


def test_eval_normalizer_missing_an_image_names_field_and_image(shared_workspace, capsys):
    """A normalizer map without an evaluated image printed `error: 'img1'`."""
    normalizer = {"img0": 1.0, "img2": 1.0, "img3": 1.0}
    config = eval_config(shared_workspace, "pdj", "short_normalizer", thresholds=[0.1],
                         normalizer=normalizer)
    assert main(["eval", str(config)]) == 1
    err = capsys.readouterr().err
    assert err == "error: config 'normalizer' has no entry for image 'img1'\n"
    assert not (shared_workspace / "out" / "short_normalizer.report").exists()


def test_key_error_prints_its_message_without_repr_quotes(shared_workspace, capsys):
    config = eval_config(shared_workspace, "pcp_segments", "unknown_part",
                         segments=[{"name": "upper", "a": "la", "b": "zz"}])
    assert main(["eval", str(config)]) == 1
    assert capsys.readouterr().err == "error: unknown part name 'zz'\n"


def test_composite_segment_endpoint_is_named_not_atomic(shared_workspace, capsys):
    config = eval_config(shared_workspace, "pcp_segments", "composite_part",
                         segments=[{"name": "upper", "a": "la", "b": "left"}])
    assert main(["eval", str(config)]) == 1
    assert capsys.readouterr().err == "error: node 10 is not atomic\n"


def replaced(doc, path, value):
    """A copy of `doc` with the value at `path` (keys and list indices)
    replaced by `value`, or added under the last key."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    functools.reduce(operator.getitem, path[:-1], doc)[path[-1]] = value
    return doc


# Each of these ended in a TypeError or AttributeError traceback, or loaded
# silently with a wrong or converted value.
BAD_HIERARCHIES = [
    (("nodes",), 5),
    (("nodes", 0), 5),
    (("nodes", 6, "anchor"), 5),
    (("nodes", 6, "children"), 5),
    (("scale",), 5),
    (("scale", "reference_length"), None),
    (("scale", "level_factors"), 5),
    (("nodes", 0, "id"), 1.5),
    (("nodes", 0, "id"), True),
    (("levels",), 3.7),
    (("nodes", 1, "name"), None),
    (("scale", "reference_length"), math.inf),  # written as 1e400, which overflows
    (("scale", "level_factors", 0), -math.inf),
    (("nodes", 6, "anchor"), {"1": 1.0}),  # a part id, not a part name
]
BAD_WEIGHTS = [
    (("atomic",), 5),
    (("bias",), None),
    ((), []),
    (("bias",), "1"),
    (("atomic", "la"), "2"),
    (("atomic", "no_such_part"), 1.0),
]
BAD_ANNOTATIONS = [
    ((0,), 5),
    ((0, "parts"), 5),
    ((0, "size"), 5),
    ((0, "visible"), 5),
    ((0, "parts", "la"), 5),
    ((0, "parts", "la"), [1]),
]


def write_json(workspace, name, doc):
    (workspace / name).write_text(overflowing_json(doc))
    return workspace / name


@pytest.mark.parametrize("path, value", BAD_HIERARCHIES)
def test_malformed_hierarchy_rejected(shared_workspace, capsys, path, value):
    doc = replaced(tiny3_doc(), path, value)
    with pytest.raises(HierarchyError):
        load_hierarchy(doc)
    write_json(shared_workspace, "bad_hierarchy.json", doc)
    config = eval_config(shared_workspace, "pdj", "bad_input", thresholds=[0.1],
                         hierarchy="bad_hierarchy.json")
    assert main(["eval", str(config)]) == 1
    assert_one_error_line(capsys)


@pytest.mark.parametrize("path, value", BAD_WEIGHTS)
def test_malformed_weights_rejected(shared_workspace, capsys, path, value):
    doc = replaced(json.loads((shared_workspace / "weights.json").read_text()), path, value)
    bad = write_json(shared_workspace, "bad_weights.json", doc)
    with pytest.raises(ValueError):
        load_weights(bad, load_hierarchy(shared_workspace / "hierarchy.json"))
    assert main(["score", str(score_config(shared_workspace, weights="bad_weights.json"))]) == 1
    assert_one_error_line(capsys)


@pytest.mark.parametrize("path, value", BAD_ANNOTATIONS)
def test_malformed_annotations_rejected(shared_workspace, capsys, path, value):
    doc = replaced(json.loads((shared_workspace / "annotations.json").read_text()), path, value)
    bad = write_json(shared_workspace, "bad_annotations.json", doc)
    with pytest.raises(ValueError):
        load_annotations(bad, load_hierarchy(shared_workspace / "hierarchy.json"))
    config = eval_config(shared_workspace, "pdj", "bad_input", thresholds=[0.1],
                         predictions="bad_annotations.json")
    assert main(["eval", str(config)]) == 1
    assert_one_error_line(capsys)


# One value of each JSON type; a property replaces one value of a valid
# document with one of these of another type.
JSON_VALUES = [None, False, "x", 0, 2.5, [], [1], {}, {"a": 1}]


def json_type(value):
    return "number" if type(value) in (int, float) else type(value).__name__


def value_paths(value, path=()):
    """The path of `value` and of every value inside it."""
    yield path
    if isinstance(value, (dict, list)):
        for key, inner in value.items() if isinstance(value, dict) else enumerate(value):
            yield from value_paths(inner, path + (key,))


def retyped(data, doc):
    path = data.draw(st.sampled_from(list(value_paths(doc))), label="path")
    old = functools.reduce(operator.getitem, path, doc)
    others = [v for v in JSON_VALUES if json_type(v) != json_type(old)]
    return replaced(doc, path, data.draw(st.sampled_from(others), label="value"))


LOADERS = {
    "hierarchy.json": (HierarchyError, lambda path, hierarchy: load_hierarchy(path)),
    "weights.json": (ValueError, load_weights),
    "annotations.json": (ValueError, load_annotations),
}


@pytest.mark.parametrize("name", sorted(LOADERS))
@settings(max_examples=150)
@given(data=st.data())
def test_retyped_input_raises_the_typed_error_or_loads(shared_workspace, name, data):
    error, load = LOADERS[name]
    doc = retyped(data, json.loads((shared_workspace / name).read_text()))
    path = write_json(shared_workspace, f"retyped_{name}", doc)
    try:
        load(path, load_hierarchy(shared_workspace / "hierarchy.json"))
    except error:
        pass


# A valid config of each command with every optional key set and small
# budgets, writing under `prop/`.
FULL_CONFIGS = {
    "infer": {
        "hierarchy": "hierarchy.json", "libraries": "library.hpel", "weights": "weights.json",
        "score_maps": "scenes/scene_0/maps.hpsm", "mode": "full", "image": "scene",
        "params": {"z": 20, "samples_per_level": 100, "seed": 7, "max_angle": 1.0,
                   "compatibility_tolerance": 0.1, "nms_radius": 2.0, "dedup_radius": 2.0,
                   "search_radius_fraction": 0.15},
        "output": {"pose": "prop/pose.json", "diagnostics": "prop/diag.jsonl"},
    },
    "train": {
        "hierarchy": "hierarchy.json", "annotations": "annotations.json",
        "score_maps": "scenes/scene_0/maps.hpsm", "max_angle": 1.0,
        "type_model": {"atomic_bins": 8, "composite_bins": 2, "seed": 0},
        "augment": {"jitter_fraction": 0.03, "copies": 1, "seed": 1},
        "negatives": {"per_positive": 1, "noise_sigma": None, "seed": 2},
        "train": {"c": 5.0, "epochs": 5, "seed": 3, "holdout_fraction": 0.25},
        "output": {"weights": "prop/weights.json", "log": "prop/log.json",
                   "libraries": "prop/library.hpel"},
    },
    "eval": {
        "metric": "pdj", "hierarchy": "hierarchy.json", "predictions": "annotations.json",
        "ground_truth": "annotations.json", "format": "csv", "output": "prop/eval.csv",
        "segments": [{"name": "upper", "a": "la", "b": "lb"}], "sigmas": SIGMAS,
        "factor": 1.5, "thresholds": [0.1, 0.2], "normalizer": "gt_box_mean_side",
    },
    "synth": {
        "hierarchy": "hierarchy.json", "annotations": "annotations.json",
        "type_model": {"atomic_bins": 8, "composite_bins": 2, "seed": 0},
        "scenes": {"seeds": [0], "grid": [48, 48], "mix": False, "snap": True, "sigma": 1.5,
                   "amplitude": 0.8, "noise": 0.0, "distractors": 1, "margin": 0.12,
                   "max_rotation": 0.15, "scales": [1.0]},
        "output_dir": "prop/scenes",
    },
    "score": {
        "hierarchy": "hierarchy.json", "libraries": "library.hpel", "weights": "weights.json",
        "score_maps": "scenes/scene_0/maps.hpsm", "pose": "annotations.json", "max_angle": 1.0,
    },
}


@pytest.mark.parametrize("command", sorted(FULL_CONFIGS))
@settings(max_examples=150)
@given(data=st.data())
def test_retyped_config_runs_or_exits_1_with_one_error_line(shared_workspace, command, data):
    config = write_json(shared_workspace, "retyped.json", retyped(data, FULL_CONFIGS[command]))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([command, str(config)])
    message = err.getvalue()
    assert (code, message) == (0, "") or (
        code == 1 and message.startswith("error: ") and message.count("\n") == 1
    ), (code, message)
