"""Smoke checks of the shipped entry points: each demo runs to exit 0,
every name a module exports resolves, numpy is the one runtime
dependency, the format notes name every diagnostics key and each binary
container's version,
`HypothesisSet.take`/`concat` carry every per-row field, one function picks
every stored scale and no angle bound defaults to None, one method builds
the marginal table, `PartHierarchy` alone builds a subtree's pose columns,
`infer` drops exact copies in one place and fits each
(part, subtree node) pair in one kernel call, `feature_matrix` fits
blocks of exemplars and looks each child geometry shape up once per stack,
`_log_pose_probs` makes one relation-type lookup per stored scale,
`geometry.child_points` alone knows the child geometry's layout,
`appearance._mapped_array` alone maps memory, never with huge pages, no
`ScoreMapStack` method defaults its scale index, and every composite map
is a plain array."""

import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import hierpose
from hierpose import (
    InferenceParams, WeightVector, appearance, infer, learning, load_hierarchy, scoring,
)
from hierpose.inference import _ROW_FIELDS, HypothesisSet
from hierpose.synth import make_scene

from conftest import CONFIG_DIR, annotations_tiny3, human_annotations, library_for, tiny3_doc

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_every_exported_name_resolves():
    modules = [hierpose] + [
        importlib.import_module(f"hierpose.{info.name}")
        for info in pkgutil.iter_modules(hierpose.__path__)
    ]
    checked = 0
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name}"
            checked += 1
    assert checked > 0


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group(0) for dep in project["dependencies"]]
    assert names == ["numpy"]


def test_library_imports_only_stdlib_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "hierpose"}
    imported = set()
    for path in sorted((ROOT / "src" / "hierpose").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert "numpy" in imported
    assert imported <= allowed, f"imports beyond the standard library: {imported - allowed}"


def test_json_is_parsed_only_by_the_checked_reader():
    """Every JSON document the library reads goes through `hierpose._json`,
    so no other module calls `json.load` or `json.loads`."""
    parsers = set()
    for path in sorted((ROOT / "src" / "hierpose").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            called = isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and (
                node.value.id == "json" and node.attr in ("load", "loads")
            )
            imported = isinstance(node, ast.ImportFrom) and node.module == "json" and any(
                alias.name in ("load", "loads") for alias in node.names
            )
            if called or imported:
                parsers.add(path.name)
    assert parsers == {"_json.py"}


def test_formats_doc_names_every_diagnostics_key():
    """Every key of the per-level and summary objects that `infer` writes to
    the diagnostics JSONL is named in `docs/formats.md`."""
    text = (ROOT / "docs" / "formats.md").read_text()
    section = text.split("## Inference diagnostics")[1].split("\n## ")[0]
    hierarchy = load_hierarchy(tiny3_doc())
    library, _ = library_for(hierarchy, annotations_tiny3(4))
    scene = make_scene(library, hierarchy, seed=0, grid=(48, 48))
    params = InferenceParams(z=4, samples_per_level=80, seed=0)
    result = infer(scene.stack, hierarchy, library, WeightVector.uniform(hierarchy), params)
    keys = {key for level in result.diagnostics["levels"] for key in level}
    keys |= set(result.diagnostics) - {"levels"}
    assert {"level", "scored", "final_score"} <= keys
    missing = sorted(key for key in keys if f"`{key}`" not in section)
    assert not missing, f"docs/formats.md does not name diagnostics keys {missing}"


@pytest.mark.parametrize("magic, version", [
    ("HPSM", appearance.FORMAT_VERSION), ("HPEL", learning.LIBRARY_VERSION),
])
def test_formats_doc_states_each_container_version(magic, version):
    """The layout block of each binary container in the format notes shows
    the version that the code writes and reads."""
    text = (ROOT / "docs" / "formats.md").read_text()
    block = re.search(rf'^magic +4 bytes +"{magic}"\nversion +u32 +(\d+)$', text, re.MULTILINE)
    assert block is not None, f"no {magic} layout block"
    assert int(block.group(1)) == version


def test_every_per_row_field_is_taken_and_concatenated():
    """A per-row array field missing from `_ROW_FIELDS` would be dropped or
    misaligned by `take` and `concat` without an error."""
    hierarchy = load_hierarchy(tiny3_doc())
    rows = 5  # unlike every other dimension of the set
    node = hierarchy.root
    locations = np.arange(rows * hierarchy.atomic_count * 2, dtype=float).reshape(rows, -1, 2)
    pose = np.zeros((rows, len(hierarchy.composite_nodes)), dtype=np.intp)
    hyps = HypothesisSet.build(node, locations, pose, np.ones(rows))
    per_row = {
        field.name for field in dataclasses.fields(hyps)
        if isinstance(getattr(hyps, field.name), np.ndarray)
        and len(getattr(hyps, field.name)) == rows
    }
    assert per_row == set(_ROW_FIELDS)
    for out in (hyps.take([3, 1]), hyps.concat(hyps.take([2]))):
        assert all(len(getattr(out, name)) == len(out.score) for name in per_row)


SCALE_STEPS = {"factor_from_size", "nearest_scale_indices"}


def _called_name(call: ast.Call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def test_one_scale_rule_and_no_none_angle_bound():
    """`scoring.scale_indices` is the one rule that turns object sizes into
    stored scale indices: the library calls `factor_from_size` and
    `nearest_scale_indices` nowhere else.  And no parameter named `bound`
    defaults to None: every angle bound is a float."""
    scale_calls, in_rule, none_bounds = set(), set(), []
    for path in sorted((ROOT / "src" / "hierpose").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and _called_name(node) in SCALE_STEPS:
                scale_calls.add((path.name, node.lineno, node.col_offset, _called_name(node)))
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if (path.name, node.name) == ("scoring.py", "scale_indices"):
                in_rule |= {
                    (path.name, call.lineno, call.col_offset, _called_name(call))
                    for call in ast.walk(node)
                    if isinstance(call, ast.Call) and _called_name(call) in SCALE_STEPS
                }
            args = node.args
            positional = args.posonlyargs + args.args
            defaults = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
            defaults += list(zip(args.kwonlyargs, args.kw_defaults))
            none_bounds += [
                f"{path.name}:{node.name}" for arg, default in defaults
                if arg.arg == "bound"
                and isinstance(default, ast.Constant) and default.value is None
            ]
    assert {call[3] for call in in_rule} == SCALE_STEPS
    assert scale_calls == in_rule, f"scale picked outside scale_indices: {scale_calls - in_rule}"
    assert not none_bounds, f"angle bounds that default to None: {none_bounds}"


MARGINAL_CACHES = {"_marginal_tables", "_part_tables"}


def test_one_marginal_table():
    """`ScoreMapStack.marginal` is the one place that sums a part's channels
    into maps (`_channel_sum`), and no module but `appearance` names the
    stack's marginal or part tables, so the marginal keeps one form."""
    sums, in_rule, outside = set(), set(), []
    for path in sorted((ROOT / "src" / "hierpose").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and _called_name(node) == "_channel_sum":
                sums.add((path.name, node.lineno, node.col_offset))
            if (path.name, getattr(node, "name", None)) == ("appearance.py", "ScoreMapStack"):
                in_rule |= {
                    (path.name, call.lineno, call.col_offset)
                    for method in node.body if getattr(method, "name", None) == "marginal"
                    for call in ast.walk(method)
                    if isinstance(call, ast.Call) and _called_name(call) == "_channel_sum"
                }
            names = {getattr(node, field, None) for field in ("attr", "id")} & MARGINAL_CACHES
            if path.name != "appearance.py" and names:
                outside.append(f"{path.name}:{node.lineno} {names.pop()}")
    assert len(in_rule) == 1
    assert sums == in_rule, f"channels summed outside ScoreMapStack.marginal: {sums - in_rule}"
    assert not outside, f"marginal caches named outside appearance: {outside}"


COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)


def test_one_owner_of_subtree_columns():
    """`PartHierarchy` builds each subtree's pose columns once
    (`subtree_columns`): outside `hierarchy.py` no comprehension iterates
    `composites_below(...)` and calls `composite_index`."""
    def calls(tree, name):
        return any(
            isinstance(node, ast.Call) and _called_name(node) == name for node in ast.walk(tree)
        )

    rebuilds = []
    for path in sorted((ROOT / "src" / "hierpose").rglob("*.py")):
        if path.name == "hierarchy.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, COMPREHENSIONS)
                and any(calls(gen.iter, "composites_below") for gen in node.generators)
                and calls(node, "composite_index")
            ):
                rebuilds.append(f"{path.name}:{node.lineno}")
    assert not rebuilds, f"subtree pose columns rebuilt outside PartHierarchy: {rebuilds}"


def _stride_sites(tree) -> list[int]:
    """Lines of indices (subscripts and `slice(...)` calls) that step by 3
    or multiply by 3, a literal or a name assigned from an expression that
    holds one: the per-child stride of a flat child geometry."""
    def three(node):
        return isinstance(node, ast.Constant) and type(node.value) is int and node.value == 3

    def stride(part):
        if isinstance(part, ast.Slice):
            return part.step is not None and three(part.step)
        return isinstance(part, ast.BinOp) and isinstance(part.op, ast.Mult) and any(
            three(side) or (isinstance(side, ast.Name) and side.id in bound)
            for side in (part.left, part.right)
        )

    bound = {
        target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
        and any(three(part) for part in ast.walk(node.value))
        for target in node.targets if isinstance(target, ast.Name)
    }
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript):
            indices = [node.slice]
        elif isinstance(node, ast.Call) and _called_name(node) == "slice":
            indices = node.args
        else:
            continue
        if any(stride(part) for index in indices for part in ast.walk(index)):
            sites.append(node.lineno)
    return sites


def test_one_owner_of_the_child_geometry_layout():
    """`geometry.child_points` alone knows how many points each child has:
    the stored child geometry is (E, n, S, 2), so outside `geometry.py` no
    subscript steps by 3 or multiplies by 3 to find a child's points, and
    no module names `child_signature` or `ExemplarArrays`."""
    strides, names = [], []
    for path in sorted((ROOT / "src" / "hierpose").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        names += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if {getattr(node, key, None) for key in ("id", "attr", "name")}
            & {"child_signature", "ExemplarArrays"}
        ]
        if path.name != "geometry.py":
            strides += [f"{path.name}:{line}" for line in _stride_sites(tree)]
    assert not strides, f"child geometry indexed by a stride of 3: {strides}"
    assert not names, f"child kinds recorded outside the geometry's shape: {names}"


def test_one_memory_map_and_no_huge_pages():
    """`appearance._mapped_array` is the one place under `src/` that maps
    memory or advises the kernel on it, so every rendered or loaded tensor
    leaves the rows it never writes uncommitted; and no file asks for huge
    pages, which would commit 2 MB around each written row."""
    sites, huge = [], []
    for path in sorted((ROOT / "src" / "hierpose").rglob("*.py")):
        text = path.read_text()
        huge += [path.name] if "MADV_HUGEPAGE" in text else []
        for top in ast.parse(text, str(path)).body:
            sites += [
                (path.name, getattr(top, "name", None), node.lineno) for node in ast.walk(top)
                if isinstance(node, ast.Call) and _called_name(node) in {"mmap", "madvise", "memmap"}
            ]
    assert not huge, f"huge pages asked for in {huge}"
    assert sites and {site[:2] for site in sites} == {("appearance.py", "_mapped_array")}, sites


def test_no_default_scale_index_and_composite_maps_are_arrays(tmp_path):
    """No public `ScoreMapStack` method defaults `scale_index`, so a caller
    cannot read scale 0 by leaving the index out; and every
    `ScaleMaps.composite` value is a contiguous float32 `np.ndarray`,
    whether rendered, loaded or built from a nested list."""
    takes, defaulted = set(), []
    for name, method in vars(appearance.ScoreMapStack).items():
        if name.startswith("_") or not inspect.isfunction(method):
            continue
        param = inspect.signature(method).parameters.get("scale_index")
        if param is not None:
            takes.add(name)
            defaulted += [name] if param.default is not inspect.Parameter.empty else []
    assert {"channel_rows", "marginal", "marginals_at"} <= takes
    assert not defaulted, f"ScoreMapStack methods that default scale_index: {defaulted}"

    hierarchy = load_hierarchy(tiny3_doc())
    library, _ = library_for(hierarchy, annotations_tiny3(4))
    rendered = make_scene(library, hierarchy, seed=0, grid=(16, 16), scales=(1.0, 2.0)).stack
    appearance.save_score_maps(rendered, tmp_path / "maps.hpsm")
    loaded = appearance.load_score_maps(tmp_path / "maps.hpsm")
    table = np.array([(0, 0), (1, 1)], dtype=np.uint32)
    built = appearance.ScaleMaps(1.0, table, np.full((2, 2, 2), 0.5), {7: [[[1.0, 1.0]] * 2]})
    scales = [*rendered.scales, *loaded.scales, built]
    assert all(maps.composite for maps in scales)
    for maps in scales:
        for data in maps.composite.values():
            assert isinstance(data, np.ndarray)
            assert data.dtype == np.float32 and data.flags.c_contiguous


def test_one_copy_pass():
    """`_drop_copies` is called from one place under `src/`, in `infer`, so
    exact copies are dropped once per level and the prune removes the
    copies a swap makes."""
    def drops(tree):
        return [
            node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _called_name(node) == "_drop_copies"
        ]

    sites, in_infer = [], []
    for path in sorted((ROOT / "src" / "hierpose").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        sites += [(path.name, line) for line in drops(tree)]
        in_infer += [
            (path.name, line) for node in tree.body
            if (path.name, getattr(node, "name", None)) == ("inference.py", "infer")
            for line in drops(node)
        ]
    assert len(sites) == 1 and sites == in_infer, f"copy passes: {sites}"


@pytest.mark.parametrize(
    "doc, annotations, grid, calls",
    [
        (tiny3_doc(), annotations_tiny3(4), (48, 48), 3),
        (CONFIG_DIR / "human_hierarchy.json", human_annotations(4), (96, 96), 11),
    ],
    ids=["tiny3", "human"],
)
def test_infer_calls_the_kernel_once_per_stage_level_and_signature(doc, annotations, grid, calls):
    """On one stored scale a full `infer` calls `scoring.pose_terms` once per
    (stage, level, child geometry shape): from level 3 up, once per shape
    of the children's subtree nodes before the swap, and at every level once
    per shape of the level's own nodes after it, with the nodes of all
    parts that share a shape in one call.  A pass that splits a shape, or
    fits a node twice, fails here; so does a level whose
    `kernel_calls` disagrees with the calls made."""
    hierarchy = load_hierarchy(doc)
    library, _ = library_for(hierarchy, annotations)
    scene = make_scene(library, hierarchy, seed=0, grid=grid)
    expected = []
    for level in range(2, hierarchy.levels + 1):
        nodes = hierarchy.nodes_at_level(level)
        below = [
            c for node in nodes for part in node.children for c in hierarchy.composites_below(part)
        ]
        for stage in (below, [node.id for node in nodes]):
            shapes = {}
            for node in stage:
                shapes.setdefault(library.geometry[node].shape[1:], []).append(node)
            expected += [(level, sorted(group)) for group in shapes.values()]
    assert len(expected) == calls
    kernel, made = scoring.pose_terms, []

    def counted(locations, nodes, *args, **kwargs):
        made.append(sorted(set(np.broadcast_to(nodes, len(locations)).tolist())))
        return kernel(locations, nodes, *args, **kwargs)

    params = InferenceParams(z=4, samples_per_level=80, seed=0)
    with mock.patch.object(scoring, "pose_terms", counted):
        result = infer(scene.stack, hierarchy, library, WeightVector.uniform(hierarchy), params)
    assert sorted(made) == sorted(group for _, group in expected)
    per_level = [level.get("kernel_calls") for level in result.diagnostics["levels"]]
    assert per_level == [None] + [
        sum(level == at for at, _ in expected) for level in range(2, hierarchy.levels + 1)
    ]


@pytest.mark.parametrize("rows, budget", [(30, 1024), (30, 64), (700, 1024), (1100, 1024)])
def test_feature_matrix_calls_per_node_and_per_signature_and_stack(rows, budget):
    """On the human model with three stacks, `feature_matrix` makes
    ceil(E / max(1, budget // S)) bounded fits per composite node and one
    `_log_pose_probs` call per (child geometry shape, stack), 4 per stack,
    each with every node of the shape as one run."""
    hierarchy = load_hierarchy(CONFIG_DIR / "human_hierarchy.json")
    annotations = human_annotations(12)
    library, _ = library_for(hierarchy, annotations)
    stacks = [make_scene(library, hierarchy, seed=seed, grid=(96, 96)).stack for seed in (0, 1, 2)]
    rng = np.random.default_rng(0)
    X = np.stack([annotations[k].points for k in rng.integers(len(annotations), size=rows)])
    stack_index = np.arange(rows) % len(stacks)
    fit, lookup, fits, lookups = scoring.fit_least_squares_batch, scoring._log_pose_probs, [], []

    def counted_fit(*args, **kwargs):
        fits.append(1)
        return fit(*args, **kwargs)

    def counted_lookup(runs, labels, exemplar_index, current, size, stack, hierarchy):
        lookups.append((id(stack), current.shape[1:],
                        sorted(node for node, _ in runs)))
        return lookup(runs, labels, exemplar_index, current, size, stack, hierarchy)

    with mock.patch.object(scoring, "fit_least_squares_batch", counted_fit), \
            mock.patch.object(scoring, "_log_pose_probs", counted_lookup), \
            mock.patch.object(scoring, "_FIT_ROWS", budget):
        scoring.feature_matrix(X, stacks, stack_index, hierarchy, library)
    composites = [node.id for node in hierarchy.composite_nodes]
    blocks = -(-len(library.sources) // max(1, budget // rows))
    assert len(fits) == len(composites) * blocks
    shapes = {}
    for node in composites:
        shapes.setdefault(library.geometry[node].shape[1:], []).append(node)
    assert len(shapes) == 4
    assert sorted(lookups) == sorted(
        (id(stack), shape, nodes) for stack in stacks for shape, nodes in shapes.items()
    )


def test_three_scales_add_at_most_one_call_per_signature_and_level():
    """On a 0.7/1.0/1.4 human stack, a swapped row whose carried child terms
    were read at another stored scale recomputes them in the level's one
    scoring pass, beside the part's own node: each level makes no more
    kernel calls than on one stored scale plus one per child geometry shape
    of the nodes below it, and its `kernel_calls` counts the calls made."""
    hierarchy = load_hierarchy(CONFIG_DIR / "human_hierarchy.json")
    library, _ = library_for(hierarchy, human_annotations(4))
    weights = WeightVector.uniform(hierarchy)
    kernel, made = scoring.pose_terms, []

    def counted(*args, **kwargs):
        made.append(1)
        return kernel(*args, **kwargs)

    calls = {}
    for scales in ((1.0,), (0.7, 1.0, 1.4)):
        for seed in (0, 1, 2):
            scene = make_scene(library, hierarchy, seed=seed, grid=(96, 96), scales=scales)
            params = InferenceParams(z=4, samples_per_level=80, seed=seed)
            made.clear()
            with mock.patch.object(scoring, "pose_terms", counted):
                result = infer(scene.stack, hierarchy, library, weights, params)
            levels = [level["kernel_calls"] for level in result.diagnostics["levels"][1:]]
            assert sum(levels) == len(made)
            calls[scales, seed] = levels
    assert any(calls[(0.7, 1.0, 1.4), seed] != calls[(1.0,), seed] for seed in (0, 1, 2))
    for seed in (0, 1, 2):
        for level, (one, three) in enumerate(
            zip(calls[(1.0,), seed], calls[(0.7, 1.0, 1.4), seed]), start=2
        ):
            below = {
                library.geometry[node.id].shape[1:]
                for node in hierarchy.composite_nodes if node.level < level
            }
            assert three <= one + len(below)


@pytest.mark.parametrize("scales", [(1.0,), (0.7, 1.0, 1.4)], ids=["one-scale", "three-scales"])
def test_one_relation_type_lookup_per_stored_scale(scales):
    """Every `_log_pose_probs` call of a human `infer` makes exactly one
    relation-type lookup per stored scale that its rows read, at that
    scale: `log_type_prob_atomic` for the children of level-2 nodes and
    `log_type_prob_composite` for those above, one call for every child
    part alike.  A lookup per child part or per child slot fails here."""
    hierarchy = load_hierarchy(CONFIG_DIR / "human_hierarchy.json")
    library, _ = library_for(hierarchy, human_annotations(6))
    scene = make_scene(library, hierarchy, seed=3, grid=(96, 96), mix=True, scales=scales)
    log_pose_probs, made, seen = scoring._log_pose_probs, [], []

    def counted_probs(runs, labels, exemplar_index, current, size, stack, hierarchy):
        levels = {hierarchy.node(node_id).level for node_id, _ in runs}
        read = set()
        for node_id, run in runs:
            level = hierarchy.node(node_id).level - 1
            read |= set(scoring.scale_indices(size[run], level, stack, hierarchy).tolist())
        made.clear()
        out = log_pose_probs(runs, labels, exemplar_index, current, size, stack, hierarchy)
        kind = "atomic" if levels == {2} else "composite"
        assert sorted(made) == [(kind, index) for index in sorted(read)]
        seen.append((kind, len(read)))
        return out

    def counted(kind, lookup):
        def call(stack, part, labels, points, scale_index):
            made.append((kind, scale_index))
            return lookup(stack, part, labels, points, scale_index)
        return call

    with mock.patch.object(scoring, "_log_pose_probs", counted_probs), \
            mock.patch.object(scoring, "log_type_prob_atomic",
                              counted("atomic", scoring.log_type_prob_atomic)), \
            mock.patch.object(scoring, "log_type_prob_composite",
                              counted("composite", scoring.log_type_prob_composite)):
        infer(scene.stack, hierarchy, library, WeightVector.uniform(hierarchy),
              InferenceParams(z=8, seed=0))
    assert {kind for kind, _ in seen} == {"atomic", "composite"}
    assert max(count for _, count in seen) == len(scales)
