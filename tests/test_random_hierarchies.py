"""Random level-rule hierarchies end to end: each drawn hierarchy's scene
goes through bit-exact HPSM and HPEL round trips and `infer` in every mode,
and a re-run gives the same output."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hierpose import (
    Annotation, NoConfigurationError, WeightVector, infer, load_hierarchy, load_library,
    load_score_maps, save_library, save_score_maps,
)
from hierpose.inference import MODES, InferenceParams
from hierpose.synth import make_scene

from conftest import library_for


def hierarchy_doc(data) -> dict:
    """A hierarchy of 2-5 levels and 2-40 atoms in which every child sits one
    level below its parent and every composite node has 2-4 children
    (a level-2 node: all its atoms); each anchor is its first atom."""
    levels = data.draw(st.integers(2, 5), label="levels")
    atoms = data.draw(st.integers(max(2, 2 ** (levels - 1)), 40), label="atoms")
    nodes = []

    def build(level: int, budget: int) -> tuple[int, str]:
        """The id and first atom name of a new node at `level` over `budget` atoms."""
        if level == 1:
            node_id = len(nodes) + 1
            nodes.append({"id": node_id, "name": f"a{node_id}", "level": 1, "children": []})
            return node_id, f"a{node_id}"
        least = 2 ** (level - 2)  # the fewest atoms under a child
        count = budget if level == 2 else data.draw(st.integers(2, min(4, budget // least)))
        cuts = sorted(data.draw(st.lists(st.integers(0, budget - count * least),
                                         min_size=count - 1, max_size=count - 1)))
        sizes = [least + b - a for a, b in zip([0, *cuts], [*cuts, budget - count * least])]
        children = [build(level - 1, size) for size in sizes]
        node_id = 100 + len(nodes)
        nodes.append({"id": node_id, "name": f"n{node_id}", "level": level,
                      "children": [child for child, _ in children],
                      "anchor": {children[0][1]: 1.0}})
        return node_id, children[0][1]

    build(levels, atoms)
    return {"levels": levels, "nodes": nodes,
            "scale": {"reference_length": 20.0, "level_factors": [1.0] * levels}}


def outcome(stack, hierarchy, library, params, mode):
    """What `infer` gives, as bytes and plain values, or its error."""
    try:
        result = infer(stack, hierarchy, library, WeightVector.uniform(hierarchy), params, mode=mode)
    except NoConfigurationError as exc:
        return str(exc)
    return result.configuration.tobytes(), float(result.score), result.diagnostics


@settings(max_examples=30)
@given(data=st.data())
def test_random_hierarchies_round_trip_and_infer_reproducibly(data, tmp_path_factory):
    hierarchy = load_hierarchy(hierarchy_doc(data))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="pose seed"))
    base = rng.random((hierarchy.atomic_count, 2)) * 60.0
    annotations = [Annotation(f"p{i}", base + rng.normal(0.0, 1.5, base.shape)) for i in range(4)]
    library, _ = library_for(hierarchy, annotations)
    scene = make_scene(
        library, hierarchy, seed=data.draw(st.integers(0, 2**16), label="scene seed"),
        grid=(40, 40), mix=data.draw(st.booleans(), label="mix"),
        noise=data.draw(st.sampled_from([0.0, 0.02]), label="noise"),
        distractors=data.draw(st.integers(0, 3), label="distractors"),
        scales=data.draw(st.sampled_from([(1.0,), (0.7, 1.0, 1.4)]), label="scales"),
    )

    folder = tmp_path_factory.mktemp("random")
    save_score_maps(scene.stack, folder / "maps.hpsm")
    stack = load_score_maps(folder / "maps.hpsm")
    save_score_maps(stack, folder / "again.hpsm")
    assert (folder / "again.hpsm").read_bytes() == (folder / "maps.hpsm").read_bytes()
    for rendered, loaded in zip(scene.stack.scales, stack.scales):
        assert loaded.atomic.tobytes() == rendered.atomic.tobytes()
        assert sorted(loaded.composite) == sorted(rendered.composite)
        for part, tensor in rendered.composite.items():
            assert loaded.composite[part].tobytes() == tensor.tobytes()
    save_library(library, folder / "library.hpel")
    reloaded = load_library(folder / "library.hpel", hierarchy)
    save_library(reloaded, folder / "again.hpel")
    assert (folder / "again.hpel").read_bytes() == (folder / "library.hpel").read_bytes()

    params = InferenceParams(z=4, seed=0)
    for mode in MODES:
        first = outcome(scene.stack, hierarchy, library, params, mode)
        assert outcome(stack, hierarchy, reloaded, params, mode) == first
