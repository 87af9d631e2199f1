"""Hierarchical exemplar-based articulated pose estimation on score maps."""

from .appearance import (
    RelationTypeModel,
    ScoreMapStack,
    fit_relation_clusters,
    load_score_maps,
    save_score_maps,
)
from .geometry import SimilarityTransform, fit_least_squares
from .hierarchy import (
    AnchorSpec,
    BoundingBox,
    HierarchyError,
    PartHierarchy,
    PartNode,
    ScaleParams,
    as_configuration,
    load_hierarchy,
    object_size,
)
from .inference import (
    Hypothesis,
    InferenceParams,
    InferenceResult,
    NoConfigurationError,
    collapse_model,
    hypothesis_from_config,
    infer,
    refine_hypothesis,
    refine_roots,
)
from .learning import (
    Annotation,
    ExemplarLibrary,
    LibraryError,
    TrainingSet,
    augment_positives,
    build_library,
    generate_negatives,
    load_annotations,
    load_library,
    save_annotations,
    save_library,
    train_weights,
)
from .metrics import MetricReport, Segment, emit_report, pcp_radius, pcp_segments, pdj_curve
from .scoring import (
    ModelMismatchError,
    WeightVector,
    best_fit_pose,
    check_model,
    feature_vector,
    load_weights,
    refinement_score,
    save_weights,
    spatial_score,
    subtree_score,
    total_score,
)
from .synth import SynthScene, generate_pose, make_scene, render_score_maps

__version__ = "0.1.0"
