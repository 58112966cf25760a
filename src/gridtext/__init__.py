"""Grid-based page text decoding with a weakly supervised training loop."""

from .geometry import Box, GridShape, abs_to_rel, grid_of, ious, nms, rel_to_abs
from .predictions import (
    Direction,
    GridCollisionError,
    MapFormatError,
    OracleNoise,
    PredictionMaps,
    load_maps,
    oracle_predict,
    render_plan,
    save_maps,
)
from .decoder import (
    CharInstance,
    DecodeConfig,
    InvariantError,
    Line,
    NGramLM,
    PageResult,
    SearchTrace,
    decode,
    direction_table,
    extract_nodes,
    follow,
    fused_score,
    rescore_with_lm,
)
from .matching import (
    ErrorCounts,
    PageAnnotation,
    edit_counts,
    edit_script,
    match_chars,
    match_lines,
    spatial_filter,
)
from .pseudolabels import (
    LossTargets,
    PseudoLabel,
    PseudoLabelStore,
    build_targets,
    gen_paths,
    update,
    update_weight,
)
from .losses import LossReport, compute_losses
from .metrics import ar_star, det_prf, page_ar_cr
from .synth import GenerationError, Layout, PageConfig, SyntheticPage, gen_dataset, gen_page
from .simloop import ConfigError, PassReport, StageConfig, export_labels, run_stage

__version__ = "0.1.0"
