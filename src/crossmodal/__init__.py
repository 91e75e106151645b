"""Cross-modality metric learning on synthetic feature vectors.

The package trains a small embedding model so that feature vectors of the
same identity land close together even when they come from different sensing
modalities (visible / grayscale / infrared).  Training is progressive: an
easier grayscale-infrared stage first, then the full visible-infrared stage
with modality-alignment losses layered on top of a global hard-triplet
objective.  Everything is plain numpy; gradients are written out by hand and
validated against finite differences (see `crossmodal.gradcheck`).
"""

from .batch import (
    BatchSpec,
    FeatureLayout,
    LabeledBatch,
    Modality,
    Stage,
    grayscale_of,
    sample_batch,
)
from .core import (
    METRICS,
    RngStream,
    cosine_distance,
    cross_distances,
    euclidean_distance,
    pairwise_distances,
)
from .errors import (
    ConfigError,
    CrossmodalError,
    DegenerateError,
    DimensionError,
    LabelError,
    NumericError,
    ParseError,
    SamplingError,
    StageError,
    StateError,
)
from .evalkit import EvalReport, RankingResult, cmc, evaluate, mean_ap, minp, rank
from .losses import (
    CenterStats,
    LossConfig,
    LossOutput,
    ObjectiveOutput,
    compute_centers,
    dcl,
    hard_triplet_global,
    hard_triplet_intra,
    identity_loss,
    msel,
    stage1_objective,
    stage2_objective,
)
from .model import (
    ForwardTrace,
    ModelGrads,
    ModelParams,
    backward,
    extract_test_features,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
    update_bn_stats,
)
from .optim import OptimState, cosine_lr, init_optim_state, step
from .synthdata import SynthDataset, generate, load_features, make_benchmark, save_features
from .trainer import EpochLog, TrainConfig, ablate, evaluate_params, train

__version__ = "0.1.0"

__all__ = [
    "BatchSpec",
    "CenterStats",
    "ConfigError",
    "CrossmodalError",
    "DegenerateError",
    "DimensionError",
    "EpochLog",
    "EvalReport",
    "FeatureLayout",
    "ForwardTrace",
    "LabelError",
    "LabeledBatch",
    "LossConfig",
    "LossOutput",
    "METRICS",
    "Modality",
    "ModelGrads",
    "ModelParams",
    "NumericError",
    "ObjectiveOutput",
    "OptimState",
    "ParseError",
    "RankingResult",
    "RngStream",
    "SamplingError",
    "Stage",
    "StageError",
    "StateError",
    "SynthDataset",
    "TrainConfig",
    "ablate",
    "backward",
    "cmc",
    "compute_centers",
    "cosine_distance",
    "cosine_lr",
    "cross_distances",
    "dcl",
    "euclidean_distance",
    "evaluate",
    "evaluate_params",
    "extract_test_features",
    "forward",
    "generate",
    "grayscale_of",
    "hard_triplet_global",
    "hard_triplet_intra",
    "identity_loss",
    "init_optim_state",
    "init_params",
    "load_checkpoint",
    "load_features",
    "make_benchmark",
    "mean_ap",
    "minp",
    "msel",
    "pairwise_distances",
    "rank",
    "sample_batch",
    "save_checkpoint",
    "save_features",
    "stage1_objective",
    "stage2_objective",
    "step",
    "train",
    "update_bn_stats",
]
