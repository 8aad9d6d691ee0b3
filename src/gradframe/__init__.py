"""Distributionally robust training via worst-case fictitious data.

Library surface: network substrate (``nn``), dataset handling (``data``),
the core augmentation method (``core``), reference trainers (``baselines``),
shift quantification (``shift``), evaluation and penalty search
(``evaluation``), and a CLI (``cli``).
"""

from .baselines import MixupConfig, train_erm, train_groupdro, train_mixup
from .core import (
    AscentConfig,
    FictitiousSet,
    PenaltyParams,
    fictitious_sets,
    generate_fictitious_set,
    train_gradframe,
)
from .data import (
    Boundary,
    CsvSchema,
    Domain,
    DomainSet,
    generate_gaussian_domain,
    label_by_boundary,
    load_csv_dataset,
    save_csv_dataset,
    simulation_source,
    simulation_target,
    split_into_k_domains,
    standardize,
)
from .errors import ConfigError, DataError, GradframeError, NumericError, ShapeError
from .evaluation import (
    EvalReport,
    auroc,
    evaluate,
    lodo_cv_search,
    welch_t_one_tailed,
)
from .nn import (
    MlpModel,
    bce_loss_batch,
    grad_params_batch,
    init_mlp,
    probs_batch,
    representations_batch,
)
from .shift import (
    KdeModel,
    KsResult,
    concept_shift_delta,
    covariate_shift_ratio,
    kde_fit,
    kde_log_density,
    ks_two_sample,
    likelihood_difference,
    select_domain_count,
    shapley_attribution,
)
from .training import TrainConfig

__version__ = "0.1.0"

__all__ = [
    "AscentConfig",
    "Boundary",
    "ConfigError",
    "CsvSchema",
    "DataError",
    "Domain",
    "DomainSet",
    "EvalReport",
    "FictitiousSet",
    "GradframeError",
    "KdeModel",
    "KsResult",
    "MixupConfig",
    "MlpModel",
    "NumericError",
    "PenaltyParams",
    "ShapeError",
    "TrainConfig",
    "auroc",
    "bce_loss_batch",
    "concept_shift_delta",
    "covariate_shift_ratio",
    "evaluate",
    "fictitious_sets",
    "generate_fictitious_set",
    "generate_gaussian_domain",
    "grad_params_batch",
    "init_mlp",
    "kde_fit",
    "kde_log_density",
    "ks_two_sample",
    "label_by_boundary",
    "likelihood_difference",
    "load_csv_dataset",
    "lodo_cv_search",
    "probs_batch",
    "representations_batch",
    "save_csv_dataset",
    "select_domain_count",
    "shapley_attribution",
    "simulation_source",
    "simulation_target",
    "split_into_k_domains",
    "standardize",
    "train_erm",
    "train_gradframe",
    "train_groupdro",
    "train_mixup",
    "welch_t_one_tailed",
]
