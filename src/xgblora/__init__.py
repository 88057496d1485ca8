"""Desk-scale gradient-boosted low-rank adaptation engine and probe suite."""

from xgblora.boosting import (
    BoostConfig,
    BoosterTrace,
    CostModel,
    TrainConfig,
    cost_model_estimate,
    full_finetune,
    select_layers,
    train_booster,
    xgblora_fit,
)
from xgblora.lora import (
    AdapterSet,
    LoraPair,
    init_adapter,
    init_adapter_set,
    merge_adapters,
    param_count,
)
from xgblora.lowrank import svd_topr
from xgblora.models import (
    Dataset,
    ModelSpec,
    Role,
    WeightId,
    accuracy,
    build_mlp,
    build_transformer,
    forward,
    list_adaptable_weights,
    loss_eval,
)
from xgblora.tasks import TeacherTask, gen_sequence_dataset, gen_teacher_dataset
from xgblora.tensor import Rng, Tensor, finite_diff_gradient, frobenius_norm, sgd_step

__all__ = [
    "AdapterSet",
    "BoostConfig",
    "BoosterTrace",
    "CostModel",
    "Dataset",
    "LoraPair",
    "ModelSpec",
    "Rng",
    "Role",
    "TeacherTask",
    "Tensor",
    "TrainConfig",
    "WeightId",
    "accuracy",
    "build_mlp",
    "build_transformer",
    "cost_model_estimate",
    "finite_diff_gradient",
    "forward",
    "frobenius_norm",
    "full_finetune",
    "gen_sequence_dataset",
    "gen_teacher_dataset",
    "init_adapter",
    "init_adapter_set",
    "list_adaptable_weights",
    "loss_eval",
    "merge_adapters",
    "param_count",
    "select_layers",
    "sgd_step",
    "svd_topr",
    "train_booster",
    "xgblora_fit",
]
