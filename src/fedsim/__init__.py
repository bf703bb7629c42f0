"""Deterministic federated-learning simulator.

Builds a KL similarity matrix from clients' soft-label predictions on a
shared probe set, clusters clients once, and samples them stratified by
cluster each round; fedavg/fedprox/scaffold/fednova aggregation included,
with per-round accuracy, relative-entropy, and communication-cost metrics.
"""

from .data import (
    Dataset,
    Partition,
    load_csv,
    partition_dirichlet,
    partition_manual,
    partition_quantity,
    synth_blobs,
    synth_public,
)
from .engine import (
    ClientState,
    LocalUpdate,
    ServerState,
    TrainConfig,
    aggregate_fedavg,
    aggregate_fednova,
    aggregate_scaffold,
    make_clients,
    run_round,
    train_clients,
)
from .experiment import (
    ConfigError,
    ExperimentConfig,
    PreprocessResult,
    compare_runs,
    preprocess,
    run_experiment,
)
from .metrics import (
    CostRecord,
    RoundMetrics,
    comm_cost_step,
    evaluate_global,
    latent_cluster_gap,
    linear_cka,
    rounds_to_target,
    sample_relative_entropy,
)
from .mlp import ModelParams, ModelSpec, forward, init_params, loss_and_grad, sgd_step
from .sampling import (
    ClusterAssignment,
    SamplingPlan,
    build_similarity_matrix,
    default_cluster_count,
    kl_divergence,
    kmeans_cluster,
    stratified_sample,
    uniform_sample,
)

__all__ = [
    "ClientState",
    "ClusterAssignment",
    "ConfigError",
    "CostRecord",
    "Dataset",
    "ExperimentConfig",
    "LocalUpdate",
    "ModelParams",
    "ModelSpec",
    "Partition",
    "PreprocessResult",
    "RoundMetrics",
    "SamplingPlan",
    "ServerState",
    "TrainConfig",
    "aggregate_fedavg",
    "aggregate_fednova",
    "aggregate_scaffold",
    "build_similarity_matrix",
    "comm_cost_step",
    "compare_runs",
    "default_cluster_count",
    "evaluate_global",
    "forward",
    "init_params",
    "kl_divergence",
    "kmeans_cluster",
    "latent_cluster_gap",
    "linear_cka",
    "load_csv",
    "loss_and_grad",
    "make_clients",
    "partition_dirichlet",
    "partition_manual",
    "partition_quantity",
    "preprocess",
    "rounds_to_target",
    "run_experiment",
    "run_round",
    "sample_relative_entropy",
    "sgd_step",
    "stratified_sample",
    "synth_blobs",
    "synth_public",
    "train_clients",
    "uniform_sample",
]
