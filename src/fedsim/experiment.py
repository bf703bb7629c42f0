"""Config-driven experiment runner.

A single JSON config describes dataset, partition, model, algorithm, and
sampler; `run_experiment` materializes everything with seeded determinism and
writes a self-describing artifact directory (config echo, per-round metrics
CSV, similarity matrix, cluster assignment, cost summary). `compare_runs`
reproduces the rounds-to-target / byte-delta comparison across directories.
"""

from __future__ import annotations

import contextvars
import dataclasses
import json
import logging
import math
import types
import typing
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import metrics as metrics_mod
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
    local_train,  # noqa: F401  bench/tracer.py traces fedsim.experiment.local_train
    make_clients,
    run_round,
    train_clients,
)
from .metrics import (
    BYTES_PER_PARAM,
    CostLedger,
    RoundMetrics,
    read_metrics_csv,
    rounds_to_target,
    write_metrics_csv,
)
from .mlp import ModelSpec, forward, init_params
from .sampling import (
    ClusterAssignment,
    SamplingPlan,
    build_similarity_matrix,
    default_cluster_count,
    kmeans_cluster,
    save_matrix_csv,
    stratified_sample,
    uniform_sample,
)

logger = logging.getLogger(__name__)

SAMPLERS = ("uniform", "stratified")
PARTITIONS = ("dirichlet", "quantity", "manual")

# Sub-stream salts so every random source is independent of the others.
_TRAIN_SALT, _TEST_SALT, _PUBLIC_SALT, _INIT_SALT, _PARTITION_SALT, _KMEANS_SALT = range(1, 7)


class ConfigError(ValueError):
    """Invalid experiment configuration, with one message per offending field."""


def _fits(value, hint) -> bool:
    """Whether a value has a field's annotated type; ints pass as floats, bools never as numbers."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:
        return any(_fits(value, h) for h in args)
    if origin is list:
        return isinstance(value, list) and all(_fits(v, args[0]) for v in value)
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


@dataclass
class ExperimentConfig:
    seed: int
    n_clients: int
    rounds: int
    name: str = "run"
    output_dir: str = "runs"
    # dataset (synthetic blobs unless csv_path is given)
    num_classes: int = 10
    dim: int = 16
    per_class: int = 200
    spread: float = 1.0
    test_per_class: int = 50
    csv_path: str | None = None
    test_csv_path: str | None = None
    test_fraction: float = 0.2
    # partition
    partition: str = "dirichlet"
    beta: float = 0.5
    labels_per_client: int = 2
    manual_groups: list | None = None
    # model
    hidden_sizes: list[int] = field(default_factory=lambda: [32])
    # federated training
    algorithm: str = "fedavg"
    sampler: str = "uniform"
    sample_ratio: float = 0.1
    epochs: int = 2
    batch_size: int = 32
    lr: float = 0.01
    decay: float = 0.99
    prox_mu: float = 0.0
    round1_participation: str = "all"
    cluster_k: int | None = None
    public_count: int = 1000

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        unknown = sorted(set(raw) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        missing = [k for k in ("seed", "n_clients", "rounds") if k not in raw]
        if missing:
            raise ConfigError(
                "; ".join(f"{k}: required field is missing" for k in missing)
            )
        cfg = cls(**raw)
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @property
    def budget(self) -> int:
        return min(self.n_clients, max(1, int(round(self.sample_ratio * self.n_clients))))

    def train_config(self) -> TrainConfig:
        """The local-training settings; raises ValueError naming each bad field."""
        return TrainConfig(
            algorithm=self.algorithm,
            epochs=self.epochs,
            batch_size=self.batch_size,
            lr=self.lr,
            decay=self.decay,
            prox_mu=self.prox_mu,
            master_seed=self.seed,
        )

    def _manual_group_errors(self) -> list[str]:
        """Each group must be a [count >= 1, [labels]] pair; together they define n_clients."""
        if not self.manual_groups:
            return ["manual_groups: required when partition is 'manual'"]
        # Synthetic data has num_classes classes; a CSV's are known once it is read.
        top = math.inf if self.csv_path is not None else self.num_classes
        shape = "[count >= 1, [labels >= 0]]" if top == math.inf else (
            f"[count >= 1, [labels in 0..{top - 1}]]"
        )
        errors = []
        for i, group in enumerate(self.manual_groups):
            pair = isinstance(group, (list, tuple)) and len(group) == 2
            if not (
                pair and _fits(group[0], int) and group[0] >= 1
                and isinstance(group[1], (list, tuple)) and len(group[1]) > 0
                and all(_fits(lb, int) and 0 <= lb < top for lb in group[1])
            ):
                errors.append(f"manual_groups: entry {i} must be a {shape} pair, got {group!r}")
        if errors:
            return errors
        labels = [lb for _, group_labels in self.manual_groups for lb in group_labels]
        if len(set(labels)) < len(labels):
            return ["manual_groups: a label appears in two groups"]
        if self.csv_path is None:
            # Each label's per_class samples are split among the group's clients.
            errors = [
                f"manual_groups: entry {i} has {count} clients, "
                f"more than per_class = {self.per_class} samples of each label"
                for i, (count, _) in enumerate(self.manual_groups)
                if count > self.per_class
            ]
            if errors:
                return errors
        total = sum(count for count, _ in self.manual_groups)
        if total != self.n_clients:
            return [f"manual_groups: groups define {total} clients, expected {self.n_clients}"]
        return []

    def validate(self) -> None:
        """Check every field's type against its annotation, then its value.

        Raises one ConfigError naming each offending field. The value checks
        run only once every type is right and every float finite, since they
        compare and index.
        """
        hints = typing.get_type_hints(type(self))
        wrong = []
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if not _fits(v, hints[f.name]):
                wrong.append(f"{f.name}: must be {f.type}, got {type(v).__name__} {v!r}")
            elif isinstance(v, float) and not math.isfinite(v):
                wrong.append(f"{f.name}: must be finite, got {v!r}")
        if wrong:
            raise ConfigError("; ".join(wrong))
        errors: list[str] = []
        # The run directory is output_dir / name, so a name must stay inside it.
        if self.name in ("", ".", "..") or Path(self.name).name != self.name:
            errors.append(f"name: must be one plain directory name, got {self.name!r}")
        if self.n_clients < 1:
            errors.append("n_clients: must be >= 1")
        elif self.csv_path is None and self.n_clients > self.num_classes * self.per_class:
            errors.append(
                f"n_clients: {self.n_clients} clients but only "
                f"num_classes*per_class = {self.num_classes * self.per_class} training samples"
            )
        if self.rounds < 1:
            errors.append("rounds: must be >= 1")
        if self.num_classes < 2:
            errors.append("num_classes: must be >= 2")
        if self.dim < 1:
            errors.append("dim: must be >= 1")
        if self.per_class < 1:
            errors.append("per_class: must be >= 1")
        if self.test_per_class < 1:
            errors.append("test_per_class: must be >= 1")
        if self.spread < 0:
            errors.append("spread: must be >= 0")
        if self.csv_path is not None and not (0 < self.test_fraction < 1):
            errors.append("test_fraction: must be in (0, 1)")
        if self.partition not in PARTITIONS:
            errors.append(f"partition: must be one of {PARTITIONS}")
        if self.partition == "dirichlet" and self.beta <= 0:
            errors.append("beta: must be > 0")
        if self.partition == "quantity":
            if not 1 <= self.labels_per_client <= self.num_classes:
                errors.append(f"labels_per_client: must be in [1, {self.num_classes}]")
            elif self.n_clients * self.labels_per_client < self.num_classes:
                errors.append(
                    "labels_per_client: infeasible, n_clients*labels_per_client "
                    f"= {self.n_clients * self.labels_per_client} < {self.num_classes} classes"
                )
        if self.partition == "manual":
            errors.extend(self._manual_group_errors())
        if any(h < 1 for h in self.hidden_sizes):
            errors.append("hidden_sizes: all sizes must be >= 1")
        try:
            self.train_config()
        except ValueError as exc:
            errors.append(str(exc))
        if self.sampler not in SAMPLERS:
            errors.append(f"sampler: must be one of {SAMPLERS}")
        if not 0 < self.sample_ratio <= 1:
            errors.append("sample_ratio: must be in (0, 1]")
        elif self.sample_ratio * self.n_clients < 1:
            errors.append("sample_ratio: sample_ratio*n_clients must be >= 1")
        if self.round1_participation not in ("all", "sampled"):
            errors.append("round1_participation: must be 'all' or 'sampled'")
        if self.cluster_k is not None and not 1 <= self.cluster_k <= self.n_clients:
            errors.append(f"cluster_k: must be in [1, {self.n_clients}]")
        if self.public_count < 1:
            errors.append("public_count: must be >= 1")
        if errors:
            raise ConfigError("; ".join(errors))


@dataclass
class PreprocessResult:
    """What the clustering pass returns: the n x n similarity matrix, the
    clusters found in it, and every client's round-1 update (`None` if dropped)."""

    matrix: np.ndarray
    assignment: ClusterAssignment
    updates: list[LocalUpdate | None]


def preprocess(
    clients: list[ClientState],
    dataset: Dataset,
    public,
    server: ServerState,
    cfg: TrainConfig,
    *,
    cluster_k: int | None = None,
    ledger: CostLedger | None = None,
) -> PreprocessResult:
    """One-time clustering pass, run between the first and second rounds.

    Every client trains a copy of the initial global model, predicts soft
    labels on the shared probe set, and "uploads" them; the server builds the
    KL similarity matrix (`build_similarity_matrix`: per-sample KL averaged
    over the probe set) and clusters its rows. Client training here doubles
    as the clients' round-1 local training (same seeds, same schedule), so
    `updates` holds one entry per client, in client-id order, ready for
    `run_round`. A client dropped for divergence has `None` there, as in any
    round, and keeps the global model it was sent: its soft labels are that
    model's, so it is still clustered. The one-time probe download and
    soft-label upload go on `ledger` if given.
    """
    if len(public) < 1:
        raise ValueError("public dataset is empty")

    updates = train_clients(clients, dataset, server.global_params, cfg, 1, server.server_control)
    # One (clients, probe rows, classes) stack of soft labels, gone before k-means.
    soft = np.empty((len(updates), len(public), server.global_params.spec.num_classes))
    for i, u in enumerate(updates):
        soft[i] = forward(server.global_params if u is None else u.new_params, public.features)[0]
    matrix = build_similarity_matrix(soft)
    del soft
    k = default_cluster_count(len(clients)) if cluster_k is None else cluster_k
    assignment = kmeans_cluster(matrix, k, [cfg.master_seed, _KMEANS_SALT])

    if ledger is not None:
        ledger.record_one_time(len(clients), len(public), public.dim, dataset.num_classes)
    return PreprocessResult(matrix, assignment, updates)


def _split_holdout(ds: Dataset, fraction: float, seed) -> tuple[Dataset, Dataset]:
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ds))
    n_test = min(len(ds) - 1, max(1, int(round(fraction * len(ds)))))
    test_idx, train_idx = order[:n_test], order[n_test:]
    return (
        Dataset(ds.features[train_idx], ds.labels[train_idx], ds.num_classes),
        Dataset(ds.features[test_idx], ds.labels[test_idx], ds.num_classes),
    )


def _build_data(cfg: ExperimentConfig) -> tuple[Dataset, Dataset]:
    if cfg.csv_path is not None:
        full = load_csv(cfg.csv_path)
        if cfg.test_csv_path is not None:
            return full, load_csv(cfg.test_csv_path, num_classes=full.num_classes)
        return _split_holdout(full, cfg.test_fraction, [cfg.seed, _TEST_SALT])
    # One pool per class so train and test share the same class means; the
    # first per_class samples of every class train, the rest are held out.
    pool = synth_blobs(
        cfg.num_classes,
        cfg.dim,
        cfg.per_class + cfg.test_per_class,
        cfg.spread,
        [cfg.seed, _TRAIN_SALT],
    )
    block = cfg.per_class + cfg.test_per_class
    train_idx, test_idx = [], []
    for k in range(cfg.num_classes):
        start = k * block
        train_idx.extend(range(start, start + cfg.per_class))
        test_idx.extend(range(start + cfg.per_class, start + block))
    return (
        Dataset(pool.features[train_idx], pool.labels[train_idx], cfg.num_classes),
        Dataset(pool.features[test_idx], pool.labels[test_idx], cfg.num_classes),
    )


def _build_partition(cfg: ExperimentConfig, train: Dataset) -> Partition:
    seed = [cfg.seed, _PARTITION_SALT]
    if cfg.partition == "dirichlet":
        return partition_dirichlet(train, cfg.n_clients, cfg.beta, seed)
    if cfg.partition == "quantity":
        return partition_quantity(train, cfg.n_clients, cfg.labels_per_client, seed)
    return partition_manual(train, cfg.manual_groups)


def _collect_score(rm: RoundMetrics, scoring: Future) -> None:
    """Fill a round's accuracy and loss from its scoring future."""
    rm.test_accuracy, rm.test_loss = scoring.result()
    logger.debug(
        "round %d: accuracy=%.4f entropy=%.4f", rm.round, rm.test_accuracy, rm.sample_relative_entropy
    )


def run_experiment(cfg: ExperimentConfig) -> Path:
    """Run the configured experiment and return its artifact directory.

    A stratified run writes `clusters.json` and `similarity_matrix.csv` as
    soon as the clustering pass ends, then keeps only the cluster assignment,
    and the pass's updates until round 1 has aggregated them. `metrics.csv`
    and `summary.json` are written after the last round.
    """
    cfg.validate()
    # Everything a config can fail on is built before the run directory exists.
    train, test = _build_data(cfg)
    public = synth_public(train.dim, cfg.public_count, [cfg.seed, _PUBLIC_SALT])
    spec = ModelSpec((train.dim, *cfg.hidden_sizes, train.num_classes))
    partition = _build_partition(cfg, train)
    clients = make_clients(partition)
    global_params = init_params(spec, [cfg.seed, _INIT_SALT])
    control = np.zeros(spec.num_params) if cfg.algorithm == "scaffold" else None
    server = ServerState(global_params, control, 0, cfg.seed)
    tc = cfg.train_config()

    out = Path(cfg.output_dir) / cfg.name
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(cfg.to_dict(), sort_keys=True, indent=2))

    ledger = CostLedger()
    history = []
    assignment = updates = None
    if cfg.sampler == "stratified":
        pre = preprocess(clients, train, public, server, tc, cluster_k=cfg.cluster_k, ledger=ledger)
        pre.assignment.save_json(out / "clusters.json")
        save_matrix_csv(pre.matrix, out / "similarity_matrix.csv")
        # The rounds read only the assignment; the matrix is freed with `pre`.
        assignment, updates = pre.assignment, pre.updates
        del pre
    # Round r is scored on the worker thread while round r + 1 trains; its
    # score is collected before round r + 1's is submitted. The worker runs in
    # a copy of the caller's context, so the caller's np.errstate holds there.
    with ThreadPoolExecutor(max_workers=1) as scorer:
        scoring = None
        for r in range(1, cfg.rounds + 1):
            if assignment is None or (r == 1 and cfg.round1_participation == "sampled"):
                plan = uniform_sample(cfg.n_clients, cfg.budget, r, cfg.seed)
            elif r == 1:
                plan = SamplingPlan(1, np.arange(cfg.n_clients))
            else:
                plan = stratified_sample(assignment, cfg.budget, r, cfg.seed)
            # Round 1 aggregates the pre-pass's local training (same seeds)
            # instead of retraining; nothing reads those updates afterwards.
            server, rm = run_round(server, clients, train, plan, tc, ledger=ledger, updates=updates)
            updates = None
            if scoring is not None:
                _collect_score(history[-1], scoring)
            history.append(rm)
            scoring = scorer.submit(
                contextvars.copy_context().run, metrics_mod.evaluate_global, server.global_params, test
            )
        _collect_score(history[-1], scoring)

    write_metrics_csv(history, out / "metrics.csv")

    entropies = [m.sample_relative_entropy for m in history]
    summary = {
        "name": cfg.name,
        "seed": cfg.seed,
        "algorithm": cfg.algorithm,
        "sampler": cfg.sampler,
        "rounds": cfg.rounds,
        "n_clients": cfg.n_clients,
        "budget": cfg.budget,
        "model_params": spec.num_params,
        "model_bytes": spec.num_params * BYTES_PER_PARAM,
        "final_accuracy": history[-1].test_accuracy,
        "final_loss": history[-1].test_loss,
        "total_bytes": ledger.total,
        "one_time_bytes": ledger.one_time_total,
        "recurring_bytes": ledger.recurring_total,
        "mean_entropy": float(np.mean(entropies)),
        "mean_entropy_after_round1": float(np.mean(entropies[1:])) if len(entropies) > 1 else None,
        "cluster_count": assignment.k if assignment is not None else None,
    }
    (out / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=2))
    return out


def compare_runs(run_dirs: list, target_accuracy: float) -> dict:
    """Rounds-to-target and byte deltas of each run against the first one."""
    if len(run_dirs) < 2:
        raise ValueError("need at least two run directories to compare")
    rows = []
    for d in run_dirs:
        d = Path(d)
        metrics_path = d / "metrics.csv"
        summary_path = d / "summary.json"
        if not metrics_path.exists() or not summary_path.exists():
            raise FileNotFoundError(f"{d} is missing metrics.csv or summary.json")
        history = read_metrics_csv(metrics_path)
        if not history:
            raise ValueError(f"{metrics_path} has a header but no rounds")
        summary = json.loads(summary_path.read_text())
        if not isinstance(summary, dict):
            raise ValueError(f"{summary_path} must hold a JSON object, got {type(summary).__name__}")
        reached = rounds_to_target([m.test_accuracy for m in history], target_accuracy)
        if reached is None:
            bytes_to_target = history[-1].cumulative_bytes
            display = f">{len(history)}"
        else:
            bytes_to_target = history[reached - 1].cumulative_bytes
            display = str(reached)
        one_time = summary.get("one_time_bytes", 0)
        if type(one_time) is not int:
            raise ValueError(f"{summary_path}: one_time_bytes must be an integer, got {one_time!r}")
        rows.append(
            {
                "run": str(d),
                "name": summary.get("name"),
                "algorithm": summary.get("algorithm"),
                "sampler": summary.get("sampler"),
                "reached": reached is not None,
                "rounds_to_target": reached,
                "rounds_to_target_display": display,
                "bytes_to_target": int(bytes_to_target),
                "one_time_bytes": one_time,
                "recurring_bytes_to_target": int(bytes_to_target) - one_time,
            }
        )
    base = rows[0]
    for row in rows:
        row["delta_bytes"] = row["bytes_to_target"] - base["bytes_to_target"]
        row["delta_recurring_bytes"] = (
            row["recurring_bytes_to_target"] - base["recurring_bytes_to_target"]
        )
    return {
        "target_accuracy": target_accuracy,
        "baseline": base["run"],
        "runs": rows,
    }
