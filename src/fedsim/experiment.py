"""Config-driven experiment runner.

A single JSON config describes dataset, partition, model, algorithm, and
sampler; `run_experiment` materializes everything with seeded determinism and
writes a self-describing artifact directory (config echo, per-round metrics
CSV, similarity matrix, cluster assignment, cost summary). `compare_runs`
reproduces the rounds-to-target / byte-delta comparison across directories.
"""

from __future__ import annotations

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
    partition_size_errors,
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
    RoundMetrics,
    comm_cost_step,
    one_time_cost,
    read_metrics_csv,
    rounds_to_target,
    write_metrics_csv,
)
from .mlp import ModelParams, ModelSpec, forward_logits, init_params, softmax
from .mlp import forward  # noqa: F401  bench/tracer.py traces fedsim.experiment.forward
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

# Set-up salts, not independent of the rounds (ROADMAP item 12): SeedSequence ignores
# trailing zero words, so [seed, s] also seeds uniform round s and client 0's round-s batches.
_TRAIN_SALT, _TEST_SALT, _PUBLIC_SALT, _INIT_SALT, _PARTITION_SALT, _KMEANS_SALT = range(1, 7)

# Share of a `csv_path` file held out for testing when no `test_csv_path` is given.
TEST_FRACTION = 0.2


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
        """The shape: [count, [labels]] pairs of integers whose counts sum to n_clients.

        The value rules live in `partition_size_errors`, with the sizes they need.
        """
        if not self.manual_groups:
            return ["manual_groups: required when partition is 'manual'"]
        errors = [
            f"manual_groups: entry {i} must be a [count, [labels]] pair of integers, got {group!r}"
            for i, group in enumerate(self.manual_groups)
            if not (
                isinstance(group, (list, tuple)) and len(group) == 2 and _fits(group[0], int)
                and isinstance(group[1], (list, tuple)) and all(_fits(lb, int) for lb in group[1])
            )
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
        compare and index. The partition rules (`partition_size_errors`) run here
        on synthetic data only; a CSV's partitioner checks them once the file is read.
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
        if self.test_csv_path is not None and self.csv_path is None:
            errors.append("test_csv_path: needs csv_path; synthetic data makes its own test set")
        if self.partition not in PARTITIONS:
            errors.append(f"partition: must be one of {PARTITIONS}")
        if self.partition == "dirichlet" and self.beta <= 0:
            errors.append("beta: must be > 0")
        group_errors = self._manual_group_errors() if self.partition == "manual" else []
        errors.extend(group_errors)
        if self.csv_path is None and self.num_classes >= 2 and not group_errors:
            sizes = np.broadcast_to(self.per_class, self.num_classes)  # a view, not a list
            errors.extend(partition_size_errors(
                self.partition, self.n_clients, sizes, self.labels_per_client, self.manual_groups
            ))
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


class ProbePredictions:
    """Each client's `forward` probabilities on the probe set, computed when read.

    The sequence `preprocess` passes to `build_similarity_matrix` instead of
    a (clients, probe rows, classes) stack: `fill_rows` writes some probe rows
    of several clients, item i is client i's rows filled by it, a slice is the
    sequence of those clients and `shape` is (clients, probe rows, classes).
    The predictions run under the same np.errstate as training: a model with
    huge weights gives non-finite soft labels, which the build reports, and no
    numpy warnings.
    """

    def __init__(self, params: list[ModelParams], features: np.ndarray):
        self.params = params
        self.features = features
        self.shape = (len(params), len(features), params[0].spec.num_classes if params else 0)

    def __len__(self) -> int:
        return len(self.params)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return ProbePredictions(self.params[i], self.features)
        out = np.empty((1, *self.shape[1:]))
        self.fill_rows(range(len(self))[i], 0, out)  # range raises IndexError past the end
        return out[0]

    def fill_rows(self, top: int, lo: int, out: np.ndarray) -> None:
        """Probe rows lo onward of clients top onward, into the (clients, rows, classes) `out`.

        Each client's logits are computed over the whole probe set, by
        `forward_logits`: OpenBLAS's bits for a row depend on the row count in
        a GEMM of at most 10**6 multiply-adds, and no GEMM of its row blocks is
        one. The softmax, row-wise, then runs once over `out`.
        """
        hi = lo + out.shape[1]
        with np.errstate(over="ignore", invalid="ignore"):
            for params, rows in zip(self.params[top:], out):
                rows[...] = forward_logits(params, self.features)[lo:hi]
            softmax(out, out=out)


def preprocess(
    clients: list[ClientState],
    dataset: Dataset,
    public: np.ndarray,
    server: ServerState,
    cfg: TrainConfig,
    *,
    cluster_k: int | None = None,
) -> PreprocessResult:
    """One-time clustering pass, run between the first and second rounds.

    Every client trains a copy of the initial global model, predicts soft
    labels on the shared probe set, and "uploads" them; the server builds the
    KL similarity matrix (`build_similarity_matrix`: per-sample KL averaged
    over the probe set) and clusters its rows. The soft labels are never
    held as one stack: the build reads them through `ProbePredictions`, one
    group of probe rows for every client at a time, so the probe forward
    runs inside it. Client training here doubles as the clients' round-1
    local training (same seeds, same schedule), so `updates` holds one entry
    per client, in client-id order, ready for `run_round`. A client dropped
    for divergence has `None` there, as in any round, and keeps the global
    model it was sent: its soft labels are that model's, so it is still
    clustered.
    """
    updates = train_clients(clients, dataset, server.global_params, cfg, 1, server.server_control)
    models = [server.global_params if u is None else u.new_params for u in updates]
    matrix = build_similarity_matrix(ProbePredictions(models, public))
    k = default_cluster_count(len(clients)) if cluster_k is None else cluster_k
    assignment = kmeans_cluster(matrix, k, [cfg.master_seed, _KMEANS_SALT])
    return PreprocessResult(matrix, assignment, updates)


def _split_holdout(ds: Dataset, seed) -> tuple[Dataset, Dataset]:
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ds))
    n_test = min(len(ds) - 1, max(1, int(round(TEST_FRACTION * len(ds)))))
    test_idx, train_idx = order[:n_test], order[n_test:]
    return (
        Dataset(ds.features[train_idx], ds.labels[train_idx], ds.num_classes),
        Dataset(ds.features[test_idx], ds.labels[test_idx], ds.num_classes),
    )


def _build_data(cfg: ExperimentConfig) -> tuple[Dataset, Dataset]:
    if cfg.csv_path is not None:
        full = load_csv(cfg.csv_path)
        if cfg.test_csv_path is not None:
            test = load_csv(cfg.test_csv_path, num_classes=full.num_classes)
            if test.dim != full.dim:
                raise ValueError(
                    f"{cfg.test_csv_path} has {test.dim} feature columns, "
                    f"{cfg.csv_path} has {full.dim}"
                )
            return full, test
        if len(full) < 2:
            raise ValueError(f"{cfg.csv_path} has one row; holding out a test row needs two")
        return _split_holdout(full, [cfg.seed, _TEST_SALT])
    # One pool per class so train and test share the same class means; the
    # first per_class samples of every class train, the rest are held out.
    pool = synth_blobs(
        cfg.num_classes,
        cfg.dim,
        cfg.per_class + cfg.test_per_class,
        cfg.spread,
        [cfg.seed, _TRAIN_SALT],
    )
    train = np.arange(len(pool)) % (cfg.per_class + cfg.test_per_class) < cfg.per_class
    return (
        Dataset(pool.features[train], pool.labels[train], cfg.num_classes),
        Dataset(pool.features[~train], pool.labels[~train], cfg.num_classes),
    )


def _build_partition(cfg: ExperimentConfig, train: Dataset) -> Partition:
    """The configured partition; a CSV's partition error is a ConfigError naming the file."""
    seed = [cfg.seed, _PARTITION_SALT]
    try:
        if cfg.partition == "dirichlet":
            return partition_dirichlet(train, cfg.n_clients, cfg.beta, seed)
        if cfg.partition == "quantity":
            return partition_quantity(train, cfg.n_clients, cfg.labels_per_client, seed)
        return partition_manual(train, cfg.manual_groups)
    except ValueError as err:  # validate has checked synthetic sizes, so the data is a CSV
        raise ConfigError(f"{cfg.csv_path}: {err}") from None


def _round_metrics(r: int, entropy: float, total_bytes: int, scoring: Future) -> RoundMetrics:
    """Round r's record, once its scoring future holds the accuracy and loss."""
    accuracy, loss = scoring.result()
    logger.debug("round %d: accuracy=%.4f entropy=%.4f", r, accuracy, entropy)
    return RoundMetrics(r, accuracy, loss, entropy, total_bytes)


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

    model_bytes = spec.num_params * BYTES_PER_PARAM
    one_time = total_bytes = 0
    history = []
    assignment = updates = None
    if cfg.sampler == "stratified":
        pre = preprocess(clients, train, public, server, tc, cluster_k=cfg.cluster_k)
        one_time = total_bytes = one_time_cost(cfg.n_clients, *public.shape, train.num_classes)
        pre.assignment.save_json(out / "clusters.json")
        save_matrix_csv(pre.matrix, out / "similarity_matrix.csv")
        # The rounds read only the assignment; the matrix is freed with `pre`.
        assignment, updates = pre.assignment, pre.updates
        del pre
    # Round r is scored on the worker thread while round r + 1 trains; its
    # record is built before round r + 1's score is submitted.
    with ThreadPoolExecutor(max_workers=1) as scorer:
        pending = None  # the last round's _round_metrics arguments
        for r in range(1, cfg.rounds + 1):
            if assignment is None or (r == 1 and cfg.round1_participation == "sampled"):
                plan = uniform_sample(cfg.n_clients, cfg.budget, r, cfg.seed)
            elif r == 1:
                plan = SamplingPlan(1, np.arange(cfg.n_clients))
            else:
                plan = stratified_sample(assignment, cfg.budget, r, cfg.seed)
            # Round 1 aggregates the pre-pass's local training (same seeds)
            # instead of retraining; nothing reads those updates afterwards.
            server, _ = run_round(server, clients, train, plan, tc, updates=updates)
            updates = None
            total_bytes += comm_cost_step(plan, model_bytes, cfg.algorithm).total_bytes
            entropy = metrics_mod.sample_relative_entropy(
                plan, partition, train.labels, train.num_classes
            )
            if pending is not None:
                history.append(_round_metrics(*pending))
            scoring = scorer.submit(metrics_mod.evaluate_global, server.global_params, test)
            pending = (r, entropy, total_bytes, scoring)
        history.append(_round_metrics(*pending))

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
        "model_bytes": model_bytes,
        "final_accuracy": history[-1].test_accuracy,
        "final_loss": history[-1].test_loss,
        "total_bytes": total_bytes,
        "one_time_bytes": one_time,
        "recurring_bytes": total_bytes - one_time,
        "mean_entropy": float(np.mean(entropies)),
        "mean_entropy_after_round1": float(np.mean(entropies[1:])) if len(entropies) > 1 else None,
        "cluster_count": assignment.k if assignment is not None else None,
    }
    (out / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=2))
    return out


def read_json(path) -> dict:
    """The JSON object in the file at `path`; every error names the file."""
    try:
        value = json.loads(Path(path).read_text())
    except ValueError as err:  # malformed JSON, or bytes that are not UTF-8
        raise ValueError(f"{path}: {err}") from None
    if not isinstance(value, dict):
        raise ValueError(f"{path} must hold a JSON object, got {type(value).__name__}")
    return value


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
        summary = read_json(summary_path)
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
