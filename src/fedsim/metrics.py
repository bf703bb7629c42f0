"""Evaluation metrics and the communication-cost ledger.

Covers relative entropy of a sampled round's label mix, latent-distance
cluster quality, linear CKA between activation matrices, global accuracy and
loss, and byte accounting for every round of parameter traffic.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .mlp import PROB_FLOOR, ModelParams, forward, layer_activations
from .sampling import ClusterAssignment, SamplingPlan, kl_divergence

# Bytes per parameter on the wire (fp32 convention); internal math stays float64.
BYTES_PER_PARAM = 4
BYTES_PER_FEATURE = 4


@dataclass
class RoundMetrics:
    round: int
    test_accuracy: float
    test_loss: float
    sample_relative_entropy: float
    cumulative_bytes: int


@dataclass
class CostRecord:
    """One entry of parameter traffic: a round's, or the clustering pass's one-time bytes."""

    round: int
    per_client_down_bytes: int
    per_client_up_bytes: int
    num_clients: int
    one_time_bytes: int

    @property
    def total_bytes(self) -> int:
        per_client = self.per_client_down_bytes + self.per_client_up_bytes
        return self.num_clients * per_client + self.one_time_bytes


def comm_cost_step(plan: SamplingPlan, model_bytes: int, algorithm: str) -> CostRecord:
    """Parameter traffic for one round: download + upload per sampled client.

    SCAFFOLD moves a control vector the size of the model in both directions,
    doubling per-client traffic.
    """
    if model_bytes <= 0:
        raise ValueError("model_bytes must be > 0")
    factor = 2 if algorithm == "scaffold" else 1
    per_client = factor * int(model_bytes)
    return CostRecord(
        round=plan.round,
        per_client_down_bytes=per_client,
        per_client_up_bytes=per_client,
        num_clients=plan.budget,
        one_time_bytes=0,
    )


def one_time_cost(
    num_clients: int, public_count: int, public_dim: int, num_classes: int
) -> CostRecord:
    """Probe-set download plus soft-label upload, paid once by every client."""
    public_bytes = public_count * public_dim * BYTES_PER_FEATURE
    soft_bytes = public_count * num_classes * BYTES_PER_FEATURE
    return CostRecord(
        round=1,
        per_client_down_bytes=0,
        per_client_up_bytes=0,
        num_clients=num_clients,
        one_time_bytes=num_clients * (public_bytes + soft_bytes),
    )


class CostLedger:
    """Running byte totals of a run, which never decrease.

    Each record adds its `total_bytes` to `total` and its `one_time_bytes` to
    `one_time_total`; the records themselves are not kept.
    """

    def __init__(self):
        self.total = 0
        self.one_time_total = 0

    @property
    def recurring_total(self) -> int:
        return self.total - self.one_time_total

    def _add(self, rec: CostRecord) -> CostRecord:
        self.total += rec.total_bytes
        self.one_time_total += rec.one_time_bytes
        return rec

    def record_round(self, plan: SamplingPlan, model_bytes: int, algorithm: str) -> CostRecord:
        return self._add(comm_cost_step(plan, model_bytes, algorithm))

    def record_one_time(
        self, num_clients: int, public_count: int, public_dim: int, num_classes: int
    ) -> CostRecord:
        return self._add(one_time_cost(num_clients, public_count, public_dim, num_classes))


def label_histogram(labels, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    return np.bincount(labels, minlength=num_classes)


def _partition_lists(partition) -> list[np.ndarray]:
    if hasattr(partition, "assignment"):
        return partition.assignment
    return [np.asarray(a, dtype=np.int64) for a in partition]


def sample_relative_entropy(plan: SamplingPlan, partition, labels, num_classes: int) -> float:
    """KL of the sampled clients' pooled label mix from the global label mix."""
    lists = _partition_lists(partition)
    if plan.budget == 0:
        raise ValueError("empty sampling plan")
    labels = np.asarray(labels, dtype=np.int64)
    sampled = np.concatenate([lists[i] for i in plan.selected])
    if sampled.size == 0:
        raise ValueError("sampled clients hold no data")
    everything = np.concatenate(lists)
    sample_hist = label_histogram(labels[sampled], num_classes)
    global_hist = label_histogram(labels[everything], num_classes)
    return kl_divergence(sample_hist / sample_hist.sum(), global_hist / global_hist.sum())


def latent_cluster_gap(
    latents, assign: ClusterAssignment, seed, permutations: int = 20
) -> tuple[float, float]:
    """Mean same-cluster distance between per-client mean latents, and the same
    statistic averaged over size-preserving random relabelings."""
    means = np.stack([np.asarray(l, dtype=np.float64).mean(axis=0) for l in latents])
    n = means.shape[0]
    if n < 2:
        raise ValueError("need at least two clients")
    if n != assign.num_clients:
        raise ValueError("latents and assignment disagree on client count")
    diffs = means[:, None, :] - means[None, :, :]
    dist = np.sqrt((diffs * diffs).sum(axis=-1))
    iu = np.triu_indices(n, k=1)

    def intra_mean(labels: np.ndarray) -> float | None:
        mask = labels[iu[0]] == labels[iu[1]]
        if not mask.any():
            return None
        return float(dist[iu][mask].mean())

    base = intra_mean(assign.labels)
    if base is None:
        raise ValueError("every cluster is a singleton; intra distance undefined")
    rng = np.random.default_rng(seed)
    randoms = [intra_mean(rng.permutation(assign.labels)) for _ in range(permutations)]
    return base, float(np.mean(randoms))


def linear_cka(acts_a, acts_b) -> float:
    """Linear centered kernel alignment between two activation matrices."""
    a = np.asarray(acts_a, dtype=np.float64)
    b = np.asarray(acts_b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ValueError("activation matrices must be 2-d with equal row counts")
    if a.shape[0] < 2:
        raise ValueError("need at least two probe rows")
    a = a - a.mean(axis=0)
    b = b - b.mean(axis=0)
    cross = np.linalg.norm(a.T @ b) ** 2
    denom = np.linalg.norm(a.T @ a) * np.linalg.norm(b.T @ b)
    if denom == 0.0:
        warnings.warn("zero-variance activations; CKA undefined, returning 0")
        return 0.0
    return float(cross / denom)


def cka_layer_map(params_a: ModelParams, params_b: ModelParams, probe) -> np.ndarray:
    """Pairwise linear CKA between every layer of two models on a shared probe."""
    acts_a = layer_activations(params_a, probe)
    acts_b = layer_activations(params_b, probe)
    grid = np.zeros((len(acts_a), len(acts_b)))
    for i, ai in enumerate(acts_a):
        for j, bj in enumerate(acts_b):
            grid[i, j] = linear_cka(ai, bj)
    return grid


def evaluate_global(params: ModelParams, test) -> tuple[float, float]:
    """Argmax accuracy and mean cross-entropy on a labeled dataset."""
    if len(test) == 0:
        raise ValueError("test set is empty")
    probs, _ = forward(params, test.features)
    pred = np.argmax(probs, axis=1)
    accuracy = float(np.mean(pred == test.labels))
    picked = probs[np.arange(len(test)), test.labels]
    loss = -float(np.mean(np.log(np.maximum(picked, PROB_FLOOR))))
    return accuracy, loss


def rounds_to_target(accuracies, target: float) -> int | None:
    """1-indexed first round reaching the target accuracy, or None."""
    if not 0.0 < target < 1.0:
        raise ValueError("target accuracy must be in (0, 1)")
    for i, acc in enumerate(accuracies):
        if acc >= target:
            return i + 1
    return None


METRICS_FIELDS = ("round", "test_accuracy", "test_loss", "sample_relative_entropy", "cumulative_bytes")


def write_metrics_csv(rows: list[RoundMetrics], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_FIELDS)
        for r in rows:
            writer.writerow(
                [
                    r.round,
                    repr(float(r.test_accuracy)),
                    repr(float(r.test_loss)),
                    repr(float(r.sample_relative_entropy)),
                    int(r.cumulative_bytes),
                ]
            )


def read_metrics_csv(path) -> list[RoundMetrics]:
    """Rows written by `write_metrics_csv`; a file lacking any of its columns is a ValueError."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [f for f in METRICS_FIELDS if f not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path} lacks the column(s) {', '.join(missing)}")
        for rec in reader:
            rows.append(
                RoundMetrics(
                    round=int(rec["round"]),
                    test_accuracy=float(rec["test_accuracy"]),
                    test_loss=float(rec["test_loss"]),
                    sample_relative_entropy=float(rec["sample_relative_entropy"]),
                    cumulative_bytes=int(rec["cumulative_bytes"]),
                )
            )
    return rows
