"""Evaluation metrics and byte accounting.

Covers relative entropy of a sampled round's label mix, latent-distance
cluster quality, linear CKA between activation matrices, global accuracy and
loss, and byte accounting for every round of parameter traffic.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .mlp import PROB_FLOOR, ModelParams, forward_logits, softmax
from .mlp import forward  # noqa: F401  bench/tracer.py traces fedsim.metrics.forward
from .sampling import ClusterAssignment, SamplingPlan, kl_divergence

# Bytes per number on the wire (fp32 convention) for parameters, probe features
# and soft labels alike; internal math stays float64.
BYTES_PER_PARAM = 4


@dataclass
class RoundMetrics:
    round: int
    test_accuracy: float
    test_loss: float
    sample_relative_entropy: float
    cumulative_bytes: int


@dataclass
class CostRecord:
    """One round's parameter traffic."""

    per_client_down_bytes: int
    per_client_up_bytes: int
    num_clients: int

    @property
    def total_bytes(self) -> int:
        return self.num_clients * (self.per_client_down_bytes + self.per_client_up_bytes)


def comm_cost_step(plan: SamplingPlan, model_bytes: int, algorithm: str) -> CostRecord:
    """Parameter traffic for one round: download + upload per sampled client.

    SCAFFOLD moves a control vector the size of the model in both directions,
    doubling per-client traffic.
    """
    if model_bytes <= 0:
        raise ValueError("model_bytes must be > 0")
    factor = 2 if algorithm == "scaffold" else 1
    per_client = factor * int(model_bytes)
    return CostRecord(per_client, per_client, plan.budget)


def one_time_cost(num_clients: int, public_count: int, public_dim: int, num_classes: int) -> int:
    """Bytes of the probe-set download plus the soft-label upload, paid once by every client."""
    return num_clients * public_count * (public_dim + num_classes) * BYTES_PER_PARAM


def sample_relative_entropy(plan: SamplingPlan, partition, labels, num_classes: int) -> float:
    """KL of the sampled clients' pooled label mix from the whole `Partition`'s label mix,
    never over an empty pool: a plan holds a client, and `Partition` gives each a sample."""
    lists = partition.assignment
    if plan.budget == 0:
        raise ValueError("empty sampling plan")
    labels = np.asarray(labels, dtype=np.int64)
    sampled = np.concatenate([lists[i] for i in plan.selected])
    everything = np.concatenate(lists)
    sample_hist = np.bincount(labels[sampled], minlength=num_classes)
    global_hist = np.bincount(labels[everything], minlength=num_classes)
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


def evaluate_global(params: ModelParams, test) -> tuple[float, float]:
    """Argmax accuracy and mean cross-entropy on a labeled dataset, scored in row blocks."""
    if len(test) == 0:
        raise ValueError("test set is empty")
    classes = int(np.max(test.labels)) + 1
    if classes > params.spec.num_classes:
        raise ValueError(f"test labels need {classes} classes, the model has {params.spec.num_classes}")
    # A model with huge weights scores a nan loss; numpy's warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        logits = forward_logits(params, test.features)
        probs = softmax(logits, out=logits)
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
    """Rows written by `write_metrics_csv`.

    A file lacking any of its columns, or a row with fewer or more fields than
    the header or a field that is not a number, is a ValueError naming the
    file (and the line).
    """
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [f for f in METRICS_FIELDS if f not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path} lacks the column(s) {', '.join(missing)}")
        for rec in reader:
            # DictReader keys a row's extra fields by None and fills missing ones with None.
            if None in rec or None in rec.values():
                raise ValueError(f"{path} line {reader.line_num} does not have one field per column")
            fields = [rec[f] for f in METRICS_FIELDS]
            try:
                rows.append(RoundMetrics(int(fields[0]), *map(float, fields[1:4]), int(fields[4])))
            except ValueError as exc:
                raise ValueError(f"{path} line {reader.line_num}: {exc}") from None
    return rows
