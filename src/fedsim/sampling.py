"""Client similarity, clustering, and the per-round sampling strategies.

The similarity matrix holds pairwise KL divergences between the clients'
soft-label outputs on a shared probe set. Clients are clustered once by
running seeded k-means on the matrix rows; afterwards each round draws a
proportional quota from every cluster (stratified) or a plain uniform sample.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import largest_remainder
from .mlp import PROB_FLOOR

KMEANS_RESTARTS = 10
KMEANS_MAX_ITER = 300  # Lloyd iterations per restart


@dataclass
class ClusterAssignment:
    """Cluster id per client, ids in [0, k)."""

    labels: np.ndarray
    k: int
    inertia: float = math.nan

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.k < 1 or self.labels.size < self.k:
            raise ValueError("need 1 <= k <= number of clients")
        if self.labels.min() < 0 or self.labels.max() >= self.k:
            raise ValueError("cluster ids out of range")

    @property
    def num_clients(self) -> int:
        return int(self.labels.size)

    def sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.k)

    def to_dict(self) -> dict[str, int]:
        return {str(i): int(c) for i, c in enumerate(self.labels)}

    def save_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), sort_keys=True, indent=2))


@dataclass
class SamplingPlan:
    """Clients selected for one round, ids sorted ascending."""

    round: int
    selected: np.ndarray
    per_cluster_quota: list[int] | None = None

    def __post_init__(self):
        self.selected = np.asarray(self.selected, dtype=np.int64)
        if self.selected.size != np.unique(self.selected).size:
            raise ValueError("selected client ids must be unique")
        self.selected = np.sort(self.selected)

    @property
    def budget(self) -> int:
        return int(self.selected.size)


def _floor_rows(rows: np.ndarray) -> np.ndarray:
    """Clip probabilities at the floor and renormalize each row."""
    a = np.maximum(rows, PROB_FLOOR)
    return a / a.sum(axis=-1, keepdims=True)


def _check_distribution(p: np.ndarray, name: str) -> None:
    if np.any(p < 0):
        raise ValueError(f"{name} has negative entries")
    sums = p.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > 1e-9):
        raise ValueError(f"{name} rows must sum to 1 within 1e-9")


def kl_divergence(p, q) -> float:
    """KL(p || q) in nats, with both vectors floored at 1e-12 and renormalized."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError("p and q must be 1-d vectors of equal length")
    _check_distribution(p, "p")
    _check_distribution(q, "q")
    pf = _floor_rows(p)
    qf = _floor_rows(q)
    val = float(np.sum(pf * (np.log(pf) - np.log(qf))))
    return max(val, 0.0)


def build_similarity_matrix(soft_labels) -> np.ndarray:
    """n x n matrix of pairwise KL divergences between clients' soft labels.

    The (i, j) entry is the mean over probe samples of
    KL(row of client i || row of client j).
    """
    mats = [np.asarray(s, dtype=np.float64) for s in soft_labels]
    n = len(mats)
    if n == 0:
        raise ValueError("need at least one soft-label set")
    shape = mats[0].shape
    if any(m.shape != shape for m in mats) or len(shape) != 2:
        raise ValueError("all soft-label sets must share the same (samples, classes) shape")
    for i, m in enumerate(mats):
        _check_distribution(m, f"soft labels of client {i}")

    probs = _floor_rows(np.stack(mats))
    logs = np.log(probs)
    self_term = np.einsum("imk,imk->i", probs, logs)
    cross = np.einsum("imk,jmk->ij", probs, logs)
    matrix = (self_term[:, None] - cross) / shape[0]
    matrix = np.maximum(matrix, 0.0)
    np.fill_diagonal(matrix, 0.0)
    return matrix


def default_cluster_count(n: int) -> int:
    """log2-scale cluster count, never below 1."""
    if n < 1:
        raise ValueError("need at least one client")
    return max(1, int(round(math.log2(n))))


def _lloyd_once(points: np.ndarray, k: int, rng: np.random.Generator, max_iter: int):
    """One restart of Lloyd's algorithm; returns labels, inertia, inertia history."""
    n = points.shape[0]
    centers = points[rng.choice(n, size=k, replace=False)].copy()
    labels = np.full(n, -1, dtype=np.int64)
    history: list[float] = []
    for _ in range(max_iter):
        d2 = (
            (points * points).sum(axis=1)[:, None]
            + (centers * centers).sum(axis=1)[None, :]
            - 2.0 * points @ centers.T
        )
        np.maximum(d2, 0.0, out=d2)
        new_labels = np.argmin(d2, axis=1)
        own = d2[np.arange(n), new_labels]
        for c in range(k):
            if not np.any(new_labels == c):
                # Repair an empty cluster with the point farthest from its centroid.
                far = int(np.argmax(own))
                new_labels[far] = c
                own[far] = -np.inf
        converged = np.array_equal(new_labels, labels)
        labels = new_labels
        centers = np.vstack([points[labels == c].mean(axis=0) for c in range(k)])
        history.append(float(((points - centers[labels]) ** 2).sum()))
        if converged:
            break
    return labels, history[-1], history


def kmeans_cluster(matrix, k: int, seed) -> ClusterAssignment:
    """Seeded k-means over the similarity-matrix rows, best of `KMEANS_RESTARTS` restarts."""
    points = np.asarray(matrix, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("matrix must be 2-d")
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got {k}")
    rng = np.random.default_rng(seed)
    best_labels, best_inertia = None, np.inf
    for _ in range(KMEANS_RESTARTS):
        labels, inertia, _ = _lloyd_once(points, k, rng, KMEANS_MAX_ITER)
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return ClusterAssignment(best_labels, k, best_inertia)


def stratified_sample(assign: ClusterAssignment, budget: int, round_idx: int, seed) -> SamplingPlan:
    """Proportional per-cluster quotas, then seeded uniform picks inside each cluster."""
    n = assign.num_clients
    if not 1 <= budget <= n:
        raise ValueError(f"budget must be in [1, {n}]")
    sizes = assign.sizes()
    # budget <= n keeps every real share, and so its ceiling, within the cluster's size.
    quotas = largest_remainder(budget * sizes / n, budget)
    rng = np.random.default_rng([_as_seed(seed), round_idx, 1])
    selected: list[int] = []
    for c in range(assign.k):
        if quotas[c] == 0:
            continue
        members = np.flatnonzero(assign.labels == c)
        selected.extend(rng.choice(members, size=int(quotas[c]), replace=False).tolist())
    return SamplingPlan(round_idx, np.asarray(selected), [int(q) for q in quotas])


def uniform_sample(n: int, budget: int, round_idx: int, seed) -> SamplingPlan:
    """Seeded uniform choice of `budget` clients without replacement."""
    if not 1 <= budget <= n:
        raise ValueError(f"budget must be in [1, {n}]")
    rng = np.random.default_rng([_as_seed(seed), round_idx, 0])
    return SamplingPlan(round_idx, rng.choice(n, size=budget, replace=False))


def _as_seed(seed) -> int:
    if not isinstance(seed, (int, np.integer)):
        raise ValueError("sampler seeds must be integers")
    return int(seed)


def save_matrix_csv(matrix, path) -> None:
    """CSV grid at full float64 precision."""
    np.savetxt(path, np.asarray(matrix, dtype=np.float64), delimiter=",", fmt="%.17g")
