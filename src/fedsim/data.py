"""Labeled datasets, the unlabeled probe set, and non-IID client partitions.

Partitioners implement three label skews: Dirichlet proportions per class,
a fixed number of distinct labels per client, and fully manual label groups.
All of them are deterministic for a given seed and never assign one sample
to two clients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Class means sit on a sphere of this radius. The probe cube is uniform (not
# Gaussian) over a range shifted off-center yet still straddling the blob
# cloud, so probes are out-of-distribution but elicit informative soft labels.
BLOB_RADIUS = 3.0
PUBLIC_RANGE = (-4.0, 6.0)


@dataclass
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ValueError("features must be a non-empty 2-d matrix")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must match the feature row count")
        if self.num_classes < 2:
            raise ValueError("need at least 2 classes")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise ValueError("labels out of range")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass
class Partition:
    """Per-client lists of sample indices; indices are disjoint across clients."""

    assignment: list[np.ndarray]

    def __post_init__(self):
        self.assignment = [np.asarray(a, dtype=np.int64) for a in self.assignment]
        if any(a.size == 0 for a in self.assignment):
            raise ValueError("every client needs at least one sample")
        flat = np.concatenate(self.assignment) if self.assignment else np.array([], np.int64)
        flat.sort()
        # Sorted neighbours, not `np.unique`, which imports `numpy.ma` on first use.
        if (flat[1:] == flat[:-1]).any():
            raise ValueError("partition assigns a sample index to two clients")

    @property
    def num_clients(self) -> int:
        return len(self.assignment)


def synth_blobs(num_classes: int, dim: int, per_class: int, spread: float, seed) -> Dataset:
    """Balanced Gaussian clusters with seeded class means on a sphere."""
    if num_classes < 2:
        raise ValueError("need at least 2 classes")
    if per_class < 1 or dim < 1:
        raise ValueError("per_class and dim must be >= 1")
    if spread < 0:
        raise ValueError("spread must be >= 0")
    rng = np.random.default_rng(seed)
    directions = rng.normal(size=(num_classes, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    means = BLOB_RADIUS * directions
    features = np.vstack(
        [means[k] + spread * rng.normal(size=(per_class, dim)) for k in range(num_classes)]
    )
    labels = np.repeat(np.arange(num_classes), per_class)
    return Dataset(features, labels, num_classes)


def synth_public(dim: int, count: int, seed) -> np.ndarray:
    """A (count, dim) probe set drawn from a uniform cube shifted away from the blob cloud."""
    if count < 1 or dim < 1:
        raise ValueError("count and dim must be >= 1")
    rng = np.random.default_rng(seed)
    low, high = PUBLIC_RANGE
    return rng.uniform(low, high, size=(count, dim))


def load_csv(path, num_classes: int | None = None) -> Dataset:
    """Headerless CSV with real feature columns followed by one integer label; errors name `path`."""
    try:
        raw = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    if raw.shape[1] < 2:
        raise ValueError(f"{path} needs at least one feature column plus the label")
    bad = ~np.isfinite(raw).all(axis=1)
    if bad.any():
        with open(path) as fh:  # np.loadtxt skips a line left empty once "#" comments go
            lines = [i for i, text in enumerate(fh, 1) if text.split("#")[0].rstrip("\n")]
        raise ValueError(f"{path} line {lines[np.argmax(bad)]} holds a non-finite value")
    labels = raw[:, -1]
    if not np.all(labels == np.floor(labels)):
        raise ValueError(f"{path}: label column must be integral")
    labels = labels.astype(np.int64)
    k = int(labels.max()) + 1 if num_classes is None else num_classes
    try:
        return Dataset(raw[:, :-1], labels, k)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def largest_remainder(reals, total: int) -> np.ndarray:
    """Round non-negative reals that sum to `total` to integers that sum to it exactly.

    Floor everything, then hand out the remaining units by descending
    fractional part (ties to the lower index), at most one unit each. Floors
    above `total`, or more units left than entries, raise.
    """
    reals = np.asarray(reals, dtype=np.float64)
    counts = np.floor(reals).astype(np.int64)
    remaining = int(total) - int(counts.sum())
    if remaining < 0:
        raise ValueError(f"reals sum above total {total}")
    if remaining > counts.size:
        raise ValueError(f"reals sum below total {total}")
    order = np.argsort(-(reals - np.floor(reals)), kind="stable")
    for i in order[:remaining]:
        counts[i] += 1
    return counts


def _repair_empty(assignment: list[list[int]]) -> None:
    """Move single samples from the largest client into any empty one."""
    while True:
        empty = [i for i, a in enumerate(assignment) if len(a) == 0]
        if not empty:
            return
        donor = max(range(len(assignment)), key=lambda i: len(assignment[i]))
        if len(assignment[donor]) <= 1:
            raise ValueError("not enough samples to give every client at least one")
        assignment[empty[0]].append(assignment[donor].pop())


def _finish(assignment: list[list[int]]) -> Partition:
    _repair_empty(assignment)
    return Partition([np.sort(np.asarray(a, dtype=np.int64)) for a in assignment])


def partition_dirichlet(ds: Dataset, num_clients: int, beta: float, seed) -> Partition:
    """Split each class by proportions drawn from Dirichlet(beta, ..., beta)."""
    if num_clients < 1:
        raise ValueError("need at least one client")
    if num_clients > len(ds):
        raise ValueError("more clients than samples")
    if beta <= 0:
        raise ValueError("beta must be > 0")
    rng = np.random.default_rng(seed)
    assignment: list[list[int]] = [[] for _ in range(num_clients)]
    for k in range(ds.num_classes):
        idx = np.flatnonzero(ds.labels == k)
        if idx.size == 0:
            raise ValueError(f"class {k} has no samples")
        rng.shuffle(idx)
        proportions = rng.dirichlet(np.full(num_clients, beta))
        counts = largest_remainder(proportions * idx.size, idx.size)
        start = 0
        for client, c in enumerate(counts):
            assignment[client].extend(idx[start : start + c].tolist())
            start += c
    return _finish(assignment)


def partition_quantity(ds: Dataset, num_clients: int, labels_per_client: int, seed) -> Partition:
    """Give each client exactly `labels_per_client` distinct labels.

    Every label ends up held by at least one client; each label's samples are
    split evenly among its holders.
    """
    k = ds.num_classes
    x = labels_per_client
    if not 1 <= x <= k:
        raise ValueError(f"labels_per_client must be in [1, {k}]")
    if num_clients < 1:
        raise ValueError("need at least one client")
    if num_clients * x < k:
        raise ValueError(
            f"infeasible: {num_clients} clients x {x} labels cannot cover {k} classes"
        )
    rng = np.random.default_rng(seed)
    label_sets = [set(rng.choice(k, size=x, replace=False).tolist()) for _ in range(num_clients)]

    holders = np.zeros(k, dtype=np.int64)
    for s in label_sets:
        for lb in s:
            holders[lb] += 1
    for missing in range(k):
        if holders[missing] > 0:
            continue
        # Swap out a label that someone else also holds.
        candidates = [
            i
            for i, s in enumerate(label_sets)
            if missing not in s and any(holders[lb] >= 2 for lb in s)
        ]
        client = int(rng.choice(candidates))
        swappable = sorted(lb for lb in label_sets[client] if holders[lb] >= 2)
        out = int(rng.choice(swappable))
        label_sets[client].remove(out)
        label_sets[client].add(missing)
        holders[out] -= 1
        holders[missing] += 1

    assignment: list[list[int]] = [[] for _ in range(num_clients)]
    for lb in range(k):
        owner_ids = [i for i, s in enumerate(label_sets) if lb in s]
        idx = np.flatnonzero(ds.labels == lb)
        rng.shuffle(idx)
        for owner, chunk in zip(owner_ids, np.array_split(idx, len(owner_ids))):
            assignment[owner].extend(chunk.tolist())
    return _finish(assignment)


def partition_manual(ds: Dataset, groups: list[tuple[int, list[int]]]) -> Partition:
    """Deterministic split: each group's labels are divided evenly among its clients."""
    if not groups:
        raise ValueError("need at least one group")
    seen: set[int] = set()
    for count, labels in groups:
        if count < 1:
            raise ValueError("every group needs at least one client")
        if not labels:
            raise ValueError("every group needs at least one label")
        for lb in labels:
            if not 0 <= lb < ds.num_classes:
                raise ValueError(f"label {lb} out of range")
            if lb in seen:
                raise ValueError(f"label {lb} appears in two groups")
            seen.add(lb)

    assignment: list[list[int]] = []
    for count, labels in groups:
        members: list[list[int]] = [[] for _ in range(count)]
        for lb in labels:
            idx = np.flatnonzero(ds.labels == lb)
            for member, chunk in zip(members, np.array_split(idx, count)):
                member.extend(chunk.tolist())
        assignment.extend(members)
    if any(len(a) == 0 for a in assignment):
        raise ValueError("a group has more clients than samples of its labels")
    return Partition([np.sort(np.asarray(a, dtype=np.int64)) for a in assignment])
