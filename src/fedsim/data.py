"""Labeled datasets, the unlabeled probe set, and non-IID client partitions.

Partitioners implement three label skews: Dirichlet proportions per class,
a fixed number of distinct labels per client, and fully manual label groups.
All of them are deterministic for a given seed and never assign one sample
to two clients.
"""

from __future__ import annotations

import warnings
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
        with warnings.catch_warnings():  # an empty file raises below instead
            warnings.simplefilter("ignore", UserWarning)
            raw = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    if raw.size == 0:
        raise ValueError(f"{path} has no data rows")
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


def partition_size_errors(
    partition: str, n_clients: int, class_sizes, labels_per_client: int = 1, groups=()
) -> list[str]:
    """One message per broken partition rule, each naming its config field.

    `class_sizes[k]` is class k's sample count. The rules leave every client a
    sample and no sample two clients: no more clients than samples; for
    "quantity", `labels_per_client` in [1, classes] and label slots for every
    class; for "manual", (count, labels) `groups` entries with a client and a
    label each, labels that are classes, none listed twice, and no entry with
    more clients than its largest label has samples (each label is split
    among all of the entry's clients).
    """
    # A float64 total never wraps, and is exact below 2**53 samples.
    k, total = len(class_sizes), int(np.sum(class_sizes, dtype=np.float64))
    errors = []
    if n_clients > total:
        errors.append(f"n_clients: {n_clients} clients, more clients than samples ({total})")
    if partition == "quantity":
        if not 1 <= labels_per_client <= k:
            errors.append(f"labels_per_client: must be in [1, {k}]")
        elif n_clients * labels_per_client < k:
            errors.append(
                "labels_per_client: infeasible, n_clients*labels_per_client "
                f"= {n_clients * labels_per_client} < {k} classes"
            )
    groups = groups if partition == "manual" else ()
    for i, (count, labels) in enumerate(groups):
        if count < 1 or not labels:
            errors.append(f"manual_groups: entry {i} needs at least one client and one label")
        elif not all(0 <= lb < k for lb in labels):
            errors.append(f"manual_groups: entry {i} has a label outside classes 0..{k - 1}")
        elif count > (most := max(class_sizes[lb] for lb in labels)):
            errors.append(
                f"manual_groups: entry {i} has {count} clients, "
                f"more than the {most} samples of its largest label"
            )
    listed = [lb for _, labels in groups for lb in labels]
    if repeated := sorted({lb for lb in listed if listed.count(lb) > 1}):
        errors.append(f"manual_groups: label {repeated[0]} is listed more than once")
    return errors


def _check_sizes(ds: Dataset, partition: str, n_clients: int, **rule_args) -> None:
    if n_clients < 1:
        raise ValueError("need at least one client")
    sizes = np.bincount(ds.labels, minlength=ds.num_classes)
    if errors := partition_size_errors(partition, n_clients, sizes, **rule_args):
        raise ValueError("; ".join(errors))


def _finish(assignment: list[list[int]]) -> Partition:
    """Give each empty client one sample of the largest (the size rules leave it two)."""
    while empty := [i for i, a in enumerate(assignment) if len(a) == 0]:
        donor = max(range(len(assignment)), key=lambda i: len(assignment[i]))
        assignment[empty[0]].append(assignment[donor].pop())
    return Partition([np.sort(np.asarray(a, dtype=np.int64)) for a in assignment])


def _deal(ds: Dataset, label_sets, rng=None) -> Partition:
    """Split each label's samples, shuffled by `rng` if given, evenly among the clients holding it.

    `label_sets[i]` is client i's labels; a label no client holds is dealt to no one.
    """
    assignment: list[list[int]] = [[] for _ in label_sets]
    for lb in sorted(set().union(*label_sets)):
        holders = [i for i, s in enumerate(label_sets) if lb in s]
        idx = np.flatnonzero(ds.labels == lb)
        if rng is not None:
            rng.shuffle(idx)
        for holder, chunk in zip(holders, np.array_split(idx, len(holders))):
            assignment[holder].extend(chunk.tolist())
    return _finish(assignment)


def partition_dirichlet(ds: Dataset, num_clients: int, beta: float, seed) -> Partition:
    """Split each class by proportions drawn from Dirichlet(beta, ..., beta).

    A class without samples is dealt nothing. Raises ValueError for a `beta`
    that is not positive or a broken `partition_size_errors` rule.
    """
    _check_sizes(ds, "dirichlet", num_clients)
    if beta <= 0:
        raise ValueError("beta must be > 0")
    rng = np.random.default_rng(seed)
    assignment: list[list[int]] = [[] for _ in range(num_clients)]
    for k in range(ds.num_classes):
        idx = np.flatnonzero(ds.labels == k)
        rng.shuffle(idx)
        counts = largest_remainder(rng.dirichlet(np.full(num_clients, beta)) * idx.size, idx.size)
        for client, chunk in zip(assignment, np.split(idx, np.cumsum(counts)[:-1])):
            client.extend(chunk.tolist())
    return _finish(assignment)


def partition_quantity(ds: Dataset, num_clients: int, labels_per_client: int, seed) -> Partition:
    """Give each client exactly `labels_per_client` distinct labels.

    Every label ends up held by at least one client, and `_deal` splits each
    label's shuffled samples evenly among its holders: a class without samples
    is dealt nothing. Raises ValueError for a broken `partition_size_errors` rule.
    """
    k = ds.num_classes
    x = labels_per_client
    _check_sizes(ds, "quantity", num_clients, labels_per_client=x)
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
    return _deal(ds, label_sets, rng)


def partition_manual(ds: Dataset, groups: list[tuple[int, list[int]]]) -> Partition:
    """Deterministic split: each group's labels are divided evenly among its clients.

    Clients are numbered group by group, in order; labels no group lists are
    dealt to no one. Raises ValueError for a broken `partition_size_errors`
    rule, such as an entry without clients or labels or a label listed twice.
    """
    _check_sizes(ds, "manual", sum(count for count, _ in groups), groups=groups)
    return _deal(ds, [set(labels) for count, labels in groups for _ in range(count)])
