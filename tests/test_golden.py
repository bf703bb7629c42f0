"""Golden bytes: pinned sha256 of the byte-compared run artifacts.

A change that is meant to keep results identical (a refactor or a speed-up of
the training loop, the similarity build or the aggregators) must leave these
hashes as they are. A change that alters results on purpose updates them in
the same commit and says why.
"""

import hashlib

import pytest

from fedsim import ExperimentConfig, run_experiment

# Acceptance criterion 8's config.
DETERMINISM = dict(
    seed=17, n_clients=12, rounds=5, num_classes=5, dim=8, per_class=30,
    test_per_class=10, partition="quantity", labels_per_client=2,
    hidden_sizes=[10], sample_ratio=0.5, epochs=2, batch_size=8, lr=0.05,
    public_count=60, sampler="stratified",
)

# Acceptance criterion 1's battery config (first seed, stratified), cut to 5 rounds.
BATTERY = dict(
    seed=11, n_clients=100, rounds=5, num_classes=10, dim=16, per_class=200,
    spread=1.5, test_per_class=400, partition="quantity", labels_per_client=2,
    hidden_sizes=[32], algorithm="fedavg", sampler="stratified", sample_ratio=0.1,
    epochs=20, batch_size=64, lr=0.5, decay=0.99, round1_participation="sampled",
)

# Scaffold with two hidden layers, stratified: control variates and a deeper
# backprop go through the pre-pass and the rounds.
SCAFFOLD = dict(
    seed=23, n_clients=16, rounds=4, num_classes=6, dim=10, per_class=40,
    test_per_class=20, partition="dirichlet", beta=0.5, hidden_sizes=[12, 8],
    algorithm="scaffold", sampler="stratified", sample_ratio=0.5, epochs=2,
    batch_size=8, lr=0.05, public_count=50, cluster_k=3,
)

# Re-pinned when k-means moved to D² (k-means++) seeding: on the determinism
# and battery configs it finds the same partitions as before but numbers the
# clusters differently. `stratified_sample` draws cluster by cluster in id
# order, so the sampled clients, and metrics.csv, changed. The similarity
# matrices and the scaffold config's metrics.csv kept their bytes.
GOLDEN = {
    "determinism": (
        DETERMINISM,
        "340f8096b3ac2a1bba0e73d3f5cc1a681ed90801cb127a9af85b6c2f3056c4c9",
        "7e38b820690aca7f8b5628dc19fd05142f43ad5099e8f489a1d5d085374995e1",
    ),
    "battery": (
        BATTERY,
        "d3714e8e5f2c049295569c0dc07c22bee40333c900566265db9d0d314e397e8e",
        "1756a827a89a2c0bf4cde9a306bec1117755553980178ca672eb5dbaa8c39d29",
    ),
    "scaffold": (
        SCAFFOLD,
        "a06b6a07cda7d184864d8389e0604d2f32b3fa957487c872261ad2fe0dabb423",
        "9a53994c85195627c9e0616ed9606c032b667fc6c27f103316a1e506af6af82b",
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_bytes(name, tmp_path):
    config, metrics_sha, matrix_sha = GOLDEN[name]
    out = run_experiment(ExperimentConfig(name=name, output_dir=str(tmp_path), **config))
    assert _sha256(out / "metrics.csv") == metrics_sha
    assert _sha256(out / "similarity_matrix.csv") == matrix_sha
