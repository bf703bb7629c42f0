"""The benchmark's workloads: the ExperimentConfig dicts each one runs.

Every config is generated from the workload seed alone. Configs name only the
fields the workload needs; `workers` and other fields that may be deleted are
left to their defaults, so removing them cannot break the benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

# Quality seeds per run are derived as seed * SEED_STRIDE + i.
SEED_STRIDE = 100
# Accuracy whose (interpolated) crossing round is `rounds_to_target`, on every
# workload; BENCHMARK.json's workload descriptions state the same value.
TARGET_ACCURACY = 0.40


@dataclass(frozen=True)
class Workload:
    name: str
    # Distinct derived seeds whose quality metrics are averaged in one run.
    quality_seeds: int
    # The config role whose accuracy curve gives final_accuracy/rounds_to_target.
    main_role: str
    # Time build_similarity_matrix/kmeans_cluster on 100, 400 and all clients.
    sweep: bool = False

    def configs(self, seed: int, output_dir: str) -> list[tuple[str, dict]]:
        """(role, raw config dict) pairs, run in this order."""
        return [
            (role, {**raw, "output_dir": output_dir, "name": f"{self.name}-{role}-{seed}"})
            for role, raw in _CONFIGS[self.name](seed)
        ]


def sub_seed(seed: int, i: int) -> int:
    return seed * SEED_STRIDE + i


def _battery(seed: int):
    # Acceptance criterion 1's config with a 50-round schedule.
    base = dict(
        seed=seed, n_clients=100, rounds=50, num_classes=10, dim=16, per_class=200,
        spread=1.5, test_per_class=400, partition="quantity", labels_per_client=2,
        hidden_sizes=[32], algorithm="fedavg", sample_ratio=0.1, epochs=20,
        batch_size=64, lr=0.5, decay=0.99, round1_participation="sampled",
    )
    return [("uniform", {**base, "sampler": "uniform"}),
            ("stratified", {**base, "sampler": "stratified"})]


def _cluster_scale(seed: int):
    # 1000 clients in 10 groups of 100, each group holding a disjoint label
    # pair; a short local schedule keeps the similarity pre-pass dominant.
    groups = [[100, [2 * g, 2 * g + 1]] for g in range(10)]
    return [("stratified", dict(
        seed=seed, n_clients=1000, rounds=8, num_classes=20, dim=16, per_class=500,
        spread=1.0, test_per_class=50, partition="manual", manual_groups=groups,
        hidden_sizes=[32], algorithm="fedavg", sampler="stratified", sample_ratio=0.1,
        epochs=1, batch_size=8, lr=1.0, decay=0.99, cluster_k=10, public_count=200,
    ))]


def _wide_scaffold(seed: int):
    # Unequal Dirichlet clients, a wide model and full participation: steps
    # are BLAS-bound, and aggregation and evaluation carry a large share.
    return [("uniform", dict(
        seed=seed, n_clients=50, rounds=10, num_classes=10, dim=32, per_class=300,
        spread=1.5, test_per_class=1000, partition="dirichlet", beta=0.3,
        hidden_sizes=[256, 256], algorithm="scaffold", sampler="uniform",
        sample_ratio=1.0, epochs=1, batch_size=32, lr=0.1, decay=0.99,
    ))]


_CONFIGS = {"battery": _battery, "cluster-scale": _cluster_scale, "wide-scaffold": _wide_scaffold}

WORKLOADS = {
    w.name: w
    for w in (
        Workload("battery", quality_seeds=6, main_role="stratified"),
        Workload("cluster-scale", quality_seeds=5, main_role="stratified", sweep=True),
        Workload("wide-scaffold", quality_seeds=6, main_role="uniform"),
    )
}
