import math
import tracemalloc

import numpy as np
import pytest

import fedsim.metrics as metrics_mod
from fedsim import (
    ClusterAssignment,
    Dataset,
    ModelParams,
    ModelSpec,
    Partition,
    comm_cost_step,
    evaluate_global,
    latent_cluster_gap,
    linear_cka,
    rounds_to_target,
    sample_relative_entropy,
    synth_blobs,
)
from fedsim.metrics import (
    RoundMetrics,
    one_time_cost,
    read_metrics_csv,
    write_metrics_csv,
)
from fedsim.sampling import SamplingPlan


def _plan(ids, round_idx=1):
    return SamplingPlan(round_idx, np.asarray(ids))


def test_entropy_zero_when_everyone_sampled():
    labels = np.array([0, 0, 1, 1, 2, 2])
    partition = Partition([np.array([0, 1]), np.array([2, 3]), np.array([4, 5])])
    val = sample_relative_entropy(_plan([0, 1, 2]), partition, labels, 3)
    assert val == pytest.approx(0.0, abs=1e-9)


def test_entropy_single_class_client_vs_balanced_global():
    labels = np.array([0, 0, 1, 1])
    partition = Partition([np.array([0, 1]), np.array([2, 3])])
    val = sample_relative_entropy(_plan([0]), partition, labels, 2)
    assert val == pytest.approx(math.log(2), abs=1e-6)


def test_entropy_rejects_empty_plan():
    labels = np.array([0, 1])
    with pytest.raises(ValueError):
        sample_relative_entropy(
            _plan([], 1), Partition([np.array([0]), np.array([1])]), labels, 2
        )


def test_latent_gap_identical_models_zero():
    latents = [np.ones((5, 3)) for _ in range(4)]
    assign = ClusterAssignment(np.array([0, 0, 1, 1]), 2)
    intra, rand = latent_cluster_gap(latents, assign, seed=0)
    assert intra == 0.0 and rand == 0.0


def test_latent_gap_separated_clusters():
    a = np.zeros((4, 2))
    b = np.full((4, 2), 10.0)
    latents = [a, a.copy(), b, b.copy()]
    assign = ClusterAssignment(np.array([0, 0, 1, 1]), 2)
    intra, rand = latent_cluster_gap(latents, assign, seed=1)
    assert intra == 0.0
    assert rand > 0.0


def test_latent_gap_all_singletons_rejected():
    latents = [np.zeros((3, 2)), np.ones((3, 2))]
    assign = ClusterAssignment(np.array([0, 1]), 2)
    with pytest.raises(ValueError):
        latent_cluster_gap(latents, assign, seed=0)


def test_cka_self_similarity_is_one():
    acts = np.random.default_rng(0).normal(size=(50, 7))
    assert linear_cka(acts, acts) == pytest.approx(1.0, abs=1e-9)


def test_cka_scale_and_orthogonal_invariance():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(40, 5))
    assert linear_cka(a, a * 3.7) == pytest.approx(1.0, abs=1e-9)
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    base = rng.normal(size=(40, 5))
    assert linear_cka(a, base) == pytest.approx(linear_cka(a, base @ q), abs=1e-9)


def test_cka_symmetric_and_bounded():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = rng.normal(size=(30, 4))
        b = rng.normal(size=(30, 6))
        v = linear_cka(a, b)
        assert -1e-9 <= v <= 1 + 1e-9
        assert v == pytest.approx(linear_cka(b, a), abs=1e-12)


def test_cka_matches_centered_gram_hsic_oracle():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(1000, 8))
    b = rng.normal(size=(1000, 12))

    def hsic_ratio(x, y):
        m = x.shape[0]
        h = np.eye(m) - np.ones((m, m)) / m
        kx = h @ (x @ x.T) @ h
        ky = h @ (y @ y.T) @ h
        return np.sum(kx * ky) / math.sqrt(np.sum(kx * kx) * np.sum(ky * ky))

    assert linear_cka(a, b) == pytest.approx(hsic_ratio(a, b), abs=1e-9)


def test_cka_zero_variance_returns_zero_with_warning():
    a = np.ones((10, 3))
    b = np.random.default_rng(4).normal(size=(10, 3))
    with pytest.warns(UserWarning):
        assert linear_cka(a, b) == 0.0


def test_evaluate_separable_blob_perfect_classifier():
    ds = synth_blobs(4, 6, 10, spread=0.0, seed=9)
    means = np.stack([ds.features[ds.labels == k][0] for k in range(4)])
    spec = ModelSpec((6, 4))
    weights = (10.0 * means.T).ravel()
    params = ModelParams(np.concatenate([weights, np.zeros(4)]), spec)
    acc, loss = evaluate_global(params, ds)
    assert acc == 1.0
    assert loss < 1e-6 or loss < math.log(4)  # confident and correct


def test_evaluate_zero_params_chance_level_and_log_k_loss():
    ds = synth_blobs(10, 3, 7, 1.0, seed=10)
    spec = ModelSpec((3, 10))
    params = ModelParams(np.zeros(spec.num_params), spec)
    acc, loss = evaluate_global(params, ds)
    assert acc == pytest.approx(0.1, abs=1e-12)  # argmax ties go to class 0
    assert loss == pytest.approx(math.log(10), abs=1e-9)


def test_evaluate_rejects_labels_beyond_the_model_before_scoring(monkeypatch):
    ds = synth_blobs(12, 3, 5, 1.0, seed=11)
    spec = ModelSpec((3, 10))
    params = ModelParams(np.zeros(spec.num_params), spec)
    monkeypatch.setattr(metrics_mod, "forward_logits", lambda *args: pytest.fail("scored"))
    with pytest.raises(ValueError, match="^test labels need 12 classes, the model has 10$"):
        evaluate_global(params, ds)


def test_evaluate_holds_one_row_block_of_activations():
    # wide-scaffold's scoring shape, 24 row blocks. One pass over all 10,000
    # rows peaked at 41.8 MB.
    rng = np.random.default_rng(12)
    spec = ModelSpec((32, 256, 256, 10))
    params = ModelParams(rng.normal(scale=0.1, size=spec.num_params), spec)
    test = Dataset(rng.normal(size=(10_000, 32)), rng.integers(0, 10, size=10_000), 10)
    tracemalloc.start()
    try:
        evaluate_global(params, test)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_rounds_to_target_boundaries():
    assert rounds_to_target([0.1, 0.5, 0.8], 0.7) == 3
    assert rounds_to_target([0.1, 0.2], 0.7) is None
    assert rounds_to_target([0.5, 0.2], 0.4) == 1
    with pytest.raises(ValueError):
        rounds_to_target([0.5], 1.5)


def test_comm_cost_scaffold_doubles_fedavg():
    plan = _plan(range(10))
    fed = comm_cost_step(plan, model_bytes=1_000_000, algorithm="fedavg")
    sca = comm_cost_step(plan, model_bytes=1_000_000, algorithm="scaffold")
    assert fed.per_client_down_bytes == fed.per_client_up_bytes == 1_000_000
    assert sca.per_client_down_bytes == sca.per_client_up_bytes == 2_000_000
    assert sca.total_bytes == 2 * fed.total_bytes
    # 10 clients, 1MB model -> 20MB round traffic under fedavg.
    assert fed.total_bytes == 20_000_000


def test_one_time_cost_formula():
    one_time = one_time_cost(num_clients=100, public_count=1000, public_dim=16, num_classes=10)
    public_bytes = 1000 * 16 * 4
    assert type(one_time) is int
    assert one_time == 100 * (public_bytes + 1000 * 10 * 4)
    assert one_time == 100 * (public_bytes + 40_000)


def test_metrics_csv_roundtrip_exact(tmp_path):
    rows = [
        RoundMetrics(1, 0.125, 2.3025850929940455, 0.6931471805599453, 1234),
        RoundMetrics(2, float("nan"), 0.1, 0.0, 5678),
    ]
    path = tmp_path / "metrics.csv"
    write_metrics_csv(rows, path)
    back = read_metrics_csv(path)
    assert back[0] == rows[0]
    assert math.isnan(back[1].test_accuracy)
    assert back[1].cumulative_bytes == 5678


def test_entropy_uses_histogram_of_partition_union():
    # Two sampled clients holding classes {0} and {1} out of a 3-class pool.
    labels = np.array([0, 0, 1, 1, 2, 2])
    partition = Partition([np.array([0, 1]), np.array([2, 3]), np.array([4, 5])])
    val = sample_relative_entropy(_plan([0, 1]), partition, labels, 3)
    # sample hist [.5,.5,0] vs global [1/3,1/3,1/3]
    expected = 2 * 0.5 * math.log(0.5 / (1 / 3))
    assert val == pytest.approx(expected, abs=1e-6)


def test_latent_gap_on_manual_split(manual_split):
    from fedsim import forward

    probe = manual_split.test.features
    latents = [forward(u.new_params, probe)[1] for u in manual_split.pre.updates]
    intra, rand = latent_cluster_gap(latents, manual_split.pre.assignment, seed=7)
    assert intra < rand


def test_cka_latent_layer_higher_within_cluster(manual_split):
    from fedsim import forward
    from tests.conftest import MANUAL_TRUTH

    probe = manual_split.test.features
    ups = manual_split.pre.updates
    same_group = [i for i in range(24) if MANUAL_TRUTH[i] == MANUAL_TRUTH[0]]
    other_group = [i for i in range(24) if MANUAL_TRUTH[i] != MANUAL_TRUTH[0]]

    def mean_cka(i, j):
        # A one-hidden-layer model's two layers: the softmax output and the hidden activations.
        layers = zip(forward(ups[i].new_params, probe), forward(ups[j].new_params, probe))
        return np.mean([linear_cka(a, b) for a, b in layers])

    assert mean_cka(0, same_group[1]) > mean_cka(0, other_group[-1])


def test_entropy_nonnegative_random_plans():
    rng = np.random.default_rng(8)
    labels = rng.integers(0, 4, size=60)
    partition = Partition(np.array_split(rng.permutation(60), 10))
    for trial in range(30):
        k = int(rng.integers(1, 10))
        ids = rng.choice(10, size=k, replace=False)
        val = sample_relative_entropy(_plan(sorted(ids)), partition, labels, 4)
        assert val >= 0.0
