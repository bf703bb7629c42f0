import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim import (
    ClusterAssignment,
    build_similarity_matrix,
    default_cluster_count,
    kl_divergence,
    kmeans_cluster,
    stratified_sample,
    uniform_sample,
)
from fedsim.sampling import _lloyd_once, save_matrix_csv


def test_kl_identity_is_zero():
    assert kl_divergence([0.25, 0.25, 0.5], [0.25, 0.25, 0.5]) == 0.0


def test_kl_hand_value():
    # 0.5*ln(2) + 0.5*ln(2/3) = 0.5*ln(4/3)
    assert kl_divergence([0.5, 0.5], [0.25, 0.75]) == pytest.approx(0.143841, abs=1e-6)


def test_kl_zero_entry_floored_finite():
    val = kl_divergence([0.5, 0.5], [1.0, 0.0])
    assert math.isfinite(val) and val > 0


def test_kl_rejects_length_mismatch_and_bad_inputs():
    with pytest.raises(ValueError):
        kl_divergence([0.5, 0.5], [1.0])
    with pytest.raises(ValueError):
        kl_divergence([0.7, 0.7], [0.5, 0.5])
    with pytest.raises(ValueError):
        kl_divergence([-0.1, 1.1], [0.5, 0.5])


def test_kl_never_negative_over_random_pairs():
    rng = np.random.default_rng(0)
    for _ in range(200):
        k = int(rng.integers(2, 8))
        p = rng.dirichlet(np.ones(k))
        q = rng.dirichlet(np.ones(k))
        assert kl_divergence(p, q) >= 0.0


def test_similarity_identical_sets_all_zero():
    rows = np.random.default_rng(1).dirichlet(np.ones(4), size=6)
    m = build_similarity_matrix([rows, rows.copy(), rows.copy()])
    assert np.array_equal(m, np.zeros((3, 3)))


def test_similarity_single_client():
    rows = np.random.default_rng(2).dirichlet(np.ones(3), size=5)
    assert np.array_equal(build_similarity_matrix([rows]), np.zeros((1, 1)))


def test_similarity_hand_computed_three_clients():
    # Single-sample soft labels; six pairwise KLs evaluated with scalar math.
    a = np.array([[0.7, 0.2, 0.1]])
    b = np.array([[0.1, 0.8, 0.1]])
    c = np.array([[0.3, 0.3, 0.4]])
    m = build_similarity_matrix([a, b, c])

    def hand(p, q):
        return sum(pi * math.log(pi / qi) for pi, qi in zip(p, q))

    soft = [a[0], b[0], c[0]]
    for i, j in itertools.permutations(range(3), 2):
        assert m[i, j] == pytest.approx(hand(soft[i], soft[j]), abs=1e-12)
    assert np.all(np.diag(m) == 0)


def test_similarity_matches_pairwise_kl_loop():
    rng = np.random.default_rng(3)
    soft = [rng.dirichlet(np.ones(5), size=8) for _ in range(4)]
    m = build_similarity_matrix(soft)
    for i in range(4):
        for j in range(4):
            expected = np.mean(
                [kl_divergence(soft[i][s], soft[j][s]) for s in range(8)]
            )
            assert m[i, j] == pytest.approx(expected, abs=1e-12)


def test_similarity_nonnegative_zero_diagonal():
    rng = np.random.default_rng(5)
    soft = [rng.dirichlet(np.ones(6), size=12) for _ in range(7)]
    m = build_similarity_matrix(soft)
    assert np.all(m >= 0)
    assert np.all(np.diag(m) == 0)


def test_similarity_rejects_inconsistent_shapes():
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError):
        build_similarity_matrix(
            [rng.dirichlet(np.ones(3), size=4), rng.dirichlet(np.ones(3), size=5)]
        )


def test_default_cluster_count_values():
    assert default_cluster_count(1) == 1
    assert default_cluster_count(2) == 1
    assert default_cluster_count(20) == 4
    assert default_cluster_count(100) == 7
    with pytest.raises(ValueError):
        default_cluster_count(0)


def test_kmeans_k_equals_one_and_n():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(6, 6))
    single = kmeans_cluster(m, 1, seed=0)
    assert set(single.labels.tolist()) == {0}
    full = kmeans_cluster(m, 6, seed=0)
    assert sorted(full.labels.tolist()) == list(range(6))
    assert full.inertia == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        kmeans_cluster(m, 7, seed=0)


def _exhaustive_two_partition(points):
    n = len(points)
    best, best_inertia = None, np.inf
    for bits in range(1, 2 ** (n - 1)):
        labels = np.array([(bits >> i) & 1 for i in range(n)])
        if labels.sum() in (0, n):
            continue
        inertia = 0.0
        for c in (0, 1):
            pts = points[labels == c]
            inertia += ((pts - pts.mean(axis=0)) ** 2).sum()
        if inertia < best_inertia:
            best, best_inertia = labels, inertia
    return best


def test_kmeans_block_matrix_matches_exhaustive_minimizer():
    rng = np.random.default_rng(8)
    base_a = np.array([0.0, 0.0, 5.0, 5.0, 5.0, 0.0])
    base_b = np.array([5.0, 5.0, 0.0, 0.0, 0.0, 5.0])
    points = np.vstack(
        [base_a + 0.05 * rng.normal(size=6) for _ in range(3)]
        + [base_b + 0.05 * rng.normal(size=6) for _ in range(3)]
    )
    got = kmeans_cluster(points, 2, seed=5).labels
    want = _exhaustive_two_partition(points)
    same = np.array_equal(got, want) or np.array_equal(got, 1 - want)
    assert same


def test_kmeans_deterministic_per_seed():
    rng = np.random.default_rng(9)
    m = rng.normal(size=(12, 12))
    a = kmeans_cluster(m, 3, seed=77)
    b = kmeans_cluster(m, 3, seed=77)
    assert np.array_equal(a.labels, b.labels)
    assert a.inertia == b.inertia


def test_lloyd_inertia_non_increasing():
    # Lloyd's algorithm stopped after 1, 2, ... iterations from the same start.
    rng = np.random.default_rng(10)
    points = rng.normal(size=(30, 4))
    for _ in range(5):
        state = rng.bit_generator.state
        inertias = []
        for max_iter in range(1, 21):
            rng.bit_generator.state = state
            inertias.append(_lloyd_once(points, 4, rng, max_iter)[1])
        assert all(b <= a + 1e-9 for a, b in zip(inertias, inertias[1:]))


def test_kmeans_handles_duplicate_points():
    points = np.zeros((5, 3))
    assign = kmeans_cluster(points, 2, seed=1)
    assert assign.labels.shape == (5,)
    assert set(assign.labels.tolist()) <= {0, 1}


def test_stratified_quota_exact_proportions():
    labels = np.repeat([0, 1, 2, 3], [10, 20, 30, 40])
    assign = ClusterAssignment(labels, 4)
    plan = stratified_sample(assign, budget=10, round_idx=1, seed=0)
    assert plan.per_cluster_quota == [1, 2, 3, 4]
    assert plan.budget == 10


def test_stratified_quota_tie_break_low_cluster_id():
    labels = np.repeat([0, 1, 2], [1, 1, 2])
    assign = ClusterAssignment(labels, 3)
    plan = stratified_sample(assign, budget=2, round_idx=3, seed=1)
    # quotas 0.5, 0.5, 1.0 -> floors 0,0,1; the extra goes to cluster 0.
    assert plan.per_cluster_quota == [1, 0, 1]


@settings(deadline=None)
@given(st.lists(st.integers(1, 5000), min_size=1, max_size=40), st.data())
def test_stratified_quota_sums_and_caps_random(sizes, data):
    k, n = len(sizes), sum(sizes)
    budget = data.draw(st.integers(1, n))
    plan = stratified_sample(ClusterAssignment(np.repeat(np.arange(k), sizes), k), budget, 0, 3)
    quotas = plan.per_cluster_quota
    assert sum(quotas) == budget == plan.selected.size
    for q, size in zip(quotas, sizes):
        # Each quota rounds its exact share budget*size/n down or up.
        assert q <= size
        assert budget * size // n <= q <= -(-budget * size // n)


def test_stratified_full_budget_selects_everyone():
    labels = np.array([0, 0, 1, 1, 1])
    plan = stratified_sample(ClusterAssignment(labels, 2), budget=5, round_idx=0, seed=9)
    assert plan.selected.tolist() == [0, 1, 2, 3, 4]


def test_stratified_deterministic_and_round_dependent():
    labels = np.repeat([0, 1], [6, 6])
    assign = ClusterAssignment(labels, 2)
    a = stratified_sample(assign, 4, round_idx=5, seed=13)
    b = stratified_sample(assign, 4, round_idx=5, seed=13)
    c = stratified_sample(assign, 4, round_idx=6, seed=13)
    assert np.array_equal(a.selected, b.selected)
    assert not np.array_equal(a.selected, c.selected) or True  # rounds may coincide
    with pytest.raises(ValueError):
        stratified_sample(assign, 13, 0, 0)


def test_uniform_full_budget_and_determinism():
    plan = uniform_sample(7, 7, round_idx=2, seed=4)
    assert plan.selected.tolist() == list(range(7))
    a = uniform_sample(20, 5, 3, 8)
    b = uniform_sample(20, 5, 3, 8)
    assert np.array_equal(a.selected, b.selected)
    with pytest.raises(ValueError):
        uniform_sample(5, 6, 0, 0)


def test_uniform_frequencies_concentrate():
    counts = np.zeros(10)
    for r in range(10_000):
        plan = uniform_sample(10, 1, r, seed=123)
        counts[plan.selected[0]] += 1
    assert np.all(counts >= 850) and np.all(counts <= 1150)


def test_matrix_csv_full_precision_roundtrip(tmp_path):
    rng = np.random.default_rng(12)
    m = rng.normal(size=(4, 4))
    path = tmp_path / "m.csv"
    save_matrix_csv(m, path)
    back = np.loadtxt(path, delimiter=",")
    assert np.array_equal(back, m)


def test_similar_rows_mark_same_group_clients(manual_split):
    # Clients trained on the same label pair have near-identical matrix rows;
    # the mean absolute row gap within groups stays below the cross-group gap.
    from tests.conftest import MANUAL_TRUTH

    m = manual_split.pre.matrix
    n = m.shape[0]
    same = MANUAL_TRUTH[:, None] == MANUAL_TRUTH[None, :]
    intra, inter = [], []
    for i in range(n):
        for j in range(i + 1, n):
            row_gap = np.mean(np.abs(m[i] - m[j]))
            (intra if same[i, j] else inter).append(row_gap)
    assert np.mean(intra) < np.mean(inter)
