import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim import (
    Dataset,
    load_csv,
    partition_dirichlet,
    partition_manual,
    partition_quantity,
    synth_blobs,
    synth_public,
)
from fedsim.data import largest_remainder


def test_blobs_shape_and_balanced_labels():
    ds = synth_blobs(2, 2, 5, spread=0.5, seed=3)
    assert len(ds) == 10 and ds.dim == 2
    counts = np.bincount(ds.labels)
    assert counts.tolist() == [5, 5]


def test_blobs_deterministic():
    a = synth_blobs(3, 4, 7, 1.0, seed=9)
    b = synth_blobs(3, 4, 7, 1.0, seed=9)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_blobs_zero_spread_collapses_to_means():
    ds = synth_blobs(3, 5, 4, spread=0.0, seed=1)
    for k in range(3):
        rows = ds.features[ds.labels == k]
        assert np.allclose(rows, rows[0])


def test_blobs_rejects_degenerate_sizes():
    with pytest.raises(ValueError):
        synth_blobs(1, 2, 5, 1.0, 0)
    with pytest.raises(ValueError):
        synth_blobs(2, 2, 0, 1.0, 0)


def test_public_shape_and_determinism():
    p = synth_public(2, 1000, seed=1)
    assert p.shape == (1000, 2) and p.dtype == np.float64
    assert np.array_equal(p, synth_public(2, 1000, seed=1))
    assert synth_public(3, 1, seed=5).shape == (1, 3)


def test_public_distribution_differs_from_blobs():
    # Uniform cube: bounded support, no concentration around class means.
    p = synth_public(4, 500, seed=2)
    low, high = p.min(), p.max()
    assert low >= -4.0 and high <= 6.0


def test_largest_remainder_conserves_total():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 10))
        total = int(rng.integers(0, 100))
        props = rng.dirichlet(np.ones(n))
        counts = largest_remainder(props * total, total)
        assert counts.sum() == total
        assert np.all(counts >= 0)


def test_largest_remainder_rejects_reals_that_sum_above_total():
    # Neither caller can pass these: their floors alone exceed the total.
    with pytest.raises(ValueError, match="above total 3"):
        largest_remainder([2.0, 2.0], 3)
    with pytest.raises(ValueError, match="above total 0"):
        largest_remainder([0.5, 1.0], 0)
    # Five units left for two entries: at most one each would sum to 2, not 5.
    with pytest.raises(ValueError, match="below total 5"):
        largest_remainder([0.1, 0.1], 5)


def test_dirichlet_partition_conserves_each_class():
    ds = synth_blobs(4, 3, 25, 1.0, seed=2)
    part = partition_dirichlet(ds, 10, beta=0.5, seed=11)
    assert part.num_clients == 10
    together = np.concatenate(part.assignment)
    assert sorted(together.tolist()) == list(range(len(ds)))
    for k in range(4):
        owned = sum(int((ds.labels[idx] == k).sum()) for idx in part.assignment)
        assert owned == 25


def test_dirichlet_disjoint_and_deterministic():
    ds = synth_blobs(3, 2, 30, 1.0, seed=4)
    a = partition_dirichlet(ds, 7, 0.5, seed=13)
    b = partition_dirichlet(ds, 7, 0.5, seed=13)
    for x, y in zip(a.assignment, b.assignment):
        assert np.array_equal(x, y)
    flat = np.concatenate(a.assignment)
    assert flat.size == np.unique(flat).size


def test_dirichlet_concentration_limit_near_equal():
    ds = synth_blobs(3, 2, 40, 1.0, seed=6)
    part = partition_dirichlet(ds, 4, beta=1e6, seed=21)
    for k in range(3):
        per_client = [int((ds.labels[idx] == k).sum()) for idx in part.assignment]
        assert max(per_client) - min(per_client) <= 2


def test_dirichlet_single_client_owns_everything():
    ds = synth_blobs(2, 2, 6, 1.0, seed=8)
    part = partition_dirichlet(ds, 1, 0.5, seed=3)
    assert sorted(part.assignment[0].tolist()) == list(range(12))


def test_dirichlet_every_client_nonempty_at_skewed_beta():
    ds = synth_blobs(2, 2, 20, 1.0, seed=5)
    part = partition_dirichlet(ds, 25, beta=0.05, seed=17)
    assert all(len(a) >= 1 for a in part.assignment)


def test_dirichlet_rejects_more_clients_than_samples():
    ds = synth_blobs(2, 2, 3, 1.0, seed=5)
    with pytest.raises(ValueError):
        partition_dirichlet(ds, 7, 0.5, seed=0)


def test_quantity_label_sets_have_exact_size():
    ds = synth_blobs(10, 4, 30, 1.0, seed=7)
    part = partition_quantity(ds, 20, labels_per_client=2, seed=5)
    union = set()
    for idx in part.assignment:
        labels = set(ds.labels[idx].tolist())
        assert len(labels) == 2
        union |= labels
    assert union == set(range(10))


def test_quantity_full_label_budget_means_no_skew():
    ds = synth_blobs(3, 2, 12, 1.0, seed=9)
    part = partition_quantity(ds, 4, labels_per_client=3, seed=2)
    union = set()
    for idx in part.assignment:
        union |= set(ds.labels[idx].tolist())
    assert union == {0, 1, 2}


def test_quantity_even_split_among_holders():
    ds = synth_blobs(4, 2, 24, 1.0, seed=3)
    part = partition_quantity(ds, 6, labels_per_client=2, seed=4)
    for lb in range(4):
        holder_counts = [
            int((ds.labels[idx] == lb).sum()) for idx in part.assignment
            if lb in set(ds.labels[idx].tolist())
        ]
        assert max(holder_counts) - min(holder_counts) <= 1


def test_quantity_infeasible_coverage_rejected():
    ds = synth_blobs(10, 2, 5, 1.0, seed=1)
    with pytest.raises(ValueError):
        partition_quantity(ds, 4, labels_per_client=2, seed=0)


def test_quantity_deterministic():
    ds = synth_blobs(6, 3, 20, 1.0, seed=14)
    a = partition_quantity(ds, 9, 3, seed=42)
    b = partition_quantity(ds, 9, 3, seed=42)
    for x, y in zip(a.assignment, b.assignment):
        assert np.array_equal(x, y)


def test_manual_ablation_style_split():
    ds = synth_blobs(10, 4, 20, 1.0, seed=12)
    groups = [(5, [0, 1]), (5, [2, 3]), (5, [4, 5]), (5, [6, 7]), (4, [8, 9])]
    part = partition_manual(ds, groups)
    assert part.num_clients == 24
    for idx in part.assignment:
        assert len(set(ds.labels[idx].tolist())) == 2


def test_manual_single_group_full_ownership():
    ds = synth_blobs(3, 2, 5, 1.0, seed=2)
    part = partition_manual(ds, [(1, [0, 1, 2])])
    assert sorted(part.assignment[0].tolist()) == list(range(15))


def test_manual_duplicate_label_rejected():
    ds = synth_blobs(3, 2, 5, 1.0, seed=2)
    with pytest.raises(ValueError):
        partition_manual(ds, [(1, [0, 1]), (1, [1, 2])])
    with pytest.raises(ValueError):
        partition_manual(ds, [])
    with pytest.raises(ValueError):
        partition_manual(ds, [(0, [0])])


@pytest.mark.parametrize(
    "groups",
    [[(1, [0, 1]), (1, [1, 2])], [(0, [0]), (1, [1])], [(1, []), (1, [1])]],
    ids=["label-in-two-groups", "zero-clients", "no-labels"],
)
def test_manual_names_the_field_of_a_bad_group(groups):
    # The size rules catch each one before any sample is dealt.
    ds = synth_blobs(3, 2, 5, 1.0, seed=2)
    with pytest.raises(ValueError, match="^manual_groups: "):
        partition_manual(ds, groups)


def test_csv_roundtrip(tmp_path):
    ds = synth_blobs(3, 4, 6, 1.0, seed=20)
    path = tmp_path / "data.csv"
    rows = np.column_stack([ds.features, ds.labels])
    np.savetxt(path, rows, delimiter=",", fmt="%.17g")
    loaded = load_csv(path)
    assert loaded.num_classes == 3
    assert np.allclose(loaded.features, ds.features)
    assert np.array_equal(loaded.labels, ds.labels)


def test_csv_rejects_non_integer_labels(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0,0.5\n")
    with pytest.raises(ValueError):
        load_csv(path)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.array([0, 1, 5]), 2)
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.array([0, 1]), 2)


def test_partition_rejects_empty_client():
    from fedsim import Partition

    with pytest.raises(ValueError):
        Partition([np.array([0, 1]), np.array([], dtype=np.int64)])
    with pytest.raises(ValueError):
        Partition([np.array([0, 1]), np.array([1, 2])])


def _assert_disjoint_cover(part, rows):
    flat = np.concatenate(part.assignment)
    assert flat.size == np.unique(flat).size
    assert np.array_equal(np.sort(flat), rows)


@settings(max_examples=60, deadline=None)
@given(
    num_classes=st.integers(2, 6), per_class=st.integers(1, 12),
    beta=st.floats(0.05, 20.0), seed=st.integers(0, 2**32 - 1), data=st.data(),
)
def test_dirichlet_partition_is_disjoint_cover(num_classes, per_class, beta, seed, data):
    ds = synth_blobs(num_classes, 2, per_class, 1.0, seed=seed)
    n_clients = data.draw(st.integers(1, min(len(ds), 15)))
    part = partition_dirichlet(ds, n_clients, beta, seed)
    assert part.num_clients == n_clients
    _assert_disjoint_cover(part, np.arange(len(ds)))


@settings(max_examples=60, deadline=None)
@given(
    num_classes=st.integers(2, 6), per_class=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1), data=st.data(),
)
def test_quantity_partition_is_disjoint_cover(num_classes, per_class, seed, data):
    ds = synth_blobs(num_classes, 2, per_class, 1.0, seed=seed)
    labels_per_client = data.draw(st.integers(1, num_classes))
    n_clients = data.draw(
        st.integers(-(-num_classes // labels_per_client), max(len(ds), num_classes))
    )
    part = partition_quantity(ds, n_clients, labels_per_client, seed)
    assert part.num_clients == n_clients
    _assert_disjoint_cover(part, np.arange(len(ds)))


@settings(max_examples=60, deadline=None)
@given(num_classes=st.integers(2, 8), per_class=st.integers(1, 10), data=st.data())
def test_manual_partition_is_disjoint_cover_of_grouped_labels(num_classes, per_class, data):
    ds = synth_blobs(num_classes, 2, per_class, 1.0, seed=num_classes)
    labels = data.draw(st.permutations(range(num_classes)))
    used = data.draw(st.integers(1, num_classes))
    cuts = [c for c in range(1, used) if data.draw(st.booleans())]
    groups = [
        (data.draw(st.integers(1, per_class)), list(labels[a:b]))
        for a, b in zip([0, *cuts], [*cuts, used])
    ]
    part = partition_manual(ds, groups)
    assert part.num_clients == sum(count for count, _ in groups)
    _assert_disjoint_cover(part, np.flatnonzero(np.isin(ds.labels, labels[:used])))


@settings(max_examples=60, deadline=None)
@given(
    num_classes=st.integers(2, 6), per_class=st.integers(6, 12),
    seed=st.integers(0, 2**32 - 1), data=st.data(),
)
def test_quantity_and_manual_deal_each_label_evenly_among_its_holders(
    num_classes, per_class, seed, data
):
    # No label has fewer samples than holders, so no client is left empty and
    # refilled from another's label.
    ds = synth_blobs(num_classes, 2, per_class, 1.0, seed=seed)
    if data.draw(st.booleans()):
        labels = data.draw(st.permutations(range(num_classes)))
        used = data.draw(st.integers(1, num_classes))
        cuts = [c for c in range(1, used) if data.draw(st.booleans())]
        groups = [
            (data.draw(st.integers(1, per_class)), list(labels[a:b]))
            for a, b in zip([0, *cuts], [*cuts, used])
        ]
        part = partition_manual(ds, groups)
        held = [set(group) for count, group in groups for _ in range(count)]
    else:
        x = data.draw(st.integers(1, num_classes))
        n_clients = data.draw(st.integers(-(-num_classes // x), per_class))
        part = partition_quantity(ds, n_clients, x, seed)
        held = [set(ds.labels[idx].tolist()) for idx in part.assignment]
        assert all(len(h) == x for h in held)
    assert [set(ds.labels[idx].tolist()) for idx in part.assignment] == held
    for lb in set().union(*held):
        shares = [(ds.labels[idx] == lb).sum() for idx, h in zip(part.assignment, held) if lb in h]
        assert sum(shares) == per_class and max(shares) - min(shares) <= 1
