import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fedsim
from fedsim import (
    ClusterAssignment,
    ExperimentConfig,
    build_similarity_matrix,
    default_cluster_count,
    kl_divergence,
    kmeans_cluster,
    run_experiment,
    stratified_sample,
    uniform_sample,
)
from fedsim.mlp import PROB_FLOOR
from fedsim.sampling import (
    CLIENT_SET,
    CSV_BLOCK_VALUES,
    KMEANS_MAX_ITER,
    SIM_DEPTH,
    SIM_TILE,
    _kmeanspp_centers,
    _lloyd_once,
    _probe_group_rows,
    save_matrix_csv,
)


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
    with pytest.raises(ValueError, match="non-finite"):
        kl_divergence([0.5, 0.5], [np.nan, 1.0])


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


def _einsum_similarity(soft):
    """The similarity matrix with both KL terms as einsum contractions."""
    probs = np.maximum(np.stack(soft), PROB_FLOOR)
    probs /= probs.sum(axis=-1, keepdims=True)
    logs = np.log(probs)
    self_term = np.einsum("imk,imk->i", probs, logs)
    cross = np.einsum("imk,jmk->ij", probs, logs)
    matrix = np.maximum((self_term[:, None] - cross) / probs.shape[1], 0.0)
    np.fill_diagonal(matrix, 0.0)
    return matrix


@pytest.mark.parametrize(
    "n, samples, classes",
    [
        (1, 5, 3),  # one client, one padded tile
        (37, 13, 7),  # n and samples * classes off the tile and chunk sizes
        (2 * SIM_TILE, SIM_DEPTH // 4, 4),  # whole tiles, one whole chunk
        (SIM_TILE + 1, 3 * SIM_DEPTH // 10 + 1, 10),  # several chunks, short last one
        (3, 2, SIM_DEPTH + 44),  # probe rows wider than a chunk
    ],
)
def test_similarity_agrees_with_einsum_reference(n, samples, classes):
    rng = np.random.default_rng(n * 1000 + samples)
    # Small concentrations put many entries under the probability floor.
    soft = list(rng.dirichlet(np.full(classes, 0.3), size=(n, samples)))
    got = build_similarity_matrix(soft)
    np.testing.assert_allclose(got, _einsum_similarity(soft), rtol=1e-12, atol=1e-14)


def test_similarity_repeated_client_gives_exact_zeros():
    rng = np.random.default_rng(14)
    n = 2 * SIM_TILE + 6
    soft = list(rng.dirichlet(np.ones(9), size=(n, 31)))
    copies = [0, 5, SIM_TILE + 3, n - 1]  # in the first, second and third tile rows
    for i in copies[1:]:
        soft[i] = soft[0].copy()
    m = build_similarity_matrix(soft)
    for i, j in itertools.product(copies, repeat=2):
        assert m[i, j] == 0.0
    others = np.setdiff1d(np.arange(n), copies)
    assert np.all(m[np.ix_(copies, others)] > 0)
    np.testing.assert_allclose(m, _einsum_similarity(soft), rtol=1e-12, atol=1e-14)


def test_similarity_tiles_stay_single_threaded():
    # OpenBLAS runs a GEMM on one thread when m*n*k <= SMP_THRESHOLD_MIN *
    # GEMM_MULTITHREAD_THRESHOLD = 65536 * 4 = 2**18 (interface/gemm.c).
    assert SIM_TILE * SIM_TILE * SIM_DEPTH <= 2**18


class _StackRows:
    """A (clients, probe rows, classes) stack served like `ProbePredictions`.

    Its `fill_rows` sends `build_similarity_matrix` down the streamed path,
    one group of probe rows at a time.
    """

    def __init__(self, stack):
        self.stack = stack
        self.shape = stack.shape

    def __len__(self):
        return len(self.stack)

    def __getitem__(self, i):
        return self.stack[i]

    def fill_rows(self, top, lo, out):
        out[...] = self.stack[top : top + len(out), lo : lo + out.shape[1]]


# sha256 of the matrix on a seeded stack of the bench's pre-pass shape (1000
# clients x 200 probe rows x 20 classes), taken when the similarity build
# still stacked a copy of its input and held the whole tile grid.
_BENCH_SHAPE_SHA = "398595a617daa5cf0faca6b18240450e57ef22c846fb9a52f3a9ac2c0feefc2d"


def test_similarity_bytes_pinned_at_the_bench_prepass_shape():
    # Concentration 0.3 puts 1846 entries under the probability floor.
    stack = np.random.default_rng([1000, 200, 20]).dirichlet(np.full(20, 0.3), size=(1000, 200))
    before = hashlib.sha256(stack.tobytes()).hexdigest()
    got = build_similarity_matrix(stack).tobytes()
    assert hashlib.sha256(got).hexdigest() == _BENCH_SHAPE_SHA
    assert hashlib.sha256(stack.tobytes()).hexdigest() == before
    assert build_similarity_matrix(_StackRows(stack)).tobytes() == got


# sha256 of the matrix at battery's pre-pass shape (a short 16-column last
# chunk, chunks that cross probe rows, a partial tile) and at a shape off every
# tile and chunk size, taken while the build still held a whole floored chunk.
_MORE_SHAPE_SHAS = {
    (100, 1000, 10): "f402ad4312329df6c16e5ecd233827198f5fd86af8ea1529f5579e5648c8c580",
    (37, 13, 7): "39a313c27cc99f75a6681bc7551cd6ac8852aa06e3c4316ca2ec34e176b70f2a",
}


@pytest.mark.parametrize("shape", sorted(_MORE_SHAPE_SHAS), ids=str)
def test_similarity_bytes_pinned_at_battery_and_off_tile_shapes(shape):
    n, samples, classes = shape
    stack = np.random.default_rng(list(shape)).dirichlet(np.full(classes, 0.3), size=(n, samples))
    got = build_similarity_matrix(stack).tobytes()
    assert hashlib.sha256(got).hexdigest() == _MORE_SHAPE_SHAS[shape]


def test_similarity_rejects_an_empty_probe_axis():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="at least one probe sample"):
            build_similarity_matrix(np.empty((3, 0, 4)))


def test_similarity_scratch_is_one_log_chunk_and_one_row_group():
    n, samples, classes = 512, 100, 20
    stack = np.random.default_rng(15).dirichlet(np.ones(classes), size=(n, samples))
    pad = -(-n // SIM_TILE) * SIM_TILE
    assert CLIENT_SET % SIM_TILE == 0
    bound = 8 * (
        pad * SIM_DEPTH  # log P of one column chunk, every client
        + 2 * CLIENT_SET * SIM_DEPTH  # one client set's floored operand and its divisors
        + SIM_TILE * pad  # one block row of tile products
    ) + 2**18
    tracemalloc.start()
    try:
        build_similarity_matrix(stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - 8 * n * n < bound


def test_similarity_memory_holds_no_copy_of_the_stack():
    n, samples, classes = 512, 100, 20
    stack = np.random.default_rng(15).dirichlet(np.ones(classes), size=(n, samples))
    pad = -(-n // SIM_TILE) * SIM_TILE
    bound = 8 * (
        2 * pad * pad  # two padded n x n arrays
        + 3 * pad * SIM_DEPTH  # the column chunk, its log and its row-sum divisors
        + pad * SIM_TILE  # one block row of tile products
        + n * samples  # floored probe-row sums
    ) + 2**19
    # Any build holds one padded n x n array; a copy of the input beside it breaks the bound.
    assert stack.nbytes > bound - 8 * pad * pad
    tracemalloc.start()
    try:
        build_similarity_matrix(stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


_MESSAGES = {
    "nan": "has non-finite entries",
    "inf": "has non-finite entries",
    "negative": "has negative entries",
    "sum": "rows must sum to 1 within 1e-9",
}


def _spoil(row: np.ndarray, kind: str) -> None:
    if kind == "nan":
        row[1] = np.nan
    elif kind == "inf":
        row[1] = np.inf
    elif kind == "negative":
        row[:2] = [-0.125, row[0] + row[1] + 0.125]  # still sums to 1
    else:
        row[0] += 1e-6


# Clients 0, 31, 32 and 69 of one short client set; client CLIENT_SET + 7 in
# the second of three sets, with the third set's last client also bad.
@pytest.mark.parametrize("client", [0, 31, 32, 69, CLIENT_SET + 7])
@pytest.mark.parametrize("kind", sorted(_MESSAGES))
def test_similarity_names_the_first_bad_client(client, kind):
    n = 70 if client < 70 else 2 * CLIENT_SET + 5
    stack = np.random.default_rng(18).dirichlet(np.ones(8), size=(n, 128))
    _spoil(stack[client, 3], kind)
    if client + 1 < n:
        _spoil(stack[n - 1, 0], "nan")  # a later bad client is not the one named
    with pytest.raises(ValueError) as err:
        build_similarity_matrix(stack)
    assert str(err.value) == f"soft labels of client {client} {_MESSAGES[kind]}"


def test_similarity_checks_valid_input_without_per_client_calls(monkeypatch):
    calls = []
    check = fedsim.sampling._check_distribution
    monkeypatch.setattr(
        fedsim.sampling, "_check_distribution", lambda *a: calls.append(a) or check(*a)
    )
    stack = np.random.default_rng(19).dirichlet(np.ones(5), size=(2 * CLIENT_SET + 5, 100))
    build_similarity_matrix(stack)
    assert calls == []


def test_streamed_build_names_the_lowest_bad_client_across_groups():
    n, samples, classes = 8, 600, 10
    rows = _probe_group_rows(n, samples, classes)
    assert rows == 256  # groups of probe rows 0:256, 256:512 and 512:600
    stack = np.random.default_rng(20).dirichlet(np.ones(classes), size=(n, samples))
    _spoil(stack[3, 590], "nan")  # only in the last group
    _spoil(stack[5, 10], "negative")  # only in the first group
    expected = f"soft labels of client 3 {_MESSAGES['nan']}"
    for soft in (stack, _StackRows(stack)):
        with pytest.raises(ValueError) as err:
            build_similarity_matrix(soft)
        assert str(err.value) == expected


def test_streamed_build_reports_the_whole_bad_client_like_the_array_build():
    # The same client and message as the array path when the bad rows of the
    # lowest bad client are spread over groups with different faults.
    n, samples, classes = 8, 600, 10
    stack = np.random.default_rng(21).dirichlet(np.ones(classes), size=(n, samples))
    _spoil(stack[6, 5], "negative")
    _spoil(stack[6, 595], "inf")
    messages = []
    for soft in (stack, _StackRows(stack)):
        with pytest.raises(ValueError) as err:
            build_similarity_matrix(soft)
        messages.append(str(err.value))
    assert messages == [f"soft labels of client 6 {_MESSAGES['inf']}"] * 2


@pytest.mark.parametrize(
    "n, samples, classes, rows",
    [
        (1000, 200, 20, 64),  # cluster-scale: four groups of one unit
        (100, 1000, 10, 256),  # battery: widened to four groups
        (10_000, 200, 20, 200),  # fits in n * n values: one group
        (3, 5, 7, 5),  # fewer probe rows than one unit
    ],
)
def test_probe_groups_are_whole_chunks_and_at_most_four(n, samples, classes, rows):
    assert _probe_group_rows(n, samples, classes) == rows
    assert rows == samples or rows * classes % SIM_DEPTH == 0
    assert -(-samples // rows) <= 4


# Probe rows run from under one unit of SIM_DEPTH / gcd(SIM_DEPTH, classes)
# rows (256 at 3 and 7 classes, 64 at 20) to several units in several groups.
@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 70).filter(lambda n: n % SIM_TILE != 0),
    classes=st.sampled_from([2, 3, 7, 10, 20]),
    samples=st.integers(1, 5 * SIM_DEPTH),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=1, classes=2, samples=5, seed=0)
@example(n=69, classes=3, samples=4 * SIM_DEPTH + 1, seed=1)
@example(n=2 * CLIENT_SET + 5, classes=10, samples=377, seed=2)  # three client sets
def test_streamed_build_bytes_equal_the_array_build(n, classes, samples, seed):
    stack = np.random.default_rng(seed).dirichlet(np.full(classes, 0.3), size=(n, samples))
    streamed = build_similarity_matrix(_StackRows(stack))
    assert streamed.tobytes() == build_similarity_matrix(stack).tobytes()


_SIMILARITY_SHA = """
import hashlib, sys
import numpy as np
from fedsim import build_similarity_matrix

class Rows:  # tests/test_sampling.py's _StackRows: streamed in probe-row groups
    def __init__(self, stack):
        self.stack = stack
        self.shape = stack.shape
    def __len__(self):
        return len(self.stack)
    def __getitem__(self, i):
        return self.stack[i]
    def fill_rows(self, top, lo, out):
        out[...] = self.stack[top : top + len(out), lo : lo + out.shape[1]]

n, samples, classes = map(int, sys.argv[1:4])
rng = np.random.default_rng([n, samples, classes])
soft = rng.dirichlet(np.ones(classes), size=(n, samples))
matrix = build_similarity_matrix(Rows(soft) if sys.argv[4] == "rows" else soft)
print(hashlib.sha256(matrix.tobytes()).hexdigest())
"""


def _similarity_sha_in_subprocess(threads, shape, kind):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(fedsim.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", _SIMILARITY_SHA, *map(str, shape), kind],
        env=env, capture_output=True, text=True, check=True,
    )
    return proc.stdout.strip()


# 50 x 30 x 10 is a shape where one plain `P @ log(P).T` gives different bytes
# on one and two OpenBLAS threads; 100 x 1000 x 10 is battery's pre-pass and
# 1000 x 200 x 20 cluster-scale's. The first two are streamed in probe-row
# groups by a `fill_rows` source, as `preprocess` streams `ProbePredictions`;
# the third is read in place as one array.
@pytest.mark.parametrize(
    "shape, kind",
    [((50, 30, 10), "rows"), ((100, 1000, 10), "rows"), ((1000, 200, 20), "stack")],
    ids=["shape0", "shape1", "stack"],
)
def test_similarity_bytes_do_not_depend_on_blas_threads(shape, kind):
    one = _similarity_sha_in_subprocess(1, shape, kind)
    assert len(one) == 64
    assert _similarity_sha_in_subprocess(2, shape, kind) == one


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
    m[2, 3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        kmeans_cluster(m, 1, seed=0)


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


def _norms(points):
    return (points * points).sum(axis=1)


def test_lloyd_inertia_non_increasing():
    # Lloyd's algorithm stopped after 1, 2, ... iterations from the same start.
    rng = np.random.default_rng(10)
    points = rng.normal(size=(30, 4))
    for _ in range(5):
        centers = points[rng.choice(30, size=4, replace=False)]
        inertias = [
            _lloyd_once(points, _norms(points), centers, max_iter)[1] for max_iter in range(1, 21)
        ]
        assert all(b <= a + 1e-9 for a, b in zip(inertias, inertias[1:]))


def test_lloyd_inertia_bit_equals_the_elementwise_expression():
    rng = np.random.default_rng(16)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        k = int(rng.integers(1, n + 1))
        points = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-3, 4)
        centers = points[rng.choice(n, size=k, replace=False)]
        labels, inertia = _lloyd_once(points, _norms(points), centers, KMEANS_MAX_ITER)
        centers = np.vstack([points[labels == c].mean(axis=0) for c in range(k)])
        assert inertia == float(((points - centers[labels]) ** 2).sum())


def _reference_lloyd(points, centers, max_iter):
    """Lloyd's algorithm with the distance expression `2.0 * points @ centers.T`."""
    n, k = points.shape[0], centers.shape[0]
    labels = np.full(n, -1, dtype=np.int64)
    norms = (points * points).sum(axis=1)[:, None]
    for _ in range(max_iter):
        d2 = norms + (centers * centers).sum(axis=1)[None, :] - 2.0 * points @ centers.T
        np.maximum(d2, 0.0, out=d2)
        new_labels = np.argmin(d2, axis=1)
        own = d2[np.arange(n), new_labels]
        for c in range(k):
            if not np.any(new_labels == c):
                far = int(np.argmax(own))
                new_labels[far] = c
                own[far] = -np.inf
        converged = np.array_equal(new_labels, labels)
        labels = new_labels
        centers = np.vstack([points[labels == c].mean(axis=0) for c in range(k)])
        if converged:
            break
    return labels, float(((points - centers[labels]) ** 2).sum())


@pytest.mark.parametrize("scale", [1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3])
def test_lloyd_step_bit_equals_the_doubled_product_expression(scale):
    rng = np.random.default_rng(20)
    for n, k in [(40, 5), (97, 10), (200, 10)]:
        # Clustered rows, like a similarity matrix of client groups, plus noise.
        groups = rng.integers(0, k, size=n)
        points = (rng.random((k, n))[groups] + 0.3 * rng.random((n, n))) * scale
        for _ in range(3):
            centers = points[rng.choice(n, size=k, replace=False)]
            want = _reference_lloyd(points, centers, KMEANS_MAX_ITER)
            got = _lloyd_once(points, _norms(points), centers, KMEANS_MAX_ITER)
            assert np.array_equal(got[0], want[0])
            assert got[1] == want[1]


def test_kmeans_computes_the_norms_once_per_call(monkeypatch):
    seen = []
    lloyd = fedsim.sampling._lloyd_once

    def spy(points, norms, centers, max_iter):
        seen.append(norms)
        return lloyd(points, norms, centers, max_iter)

    monkeypatch.setattr(fedsim.sampling, "_lloyd_once", spy)
    points = np.random.default_rng(21).random((30, 30))
    kmeans_cluster(points, 4, seed=2)
    assert len(seen) == fedsim.sampling.KMEANS_RESTARTS
    assert all(norms is seen[0] for norms in seen)
    assert np.array_equal(seen[0], _norms(points))


def test_kmeans_memory_holds_one_n_by_n_temporary():
    n = 300
    points = np.random.default_rng(17).random((n, n))
    tracemalloc.start()
    try:
        kmeans_cluster(points, 8, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * points.nbytes


def test_kmeans_handles_duplicate_points():
    points = np.zeros((5, 3))
    assign = kmeans_cluster(points, 2, seed=1)
    assert assign.labels.shape == (5,)
    assert set(assign.labels.tolist()) <= {0, 1}
    for k in (1, 2, 3, 5):
        # D² weights are 0, or rounding noise, once the first centre is drawn.
        for points in (np.zeros((5, 3)), np.full((5, 5), 0.7)):
            assign = kmeans_cluster(points, k, seed=k)
            assert np.all(assign.sizes() >= 1)
            assert assign.inertia == pytest.approx(0.0, abs=1e-30)
        # Two distinct points, repeated: from k = 2 on, each has its own
        # clusters, and no repair may empty a cluster.
        assign = kmeans_cluster(np.repeat(np.eye(2), [3, 2], axis=0), k, seed=k)
        assert np.all(assign.sizes() >= 1)
        assert (assign.inertia == 0.0) == (k >= 2)


def test_kmeanspp_never_draws_a_chosen_point_again():
    rng = np.random.default_rng(22)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        # Distinct points; some pairs nearly coincide.
        points = rng.normal(size=(n, 4))
        points[n // 2 :] = points[: n - n // 2] + 1e-6 * rng.normal(size=(n - n // 2, 4))
        centers = _kmeanspp_centers(points, _norms(points), n, rng)
        assert np.unique(centers, axis=0).shape == (n, 4)
        assign = kmeans_cluster(points, n, seed=int(rng.integers(1000)))
        assert np.array_equal(assign.sizes(), np.ones(n))
        assert assign.inertia == 0.0


def test_kmeans_recovers_disjoint_label_groups(tmp_path):
    # cluster-scale's shape at 200 clients: 10 groups of 20 clients, each on a
    # disjoint label pair, 1 epoch of batch 8 and 200 probe rows. With D²
    # seeding 7 of these 8 seeds recover the groups exactly; with uniformly
    # drawn initial centres, 1 of 8 did.
    groups = [[20, [2 * g, 2 * g + 1]] for g in range(10)]
    truth = np.repeat(np.arange(10), 20)
    recovered = 0
    for seed in range(1, 9):
        cfg = ExperimentConfig(
            name=f"recover-{seed}", output_dir=str(tmp_path), seed=seed, n_clients=200,
            rounds=1, num_classes=20, dim=16, per_class=100, spread=1.0, test_per_class=5,
            partition="manual", manual_groups=groups, hidden_sizes=[32], sampler="stratified",
            sample_ratio=0.1, epochs=1, batch_size=8, lr=1.0, decay=0.99, cluster_k=10,
            public_count=200,
        )
        clusters = json.loads((run_experiment(cfg) / "clusters.json").read_text())
        labels = np.array([clusters[str(i)] for i in range(200)])
        pairs = set(zip(truth.tolist(), labels.tolist()))
        recovered += len(pairs) == len({c for _, c in pairs}) == 10
    assert recovered >= 6


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


def _savetxt_bytes(matrix, path) -> bytes:
    np.savetxt(path, matrix, fmt="%.17g", delimiter=",")
    return path.read_bytes()


# The fast formatter's range: 0, -0.0 and magnitudes in [1e-4, 1e15).
_FIXED = st.just(0.0) | st.floats(1e-4, 1e15, exclude_max=True)
_ANY = st.sampled_from([math.nan, math.inf, -math.inf, 5e-324, 2.5e-308, 1e308, -1e308]) | st.floats()


@st.composite
def _csv_matrices(draw):
    """Float64 matrices from 1 x 1 to more rows than one block, some blocks out of range."""
    cols = draw(st.integers(1, 12))
    tall = CSV_BLOCK_VALUES // cols + draw(st.integers(1, 3))
    shape = draw(st.sampled_from([(1, 1), (1, cols), (cols, 1), (3, cols), (tall, cols)]))
    pool = draw(st.lists(_FIXED | _FIXED.map(lambda v: -v), min_size=1, max_size=40))
    matrix = np.resize(np.array(pool), shape)
    size = matrix.size
    for i, v in draw(st.lists(st.tuples(st.integers(0, size - 1), _ANY), max_size=3)):
        matrix.flat[i] = v
    return matrix


# Both neighbours of the powers of ten where %.17g's layout or the fast range changes.
_EDGE_NEIGHBOURS = np.array(
    [np.nextafter(p, t) for p in (1e-5, 1e-4, 1e14, 1e15, 1e16, 1e17) for t in (0.0, math.inf)]
)


@settings(max_examples=60, deadline=None)
@given(matrix=_csv_matrices())
# Exact 17-digit ties: odd multiples of 1/8 just above 1e14 end in 5 at the 18th digit.
@example(matrix=(1e14 + np.arange(1, 40, 2) / 8)[None, :])
# One block holding every neighbour goes through np.savetxt; the in-range ones alone do not.
@example(matrix=_EDGE_NEIGHBOURS[None, :])
@example(matrix=_EDGE_NEIGHBOURS[(_EDGE_NEIGHBOURS >= 1e-4) & (_EDGE_NEIGHBOURS < 1e15)][:, None])
@example(matrix=np.array([[0.0, -0.0, 0.0], [0.5, 100.0, 1e-4]]))
def test_matrix_csv_bytes_equal_savetxt(tmp_path_factory, matrix):
    tmp = tmp_path_factory.mktemp("csv")
    save_matrix_csv(matrix, tmp / "got.csv")
    assert (tmp / "got.csv").read_bytes() == _savetxt_bytes(matrix, tmp / "want.csv")


def test_matrix_csv_in_range_never_falls_back(tmp_path, monkeypatch):
    # Several blocks of log-uniform values in [1e-4, 1e3) with a zero diagonal,
    # like a similarity matrix: every block is in the fast range.
    rng = np.random.default_rng(5)
    m = np.exp(rng.uniform(np.log(1e-4), np.log(1e3), size=(300, 300)))
    np.fill_diagonal(m, 0.0)
    assert m.size > 4 * CSV_BLOCK_VALUES
    want = _savetxt_bytes(m, tmp_path / "want.csv")

    def refuse(*args, **kwargs):
        raise AssertionError("np.savetxt called for an in-range block")

    monkeypatch.setattr(fedsim.sampling.np, "savetxt", refuse)
    save_matrix_csv(m, tmp_path / "got.csv")
    assert (tmp_path / "got.csv").read_bytes() == want


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
