"""Client similarity, clustering, and the per-round sampling strategies.

The similarity matrix holds pairwise KL divergences between the clients'
soft-label outputs on a shared probe set. Clients are clustered once by
running seeded k-means on the matrix rows, each restart seeded by D²
sampling (k-means++); afterwards each round draws a proportional quota from
every cluster (stratified) or a plain uniform sample.
`save_matrix_csv` writes the matrix as exact `%.17g` text.
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
# Similarity cross-term tiles: SIM_TILE rows by SIM_DEPTH columns per GEMM operand.
# OpenBLAS runs a GEMM on one thread when m*n*k <= SMP_THRESHOLD_MIN *
# GEMM_MULTITHREAD_THRESHOLD = 65536 * 4 = 2**18, so each tile's bits do not
# depend on the BLAS thread count. At 1000 clients x 200 x 20 on a 2-core Xeon,
# 64 x 64 x 64 tiles were slower and 16 x 16 x 1024 no faster. The soft labels
# are floored one SIM_DEPTH column chunk at a time and each batched GEMM call
# covers one block row of tiles, so beside its input the similarity build holds
# one n x n array and O(n * (SIM_DEPTH + SIM_TILE)) floats of buffers.
SIM_TILE = 32
SIM_DEPTH = 256
# Clients per set, four tiles: `_cross_term` floors a column chunk one set at
# a time, a streamed build gathers its probe rows into one buffer per set, and
# the build checks one set's soft labels at a time. At 1000 x 200 x 20, one
# 10 MB buffer for all clients raised glibc's mmap threshold when it was freed,
# and 18 MB of freed heap then stayed resident to the end of the run; 1.3 MB
# set buffers leave the heap to be trimmed.
CLIENT_SET = 128
# Most probe-row groups a streamed similarity build takes (`_probe_group_rows`).
# Each group recomputes every client's probe logits: at 1000 x 200 x 20 the
# probe predictions took about 170 ms in 4 groups against 85 ms at once, and
# the run's peak RSS fell from 90.8 to 70.1 MB.
MAX_PROBE_GROUPS = 4
# Values per `save_matrix_csv` block (whole rows): 16 rows at n = 1000, with a
# 3 MB gather index. At n = 1000, 2**16 values were slower and 2**12 to 2**15
# about as fast.
CSV_BLOCK_VALUES = 1 << 14


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

    def save_json(self, path) -> None:
        ids = {str(i): int(c) for i, c in enumerate(self.labels)}
        Path(path).write_text(json.dumps(ids, sort_keys=True, indent=2))


@dataclass
class SamplingPlan:
    """Clients selected for one round, ids sorted ascending."""

    round: int
    selected: np.ndarray
    per_cluster_quota: list[int] | None = None

    def __post_init__(self):
        self.selected = np.sort(np.asarray(self.selected, dtype=np.int64))
        # Sorted neighbours, not `np.unique`, which imports `numpy.ma` on first use.
        if (self.selected[1:] == self.selected[:-1]).any():
            raise ValueError("selected client ids must be unique")

    @property
    def budget(self) -> int:
        return int(self.selected.size)


def _floor_rows(rows: np.ndarray) -> np.ndarray:
    """Clip probabilities at the floor and renormalize each row."""
    a = np.maximum(rows, PROB_FLOOR)
    a /= a.sum(axis=-1, keepdims=True)
    return a


def _check_distribution(p: np.ndarray, name: str) -> None:
    if not np.isfinite(p).all():
        raise ValueError(f"{name} has non-finite entries")
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

    `soft_labels` holds n clients' (samples, classes) soft labels. The (i, j)
    entry is the mean over probe samples of KL(row of client i || row of
    client j): (C[i, i] - C[i, j]) / samples, clipped at 0, for C = P @ log(P).T
    over the floored rows P flattened to (n, samples * classes). C's bytes do
    not depend on the BLAS thread count, and taking the self term off its
    diagonal gives identical clients exactly 0.

    Input comes in one of two kinds. A source with a `fill_rows(top, lo, out)`
    method, as `experiment.ProbePredictions`, writes probe rows lo onward of
    clients top onward into `out`; its `shape` is (n, samples, classes). It is
    read one group of `_probe_group_rows` probe rows at a time, for every
    client, into one reused buffer per `CLIENT_SET` clients. Groups end on
    whole `SIM_DEPTH` column chunks, so the chunks, tiles and additions, and
    so the bytes, are those of the whole array. Any other input is converted
    once by `np.asarray(..., dtype=np.float64)` and read as one group: a
    float64 array in place, never written.

    Each group is checked one client set at a time. After a bad client no
    group is multiplied, but later groups are still checked for a
    lower-numbered one, and the lowest is named in `_check_distribution`'s
    words: the same client and message as for the whole array.

    Memory beside the input, in float64s: a streamed source's group buffers,
    the (n, n) accumulator, which becomes the result, and `_cross_term`'s
    buffers. At 1000 x 200 x 20 that is 10 MB of buffers for 64 probe rows,
    an 8 MB result and 2.9 MiB, against a 32 MB array.
    """
    n, samples, classes, groups = _probe_groups(soft_labels)
    matrix = _cross_term(_checked(groups, soft_labels, n), n, classes)
    self_term = np.diagonal(matrix).copy()
    np.subtract(self_term[:, None], matrix, out=matrix)
    matrix /= samples
    np.maximum(matrix, 0.0, out=matrix)
    np.fill_diagonal(matrix, 0.0)
    return matrix


def _probe_group_rows(n: int, samples: int, classes: int) -> int:
    """Probe rows per group of a streamed build.

    A whole number of units of u = SIM_DEPTH / gcd(SIM_DEPTH, classes) rows,
    whose u * classes columns are whole chunks: the most whose soft labels
    fit in n * n values, at least one unit, and enough that the probe set
    takes at most `MAX_PROBE_GROUPS` groups. At 1000 x 200 x 20 that is 64
    rows in 4 groups; at 10,000 clients all 200 rows are one group.
    """
    unit = SIM_DEPTH // math.gcd(SIM_DEPTH, classes)
    rows = max(unit, n // classes // unit * unit, -(-samples // (MAX_PROBE_GROUPS * unit)) * unit)
    return min(rows, samples)


def _probe_groups(soft_labels):
    """(n, samples, classes) and an iterator of probe-row groups, each a list of client sets."""
    fill = getattr(soft_labels, "fill_rows", None)
    if fill is None:
        soft_labels = np.asarray(soft_labels, dtype=np.float64)
    shape = soft_labels.shape
    if not shape or shape[0] == 0:
        raise ValueError("need at least one soft-label set")
    if len(shape) != 3:
        raise ValueError("all soft-label sets must share the same (samples, classes) shape")
    n, samples, classes = shape
    if samples == 0:
        raise ValueError("need at least one probe sample per soft-label set")
    if fill is None:
        groups = iter([[soft_labels[top : top + CLIENT_SET] for top in range(0, n, CLIENT_SET)]])
    else:
        groups = _streamed(fill, n, samples, classes)
    return n, samples, classes, groups


def _streamed(fill, n: int, samples: int, classes: int):
    """A `fill_rows` source's probe-row groups, in one reused buffer per client set."""
    step = _probe_group_rows(n, samples, classes)
    sets = [np.empty((min(CLIENT_SET, n - top), step, classes)) for top in range(0, n, CLIENT_SET)]
    for lo in range(0, samples, step):
        group = [buf[:, : min(step, samples - lo)] for buf in sets]
        for top, block in zip(range(0, n, CLIENT_SET), group):
            fill(top, lo, block)
        yield group


def _checked(groups, soft_labels, n: int):
    """The probe-row groups up to the first with a bad client; then the error for the lowest one."""
    first = n
    for sets in groups:
        for top, block in zip(range(0, first, CLIENT_SET), sets):
            # NaN and negative entries fail `>= 0`, and +inf makes its row sum inf or NaN.
            bad = ~(block >= 0).all(axis=(1, 2))
            bad |= ~(np.abs(block.sum(axis=-1) - 1.0) <= 1e-9).all(axis=-1)
            if bad.any():
                first = min(first, top + int(np.argmax(bad)))
                break
        if first == n:
            yield sets
    if first < n:
        client = np.asarray(soft_labels[first], dtype=np.float64)
        _check_distribution(client, f"soft labels of client {first}")


def _cross_term(groups, n: int, classes: int) -> np.ndarray:
    """`P @ log(P).T` for the floored rows P of the soft labels in probe-row groups.

    Each group is a list of (clients, rows, classes) arrays, one per
    `CLIENT_SET` clients. P is the soft labels clipped at `PROB_FLOOR` and
    divided by each probe row's floored sum, flattened to
    (n, samples * classes), the groups side by side. One GEMM over all of P
    is split across threads by OpenBLAS, and its bits then depend on the
    thread count. Here it is a sum, over the `SIM_DEPTH` column chunks in
    order, of one-thread `SIM_TILE` x `SIM_TILE` tiles, taken one block row
    of tiles at a time; every group but the last spans whole chunks. Rows
    are zero-padded to whole tiles and the last chunk to full depth; the
    padding adds exact zeros. Each block row's products for the n real
    columns are added straight into the (n, n) result.

    P is never held whole, nor a whole chunk of it. Per chunk, its rows are
    built one client set at a time, by flooring and renormalising just the
    probe rows the chunk spans: once per set to fill one (pad, SIM_DEPTH)
    chunk of log P for every client, then again per set as the left operand
    of its block rows. With a single set, its rows are still in place.
    """
    nb = -(-n // SIM_TILE)
    pad = nb * SIM_TILE
    rows = np.zeros((CLIENT_SET, SIM_DEPTH))
    logs = np.zeros((pad, SIM_DEPTH))
    row_tiles = rows.reshape(CLIENT_SET // SIM_TILE, SIM_TILE, SIM_DEPTH)
    log_tiles = logs.reshape(nb, SIM_TILE, SIM_DEPTH).transpose(0, 2, 1)
    # Block row a: row tile a times log tile b lands in columns b of `prod`,
    # laid out like rows a * SIM_TILE onward of the padded product.
    prod = np.empty((SIM_TILE, pad))
    prod_tiles = prod.reshape(SIM_TILE, nb, SIM_TILE).transpose(1, 0, 2)
    acc = np.zeros((n, n))

    def floor_set(probs: np.ndarray, lo: int, d: int) -> int:
        """A client set's floored columns lo:lo + d into `rows`; returns its client count."""
        m = len(probs)
        first = lo // classes
        # The whole probe rows the chunk spans, floored and renormalised.
        spanned = _floor_rows(probs[:, first : (lo + d - 1) // classes + 1])
        start = lo - first * classes
        rows[:m, :d] = spanned.reshape(m, -1)[:, start : start + d]
        return m

    for sets in groups:
        width = sets[0].shape[1] * classes
        for lo in range(0, width, SIM_DEPTH):
            d = min(SIM_DEPTH, width - lo)
            if d < SIM_DEPTH:
                rows[:, d:] = 0.0
                logs[:, d:] = 0.0
            for top, probs in zip(range(0, n, CLIENT_SET), sets):
                m = floor_set(probs, lo, d)
                # Padding rows stay 0.0, never log(0).
                np.log(rows[:m, :d], out=logs[top : top + m, :d])
            for top, probs in zip(range(0, n, CLIENT_SET), sets):
                m = floor_set(probs, lo, d) if n > CLIENT_SET else n
                rows[m:] = 0.0  # the last set's padding rows add exact zeros
                for t in range(-(-m // SIM_TILE)):
                    np.matmul(row_tiles[t], log_tiles, out=prod_tiles)
                    row = top + t * SIM_TILE
                    acc[row : row + SIM_TILE] += prod[: n - row, :n]
    return acc


def default_cluster_count(n: int) -> int:
    """log2-scale cluster count, never below 1."""
    if n < 1:
        raise ValueError("need at least one client")
    return max(1, int(round(math.log2(n))))


def _kmeanspp_centers(points: np.ndarray, norms: np.ndarray, k: int, rng: np.random.Generator):
    """k initial centres by D² sampling (k-means++, Arthur & Vassilvitskii 2007).

    The first centre is a uniform pick. Each next one is drawn with
    probability proportional to a point's squared distance to its closest
    centre so far, so a chosen point, at distance 0, is never drawn again.
    Only when every distance is 0 (no point left apart from the centres), or
    their sum overflows, is the pick uniform.
    """
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    closest = np.full(n, np.inf)
    for _ in range(k - 1):
        c = chosen[-1]
        np.minimum(closest, norms + norms[c] - 2.0 * (points @ points[c]), out=closest)
        np.maximum(closest, 0.0, out=closest)
        closest[c] = 0.0
        total = closest.sum()
        chosen.append(int(rng.choice(n, p=closest / total) if 0 < total < np.inf else rng.integers(n)))
    return points[chosen]


def _lloyd_once(points: np.ndarray, norms: np.ndarray, centers: np.ndarray, max_iter: int):
    """Lloyd's algorithm from `centers`; returns labels and inertia.

    `norms` holds each point's squared norm. Squared distances are
    `norms + |center|^2 - 2 * points @ centers.T`, with the (n, k) product
    doubled in place: scaling by 2 is exact, so the bits are those of
    `(2.0 * points) @ centers.T` without its n x n temporary.
    """
    n, k = points.shape[0], centers.shape[0]
    labels = np.full(n, -1, dtype=np.int64)
    for _ in range(max_iter):
        cross = points @ centers.T
        cross *= 2.0
        d2 = norms[:, None] + (centers * centers).sum(axis=1)[None, :]
        d2 -= cross
        np.maximum(d2, 0.0, out=d2)
        new_labels = np.argmin(d2, axis=1)
        counts = np.bincount(new_labels, minlength=k)
        for c in np.flatnonzero(counts == 0):
            # Repair an empty cluster with the point farthest from its centroid
            # among those whose cluster keeps another member.
            own = np.where(counts[new_labels] > 1, d2[np.arange(n), new_labels], -np.inf)
            far = int(np.argmax(own))
            counts[new_labels[far]] -= 1
            counts[c] = 1
            new_labels[far] = c
        converged = np.array_equal(new_labels, labels)
        labels = new_labels
        centers = np.vstack([points[labels == c].mean(axis=0) for c in range(k)])
        if converged:
            break
    # The same operations as `((points - centers[labels]) ** 2).sum()`, in one n x n temporary.
    diff = centers[labels]
    np.subtract(points, diff, out=diff)
    np.square(diff, out=diff)
    return labels, float(diff.sum())


def kmeans_cluster(matrix, k: int, seed) -> ClusterAssignment:
    """Seeded k-means over the similarity-matrix rows, best of `KMEANS_RESTARTS` restarts.

    Each restart seeds its centres by D² sampling (`_kmeanspp_centers`) from
    the one `seed` stream, then runs Lloyd's algorithm; the restart with the
    lowest inertia wins.
    """
    points = np.asarray(matrix, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("matrix must be 2-d")
    if not np.isfinite(points).all():
        raise ValueError("matrix has non-finite entries")
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got {k}")
    rng = np.random.default_rng(seed)
    norms = (points * points).sum(axis=1)
    best_labels, best_inertia = None, np.inf
    for _ in range(KMEANS_RESTARTS):
        centers = _kmeanspp_centers(points, norms, k, rng)
        labels, inertia = _lloyd_once(points, norms, centers, KMEANS_MAX_ITER)
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


_POW5 = 5 ** np.arange(22, dtype=np.uint64)
# _PAIRS[i] is the 2 ASCII digits of i, zero-padded, as one uint16.
_PAIRS = (np.arange(100)[:, None] // (10, 1) % 10 + 48).astype(np.uint8).view(np.uint16).ravel()
# `_format_fixed` builds a 24-byte row per value: sign (or empty), ".", "0",
# the digits d0..d16, the separator, an empty byte; d1..d16 are eight
# uint16-aligned pairs. An empty byte is 0 and is dropped from the output.
_SIGN, _DOT, _ZERO, _D0, _SEP, _EMPTY, _ROW = 0, 1, 2, 3, 20, 21, 24


def _fixed_layouts() -> np.ndarray:
    """Row offsets of each output byte, per (decimal exponent x + 4) * 17 + last kept digit."""
    table = np.full((19, 17, _ROW), _EMPTY, dtype=np.intp)
    for x in range(-4, 15):
        for last in range(17):
            if x >= 0:
                body = list(range(_D0, _D0 + x + 1))
                if last > x:
                    body += [_DOT, *range(_D0 + x + 1, _D0 + last + 1)]
            else:
                body = [_ZERO, _DOT] + [_ZERO] * (-x - 1) + list(range(_D0, _D0 + last + 1))
            table[x + 4, last, : len(body) + 2] = [_SIGN, *body, _SEP]
    return table.reshape(-1, _ROW)


_LAYOUTS = _fixed_layouts()


def _scaled_digits(m: np.ndarray, e: np.ndarray, x: np.ndarray) -> np.ndarray:
    """round-half-even(m * 2**(e - 53) * 10**(16 - x)) for uint64 m < 2**53.

    m * 5**k, k = 16 - x <= 21, is formed exactly as a 128-bit (high, low) pair
    from 32-bit halves and shifted right by s = 53 - e - k, which is in [1, 46]
    for magnitudes in [1e-4, 1e15) and x within one of their decimal exponent.
    """
    k = 16 - x
    p = _POW5[k]
    mh, ml = m >> 32, m & 0xFFFFFFFF
    ph, pl = p >> 32, p & 0xFFFFFFFF
    lo = ml * pl
    mid = mh * pl + ml * ph
    low = lo + (mid << 32)
    high = mh * ph + (mid >> 32) + (low < lo)
    s = (53 - e - k).astype(np.uint64)
    q = (high << (64 - s)) | (low >> s)
    rem = low & ((np.uint64(1) << s) - 1)
    half = np.uint64(1) << (s - 1)
    q += (rem > half) | ((rem == half) & (q & 1).astype(bool))
    return q


def _format_fixed(block: np.ndarray, mag: np.ndarray) -> bytes:
    """`%.17g` text of a 2-d block whose magnitudes `mag` are 0 or in [1e-4, 1e15)."""
    rows, cols = block.shape
    nonzero = mag != 0
    safe = np.where(nonzero, mag, 1.0)
    frac, e = np.frexp(safe)
    m = (frac * 2.0**53).astype(np.uint64)
    e = e.astype(np.intp)
    # The 17 significant digits are q in [1e16, 1e17); log10 can misjudge the
    # decimal exponent x by one next to a power of ten, and q then shows it.
    x = np.floor(np.log10(safe)).astype(np.intp)
    q = _scaled_digits(m, e, x)
    off = np.flatnonzero((q < 10**16) | (q >= 10**17))
    if off.size:
        x[off] += np.where(q[off] < 10**16, -1, 1)
        q[off] = _scaled_digits(m[off], e[off], x[off])
    q[~nonzero] = 0

    n = mag.size
    buf = np.empty((n, _ROW), dtype=np.uint8)
    top = q // 10**8
    low8 = (q - top * 10**8).astype(np.uint32)
    top = top.astype(np.uint32)
    lead = top // 10**8
    buf[:, _D0] = lead + 48
    rest = top - lead * 10**8
    pairs = buf.view(np.uint16)
    quarters = (rest // 10_000, rest % 10_000, low8 // 10_000, low8 % 10_000)
    for slot, quarter in zip(range(2, 10, 2), quarters):
        hi2 = quarter // 100
        pairs[:, slot] = _PAIRS[hi2]
        pairs[:, slot + 1] = _PAIRS[quarter - hi2 * 100]
    last = np.where(nonzero, 16 - np.argmax(buf[:, _D0 + 16 : _D0 - 1 : -1] != 48, axis=1), 0)
    buf[:, _SIGN] = np.where(np.signbit(block.ravel()), ord("-"), 0)
    buf[:, _DOT] = ord(".")
    buf[:, _ZERO] = ord("0")
    sep = buf[:, _SEP].reshape(rows, cols)
    sep[:] = ord(",")
    sep[:, -1] = ord("\n")
    buf[:, _EMPTY] = 0
    index = np.take(_LAYOUTS, (x + 4) * 17 + last, axis=0)
    index += np.arange(0, n * _ROW, _ROW)[:, None]
    out = np.take(buf.ravel(), index)
    return out[out != 0].tobytes()


def save_matrix_csv(matrix, path) -> None:
    """Write `matrix` to the plain file `path` as a CSV grid of exact `%.17g` text.

    The bytes are exactly those `np.savetxt(path, matrix, fmt="%.17g",
    delimiter=",")` writes: every value correctly rounded to 17 significant
    digits, round-half-to-even, trailing zeros stripped. `matrix` is a
    non-empty 2-d float64 array, written one block of about `CSV_BLOCK_VALUES`
    values (whole rows) at a time. A block whose entries are all 0, -0.0 or
    finite with magnitude in [1e-4, 1e15), the fixed-notation range of `%g`
    there, is formatted in numpy integer arithmetic (`_format_fixed`); any
    other block (NaN, inf, magnitudes below 1e-4 or from 1e15 up) goes
    through `np.savetxt` itself.
    """
    with open(path, "wb") as fh:
        step = max(1, CSV_BLOCK_VALUES // matrix.shape[1])
        for lo in range(0, matrix.shape[0], step):
            block = matrix[lo : lo + step]
            mag = np.abs(block)
            # NaN fails every comparison, inf the upper bound.
            if (((mag >= 1e-4) & (mag < 1e15)) | (mag == 0)).all():
                fh.write(_format_fixed(block, mag.ravel()))
            else:
                np.savetxt(fh, block, fmt="%.17g", delimiter=",")
