"""Federated round orchestration: local training, upload, and aggregation.

Supports plain weighted averaging (fedavg), a proximal local objective
(fedprox), server/client control variates (scaffold), and step-normalized
averaging (fednova). Aggregation always consumes updates in client-id order,
so permuting the update list never changes the result. A client whose update
diverges to non-finite values is dropped from the round and logged; the
simulation keeps going.

`train_clients` trains a round's clients in lockstep: groups of clients
advance one SGD step at a time together. Each matrix product is still one BLAS
call on one client's own rows, while the elementwise work, the softmax, the
bias-gradient sums and the parameter update run once per step on stacks of
the group's clients. Every client's update is bit-equal to training it alone
(`local_train`). A group holds as many clients as fit `GROUP_BYTES` of
stacked parameters, so a model too large for two trains one client at a time.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import metrics as metrics_mod
from .data import Dataset, Partition
from .mlp import (
    ModelParams,
    _check_training_batch,
    log_softmax,
    loss_and_grad,  # noqa: F401  bench/tracer.py traces fedsim.engine.loss_and_grad
    sgd_step,  # noqa: F401  and fedsim.engine.sgd_step
    unpack_params,
)
from .sampling import SamplingPlan

logger = logging.getLogger(__name__)

ALGORITHMS = ("fedavg", "fedprox", "scaffold", "fednova")

# Stacked parameter bytes of one lockstep training group: half of one core's
# 2 MiB L2 on the Xeon it was tuned on. There, one group of fifty [256, 256]
# clients trained 1.25x slower than groups of one, so a model too large for two
# clients in the budget trains one per group.
GROUP_BYTES = 1 << 20
# A summed loss below this bound leaves every group member's own loss finite.
_LOSS_BOUND = 1e300


class DivergenceError(RuntimeError):
    """Local training produced non-finite values."""


@dataclass
class ClientState:
    id: int
    data: np.ndarray
    control: np.ndarray | None = None

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.int64)
        if self.data.size < 1:
            raise ValueError(f"client {self.id} has no data")


@dataclass
class ServerState:
    global_params: ModelParams
    server_control: np.ndarray | None = None
    round: int = 0
    rng_seed: int = 0

    def __post_init__(self):
        if self.round < 0:
            raise ValueError("round must be >= 0")
        if self.server_control is not None:
            self.server_control = np.asarray(self.server_control, dtype=np.float64)
            if self.server_control.shape != self.global_params.values.shape:
                raise ValueError("server control length must match the model")


@dataclass
class LocalUpdate:
    client_id: int
    new_params: ModelParams
    num_samples: int
    local_steps: int
    delta_control: np.ndarray | None = None
    new_control: np.ndarray | None = None


@dataclass
class TrainConfig:
    algorithm: str = "fedavg"
    epochs: int = 1
    batch_size: int = 32
    lr: float = 0.01
    decay: float = 0.99
    prox_mu: float = 0.0
    master_seed: int = 0

    def __post_init__(self):
        errors: list[str] = []
        if self.algorithm not in ALGORITHMS:
            errors.append(f"algorithm: must be one of {ALGORITHMS}")
        if self.epochs < 1:
            errors.append("epochs: must be >= 1")
        if self.batch_size < 1:
            errors.append("batch_size: must be >= 1")
        if not self.lr > 0:
            errors.append("lr: must be > 0")
        if not 0 < self.decay <= 1:
            errors.append("decay: must be in (0, 1]")
        if self.prox_mu < 0:
            errors.append("prox_mu: must be >= 0")
        if errors:
            raise ValueError("; ".join(errors))


def make_clients(partition: Partition) -> list[ClientState]:
    return [ClientState(i, idx) for i, idx in enumerate(partition.assignment)]


def local_train(
    client: ClientState,
    dataset: Dataset,
    global_params: ModelParams,
    cfg: TrainConfig,
    round_idx: int,
    server_control: np.ndarray | None = None,
) -> LocalUpdate:
    """`train_clients` for one client; a diverged client raises DivergenceError."""
    (result,) = _train_all([client], dataset, global_params, cfg, round_idx, server_control)
    if isinstance(result, DivergenceError):
        raise result
    return result


def train_clients(
    clients: list[ClientState],
    dataset: Dataset,
    global_params: ModelParams,
    cfg: TrainConfig,
    round_idx: int,
    server_control: np.ndarray | None = None,
) -> list[LocalUpdate | None]:
    """Mini-batch SGD from a copy of the global model, one update per client.

    Each client's run is seeded per (seed, round, client) and does not depend
    on which other clients train with it. The learning rate is multiplied by
    `decay` after each local epoch. SCAFFOLD corrects every gradient by
    (c - c_i) and reports the control-variate delta derived from the parameter
    displacement over the effective last-epoch rate.

    Inputs are validated once, here: the feature width, finite client rows and
    labels within the model's classes. Every epoch visits every row, so the
    steps themselves re-check nothing but divergence. A client whose loss,
    gradient or control variate turns non-finite gets `None` and one
    "dropping update" warning. A finite gradient whose step overflows the
    parameters, or a learning rate decayed to 0, raises ValueError.
    """
    results = _train_all(clients, dataset, global_params, cfg, round_idx, server_control)
    for i, result in enumerate(results):
        if isinstance(result, DivergenceError):
            logger.warning("dropping update: %s", result)
            results[i] = None
    return results


def _train_all(clients, dataset, global_params, cfg, round_idx, server_control):
    """One LocalUpdate or DivergenceError per client, in the clients' order.

    Clients are sorted by size, and so by step count, largest first, and cut
    into lockstep groups whose stacked parameters fit in `GROUP_BYTES`. Each
    group's rows are validated just before it trains.
    """
    if cfg.algorithm == "scaffold" and server_control is None:
        raise ValueError("scaffold requires the server control variate")
    order = sorted(range(len(clients)), key=lambda i: -clients[i].data.size)
    size = max(1, GROUP_BYTES // (8 * global_params.spec.num_params))
    results = [None] * len(clients)
    for start in range(0, len(order), size):
        group = order[start : start + size]
        members = [
            (c, *_check_training_batch(global_params, dataset.features[c.data], dataset.labels[c.data]))
            for c in (clients[i] for i in group)
        ]
        trained = _train_group(members, global_params, cfg, round_idx, server_control)
        for i, result in zip(group, trained):
            results[i] = result
    return results


def _train_group(members, global_params, cfg, round_idx, server_control):
    """Advance (client, x, y) members one SGD step at a time, together.

    Members come sorted by step count, longest first, so the clients still
    training at any step are a prefix of the group. Every GEMM is a separate
    BLAS call on one client's own rows; the rest of a step runs once on
    (clients, rows, width) stacks whose rows are padded to the step's largest
    batch. Padded rows of the inputs and of the GEMM outputs hold +0.0, so they
    add nothing to a bias-gradient sum; padded logits stay finite, and their
    softmax-gradient rows are divided by +inf to +0.0. Each client's result is
    bit-equal to training it alone. A diverged member is dropped and the rest
    of the group is retrained without it.
    """
    spec = global_params.spec
    shapes = spec.layer_shapes
    last = len(shapes) - 1
    scaffold = cfg.algorithm == "scaffold"
    prox_mu = cfg.prox_mu if cfg.algorithm == "fedprox" else 0.0
    g = len(members)
    table_x, table_y, rows, rates = _schedule(members, cfg, round_idx)
    total, _, width = rows.shape
    pad = len(table_x) - 1
    real = rows != pad
    counts = real.sum(axis=2).tolist()
    rates_ok = ((rates > 0) | ~real[:, :, 0]).all(axis=1).tolist()
    # Per step, (member, row, label) of every real row: the one-hot targets.
    step_of, *where = np.nonzero(real)
    where.append(table_y[rows[real]])
    bounds = np.searchsorted(step_of, np.arange(total + 1)).tolist()
    targets = [tuple(a[lo:hi] for a in where) for lo, hi in zip(bounds, bounds[1:])]

    # Stacked state, and per-layer buffers of shape (members, width, layer width).
    values = np.tile(global_params.values, (g, 1))
    grad = np.empty_like(values)
    delta = np.empty_like(values)  # each step's lr-scaled update
    layers = [unpack_params(v, spec) for v in values]
    grad_layers = [unpack_params(v, spec) for v in grad]
    starts = np.cumsum([0] + [fi * fo + fo for fi, fo in shapes]).tolist()
    bias_cols = [slice(o + fi * fo, o + fi * fo + fo) for o, (fi, fo) in zip(starts, shapes)]
    biases = [values[:, cols] for cols in bias_cols]
    grad_biases = [grad[:, cols] for cols in bias_cols]
    x_buf = np.empty((g, width, spec.input_dim))
    z_bufs = [np.zeros((g, width, fo)) for _, fo in shapes]  # forward GEMM outputs
    a_bufs = [np.empty((g, width, fo)) for _, fo in shapes]  # after bias (and ReLU)
    d_bufs = [np.zeros((g, width, fo)) for _, fo in shapes]  # backprop deltas
    denom = np.full((g, width, 1), np.inf)
    controls = [None] * g
    if scaffold:
        correction = np.empty_like(values)
        for c, (client, _, _) in enumerate(members):
            # A client without a control variate has c_i = 0; the scalar 0.0
            # gives the same bits as a zero vector in every use below.
            controls[c] = 0.0 if client.control is None else client.control
            np.subtract(server_control, controls[c], out=correction[c])
    if prox_mu > 0:
        diff = np.empty_like(values)

    # Per-layer GEMM arguments of every member at its current batch size, and
    # the stacked views of the current (active members, rows) shape; both are
    # built once per distinct shape.
    fwd = [[None] * g for _ in shapes]
    wgrad = [[None] * g for _ in shapes]
    back = [[None] * g for _ in shapes]
    member_args = [{} for _ in range(g)]
    stacked = {}
    current = [0] * g
    shape = None
    for t in range(total):
        count = counts[t]
        active = g - count.count(0)
        span = max(count)
        changed = (active, span) != shape
        for c in range(active):
            m = count[c]
            if m == current[c]:
                continue
            if m < current[c]:
                for buf in z_bufs + d_bufs:
                    buf[c, m : current[c]] = 0.0
            denom[c, :m] = m
            denom[c, m:] = np.inf
            current[c] = m
            changed = True
            if m not in member_args[c]:
                member_args[c][m] = _gemm_args(
                    layers[c], grad_layers[c], x_buf[c, :m], [b[c, :m] for b in z_bufs],
                    [b[c, :m] for b in a_bufs], [b[c, :m] for b in d_bufs],
                )
            for li, args in enumerate(member_args[c][m]):
                fwd[li][c], wgrad[li][c], back[li][c] = args
        if changed:
            shape = (active, span)
            fwd_run, wgrad_run, back_run = ([r[:active] for r in lists] for lists in (fwd, wgrad, back))
            if shape not in stacked:
                stacked[shape] = (
                    x_buf[:active],
                    *([buf[:active, :span] for buf in bufs] for bufs in (z_bufs, a_bufs, d_bufs)),
                    [b[:active, None, :] for b in biases],
                    [gb[:active] for gb in grad_biases],
                    denom[:active, :span],
                    values[:active], grad[:active], delta[:active],
                )
            xs, zs, acts, ds, bs, gbs, den, vals, grads, deltas = stacked[shape]

        np.take(table_x, rows[t, :active], axis=0, out=xs)
        for li in range(last + 1):
            for args in fwd_run[li]:
                np.matmul(args[0], args[1], out=args[2])
            np.add(zs[li], bs[li], out=acts[li])
            if li < last:
                np.maximum(acts[li], 0.0, out=acts[li])
        logp = log_softmax(acts[last])
        at = targets[t]
        # Every target log-probability is <= 0, so a sum below the bound
        # means every member's loss is finite.
        bound = -float(logp[at].sum())

        d = ds[last]
        np.exp(logp, out=d)
        d[at] -= 1.0
        d /= den
        for li in range(last, -1, -1):
            for args in wgrad_run[li]:
                np.matmul(args[0], args[1], out=args[2])
            if shapes[li][1] > 1:
                ds[li].sum(axis=1, out=gbs[li])
            else:  # A width-1 row sum is pairwise over the rows: sum real rows only.
                for c, args in enumerate(wgrad_run[li]):
                    args[1].sum(axis=0, out=grad_layers[c][li][1])
            if li > 0:
                for args in back_run[li]:
                    np.matmul(args[0], args[1], out=args[2])
                ds[li - 1] *= acts[li - 1] > 0
        if prox_mu > 0:
            dv = diff[:active]
            np.subtract(vals, global_params.values, out=dv)
            bound += 0.5 * prox_mu * float(np.vdot(dv, dv))
            dv *= prox_mu
            grads += dv

        if not bound < _LOSS_BOUND:
            dropped = [
                c for c in range(active)
                if not math.isfinite(_member_loss(logp[c], table_y, rows[t, c], count[c],
                                                  values[c], global_params.values, prox_mu))
            ]
            if dropped:
                return _drop(members, dropped, global_params, cfg, round_idx, server_control)

        lr = rates[t, :active, None]
        if scaffold:
            np.add(grads, correction[:active], out=deltas)
            deltas *= lr
        else:
            np.multiply(grads, lr, out=deltas)
        vals -= deltas
        # With lr > 0, finite new values imply a finite gradient. The decayed
        # lr can underflow to 0, which is an error of its own.
        if not (rates_ok[t] and np.isfinite(vals).all()):
            dropped = []
            for c in range(active):
                if rates[t, c] > 0 and np.isfinite(values[c]).all():
                    continue
                cid = members[c][0].id
                if not np.isfinite(grad[c]).all():
                    dropped.append(c)
                elif not rates[t, c] > 0:
                    raise ValueError(f"client {cid}: learning rate decayed to 0")
                else:
                    raise ValueError(f"client {cid}: SGD step overflowed the parameters")
            return _drop(members, dropped, global_params, cfg, round_idx, server_control)

    results = []
    lr_effective = cfg.lr * cfg.decay ** (cfg.epochs - 1)
    for c, (client, _, _) in enumerate(members):
        params = ModelParams(values[c], spec)
        n_steps = cfg.epochs * -(-len(members[c][2]) // cfg.batch_size)
        delta_control = None
        new_control = None
        if scaffold:
            new_control = controls[c] - server_control + (
                global_params.values - params.values
            ) / (n_steps * lr_effective)
            if not np.all(np.isfinite(new_control)):
                results.append(DivergenceError(f"client {client.id} control variate diverged"))
                continue
            delta_control = new_control - controls[c]
        results.append(
            LocalUpdate(client.id, params, len(members[c][2]), n_steps, delta_control, new_control)
        )
    return results


def _schedule(members, cfg, round_idx):
    """Every step's batch of each (client, x, y) member, and its learning rate.

    Returns the members' stacked rows and labels, ending in an all-zero row
    `pad`; a (steps, members, width) array of row indices, each batch padded
    with `pad`; and a (steps, members) array of learning rates, 0 once a
    member's schedule has ended. Members come sorted by step count, longest
    first.
    """
    sizes = [len(y) for _, _, y in members]
    per_epoch = [-(-n // cfg.batch_size) for n in sizes]
    width = min(cfg.batch_size, max(sizes))
    pad = sum(sizes)
    table_x = np.concatenate([x for _, x, _ in members] + [np.zeros((1, members[0][1].shape[1]))])
    table_y = np.concatenate([y for _, _, y in members] + [np.zeros(1, dtype=np.int64)])
    rows = np.full((cfg.epochs * per_epoch[0], len(members), width), pad)
    rates = np.zeros(rows.shape[:2])
    epoch_rates = [cfg.lr]
    for _ in range(cfg.epochs - 1):
        epoch_rates.append(epoch_rates[-1] * cfg.decay)
    base = 0
    for c, ((client, _, _), n, nb) in enumerate(zip(members, sizes, per_epoch)):
        rng = np.random.default_rng([cfg.master_seed, round_idx, client.id])
        # One row per epoch, drawn as successive `rng.permutation(n)` calls draw them.
        orders = rng.permuted(np.tile(np.arange(base, base + n), (cfg.epochs, 1)), axis=1)
        batches = np.full((cfg.epochs, nb * width), pad)
        batches[:, :n] = orders
        rows[: cfg.epochs * nb, c] = batches.reshape(-1, width)
        rates[: cfg.epochs * nb, c] = np.repeat(epoch_rates, nb)
        base += n
    return table_x, table_y, rows, rates


def _gemm_args(layer, grad_layer, x, zs, acts, ds):
    """Per layer: (forward, weight-gradient, backprop) matmul arguments of one member."""
    ins = [x] + acts[:-1]
    return [
        (
            (ins[li], w, zs[li]),
            (ins[li].T, ds[li], grad_layer[li][0]),
            (ds[li], w.T, ds[li - 1]) if li > 0 else None,
        )
        for li, (w, _) in enumerate(layer)
    ]


def _member_loss(logp, labels, rows, m, values, anchor, prox_mu):
    """One member's loss at a step, computed as a client training alone computes it."""
    loss = -float(logp[:m][np.arange(m), labels[rows[:m]]].mean())
    if prox_mu > 0:
        diff = values - anchor
        loss += 0.5 * prox_mu * float(diff @ diff)
    return loss


def _drop(members, dropped, global_params, cfg, round_idx, server_control):
    """Results of a group whose `dropped` members diverged: the rest retrain without them."""
    keep = [mem for i, mem in enumerate(members) if i not in dropped]
    rest = iter(_train_group(keep, global_params, cfg, round_idx, server_control) if keep else ())
    return [
        DivergenceError(f"client {members[i][0].id} diverged in round {round_idx}")
        if i in dropped else next(rest)
        for i in range(len(members))
    ]


def _sorted_weights(updates: list[LocalUpdate]):
    """Updates in client-id order, their exact-integer sample counts and the counts' sum."""
    if not updates:
        raise ValueError("no updates to aggregate")
    ups = sorted(updates, key=lambda u: u.client_id)
    sizes = [int(u.num_samples) for u in ups]
    return ups, sizes, sum(sizes)


def aggregate_fedavg(updates: list[LocalUpdate]) -> ModelParams:
    """Mean of the uploaded parameters, each weighted by its share of the sampled samples."""
    ups, sizes, denom = _sorted_weights(updates)
    acc = np.zeros_like(ups[0].new_params.values)
    for u, sz in zip(ups, sizes):
        acc += (sz / denom) * u.new_params.values
    return ModelParams(acc, ups[0].new_params.spec)


def aggregate_scaffold(
    server: ServerState, updates: list[LocalUpdate], total_clients: int
) -> tuple[ModelParams, np.ndarray]:
    """`aggregate_fedavg` parameters plus the server control moved by |s|/N times the mean delta."""
    ups = sorted(updates, key=lambda u: u.client_id)
    if any(u.delta_control is None for u in ups):
        raise ValueError("scaffold aggregation needs delta_control on every update")
    params = aggregate_fedavg(ups)
    control = (
        np.zeros_like(server.global_params.values)
        if server.server_control is None
        else server.server_control
    )
    mean_delta = np.mean(np.stack([u.delta_control for u in ups]), axis=0)
    new_control = control + (len(ups) / total_clients) * mean_delta
    return params, new_control


def aggregate_fednova(global_params: ModelParams, updates: list[LocalUpdate]) -> ModelParams:
    """Step-normalized averaging: rescale client displacements by their step counts.

    Equivalent to g - tau_eff * sum_i p_i (g - w_i)/tau_i with p_i = |D_i|/sum|D_j|
    and tau_eff = sum_i p_i tau_i. Coefficients are reduced as exact rationals so
    the equal-steps case degenerates to the fedavg weighted mean bit for bit.
    """
    ups, sizes, denom = _sorted_weights(updates)
    taus = [int(u.local_steps) for u in ups]
    if any(t < 1 for t in taus):
        raise ValueError("every update needs local_steps >= 1")
    weighted_tau = sum(d * t for d, t in zip(sizes, taus))
    acc = np.zeros_like(ups[0].new_params.values)
    coeff_sum = Fraction(0)
    for u, d, t in zip(ups, sizes, taus):
        coeff = Fraction(weighted_tau * d, denom * denom * t)
        coeff_sum += coeff
        acc += float(coeff) * u.new_params.values
    leftover = float(1 - coeff_sum)
    if leftover:
        acc += leftover * global_params.values
    return ModelParams(acc, global_params.spec)


def run_round(
    server: ServerState,
    clients: list[ClientState],
    dataset: Dataset,
    plan: SamplingPlan,
    cfg: TrainConfig,
    *,
    test_data: Dataset | None = None,
    ledger: metrics_mod.CostLedger | None = None,
    updates: list[LocalUpdate] | None = None,
) -> tuple[ServerState, metrics_mod.RoundMetrics]:
    """Train the sampled clients from one global snapshot, aggregate, and score.

    Pre-computed `updates` (e.g. from the clustering pre-pass) skip the training
    step but go through identical aggregation and accounting.
    """
    if plan.budget == 0:
        raise ValueError("empty sampling plan")
    if plan.selected.min() < 0 or plan.selected.max() >= len(clients):
        raise ValueError("plan references unknown client ids")
    round_idx = server.round + 1
    snapshot = server.global_params

    if updates is None:
        results = train_clients(
            [clients[c] for c in plan.selected.tolist()],
            dataset, snapshot, cfg, round_idx, server.server_control,
        )
    else:
        by_id = {u.client_id: u for u in updates}
        results = [by_id[int(c)] for c in plan.selected]
    accepted = [u for u in results if u is not None]

    new_control = server.server_control
    if not accepted:
        logger.warning("round %d: every update diverged; global model unchanged", round_idx)
        new_global = snapshot
    elif cfg.algorithm == "scaffold":
        new_global, new_control = aggregate_scaffold(server, accepted, len(clients))
        for u in accepted:
            clients[u.client_id].control = u.new_control
    elif cfg.algorithm == "fednova":
        new_global = aggregate_fednova(snapshot, accepted)
    else:
        new_global = aggregate_fedavg(accepted)

    if ledger is not None:
        model_bytes = snapshot.spec.num_params * metrics_mod.BYTES_PER_PARAM
        ledger.record_round(plan, model_bytes, cfg.algorithm)

    entropy = metrics_mod.sample_relative_entropy(
        plan, [c.data for c in clients], dataset.labels, dataset.num_classes
    )
    if test_data is not None:
        accuracy, loss = metrics_mod.evaluate_global(new_global, test_data)
    else:
        accuracy, loss = math.nan, math.nan

    new_server = ServerState(new_global, new_control, round_idx, server.rng_seed)
    rm = metrics_mod.RoundMetrics(
        round=round_idx,
        test_accuracy=accuracy,
        test_loss=loss,
        sample_relative_entropy=entropy,
        cumulative_bytes=ledger.total if ledger is not None else 0,
    )
    return new_server, rm
