"""Federated round orchestration: local training, upload, and aggregation.

Supports plain weighted averaging (fedavg), a proximal local objective
(fedprox), server/client control variates (scaffold), and step-normalized
averaging (fednova). Aggregation always consumes updates in client-id order,
so permuting the update list never changes the result. A client whose update
diverges to non-finite values is dropped from the round and logged; the
simulation keeps going.

`train_clients` trains a round's clients in lockstep: groups of clients
advance one SGD step at a time together, on one table of their rows that is
gathered and validated once per group. At each step, each matrix product and
each bias-gradient sum is one call per run of adjacent clients whose batches
have the same row count, on those rows only; the elementwise work, the softmax
and the parameter update run once per step on stacks of the group's clients,
padded to the step's largest batch. Padded rows are scratch: no product or sum
reads one into a real row. Each step's update is formed in place in the
gradient stack, so a member holds its parameters, its gradient, (SCAFFOLD) its
gradient correction, and per layer one activation and one delta stack. Every
client's update is bit-equal to training it alone, in a group of one. A group
holds as many clients as fit `GROUP_BYTES` of stacked parameters, so a model
too large for two trains one client at a time. A SCAFFOLD client's new control
variate is derived again when the round is aggregated, so no update stores it.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

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
    """One client's upload after local training.

    With SCAFFOLD, `control_divisor` is K * lr: `local_steps` times the last
    epoch's rate (`None` for the other algorithms). The new control variate
    c_i+ = (g - w_i) / (K * lr) - (c - c_i) depends only on the new
    parameters w_i, this scalar, the client's standing c_i and the server's g
    and c, so `aggregate_scaffold` derives it there and the update stores
    neither c_i+ nor c_i.
    """

    client_id: int
    new_params: ModelParams
    num_samples: int
    local_steps: int
    control_divisor: float | None = None


@dataclass(frozen=True)
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
        if not 0 < self.lr < math.inf:
            errors.append("lr: must be finite and > 0")
        if not 0 < self.decay <= 1:
            errors.append("decay: must be in (0, 1]")
        if not 0 <= self.prox_mu < math.inf:
            errors.append("prox_mu: must be finite and >= 0")
        if not errors and not self.epoch_rates()[-1] > 0:
            errors.append(f"decay: the learning rate decays to 0 within {self.epochs} epochs")
        if errors:
            raise ValueError("; ".join(errors))

    def epoch_rates(self) -> list[float]:
        """Each local epoch's learning rate: `lr`, multiplied by `decay` after every epoch."""
        rates = [self.lr]
        for _ in range(self.epochs - 1):
            rates.append(rates[-1] * self.decay)
        return rates


def make_clients(partition: Partition) -> list[ClientState]:
    return [ClientState(i, idx) for i, idx in enumerate(partition.assignment)]


def local_train(
    client: ClientState,
    dataset: Dataset,
    global_params: ModelParams,
    cfg: TrainConfig,
    round_idx: int,
    server_control: np.ndarray | None = None,
) -> LocalUpdate | None:
    """`train_clients([client], ...)[0]`, kept only as a `bench/tracer.py` target.

    ROADMAP item 1 points the tracer at `train_clients` and deletes this.
    """
    return train_clients([client], dataset, global_params, cfg, round_idx, server_control)[0]


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
    (c - c_i). Its new control variate c_i+ is computed once here, only to
    check that it is finite; the update keeps the parameters and the divisor
    K * lr, and `aggregate_scaffold` derives c_i+ again with the same
    operations. So the clients' controls must not change between training
    and aggregation.

    Inputs are validated once per group: the feature width, finite client rows
    and labels within the model's classes. Every epoch visits every row, so
    the steps themselves re-check nothing. A client whose loss at some step, or
    whose final parameters or new control variate, are non-finite diverged: it
    gets `None` and one "dropping update" warning.

    Clients are sorted by size, and so by step count, largest first, and cut
    into lockstep groups whose stacked parameters fit in `GROUP_BYTES`. Each
    group's rows are gathered into one table and checked once before it trains.
    """
    if cfg.algorithm == "scaffold" and server_control is None:
        raise ValueError("scaffold requires the server control variate")
    order = sorted(range(len(clients)), key=lambda i: -clients[i].data.size)
    size = max(1, GROUP_BYTES // (8 * global_params.spec.num_params))
    results = [None] * len(clients)
    # Divergence is detected from the values themselves, so numpy's own
    # overflow and invalid-value warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(order), size):
            group = order[start : start + size]
            members = [clients[i] for i in group]
            trained = _train_group(members, dataset, global_params, cfg, round_idx, server_control)
            for i, result in zip(group, trained):
                results[i] = result
    return results


def _train_group(members, dataset, global_params, cfg, round_idx, server_control):
    """Advance member clients one SGD step at a time, together.

    Members come sorted by step count, longest first, so the clients still
    training at any step are a prefix of the group. Each GEMM and each
    bias-gradient sum is one call per run of adjacent members with the same
    row count m at that step, on their m real rows only; a stacked product or
    sum of unpadded rows has the bits of one per member. The rest of a step
    runs once on (clients, rows, width) stacks whose rows are padded to the
    step's largest batch. Padded rows are scratch: they hold whatever earlier
    steps left there, and only row-wise operations touch them. A step's
    update, (grad + correction) * lr, is formed in the gradient stack, which
    the next step rewrites whole before reading it, so a member holds its
    parameters, its gradient, (SCAFFOLD) its correction, and per layer one
    activation and one delta stack while it trains, and its result holds its
    parameters. A SCAFFOLD member's new control is formed in its gradient
    row, dead after the last step, and only checked for finiteness. Each
    client's result is bit-equal to training it alone: no operation mixes two
    members' values, so a diverged member keeps stepping beside the others
    and is dropped at the end, with `None` in its place.
    """
    spec = global_params.spec
    shapes = spec.layer_shapes
    last = len(shapes) - 1
    scaffold = cfg.algorithm == "scaffold"
    prox_mu = cfg.prox_mu if cfg.algorithm == "fedprox" else 0.0
    g = len(members)
    table_x, table_y, rows, rates, steps = _schedule(members, dataset, global_params, cfg, round_idx)
    total, _, width = rows.shape
    counts = (rows != len(table_x) - 1).sum(axis=2).tolist()

    # Stacked state, and per-layer buffers of shape (members, width, layer width).
    values = np.tile(global_params.values, (g, 1))
    grad = np.empty_like(values)  # each step's gradient, then its lr-scaled update
    weights, biases = zip(*unpack_params(values, spec))
    grad_weights, grad_biases = zip(*unpack_params(grad, spec))
    x_buf = np.empty((g, width, spec.input_dim))
    # GEMM outputs, biased (and ReLU'd) in place. Padded rows hold zeros or old
    # activations plus biases: finite while real rows are, as the bound needs.
    a_bufs = [np.zeros((g, width, fo)) for _, fo in shapes]
    d_bufs = [np.zeros((g, width, fo)) for _, fo in shapes]  # backprop deltas
    denom = np.empty((g, 1, 1))  # each member's row count
    if scaffold:
        correction = np.empty_like(values)
        for c, client in enumerate(members):
            np.subtract(server_control, _control_of(client), out=correction[c])
    if prox_mu > 0:
        diff = np.empty_like(values)

    ins = [x_buf, *a_bufs[:-1]]  # each layer's input
    diverged = [False] * g
    for t in range(total):
        count = counts[t]
        if t == 0 or count != counts[t - 1]:
            active = g - count.count(0)
            span = max(count)
            # Runs of adjacent members with the same row count m share each
            # GEMM and bias sum; a run of one is indexed by an int, so its
            # calls stay 2-D.
            runs = []
            start = 0
            for m, run in itertools.groupby(count[:active]):
                k = len(list(run))
                r = start if k == 1 else slice(start, start + k)
                start += k
                runs.append((r, m))
                denom[r] = m
            grid = (np.arange(active)[:, None], np.arange(span))
            xs = x_buf[:active]
            acts, ds = ([buf[:active, :span] for buf in bufs] for bufs in (a_bufs, d_bufs))
            bs = [b[:active, None, :] for b in biases]
            den = denom[:active]
            vals, grads = values[:active], grad[:active]

        np.take(table_x, rows[t, :active], axis=0, out=xs)
        for li in range(last + 1):
            for r, m in runs:
                np.matmul(ins[li][r, :m], weights[li][r], out=a_bufs[li][r, :m])
            acts[li] += bs[li]
            if li < last:
                np.maximum(acts[li], 0.0, out=acts[li])
        logp = log_softmax(acts[last])
        # Each row's one-hot target; a padded row's is label 0.
        at = (*grid, table_y[rows[t, :active, :span]])
        target_logp = logp[at]
        # Every target log-probability is <= 0, and a padded row's is <= 0 or
        # nan, so a sum below the bound means every member's loss is finite.
        bound = -float(target_logp.sum())

        d = ds[last]
        np.exp(logp, out=d)
        d[at] -= 1.0
        d /= den
        for li in range(last, -1, -1):
            for r, m in runs:
                np.matmul(ins[li][r, :m].mT, d_bufs[li][r, :m], out=grad_weights[li][r])
                d_bufs[li][r, :m].sum(axis=-2, out=grad_biases[li][r])
            if li > 0:
                for r, m in runs:
                    np.matmul(d_bufs[li][r, :m], weights[li][r].mT, out=d_bufs[li - 1][r, :m])
                ds[li - 1] *= acts[li - 1] > 0
        if prox_mu > 0:
            dv = diff[:active]
            np.subtract(vals, global_params.values, out=dv)
            bound += 0.5 * prox_mu * float(np.vdot(dv, dv))
            dv *= prox_mu
            grads += dv

        if not bound < _LOSS_BOUND:
            for c in range(active):
                if not diverged[c]:
                    # Member c's own loss: over its real rows, with its own proximal term.
                    loss = -float(target_logp[c, : count[c]].mean())
                    if prox_mu > 0:
                        gap = values[c] - global_params.values
                        loss += 0.5 * prox_mu * float(gap @ gap)
                    diverged[c] = not math.isfinite(loss)

        if scaffold:
            grads += correction[:active]
        grads *= rates[t, :active, None]
        vals -= grads

    results = []
    for c, (client, n_steps) in enumerate(zip(members, steps)):
        divisor = n_steps * float(rates[n_steps - 1, c]) if scaffold else None
        finite = not diverged[c] and np.isfinite(values[c]).all()
        if finite and scaffold:
            # Formed in the member's gradient row, dead after the last step.
            new_control = _new_control(
                global_params.values, values[c], divisor, correction[c], out=grad[c]
            )
            finite = np.isfinite(new_control).all()
        if not finite:
            logger.warning("dropping update: client %d diverged in round %d", client.id, round_idx)
            results.append(None)
            continue
        results.append(
            LocalUpdate(client.id, ModelParams(values[c], spec), client.data.size, n_steps, divisor)
        )
    return results


def _control_of(client: ClientState):
    """The client's control c_i; the scalar 0.0 for none gives the bits of a zero vector."""
    return 0.0 if client.control is None else client.control


def _new_control(global_values, values, divisor, correction, out=None):
    """SCAFFOLD's c_i+ = (g - w) / (K * lr) - (c - c_i), given `correction` = c - c_i.

    The one formula training checks and aggregation installs, so the two give
    the same bits. They are those of c_i - c + (g - w) / (K * lr) unless the
    quotient holds a -0.0 where c == c_i.
    """
    out = np.subtract(global_values, values, out=out)
    out /= divisor
    out -= correction
    return out


def _schedule(members, dataset, global_params, cfg, round_idx):
    """Every step's batch of each member client, and its learning rate.

    Returns the members' rows and labels, gathered from `dataset` in one step
    and validated once, ending in an all-zero row `pad`; a (steps, members,
    width) array of row indices, each batch padded with `pad`; a (steps,
    members) array of learning rates, 0 once a member's schedule has ended;
    and each member's step count, epochs times its batches per epoch.
    Members come sorted by step count, longest first.
    """
    sizes = [client.data.size for client in members]
    per_epoch = [-(-n // cfg.batch_size) for n in sizes]
    width = min(cfg.batch_size, max(sizes))
    pad = sum(sizes)
    index = np.append(np.concatenate([client.data for client in members]), 0)
    table_x, table_y = dataset.features[index], dataset.labels[index]
    table_x[pad] = table_y[pad] = 0
    _check_training_batch(global_params, table_x[:pad], table_y[:pad])
    rows = np.full((cfg.epochs * per_epoch[0], len(members), width), pad)
    rates = np.zeros(rows.shape[:2])
    epoch_rates = cfg.epoch_rates()
    base = 0
    for c, (client, n, nb) in enumerate(zip(members, sizes, per_epoch)):
        rng = np.random.default_rng([cfg.master_seed, round_idx, client.id])
        # One row per epoch, drawn as successive `rng.permutation(n)` calls draw them.
        orders = rng.permuted(np.tile(np.arange(base, base + n), (cfg.epochs, 1)), axis=1)
        batches = np.full((cfg.epochs, nb * width), pad)
        batches[:, :n] = orders
        rows[: cfg.epochs * nb, c] = batches.reshape(-1, width)
        rates[: cfg.epochs * nb, c] = np.repeat(epoch_rates, nb)
        base += n
    return table_x, table_y, rows, rates, [cfg.epochs * nb for nb in per_epoch]


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
    server: ServerState, updates: list[LocalUpdate], clients: list[ClientState]
) -> tuple[ModelParams, np.ndarray]:
    """`aggregate_fedavg` parameters plus the server control moved by |s|/N times the mean delta.

    `clients` is the whole roster, indexed by client id; N is its length.
    Each update must come from `server`'s model and control and from its
    client's standing control c_i. In client-id order, each client's new
    control c_i+ is derived from its update by the formula training checked,
    c_i+ - c_i is added to a running sum, and c_i+ replaces c_i on the client,
    so the old control is freed at once. The mean delta is that sum divided by
    the count: the same additions, in the same order, as `np.mean` over the
    stacked deltas, without the stack. The loop allocates only the installed
    controls.
    """
    ups = sorted(updates, key=lambda u: u.client_id)
    if any(u.control_divisor is None for u in ups):
        raise ValueError("scaffold aggregation needs control_divisor on every update")
    params = aggregate_fedavg(ups)
    g = server.global_params.values
    control = np.zeros_like(g) if server.server_control is None else server.server_control
    scratch = np.empty_like(g)  # c - c_i, then c_i+ - c_i
    mean_delta = None
    for u in ups:
        client = clients[u.client_id]
        old = _control_of(client)
        np.subtract(control, old, out=scratch)
        new = _new_control(g, u.new_params.values, u.control_divisor, scratch)
        if mean_delta is None:
            mean_delta = np.subtract(new, old)
        else:
            mean_delta += np.subtract(new, old, out=scratch)
        client.control = new
    mean_delta /= len(ups)
    new_control = control + (len(ups) / len(clients)) * mean_delta
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
    updates: list[LocalUpdate | None] | None = None,
) -> tuple[ServerState, list[int]]:
    """Train the sampled clients from one global snapshot and aggregate.

    Returns the new server state and the ascending ids of the clients whose
    updates it aggregated; `run_experiment` scores and charges the round.
    Pre-computed `updates` (from the clustering pre-pass) hold one entry per
    client, in client-id order, `None` for a dropped client; they replace
    training but not aggregation, so they must come from `server` and the
    clients' current controls. With SCAFFOLD, `aggregate_scaffold` installs
    each trained client's new control as it derives it.
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
        results = [updates[c] for c in plan.selected.tolist()]
    accepted = [u for u in results if u is not None]

    new_control = server.server_control
    if not accepted:
        logger.warning("round %d: every update diverged; global model unchanged", round_idx)
        new_global = snapshot
    elif cfg.algorithm == "scaffold":
        new_global, new_control = aggregate_scaffold(server, accepted, clients)
    elif cfg.algorithm == "fednova":
        new_global = aggregate_fednova(snapshot, accepted)
    else:
        new_global = aggregate_fedavg(accepted)

    new_server = ServerState(new_global, new_control, round_idx, server.rng_seed)
    return new_server, [u.client_id for u in accepted]
