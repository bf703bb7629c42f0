"""Federated round orchestration: local training, upload, and aggregation.

Supports plain weighted averaging (fedavg), a proximal local objective
(fedprox), server/client control variates (scaffold), and step-normalized
averaging (fednova). Aggregation always consumes updates in client-id order,
so permuting the update list never changes the result. A client whose update
diverges to non-finite values is dropped from the round and logged; the
simulation keeps going.
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
    _loss_and_grad_into,
    _prox_into,
    loss_and_grad,  # noqa: F401  bench/tracer.py traces fedsim.engine.loss_and_grad
    sgd_step,  # noqa: F401  and fedsim.engine.sgd_step
    unpack_params,
)
from .sampling import SamplingPlan

logger = logging.getLogger(__name__)

ALGORITHMS = ("fedavg", "fedprox", "scaffold", "fednova")


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
    """Mini-batch SGD from a copy of the global model, seeded per (seed, round, client).

    The learning rate is multiplied by `decay` after each local epoch. SCAFFOLD
    corrects every gradient by (c - c_i) and reports the control-variate delta
    derived from the parameter displacement over the effective last-epoch rate.

    Inputs are validated once, here: the feature width, finite client rows and
    labels within the model's classes. Every epoch visits every row, so the
    steps themselves re-check nothing but divergence. A non-finite loss or
    gradient raises DivergenceError; a finite gradient whose step overflows the
    parameters, or a learning rate decayed to 0, raises ValueError.
    """
    scaffold = cfg.algorithm == "scaffold"
    if scaffold and server_control is None:
        raise ValueError("scaffold requires the server control variate")
    client_control = None
    correction = None
    if scaffold:
        client_control = (
            np.zeros_like(global_params.values) if client.control is None else client.control
        )
        correction = server_control - client_control
    prox_mu = cfg.prox_mu if cfg.algorithm == "fedprox" else 0.0

    x, y = _check_training_batch(
        global_params, dataset.features[client.data], dataset.labels[client.data]
    )
    # The loop updates one flat vector in place; per-layer views of it and of
    # the gradient buffer are what the backprop kernel reads and writes.
    values = global_params.values.copy()
    grad = np.empty_like(values)
    layers = unpack_params(values, global_params.spec)
    grad_layers = unpack_params(grad, global_params.spec)
    rng = np.random.default_rng([cfg.master_seed, round_idx, client.id])
    n = len(y)
    lr = cfg.lr
    steps = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            sel = order[start : start + cfg.batch_size]
            loss = _loss_and_grad_into(layers, grad_layers, x[sel], y[sel])
            if prox_mu > 0:
                loss += _prox_into(values, global_params.values, prox_mu, grad)
            if not math.isfinite(loss):
                raise DivergenceError(f"client {client.id} diverged in round {round_idx}")
            values -= lr * (grad + correction if scaffold else grad)
            # With lr > 0, finite new values imply a finite gradient. The
            # decayed lr can underflow to 0, which is an error of its own.
            if not (lr > 0 and np.isfinite(values).all()):
                if not np.isfinite(grad).all():
                    raise DivergenceError(f"client {client.id} diverged in round {round_idx}")
                if not lr > 0:
                    raise ValueError(f"client {client.id}: learning rate decayed to 0")
                raise ValueError(f"client {client.id}: SGD step overflowed the parameters")
            steps += 1
        lr *= cfg.decay
    params = ModelParams(values, global_params.spec)

    delta_control = None
    new_control = None
    if scaffold:
        lr_effective = cfg.lr * cfg.decay ** (cfg.epochs - 1)
        new_control = client_control - server_control + (
            global_params.values - params.values
        ) / (steps * lr_effective)
        if not np.all(np.isfinite(new_control)):
            raise DivergenceError(f"client {client.id} control variate diverged")
        delta_control = new_control - client_control

    return LocalUpdate(client.id, params, n, steps, delta_control, new_control)


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


def _train_or_drop(client, dataset, snapshot, cfg, round_idx, server_control):
    try:
        return local_train(client, dataset, snapshot, cfg, round_idx, server_control)
    except DivergenceError as exc:
        logger.warning("dropping update: %s", exc)
        return None


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
        results = [
            _train_or_drop(clients[c], dataset, snapshot, cfg, round_idx, server.server_control)
            for c in plan.selected.tolist()
        ]
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
