import itertools
import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fedsim.engine as engine_mod
from fedsim import (
    ClientState,
    LocalUpdate,
    ModelParams,
    ModelSpec,
    ServerState,
    TrainConfig,
    aggregate_fedavg,
    aggregate_fednova,
    aggregate_scaffold,
    evaluate_global,
    init_params,
    loss_and_grad,
    make_clients,
    partition_dirichlet,
    run_round,
    sgd_step,
    synth_blobs,
    train_clients,
    uniform_sample,
)
from fedsim.sampling import SamplingPlan


SPEC = ModelSpec((4, 6, 3))


def _setup(seed=0, n_clients=4, per_class=8):
    ds = synth_blobs(3, 4, per_class, 1.0, seed=seed)
    part = partition_dirichlet(ds, n_clients, 10.0, seed=seed + 1)
    clients = make_clients(part)
    global_params = init_params(SPEC, seed + 2)
    return ds, clients, global_params


def _update(cid, values, n, steps, spec=SPEC, control_divisor=None):
    return LocalUpdate(cid, ModelParams(values, spec), n, steps, control_divisor)


def _roster(count, controls=None):
    """`count` one-row clients with ids 0..count-1, client i holding `controls[i]` if given."""
    controls = controls or {}
    return [ClientState(i, [i], controls.get(i)) for i in range(count)]


def _formula_control(server, up, old_control):
    """SCAFFOLD's c_i+ = (g - w_i) / (K * lr) - (c - c_i), written out operation by operation."""
    old = 0.0 if old_control is None else old_control
    return (server.global_params.values - up.new_params.values) / up.control_divisor - (
        server.server_control - old
    )


def _assert_dropped(caplog, *client_ids, round_idx=1):
    """Assert that `caplog` holds exactly one drop warning per client id, in order."""
    assert [r.getMessage() for r in caplog.records] == [
        f"dropping update: client {cid} diverged in round {round_idx}" for cid in client_ids
    ]


def test_local_train_requires_at_least_one_epoch():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)


def test_local_train_step_count_matches_epochs_and_batches():
    ds, clients, g = _setup()
    cfg = TrainConfig(epochs=3, batch_size=4, lr=0.05, master_seed=5)
    up = train_clients([clients[0]], ds, g, cfg, round_idx=1)[0]
    expected = 3 * -(-len(clients[0].data) // 4)  # epochs * ceil(n/batch)
    assert up.local_steps == expected
    assert up.num_samples == len(clients[0].data)


def test_local_train_deterministic_per_seed_round_client():
    ds, clients, g = _setup()
    cfg = TrainConfig(epochs=2, batch_size=4, lr=0.05, master_seed=9)
    a = train_clients([clients[1]], ds, g, cfg, round_idx=3)[0]
    b = train_clients([clients[1]], ds, g, cfg, round_idx=3)[0]
    assert np.array_equal(a.new_params.values, b.new_params.values)
    c = train_clients([clients[1]], ds, g, cfg, round_idx=4)[0]
    assert not np.array_equal(a.new_params.values, c.new_params.values)


def test_local_train_ignores_other_clients_data():
    ds, clients, g = _setup()
    cfg = TrainConfig(epochs=2, batch_size=4, lr=0.05, master_seed=7)
    before = train_clients([clients[0]], ds, g, cfg, round_idx=1)[0]
    # Corrupt every sample the other clients own; client 0's result must not move.
    corrupted = ds.features.copy()
    others = np.concatenate([c.data for c in clients[1:]])
    corrupted[others] += 1e6
    ds2 = type(ds)(corrupted, ds.labels, ds.num_classes)
    after = train_clients([clients[0]], ds2, g, cfg, round_idx=1)[0]
    assert np.array_equal(before.new_params.values, after.new_params.values)


def test_fedprox_mu_zero_identical_to_fedavg_trajectory():
    ds, clients, g = _setup()
    avg_cfg = TrainConfig(algorithm="fedavg", epochs=3, batch_size=4, lr=0.05, master_seed=3)
    prox_cfg = TrainConfig(
        algorithm="fedprox", prox_mu=0.0, epochs=3, batch_size=4, lr=0.05, master_seed=3
    )
    a = train_clients([clients[2]], ds, g, avg_cfg, round_idx=2)[0]
    b = train_clients([clients[2]], ds, g, prox_cfg, round_idx=2)[0]
    assert np.array_equal(a.new_params.values, b.new_params.values)


def test_fedprox_positive_mu_changes_trajectory():
    ds, clients, g = _setup()
    avg_cfg = TrainConfig(algorithm="fedavg", epochs=3, batch_size=4, lr=0.05, master_seed=3)
    prox_cfg = TrainConfig(
        algorithm="fedprox", prox_mu=5.0, epochs=3, batch_size=4, lr=0.05, master_seed=3
    )
    a = train_clients([clients[2]], ds, g, avg_cfg, round_idx=2)[0]
    b = train_clients([clients[2]], ds, g, prox_cfg, round_idx=2)[0]
    assert not np.array_equal(a.new_params.values, b.new_params.values)


def test_scaffold_zero_variates_identical_to_fedavg():
    ds, clients, g = _setup()
    avg_cfg = TrainConfig(algorithm="fedavg", epochs=2, batch_size=4, lr=0.05, master_seed=11)
    sca_cfg = TrainConfig(algorithm="scaffold", epochs=2, batch_size=4, lr=0.05, master_seed=11)
    zero = np.zeros(SPEC.num_params)
    a = train_clients([clients[0]], ds, g, avg_cfg, round_idx=1)[0]
    b = train_clients([clients[0]], ds, g, sca_cfg, round_idx=1, server_control=zero)[0]
    assert np.array_equal(a.new_params.values, b.new_params.values)
    assert a.control_divisor is None and b.control_divisor is not None


def test_scaffold_requires_server_control():
    ds, clients, g = _setup()
    cfg = TrainConfig(algorithm="scaffold", epochs=1, batch_size=4, lr=0.05)
    with pytest.raises(ValueError):
        train_clients([clients[0]], ds, g, cfg, round_idx=1)


def test_scaffold_control_update_rule():
    ds, clients, g = _setup()
    cfg = TrainConfig(algorithm="scaffold", epochs=2, batch_size=4, lr=0.05, master_seed=2)
    c_server = np.full(SPEC.num_params, 0.01)
    old = clients[0].control = np.full(SPEC.num_params, -0.02)
    up = train_clients([clients[0]], ds, g, cfg, round_idx=1, server_control=c_server)[0]
    lr_eff = 0.05 * 0.99 ** (2 - 1)
    expected_new = old - c_server + (g.values - up.new_params.values) / (up.local_steps * lr_eff)
    # Aggregation derives c_i+ and installs it; the server control moves by
    # 1/N of the one delta c_i+ - c_i.
    _, control = aggregate_scaffold(ServerState(g, c_server), [up], clients)
    np.testing.assert_allclose(clients[0].control, expected_new, atol=1e-12)
    np.testing.assert_allclose((control - c_server) * len(clients), expected_new - old, atol=1e-12)


def test_delta_control_is_a_new_array_on_every_read():
    # `aggregate_scaffold` forms each delta c_i+ - c_i in scratch and adds it
    # in place into a running sum, so no delta, sum or installed control may
    # alias another array, or write into an old control, the server's control
    # or an update.
    ds, clients, g = _setup()
    cfg = TrainConfig(algorithm="scaffold", epochs=2, batch_size=4, lr=0.05, master_seed=2)
    rng = np.random.default_rng(3)
    server_control = rng.normal(scale=0.01, size=SPEC.num_params)
    clients[0].control = rng.normal(scale=0.01, size=SPEC.num_params)
    old = [c.control for c in clients]
    old_bytes = [None if c is None else c.tobytes() for c in old]
    server_bytes = server_control.tobytes()
    references = [_reference_train(c, ds, g, cfg, 1, server_control)[2] for c in clients[:2]]
    updates = train_clients(clients[:2], ds, g, cfg, 1, server_control)
    params_bytes = [u.new_params.values.tobytes() for u in updates]
    _, control = aggregate_scaffold(ServerState(g, server_control), updates, clients)
    installed = [c.control for c in clients[:2]]
    arrays = [*installed, control, server_control, old[0]]
    assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(arrays, 2))
    for new, ref in zip(installed, references):
        assert new.tobytes() == ref.tobytes()
    assert old[0].tobytes() == old_bytes[0] and server_control.tobytes() == server_bytes
    assert [u.new_params.values.tobytes() for u in updates] == params_bytes
    assert clients[2].control is old[2] and clients[3].control is old[3]


def _reference_train(client, ds, g, cfg, round_idx, server_control=None):
    """One client's training written as a plain loop over the public loss_and_grad and sgd_step."""
    scaffold = cfg.algorithm == "scaffold"
    prox_mu = cfg.prox_mu if cfg.algorithm == "fedprox" else 0.0
    anchor = g if prox_mu > 0 else None
    client_control = None
    if scaffold:
        client_control = np.zeros_like(g.values) if client.control is None else client.control
    rng = np.random.default_rng([cfg.master_seed, round_idx, client.id])
    idx = client.data
    p = g.copy()
    lr = cfg.lr
    steps = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(idx.size)
        for start in range(0, idx.size, cfg.batch_size):
            sel = idx[order[start : start + cfg.batch_size]]
            _, grad = loss_and_grad(p, ds.features[sel], ds.labels[sel], prox_mu, anchor)
            if scaffold:
                grad = grad + (server_control - client_control)
            p = sgd_step(p, grad, lr)
            steps += 1
        last_lr = lr
        lr *= cfg.decay
    new_control = None
    if scaffold:
        # Over the rate the last epoch's steps used.
        new_control = client_control - server_control + (g.values - p.values) / (steps * last_lr)
    return p, steps, new_control, client_control


@pytest.mark.parametrize("algorithm", ["fedavg", "fedprox", "scaffold", "fednova"])
def test_local_train_matches_reference_loop(algorithm):
    spec = ModelSpec((4, 6, 5, 3))
    ds = synth_blobs(3, 4, 12, 1.0, seed=4)
    clients = make_clients(partition_dirichlet(ds, 3, 10.0, seed=5))
    g = init_params(spec, 6)
    cfg = TrainConfig(
        algorithm=algorithm, epochs=3, batch_size=5, lr=0.2, decay=0.9,
        prox_mu=0.7 if algorithm == "fedprox" else 0.0, master_seed=8,
    )
    server_control = None
    if algorithm == "scaffold":
        rng = np.random.default_rng(9)
        server_control = rng.normal(scale=0.01, size=spec.num_params)
        clients[1].control = rng.normal(scale=0.01, size=spec.num_params)
    assert any(len(c.data) % cfg.batch_size for c in clients)  # a short last batch
    for client in clients:
        params, steps, new_control, old_control = _reference_train(
            client, ds, g, cfg, 2, server_control
        )
        up = train_clients([client], ds, g, cfg, 2, server_control)[0]
        assert np.array_equal(up.new_params.values, params.values)
        assert up.local_steps == steps
        if algorithm == "scaffold":
            # Aggregating the one update installs c_i+ and moves the server
            # control by 1/N of c_i+ - c_i.
            _, control = aggregate_scaffold(ServerState(g, server_control), [up], clients)
            assert np.array_equal(client.control, new_control)
            expected = server_control + (1 / len(clients)) * (new_control - old_control)
            assert np.array_equal(control, expected)
        else:
            assert up.control_divisor is None


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 40), min_size=1, max_size=6),
    hidden=st.lists(st.integers(1, 6), max_size=2),
    batch_size=st.integers(1, 16),
    epochs=st.integers(1, 3),
    algorithm=st.sampled_from(["fedavg", "fedprox", "scaffold", "fednova"]),
    one_per_group=st.booleans(),
    seed=st.integers(0, 2**16),
)
# A width-1 hidden layer, whose bias gradient is a pairwise sum over the rows.
@example(
    sizes=[25, 12, 37, 21, 15, 33], hidden=[1], batch_size=16, epochs=1,
    algorithm="fedavg", one_per_group=False, seed=0,
)
# Runs of two members with padded last batches, beside a longer run, at
# widths > 1: each run's GEMMs and bias sums read its own rows only.
@example(
    sizes=[40, 40, 23, 23, 7], hidden=[5, 3], batch_size=16, epochs=2,
    algorithm="fedavg", one_per_group=False, seed=0,
)
# SCAFFOLD in groups of one with short last batches over three epochs: the
# correction is added before the lr scaling, and the new control subtracts it.
@example(
    sizes=[23, 17, 9], hidden=[5], batch_size=4, epochs=3,
    algorithm="scaffold", one_per_group=True, seed=0,
)
# SCAFFOLD over three epochs in one lockstep group: the new control divides by
# the last epoch's rate, 0.3 * 0.8 * 0.8 = 0.192, not by
# 0.3 * 0.8 ** 2 = 0.19200000000000003.
@example(
    sizes=[16, 16, 9], hidden=[5], batch_size=4, epochs=3,
    algorithm="scaffold", one_per_group=False, seed=0,
)
# The proximal term on runs of equal-count members.
@example(
    sizes=[40, 40, 23, 23, 7], hidden=[5, 3], batch_size=16, epochs=2,
    algorithm="fedprox", one_per_group=False, seed=0,
)
def test_train_clients_matches_reference_loop(
    sizes, hidden, batch_size, epochs, algorithm, one_per_group, seed
):
    # Lockstep training, in groups of one or of many, against each client
    # trained alone by the reference loop.
    spec = ModelSpec((3, *hidden, 4))
    ds = synth_blobs(4, 3, -(-sum(sizes) // 4), 1.0, seed=seed)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ds))
    bounds = np.cumsum([0, *sizes])
    clients = [ClientState(7 * i + 1, order[a:b]) for i, (a, b) in enumerate(zip(bounds, bounds[1:]))]
    g = init_params(spec, seed)
    cfg = TrainConfig(
        algorithm=algorithm, epochs=epochs, batch_size=batch_size, lr=0.3, decay=0.8,
        prox_mu=0.5 if algorithm == "fedprox" else 0.0, master_seed=seed,
    )
    server_control = None
    if algorithm == "scaffold":
        server_control = rng.normal(scale=0.01, size=spec.num_params)
        clients[0].control = rng.normal(scale=0.01, size=spec.num_params)
    group_bytes = 8 * spec.num_params if one_per_group else engine_mod.GROUP_BYTES
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine_mod, "GROUP_BYTES", group_bytes)
        updates = train_clients(clients, ds, g, cfg, 4, server_control)
    references = [_reference_train(client, ds, g, cfg, 4, server_control) for client in clients]
    for client, up, (params, steps, _, _) in zip(clients, updates, references):
        assert up.client_id == client.id
        # `tobytes` also tells +0.0 from -0.0, which `array_equal` does not.
        assert np.array_equal(up.new_params.values, params.values)
        assert up.new_params.values.tobytes() == params.values.tobytes()
        assert up.local_steps == steps
    if algorithm == "scaffold":
        # Aggregation, over a roster indexed by client id, installs each c_i+
        # and folds the deltas c_i+ - c_i in client-id order: the order here.
        roster = _roster(clients[-1].id + 1)
        for client in clients:
            roster[client.id] = client
        _, control = aggregate_scaffold(ServerState(g, server_control), updates, roster)
        deltas = []
        for client, (_, _, new_control, old_control) in zip(clients, references):
            assert np.array_equal(client.control, new_control)
            assert client.control.tobytes() == new_control.tobytes()
            deltas.append(new_control - old_control)
        share = len(clients) / len(roster)
        expected = server_control + share * np.mean(np.stack(deltas), axis=0)
        assert np.array_equal(control, expected)
        assert control.tobytes() == expected.tobytes()


def _train_clients_peak_in_parameter_vectors(algorithm):
    # Three one-client groups of a 67,843-parameter model. A member's step
    # holds its parameters, its gradient and (SCAFFOLD) its correction, and
    # each result keeps only its parameters: a SCAFFOLD member's new control
    # is formed in its dead gradient row, and the client's old control was
    # allocated before the trace.
    spec = ModelSpec((4, 256, 256, 3))
    assert engine_mod.GROUP_BYTES // (8 * spec.num_params) == 1
    ds = synth_blobs(3, 4, 20, 1.0, seed=0)
    order = np.random.default_rng(0).permutation(len(ds))
    clients = [ClientState(i, order[20 * i : 20 * (i + 1)]) for i in range(3)]
    g = init_params(spec, 0)
    cfg = TrainConfig(algorithm=algorithm, epochs=2, batch_size=8, lr=0.05)
    server_control = None
    if algorithm == "scaffold":
        rng = np.random.default_rng(1)
        server_control = rng.normal(scale=0.01, size=spec.num_params)
        for c in clients:
            c.control = rng.normal(scale=0.01, size=spec.num_params)
    tracemalloc.start()
    try:
        updates = train_clients(clients, ds, g, cfg, 1, server_control)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(u is not None for u in updates)
    return peak / (8 * spec.num_params)


@pytest.mark.parametrize("algorithm, bound", [("fedavg", 4.8), ("scaffold", 11.8)])
def test_train_clients_peak_memory_in_parameter_vectors(algorithm, bound):
    assert _train_clients_peak_in_parameter_vectors(algorithm) < bound


def test_scaffold_update_does_not_store_its_control_delta():
    # Storing each update's delta beside its new control read 11.34 vectors.
    assert _train_clients_peak_in_parameter_vectors("scaffold") < 8.8


def test_scaffold_update_does_not_store_its_new_control():
    # Storing each update's new control c_i+ until aggregation read 8.34
    # vectors; deriving it there reads 5.34.
    assert _train_clients_peak_in_parameter_vectors("scaffold") < 5.8


def test_run_round_holds_one_vector_per_scaffold_client_into_aggregation(monkeypatch):
    # Four of six clients train as one lockstep group. On entry to
    # `aggregate_scaffold`, memory traced since the clients' standing controls
    # were allocated, less those controls, is the trained clients' new
    # parameters: one vector each. Storing each c_i+ as well read 2.00.
    spec = ModelSpec((4, 128, 128, 3))
    vector = 8 * spec.num_params
    assert engine_mod.GROUP_BYTES // vector >= 4
    ds = synth_blobs(3, 4, 20, 1.0, seed=0)
    order = np.random.default_rng(0).permutation(len(ds))
    clients = [ClientState(i, order[10 * i : 10 * (i + 1)]) for i in range(6)]
    rng = np.random.default_rng(1)
    server = ServerState(init_params(spec, 0), rng.normal(scale=0.01, size=spec.num_params))
    cfg = TrainConfig(algorithm="scaffold", epochs=2, batch_size=4, lr=0.05)
    plan = SamplingPlan(1, np.array([0, 2, 3, 5]))
    aggregate = engine_mod.aggregate_scaffold
    live = []

    def traced(*args):
        live.append(tracemalloc.get_traced_memory()[0])
        return aggregate(*args)

    monkeypatch.setattr(engine_mod, "aggregate_scaffold", traced)
    tracemalloc.start()
    try:
        for c in clients:
            c.control = rng.normal(scale=0.01, size=spec.num_params)
        run_round(server, clients, ds, plan, cfg)
    finally:
        tracemalloc.stop()
    assert len(live) == 1
    assert (live[0] - len(clients) * vector) / (plan.budget * vector) <= 1.2


def test_train_clients_schedule_memory_per_scheduled_row():
    # 40 clients of 2,000 rows, 5 epochs of batches of 16: the peak traced
    # memory of training them, per (epoch, client, row), stays under 21 bytes:
    # each group's rows are gathered once, straight into its table.
    n_clients, rows, epochs = 40, 2000, 5
    ds = synth_blobs(3, 4, -(-n_clients * rows // 3), 1.0, seed=0)
    order = np.random.default_rng(0).permutation(len(ds))
    clients = [ClientState(i, order[i * rows : (i + 1) * rows]) for i in range(n_clients)]
    g = init_params(ModelSpec((4, 4, 3)), 0)
    cfg = TrainConfig(epochs=epochs, batch_size=16, lr=0.05)
    tracemalloc.start()
    try:
        train_clients(clients, ds, g, cfg, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (epochs * n_clients * rows) < 21


def test_train_clients_holds_one_activation_stack_per_layer():
    # One group of 18 [24, 256, 3] clients, batches of 64: each hidden-layer
    # stack of (clients, rows, 256) floats is 2.36 MB and dominates the peak.
    # The stacked activations and deltas, parameters and gradients read 3.37
    # stacks; a second forward stack, for the GEMM outputs before the bias,
    # read 4.39.
    spec = ModelSpec((24, 256, 3))
    size = engine_mod.GROUP_BYTES // (8 * spec.num_params)
    assert size == 18
    rows, cfg = 128, TrainConfig(epochs=1, batch_size=64, lr=0.05)
    ds = synth_blobs(3, 24, -(-size * rows // 3), 1.0, seed=0)
    order = np.random.default_rng(0).permutation(len(ds))
    clients = [ClientState(i, order[i * rows : (i + 1) * rows]) for i in range(size)]
    g = init_params(spec, 0)
    tracemalloc.start()
    try:
        updates = train_clients(clients, ds, g, cfg, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(u is not None for u in updates)
    assert peak / (8 * size * cfg.batch_size * 256) < 3.9


def test_train_clients_checks_each_group_once(monkeypatch):
    # Twelve clients as one lockstep group, then one client per group: the
    # rows are validated in one call per group, and a non-finite row in one
    # member still stops its group.
    ds = synth_blobs(3, 4, 20, 1.0, seed=0)
    order = np.random.default_rng(0).permutation(len(ds))
    clients = [ClientState(i, order[5 * i : 5 * (i + 1)]) for i in range(12)]
    g = init_params(SPEC, 0)
    cfg = TrainConfig(epochs=2, batch_size=4, lr=0.05)
    check = engine_mod._check_training_batch
    calls = []

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(engine_mod, "_check_training_batch", counted)
    for group_bytes, groups in ((engine_mod.GROUP_BYTES, 1), (8 * SPEC.num_params, 12)):
        calls.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine_mod, "GROUP_BYTES", group_bytes)
            updates = train_clients(clients, ds, g, cfg, 1)
        assert all(u is not None for u in updates)
        assert len(calls) == groups
    bad = ds.features.copy()
    bad[clients[7].data[2]] = np.nan
    calls.clear()
    with pytest.raises(ValueError, match="non-finite"):
        train_clients(clients, type(ds)(bad, ds.labels, ds.num_classes), g, cfg, 1)
    assert len(calls) == 1


def test_train_clients_drops_only_the_diverging_client(caplog):
    ds, clients, g = _setup(n_clients=4, per_class=10)
    bad = ds.features.copy()
    bad[clients[2].data] *= 1e160
    ds_bad = type(ds)(bad, ds.labels, ds.num_classes)
    cfg = TrainConfig(epochs=3, batch_size=3, lr=0.05, master_seed=4)
    with caplog.at_level(logging.WARNING), np.errstate(all="ignore"):
        updates = train_clients(clients, ds_bad, g, cfg, 2)
    assert updates[2] is None
    _assert_dropped(caplog, clients[2].id, round_idx=2)
    for i in (0, 1, 3):
        alone = train_clients([clients[i]], ds_bad, g, cfg, 2)[0]
        assert np.array_equal(updates[i].new_params.values, alone.new_params.values)
        assert updates[i].local_steps == alone.local_steps


def test_train_clients_drops_overflowing_client_without_numpy_warnings(caplog):
    # No np.errstate here: pytest turns any RuntimeWarning into an error, so a
    # raw numpy overflow warning from the steps would fail the test.
    ds, clients, g = _setup(n_clients=2, per_class=10)
    cfg = TrainConfig(epochs=2, batch_size=4, lr=1e200, decay=1.0, master_seed=6)
    with caplog.at_level(logging.WARNING):
        updates = train_clients(clients[:1], ds, g, cfg, 1)
    assert updates == [None]
    _assert_dropped(caplog, clients[0].id)


@settings(max_examples=25, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 30), min_size=1, max_size=5),
    hidden=st.lists(st.integers(1, 6), max_size=2),
    batch_size=st.integers(1, 12),
    epochs=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_fedprox_mu_zero_is_fedavg_through_train_clients(sizes, hidden, batch_size, epochs, seed):
    spec = ModelSpec((3, *hidden, 4))
    ds = synth_blobs(4, 3, -(-sum(sizes) // 4), 1.0, seed=seed)
    order = np.random.default_rng(seed).permutation(len(ds))
    bounds = np.cumsum([0, *sizes])
    clients = [ClientState(i, order[a:b]) for i, (a, b) in enumerate(zip(bounds, bounds[1:]))]
    g = init_params(spec, seed)
    runs = [
        train_clients(clients, ds, g, TrainConfig(
            algorithm=algorithm, epochs=epochs, batch_size=batch_size, lr=0.3, decay=0.8,
            prox_mu=0.0, master_seed=seed,
        ), 3)
        for algorithm in ("fedavg", "fedprox")
    ]
    for avg, prox in zip(*runs):
        assert np.array_equal(avg.new_params.values, prox.new_params.values)
        assert avg.local_steps == prox.local_steps


def test_local_train_huge_features_diverge(caplog):
    ds, clients, g = _setup()
    bad = type(ds)(ds.features * 1e160, ds.labels, ds.num_classes)
    cfg = TrainConfig(epochs=2, batch_size=4, lr=0.05)
    with caplog.at_level(logging.WARNING), np.errstate(all="ignore"):
        assert train_clients([clients[0]], bad, g, cfg, round_idx=1) == [None]
    _assert_dropped(caplog, clients[0].id)


def test_local_train_prox_term_overflow_diverges(caplog):
    # One full batch per epoch. After the first step the cross-entropy and the
    # whole gradient stay finite, but the proximal term of the loss overflows.
    ds = synth_blobs(3, 4, 8, 1.0, seed=0)
    client = ClientState(0, np.arange(6))
    g = init_params(SPEC, 2)
    x, y = ds.features[:6], ds.labels[:6]
    mu, lr = 1e305, 20.0
    with np.errstate(all="ignore"):
        p1 = sgd_step(g, loss_and_grad(g, x, y, mu, g)[1], lr)
        loss, grad = loss_and_grad(p1, x, y, mu, g)
        assert not math.isfinite(loss)
        assert np.all(np.isfinite(grad)) and math.isfinite(loss_and_grad(p1, x, y)[0])
    cfg = TrainConfig(
        algorithm="fedprox", prox_mu=mu, epochs=2, batch_size=6, lr=lr, decay=1.0
    )
    with caplog.at_level(logging.WARNING):
        assert train_clients([client], ds, g, cfg, round_idx=1) == [None]
    _assert_dropped(caplog, client.id)
    # The same client in one lockstep group (one run of equal row counts)
    # beside two healthy clients, whose own proximal terms stay just finite:
    # the group's summed loss overflows, and each member's loss is then read
    # with its own proximal term.
    healthy = [ClientState(1, np.arange(6, 12)), ClientState(2, np.arange(12, 18))]
    alone = [train_clients([c], ds, g, cfg, round_idx=1)[0] for c in healthy]
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        updates = train_clients([healthy[0], client, healthy[1]], ds, g, cfg, round_idx=1)
    _assert_dropped(caplog, client.id)
    assert updates[1] is None
    for up, ref in zip(updates[::2], alone):
        assert up.new_params.values.tobytes() == ref.new_params.values.tobytes()
        assert up.local_steps == ref.local_steps


def test_local_train_step_overflow_diverges(caplog):
    # A finite loss and gradient whose step overflows the parameters.
    ds, clients, g = _setup()
    big = type(ds)(ds.features * 100.0, ds.labels, ds.num_classes)
    sel = clients[0].data
    loss, grad = loss_and_grad(g, big.features[sel], big.labels[sel])
    assert math.isfinite(loss) and np.all(np.isfinite(grad))
    cfg = TrainConfig(epochs=1, batch_size=len(sel), lr=1e307)
    with caplog.at_level(logging.WARNING), np.errstate(all="ignore"):
        assert train_clients([clients[0]], big, g, cfg, round_idx=1) == [None]
    _assert_dropped(caplog, clients[0].id)


def test_local_train_learning_rate_decayed_to_zero_is_a_value_error():
    # 0.01 · (1e-300)² underflows to 0 at the start of the third epoch, so
    # the config is rejected before any client trains.
    with pytest.raises(ValueError, match="decay: the learning rate") as info:
        TrainConfig(epochs=3, batch_size=4, lr=0.01, decay=1e-300)
    assert type(info.value) is ValueError


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_local_train_rejects_non_finite_client_rows(value):
    ds, clients, g = _setup()
    features = ds.features.copy()
    features[clients[0].data[-1], 0] = value
    bad = type(ds)(features, ds.labels, ds.num_classes)
    cfg = TrainConfig(epochs=2, batch_size=4, lr=0.05)
    with pytest.raises(ValueError, match="non-finite"):
        train_clients([clients[0]], bad, g, cfg, round_idx=1)
    # Other clients' rows are not this client's concern.
    assert train_clients([clients[1]], bad, g, cfg, round_idx=1)[0] is not None


def test_aggregate_fedavg_singleton_and_hand_value():
    spec = ModelSpec((2, 2))
    n = spec.num_params
    single = _update(0, np.full(n, 1.5), 4, 2, spec)
    out = aggregate_fedavg([single])
    assert np.array_equal(out.values, single.new_params.values)

    a = _update(0, np.zeros(n), 1, 2, spec)
    b = _update(1, np.full(n, 4.0), 3, 2, spec)
    out = aggregate_fedavg([a, b])
    assert np.allclose(out.values, 3.0)  # 0.25*0 + 0.75*4


def test_aggregate_fedavg_equal_sizes_is_plain_mean():
    spec = ModelSpec((2, 2))
    n = spec.num_params
    ups = [_update(i, np.full(n, float(i)), 5, 2, spec) for i in range(4)]
    out = aggregate_fedavg(ups)
    assert np.allclose(out.values, 1.5)


def test_aggregate_fedavg_empty_rejected_and_order_independent():
    spec = ModelSpec((2, 2))
    n = spec.num_params
    with pytest.raises(ValueError):
        aggregate_fedavg([])
    rng = np.random.default_rng(0)
    ups = [_update(i, rng.normal(size=n), int(rng.integers(1, 9)), 2, spec) for i in range(6)]
    forward_order = aggregate_fedavg(ups)
    backward_order = aggregate_fedavg(list(reversed(ups)))
    assert np.array_equal(forward_order.values, backward_order.values)


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 500), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_aggregators_ignore_update_order(sizes, seed, data):
    spec = ModelSpec((2, 3))
    n = spec.num_params
    rng = np.random.default_rng(seed)
    ids = rng.choice(50, size=len(sizes), replace=False)
    ups = [
        _update(int(cid), rng.normal(size=n), sz, int(rng.integers(1, 20)), spec,
                control_divisor=float(rng.uniform(0.01, 10.0)))
        for cid, sz in zip(ids, sizes)
    ]
    # About half the sampled clients hold a control; the rest have c_i = 0.
    controls = {int(cid): rng.normal(size=n) for cid in ids if rng.random() < 0.5}
    shuffled = data.draw(st.permutations(ups))
    assert np.array_equal(aggregate_fedavg(ups).values, aggregate_fedavg(shuffled).values)
    server = ServerState(init_params(spec, seed), rng.normal(size=n))
    roster = _roster(50, {i: c.copy() for i, c in controls.items()})
    roster_s = _roster(50, {i: c.copy() for i, c in controls.items()})
    params, control = aggregate_scaffold(server, ups, roster)
    params_s, control_s = aggregate_scaffold(server, shuffled, roster_s)
    assert np.array_equal(params.values, params_s.values)
    assert np.array_equal(control, control_s)
    for a, b in zip(roster, roster_s):
        assert (a.control is None) == (b.control is None)
        assert a.control is None or a.control.tobytes() == b.control.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    count=st.integers(1, 60),
    widths=st.lists(st.integers(1, 40), min_size=2, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
# Wide-scaffold's shape: 50 clients of a (32, 256, 256, 10) model.
@example(count=50, widths=[32, 256, 256, 10], seed=1)
def test_aggregate_scaffold_matches_stacked_mean(count, widths, seed):
    spec = ModelSpec((*widths[:-1], max(2, widths[-1])))
    n = spec.num_params
    rng = np.random.default_rng(seed)
    ids = rng.choice(10 * count, size=count, replace=False)
    g = init_params(spec, seed)
    server = ServerState(g, rng.normal(size=n))
    roster = _roster(10 * count)
    ups = []
    for cid in ids:
        # Displacements, and so controls, from 1e-6 to 1e2 in scale; about
        # half the clients hold a control of the same scale.
        scale = 10.0 ** rng.integers(-6, 3)
        ups.append(_update(int(cid), g.values - rng.normal(scale=scale, size=n),
                           int(rng.integers(1, 50)), 2, spec, float(rng.uniform(0.5, 2.0))))
        if rng.random() < 0.5:
            roster[cid].control = rng.normal(scale=scale, size=n)
    ups_by_id = sorted(ups, key=lambda u: u.client_id)
    old = [roster[u.client_id].control for u in ups_by_id]
    new = [_formula_control(server, u, c) for u, c in zip(ups_by_id, old)]
    _, control = aggregate_scaffold(server, ups, roster)
    for u, c in zip(ups_by_id, new):
        assert roster[u.client_id].control.tobytes() == c.tobytes()
    deltas = np.stack([c - (0.0 if o is None else o) for c, o in zip(new, old)])
    expected = server.server_control + (count / (10 * count)) * np.mean(deltas, axis=0)
    assert np.array_equal(control, expected)


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 10_000), min_size=1, max_size=12),
    steps=st.integers(1, 500),
    seed=st.integers(0, 2**32 - 1),
)
def test_aggregate_fednova_equal_steps_is_fedavg(sizes, steps, seed):
    spec = ModelSpec((3, 4, 2))
    rng = np.random.default_rng(seed)
    ups = [
        _update(i, rng.normal(size=spec.num_params), sz, steps, spec)
        for i, sz in enumerate(sizes)
    ]
    nova = aggregate_fednova(init_params(spec, seed), ups)
    assert np.array_equal(nova.values, aggregate_fedavg(ups).values)


def test_aggregate_scaffold_zero_deltas_keep_control():
    # (g - w) / (K * lr) = (1 - 0) / 2 equals c = 0.5, so every delta
    # c_i+ - c_i is 0 whatever c_i is, and each client keeps its control's values.
    spec = ModelSpec((2, 2))
    n = spec.num_params
    server = ServerState(ModelParams(np.ones(n), spec), np.full(n, 0.5))
    ups = [_update(i, np.zeros(n), 2, 2, spec, control_divisor=2.0) for i in range(3)]
    clients = _roster(10, {1: np.full(n, 0.25), 2: np.full(n, -3.0)})
    _, c = aggregate_scaffold(server, ups, clients)
    assert np.array_equal(c, np.full(n, 0.5))
    for client, value in zip(clients, (0.0, 0.25, -3.0)):
        assert np.array_equal(client.control, np.full(n, value))


def test_aggregate_scaffold_full_participation_adds_delta():
    # c = 0 and c_i = 0: each new control is (0.6 - 0) / 2 = 0.3, and with
    # every client sampled the server control moves by the whole mean delta.
    spec = ModelSpec((2, 2))
    n = spec.num_params
    server = ServerState(ModelParams(np.full(n, 0.6), spec), np.zeros(n))
    v = np.full(n, 0.3)
    ups = [_update(i, np.zeros(n), 2, 2, spec, control_divisor=2.0) for i in range(4)]
    clients = _roster(4)
    _, c = aggregate_scaffold(server, ups, clients)
    np.testing.assert_allclose(c, v, atol=1e-15)
    for client in clients:
        np.testing.assert_allclose(client.control, v, atol=1e-15)


def test_aggregate_scaffold_two_client_hand_value():
    spec = ModelSpec((2, 2))
    n = spec.num_params
    server = ServerState(ModelParams(np.full(n, 0.5), spec), np.full(n, 0.1))
    ups = [_update(0, np.zeros(n), 1, 2, spec, 0.5), _update(1, np.ones(n), 3, 2, spec, 0.25)]
    clients = _roster(8, {1: np.full(n, 0.2)})
    params, c = aggregate_scaffold(server, ups, clients)
    # params: weighted mean 0.25*0 + 0.75*1.
    # c_0+ = (0.5 - 0) / 0.5 - (0.1 - 0) = 0.9, a delta of 0.9;
    # c_1+ = (0.5 - 1) / 0.25 - (0.1 - 0.2) = -1.9, a delta of -2.1;
    # control: 0.1 + (2/8) * mean(0.9, -2.1) = -0.05.
    assert np.allclose(params.values, 0.75)
    np.testing.assert_allclose(clients[0].control, 0.9, atol=1e-15)
    np.testing.assert_allclose(clients[1].control, -1.9, atol=1e-15)
    np.testing.assert_allclose(c, -0.05, atol=1e-15)
    with pytest.raises(ValueError):
        aggregate_scaffold(server, [_update(0, np.zeros(n), 1, 2, spec)], clients)


def test_scaffold_partial_participation_installs_reference_controls():
    # Two rounds of a few of six clients, trained and aggregated as `run_round`
    # does, with the updates in an order that is not client-id order. Each
    # installed control has the bits of the reference loop's c_i+, an
    # unsampled client keeps its control object, and the server control has
    # the bits of the deltas' mean in client-id order.
    ds, clients, g = _setup(n_clients=6, per_class=20)
    cfg = TrainConfig(
        algorithm="scaffold", epochs=2, batch_size=4, lr=0.05, decay=0.9, master_seed=3
    )
    server = ServerState(g, np.random.default_rng(4).normal(scale=0.01, size=SPEC.num_params))
    for round_idx, order in ((1, [4, 0, 2]), (2, [3, 2, 5, 0])):
        references = {
            cid: _reference_train(clients[cid], ds, server.global_params, cfg, round_idx,
                                  server.server_control)
            for cid in order
        }
        before = [c.control for c in clients]
        updates = train_clients(
            [clients[cid] for cid in order], ds, server.global_params, cfg, round_idx,
            server.server_control,
        )
        params, control = aggregate_scaffold(server, updates, clients)
        for client in clients:
            if client.id in references:
                assert client.control.tobytes() == references[client.id][2].tobytes()
            else:
                assert client.control is before[client.id]
        deltas = [references[cid][2] - references[cid][3] for cid in sorted(order)]
        share = len(order) / len(clients)
        expected = server.server_control + share * np.mean(np.stack(deltas), axis=0)
        assert control.tobytes() == expected.tobytes()
        assert params.values.tobytes() == aggregate_fedavg(updates).values.tobytes()
        server = ServerState(params, control, round_idx)


def test_aggregate_fednova_singleton_returns_client_params():
    spec = ModelSpec((2, 2))
    n = spec.num_params
    g = init_params(spec, 3)
    up = _update(0, np.full(n, 2.5), 7, 4, spec)
    out = aggregate_fednova(g, [up])
    assert np.array_equal(out.values, up.new_params.values)


def test_aggregate_fednova_equal_steps_bitwise_fedavg():
    spec = ModelSpec((3, 4, 2))
    n = spec.num_params
    rng = np.random.default_rng(5)
    g = init_params(spec, 9)
    ups = [
        _update(i, rng.normal(size=n), int(rng.integers(1, 20)), 6, spec) for i in range(5)
    ]
    nova = aggregate_fednova(g, ups)
    avg = aggregate_fedavg(ups)
    assert np.array_equal(nova.values, avg.values)


def test_aggregate_fednova_two_client_hand_formula():
    spec = ModelSpec((2, 2))
    n = spec.num_params
    g = ModelParams(np.full(n, 1.0), spec)
    w0, tau0, n0 = np.full(n, 0.0), 2, 1
    w1, tau1, n1 = np.full(n, 3.0), 5, 3
    out = aggregate_fednova(g, [_update(0, w0, n0, tau0, spec), _update(1, w1, n1, tau1, spec)])
    p0, p1 = n0 / (n0 + n1), n1 / (n0 + n1)
    tau_eff = p0 * tau0 + p1 * tau1
    d0 = (g.values - w0) / tau0
    d1 = (g.values - w1) / tau1
    expected = g.values - tau_eff * (p0 * d0 + p1 * d1)
    np.testing.assert_allclose(out.values, expected, atol=1e-12)


def test_aggregate_fednova_rejects_zero_steps():
    spec = ModelSpec((2, 2))
    up = _update(0, np.zeros(spec.num_params), 2, 0, spec)
    with pytest.raises(ValueError):
        aggregate_fednova(init_params(spec, 0), [up])


def test_run_round_rejects_empty_plan_and_bad_ids():
    ds, clients, g = _setup()
    server = ServerState(g)
    cfg = TrainConfig(epochs=1, batch_size=4, lr=0.05)
    with pytest.raises(ValueError):
        run_round(server, clients, ds, SamplingPlan(1, np.array([], dtype=int)), cfg)
    with pytest.raises(ValueError):
        run_round(server, clients, ds, SamplingPlan(1, np.array([99])), cfg)


def test_run_round_deterministic_and_increments_round():
    ds, clients, g = _setup()
    cfg = TrainConfig(epochs=2, batch_size=4, lr=0.05, master_seed=21)
    plan = uniform_sample(len(clients), 2, 1, 21)

    def once():
        local = [ClientState(c.id, c.data.copy()) for c in clients]
        server = ServerState(g)
        s2, ids = run_round(server, local, ds, plan, cfg)
        return s2, ids, evaluate_global(s2.global_params, ds)

    a_server, a_ids, a_score = once()
    b_server, b_ids, b_score = once()
    assert a_server.round == 1
    assert np.array_equal(a_server.global_params.values, b_server.global_params.values)
    assert a_ids == b_ids == plan.selected.tolist()
    assert a_score == b_score


def test_run_round_loss_decreases_in_median_over_seeds():
    # Full participation, near-iid shards, one epoch: the aggregated model's
    # loss after the round beats the initial model's loss for most seeds.
    deltas = []
    for seed in range(5):
        ds = synth_blobs(3, 4, 30, 1.0, seed=seed)
        part = partition_dirichlet(ds, 5, 1e6, seed=seed)
        clients = make_clients(part)
        g = init_params(SPEC, seed)
        server = ServerState(g)
        cfg = TrainConfig(epochs=1, batch_size=8, lr=0.05, master_seed=seed)
        plan = SamplingPlan(1, np.arange(5))
        server2, _ = run_round(server, clients, ds, plan, cfg)
        _, loss_after = evaluate_global(server2.global_params, ds)
        _, loss_before = evaluate_global(g, ds)
        deltas.append(loss_after - loss_before)
    assert np.median(deltas) < 0


def test_run_round_drops_divergent_client(caplog):
    ds, clients, g = _setup(n_clients=3, per_class=10)
    # Client 0's samples are enormous; its gradients overflow and the update is dropped.
    bad = ds.features.copy()
    bad[clients[0].data] *= 1e160
    ds_bad = type(ds)(bad, ds.labels, ds.num_classes)
    cfg = TrainConfig(epochs=2, batch_size=4, lr=0.05, master_seed=1)
    plan = SamplingPlan(1, np.arange(3))
    healthy = [
        train_clients([clients[i]], ds_bad, g, cfg, round_idx=1)[0] for i in (1, 2)
    ]
    with caplog.at_level(logging.WARNING), np.errstate(all="ignore"):
        server2, ids = run_round(ServerState(g), clients, ds_bad, plan, cfg)
    assert "dropping update" in caplog.text
    assert ids == [1, 2]
    expected = aggregate_fedavg(healthy)
    assert np.array_equal(server2.global_params.values, expected.values)


def test_run_round_survives_total_divergence(caplog):
    ds, clients, g = _setup(n_clients=2, per_class=6)
    bad = type(ds)(ds.features * 1e160, ds.labels, ds.num_classes)
    cfg = TrainConfig(epochs=1, batch_size=4, lr=0.05)
    plan = SamplingPlan(1, np.arange(2))
    with caplog.at_level(logging.WARNING), np.errstate(all="ignore"):
        server2, ids = run_round(ServerState(g), clients, bad, plan, cfg)
    assert ids == []
    assert np.array_equal(server2.global_params.values, g.values)
    assert server2.round == 1


def test_full_participation_weights_sum_to_one():
    # With every client sampled, fedavg weights |D_i|/sum|D_j| total 1 and the
    # aggregate is exactly the dataset-size-weighted mean of the uploads.
    spec = ModelSpec((2, 2))
    n = spec.num_params
    rng = np.random.default_rng(3)
    sizes = [3, 5, 9, 2]
    ups = [_update(i, rng.normal(size=n), sz, 2, spec) for i, sz in enumerate(sizes)]
    out = aggregate_fedavg(ups)
    weights = np.array(sizes) / sum(sizes)
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    expected = sum(w * u.new_params.values for w, u in zip(weights, ups))
    np.testing.assert_allclose(out.values, expected, atol=1e-12)
