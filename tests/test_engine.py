import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fedsim.engine as engine_mod
from fedsim import (
    ClientState,
    DivergenceError,
    LocalUpdate,
    ModelParams,
    ModelSpec,
    ServerState,
    TrainConfig,
    aggregate_fedavg,
    aggregate_fednova,
    aggregate_scaffold,
    init_params,
    local_train,
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


def _update(cid, values, n, steps, spec=SPEC, delta=None):
    return LocalUpdate(cid, ModelParams(values, spec), n, steps, delta)


def test_local_train_requires_at_least_one_epoch():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)


def test_local_train_step_count_matches_epochs_and_batches():
    ds, clients, g = _setup()
    cfg = TrainConfig(epochs=3, batch_size=4, lr=0.05, master_seed=5)
    up = local_train(clients[0], ds, g, cfg, round_idx=1)
    expected = 3 * -(-len(clients[0].data) // 4)  # epochs * ceil(n/batch)
    assert up.local_steps == expected
    assert up.num_samples == len(clients[0].data)


def test_local_train_deterministic_per_seed_round_client():
    ds, clients, g = _setup()
    cfg = TrainConfig(epochs=2, batch_size=4, lr=0.05, master_seed=9)
    a = local_train(clients[1], ds, g, cfg, round_idx=3)
    b = local_train(clients[1], ds, g, cfg, round_idx=3)
    assert np.array_equal(a.new_params.values, b.new_params.values)
    c = local_train(clients[1], ds, g, cfg, round_idx=4)
    assert not np.array_equal(a.new_params.values, c.new_params.values)


def test_local_train_ignores_other_clients_data():
    ds, clients, g = _setup()
    cfg = TrainConfig(epochs=2, batch_size=4, lr=0.05, master_seed=7)
    before = local_train(clients[0], ds, g, cfg, round_idx=1)
    # Corrupt every sample the other clients own; client 0's result must not move.
    corrupted = ds.features.copy()
    others = np.concatenate([c.data for c in clients[1:]])
    corrupted[others] += 1e6
    ds2 = type(ds)(corrupted, ds.labels, ds.num_classes)
    after = local_train(clients[0], ds2, g, cfg, round_idx=1)
    assert np.array_equal(before.new_params.values, after.new_params.values)


def test_fedprox_mu_zero_identical_to_fedavg_trajectory():
    ds, clients, g = _setup()
    avg_cfg = TrainConfig(algorithm="fedavg", epochs=3, batch_size=4, lr=0.05, master_seed=3)
    prox_cfg = TrainConfig(
        algorithm="fedprox", prox_mu=0.0, epochs=3, batch_size=4, lr=0.05, master_seed=3
    )
    a = local_train(clients[2], ds, g, avg_cfg, round_idx=2)
    b = local_train(clients[2], ds, g, prox_cfg, round_idx=2)
    assert np.array_equal(a.new_params.values, b.new_params.values)


def test_fedprox_positive_mu_changes_trajectory():
    ds, clients, g = _setup()
    avg_cfg = TrainConfig(algorithm="fedavg", epochs=3, batch_size=4, lr=0.05, master_seed=3)
    prox_cfg = TrainConfig(
        algorithm="fedprox", prox_mu=5.0, epochs=3, batch_size=4, lr=0.05, master_seed=3
    )
    a = local_train(clients[2], ds, g, avg_cfg, round_idx=2)
    b = local_train(clients[2], ds, g, prox_cfg, round_idx=2)
    assert not np.array_equal(a.new_params.values, b.new_params.values)


def test_scaffold_zero_variates_identical_to_fedavg():
    ds, clients, g = _setup()
    avg_cfg = TrainConfig(algorithm="fedavg", epochs=2, batch_size=4, lr=0.05, master_seed=11)
    sca_cfg = TrainConfig(algorithm="scaffold", epochs=2, batch_size=4, lr=0.05, master_seed=11)
    zero = np.zeros(SPEC.num_params)
    a = local_train(clients[0], ds, g, avg_cfg, round_idx=1)
    b = local_train(clients[0], ds, g, sca_cfg, round_idx=1, server_control=zero)
    assert np.array_equal(a.new_params.values, b.new_params.values)
    assert b.delta_control is not None


def test_scaffold_requires_server_control():
    ds, clients, g = _setup()
    cfg = TrainConfig(algorithm="scaffold", epochs=1, batch_size=4, lr=0.05)
    with pytest.raises(ValueError):
        local_train(clients[0], ds, g, cfg, round_idx=1)


def test_scaffold_control_update_rule():
    ds, clients, g = _setup()
    cfg = TrainConfig(algorithm="scaffold", epochs=2, batch_size=4, lr=0.05, master_seed=2)
    c_server = np.full(SPEC.num_params, 0.01)
    clients[0].control = np.full(SPEC.num_params, -0.02)
    up = local_train(clients[0], ds, g, cfg, round_idx=1, server_control=c_server)
    lr_eff = 0.05 * 0.99 ** (2 - 1)
    expected_new = (
        clients[0].control
        - c_server
        + (g.values - up.new_params.values) / (up.local_steps * lr_eff)
    )
    np.testing.assert_allclose(up.new_control, expected_new, atol=1e-12)
    np.testing.assert_allclose(up.delta_control, expected_new - clients[0].control, atol=1e-12)


def _reference_local_train(client, ds, g, cfg, round_idx, server_control=None):
    """local_train written as a plain loop over the public loss_and_grad and sgd_step."""
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
        lr *= cfg.decay
    new_control = None
    if scaffold:
        lr_effective = cfg.lr * cfg.decay ** (cfg.epochs - 1)
        new_control = client_control - server_control + (g.values - p.values) / (
            steps * lr_effective
        )
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
        up = local_train(client, ds, g, cfg, 2, server_control)
        params, steps, new_control, old_control = _reference_local_train(
            client, ds, g, cfg, 2, server_control
        )
        assert np.array_equal(up.new_params.values, params.values)
        assert up.local_steps == steps
        if algorithm == "scaffold":
            assert np.array_equal(up.new_control, new_control)
            assert np.array_equal(up.delta_control, new_control - old_control)
        else:
            assert up.new_control is None and up.delta_control is None


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
    for client, up in zip(clients, updates):
        params, steps, new_control, old_control = _reference_local_train(
            client, ds, g, cfg, 4, server_control
        )
        assert up.client_id == client.id
        assert np.array_equal(up.new_params.values, params.values)
        assert up.local_steps == steps
        if algorithm == "scaffold":
            assert np.array_equal(up.new_control, new_control)
            assert np.array_equal(up.delta_control, new_control - old_control)


def test_train_clients_drops_only_the_diverging_client(caplog):
    ds, clients, g = _setup(n_clients=4, per_class=10)
    bad = ds.features.copy()
    bad[clients[2].data] *= 1e160
    ds_bad = type(ds)(bad, ds.labels, ds.num_classes)
    cfg = TrainConfig(epochs=3, batch_size=3, lr=0.05, master_seed=4)
    with caplog.at_level(logging.WARNING), np.errstate(all="ignore"):
        updates = train_clients(clients, ds_bad, g, cfg, 2)
    assert updates[2] is None
    assert [r.getMessage() for r in caplog.records] == [
        f"dropping update: client {clients[2].id} diverged in round 2"
    ]
    for i in (0, 1, 3):
        alone = local_train(clients[i], ds_bad, g, cfg, 2)
        assert np.array_equal(updates[i].new_params.values, alone.new_params.values)
        assert updates[i].local_steps == alone.local_steps


def test_local_train_huge_features_diverge():
    ds, clients, g = _setup()
    bad = type(ds)(ds.features * 1e160, ds.labels, ds.num_classes)
    cfg = TrainConfig(epochs=2, batch_size=4, lr=0.05)
    with np.errstate(all="ignore"), pytest.raises(DivergenceError):
        local_train(clients[0], bad, g, cfg, round_idx=1)


def test_local_train_prox_term_overflow_diverges():
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
        with pytest.raises(DivergenceError):
            local_train(client, ds, g, cfg, round_idx=1)


def test_local_train_step_overflow_is_a_value_error():
    # A finite loss and gradient whose step overflows the parameters.
    ds, clients, g = _setup()
    big = type(ds)(ds.features * 100.0, ds.labels, ds.num_classes)
    sel = clients[0].data
    loss, grad = loss_and_grad(g, big.features[sel], big.labels[sel])
    assert math.isfinite(loss) and np.all(np.isfinite(grad))
    cfg = TrainConfig(epochs=1, batch_size=len(sel), lr=1e307)
    with np.errstate(all="ignore"), pytest.raises(ValueError) as info:
        local_train(clients[0], big, g, cfg, round_idx=1)
    assert not isinstance(info.value, DivergenceError)


def test_local_train_learning_rate_decayed_to_zero_is_a_value_error():
    # 0.01 · (1e-300)² underflows to 0 at the start of the third epoch.
    ds, clients, g = _setup()
    cfg = TrainConfig(epochs=3, batch_size=4, lr=0.01, decay=1e-300)
    with pytest.raises(ValueError, match="learning rate") as info:
        local_train(clients[0], ds, g, cfg, round_idx=1)
    assert not isinstance(info.value, DivergenceError)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_local_train_rejects_non_finite_client_rows(value):
    ds, clients, g = _setup()
    features = ds.features.copy()
    features[clients[0].data[-1], 0] = value
    bad = type(ds)(features, ds.labels, ds.num_classes)
    cfg = TrainConfig(epochs=2, batch_size=4, lr=0.05)
    with pytest.raises(ValueError, match="non-finite"):
        local_train(clients[0], bad, g, cfg, round_idx=1)
    # Other clients' rows are not this client's concern.
    local_train(clients[1], bad, g, cfg, round_idx=1)


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


def test_aggregate_scaffold_zero_deltas_keep_control():
    spec = ModelSpec((2, 2))
    n = spec.num_params
    g = init_params(spec, 0)
    server = ServerState(g, np.full(n, 0.5))
    ups = [_update(i, np.zeros(n), 2, 2, spec, delta=np.zeros(n)) for i in range(3)]
    _, c = aggregate_scaffold(server, ups, total_clients=10)
    assert np.array_equal(c, np.full(n, 0.5))


def test_aggregate_scaffold_full_participation_adds_delta():
    spec = ModelSpec((2, 2))
    n = spec.num_params
    server = ServerState(init_params(spec, 0), np.zeros(n))
    v = np.full(n, 0.3)
    ups = [_update(i, np.zeros(n), 2, 2, spec, delta=v.copy()) for i in range(4)]
    _, c = aggregate_scaffold(server, ups, total_clients=4)
    np.testing.assert_allclose(c, v, atol=1e-15)


def test_aggregate_scaffold_two_client_hand_value():
    spec = ModelSpec((2, 2))
    n = spec.num_params
    server = ServerState(init_params(spec, 1), np.full(n, 0.1))
    d0, d1 = np.full(n, 0.2), np.full(n, -0.4)
    ups = [_update(0, np.zeros(n), 1, 2, spec, d0), _update(1, np.ones(n), 3, 2, spec, d1)]
    params, c = aggregate_scaffold(server, ups, total_clients=8)
    # params: weighted mean 0.25*0 + 0.75*1; control: 0.1 + (2/8)*mean(0.2, -0.4)
    assert np.allclose(params.values, 0.75)
    np.testing.assert_allclose(c, 0.1 + 0.25 * (-0.1), atol=1e-15)
    with pytest.raises(ValueError):
        aggregate_scaffold(server, [_update(0, np.zeros(n), 1, 2, spec)], 8)


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
        s2, rm = run_round(server, local, ds, plan, cfg, test_data=ds)
        return s2, rm

    a_server, a_rm = once()
    b_server, b_rm = once()
    assert a_server.round == 1
    assert np.array_equal(a_server.global_params.values, b_server.global_params.values)
    assert a_rm == b_rm


def test_run_round_loss_decreases_in_median_over_seeds():
    # Full participation, near-iid shards, one epoch: the aggregated model's
    # loss after the round beats the initial model's loss for most seeds.
    import fedsim.metrics as fm

    deltas = []
    for seed in range(5):
        ds = synth_blobs(3, 4, 30, 1.0, seed=seed)
        part = partition_dirichlet(ds, 5, 1e6, seed=seed)
        clients = make_clients(part)
        g = init_params(SPEC, seed)
        server = ServerState(g)
        cfg = TrainConfig(epochs=1, batch_size=8, lr=0.05, master_seed=seed)
        plan = SamplingPlan(1, np.arange(5))
        _, rm = run_round(server, clients, ds, plan, cfg, test_data=ds)
        _, loss_before = fm.evaluate_global(g, ds)
        deltas.append(rm.test_loss - loss_before)
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
        local_train(clients[i], ds_bad, g, cfg, round_idx=1) for i in (1, 2)
    ]
    with caplog.at_level(logging.WARNING), np.errstate(all="ignore"):
        server2, _ = run_round(ServerState(g), clients, ds_bad, plan, cfg)
    assert "dropping update" in caplog.text
    expected = aggregate_fedavg(healthy)
    assert np.array_equal(server2.global_params.values, expected.values)


def test_run_round_survives_total_divergence(caplog):
    ds, clients, g = _setup(n_clients=2, per_class=6)
    bad = type(ds)(ds.features * 1e160, ds.labels, ds.num_classes)
    cfg = TrainConfig(epochs=1, batch_size=4, lr=0.05)
    plan = SamplingPlan(1, np.arange(2))
    with caplog.at_level(logging.WARNING), np.errstate(all="ignore"):
        server2, rm = run_round(ServerState(g), clients, bad, plan, cfg)
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
