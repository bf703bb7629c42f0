import gc
import json
import logging
import os
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

import fedsim
import fedsim.experiment as experiment_mod
import fedsim.metrics as metrics_mod
from fedsim import (
    ConfigError,
    ExperimentConfig,
    ModelSpec,
    SamplingPlan,
    ServerState,
    TrainConfig,
    aggregate_fedavg,
    compare_runs,
    init_params,
    make_clients,
    partition_dirichlet,
    partition_manual,
    preprocess,
    run_experiment,
    run_round,
    synth_blobs,
    synth_public,
    train_clients,
)
from fedsim.cli import main as cli_main
from fedsim.metrics import read_metrics_csv


def _tiny_config(tmp_path, **kw):
    base = dict(
        seed=5,
        n_clients=4,
        rounds=2,
        num_classes=3,
        dim=4,
        per_class=20,
        test_per_class=10,
        partition="dirichlet",
        beta=0.5,
        hidden_sizes=[6],
        algorithm="fedavg",
        sampler="uniform",
        sample_ratio=0.5,
        epochs=1,
        batch_size=8,
        lr=0.05,
        output_dir=str(tmp_path / "runs"),
        name="tiny",
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_minimal_run_produces_expected_artifacts(tmp_path):
    out = run_experiment(_tiny_config(tmp_path))
    assert (out / "config.json").exists()
    assert (out / "summary.json").exists()
    rows = read_metrics_csv(out / "metrics.csv")
    assert [r.round for r in rows] == [1, 2]
    assert not (out / "similarity_matrix.csv").exists()


def test_rerun_same_config_byte_identical_metrics(tmp_path):
    cfg_a = _tiny_config(tmp_path, name="a", rounds=3)
    cfg_b = _tiny_config(tmp_path, name="b", rounds=3)
    out_a = run_experiment(cfg_a)
    out_b = run_experiment(cfg_b)
    assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()


def test_rerun_from_echoed_config_reproduces(tmp_path):
    out = run_experiment(_tiny_config(tmp_path, name="echo1", rounds=3))
    echoed = json.loads((out / "config.json").read_text())
    echoed["name"] = "echo2"
    out2 = run_experiment(ExperimentConfig.from_dict(echoed))
    assert (out / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()


def test_stratified_run_writes_cluster_artifacts(tmp_path):
    out = run_experiment(
        _tiny_config(tmp_path, sampler="stratified", name="lefl", rounds=3)
    )
    assert (out / "similarity_matrix.csv").exists()
    clusters = json.loads((out / "clusters.json").read_text())
    assert set(clusters) == {"0", "1", "2", "3"}
    matrix = np.loadtxt(out / "similarity_matrix.csv", delimiter=",")
    assert matrix.shape == (4, 4)
    assert np.all(np.diag(matrix) == 0)


def test_scaffold_smoke_and_double_cost(tmp_path):
    fed = run_experiment(_tiny_config(tmp_path, name="fed", rounds=2))
    sca = run_experiment(_tiny_config(tmp_path, name="sca", rounds=2, algorithm="scaffold"))
    fed_total = json.loads((fed / "summary.json").read_text())["total_bytes"]
    sca_total = json.loads((sca / "summary.json").read_text())["total_bytes"]
    assert sca_total == 2 * fed_total


def test_config_validation_collects_field_errors():
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(
            seed=1, n_clients=10, rounds=0, sample_ratio=0.001, algorithm="sgd", epochs=0
        ).validate()
    msg = str(err.value)
    assert "rounds" in msg and "sample_ratio" in msg and "algorithm" in msg and "epochs" in msg


def test_config_rejects_infeasible_quantity_skew():
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(
            seed=1, n_clients=3, rounds=1, num_classes=10,
            partition="quantity", labels_per_client=2,
        ).validate()
    assert "labels_per_client" in str(err.value)


def test_config_rejects_unknown_and_missing_keys():
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict({"seed": 1, "n_clients": 2, "rounds": 1, "nope": 3})
    assert "nope" in str(err.value)
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict({"n_clients": 2, "rounds": 1})
    assert "seed" in str(err.value)


@pytest.mark.parametrize("key", ["workers", "eq1_denominator", "soft_label_reduction"])
def test_config_rejects_removed_workers_key(key):
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict({"seed": 1, "n_clients": 2, "rounds": 1, key: 1})
    assert key in str(err.value)


def test_python_built_config_is_type_checked_before_any_output(tmp_path):
    out_dir = tmp_path / "runs"
    cfg = ExperimentConfig(seed=1, n_clients="10", rounds=1, output_dir=str(out_dir))
    with pytest.raises(ConfigError) as err:
        run_experiment(cfg)
    assert str(err.value).startswith("n_clients: must be int")
    assert not out_dir.exists()


def test_csv_dataset_end_to_end(tmp_path):
    ds = synth_blobs(3, 4, 30, 1.0, seed=2)
    csv_path = tmp_path / "train.csv"
    np.savetxt(
        csv_path,
        np.column_stack([ds.features, ds.labels]),
        delimiter=",",
        fmt="%.17g",
    )
    cfg = _tiny_config(tmp_path, csv_path=str(csv_path), name="csvrun")
    out = run_experiment(cfg)
    rows = read_metrics_csv(out / "metrics.csv")
    assert len(rows) == 2 and np.isfinite(rows[-1].test_accuracy)


def test_preprocess_two_clients_single_cluster():
    ds = synth_blobs(2, 3, 10, 1.0, seed=3)
    part = partition_manual(ds, [(1, [0]), (1, [1])])
    clients = make_clients(part)
    spec = ModelSpec((3, 4, 2))
    server = ServerState(init_params(spec, 1))
    pre = preprocess(
        clients, ds, synth_public(3, 50, 4), server, TrainConfig(epochs=2, batch_size=4, lr=0.05)
    )
    assert pre.assignment.k == 1
    assert set(pre.assignment.labels.tolist()) == {0}


def test_round1_participation_modes_differ_in_traffic(tmp_path):
    all_mode = run_experiment(
        _tiny_config(tmp_path, sampler="stratified", name="pall", rounds=2,
                     round1_participation="all")
    )
    sampled_mode = run_experiment(
        _tiny_config(tmp_path, sampler="stratified", name="psam", rounds=2,
                     round1_participation="sampled")
    )
    bytes_all = json.loads((all_mode / "summary.json").read_text())["recurring_bytes"]
    bytes_sampled = json.loads((sampled_mode / "summary.json").read_text())["recurring_bytes"]
    assert bytes_all > bytes_sampled


def test_pre_pass_updates_are_released_after_round_1(tmp_path, monkeypatch):
    # Round 1 aggregates the pre-pass updates and nothing reads them again: an
    # update that round 1's plan did not select is garbage before round 2.
    run_round = experiment_mod.run_round
    refs, alive = [], []

    def watch(server, clients, dataset, plan, cfg, **kw):
        if kw["updates"] is not None:
            unselected = sorted(set(range(len(clients))) - set(plan.selected.tolist()))
            refs.extend(weakref.ref(kw["updates"][c].new_params.values) for c in unselected)
        else:
            gc.collect()
            alive.append(sum(ref() is not None for ref in refs))
        return run_round(server, clients, dataset, plan, cfg, **kw)

    monkeypatch.setattr(experiment_mod, "run_round", watch)
    run_experiment(
        _tiny_config(tmp_path, sampler="stratified", round1_participation="sampled", rounds=3)
    )
    assert len(refs) == 2 and alive == [0, 0]


def test_similarity_matrix_is_released_before_round_1(tmp_path, monkeypatch):
    # The rounds read only the cluster assignment: the artifacts are on disk
    # and the similarity matrix is garbage before round 1 starts.
    preprocess, run_round = experiment_mod.preprocess, experiment_mod.run_round
    refs, seen = [], []

    def keep_ref(*args, **kw):
        pre = preprocess(*args, **kw)
        refs.append(weakref.ref(pre.matrix))
        return pre

    def watch(server, *args, **kw):
        if server.round == 0:
            gc.collect()
            run_dir = tmp_path / "runs" / "tiny"
            seen.append((
                refs[0]() is None,
                (run_dir / "clusters.json").exists(),
                (run_dir / "similarity_matrix.csv").exists(),
            ))
        return run_round(server, *args, **kw)

    monkeypatch.setattr(experiment_mod, "preprocess", keep_ref)
    monkeypatch.setattr(experiment_mod, "run_round", watch)
    run_experiment(_tiny_config(tmp_path, sampler="stratified", rounds=3))
    assert seen == [(True, True, True)]


def test_cumulative_bytes_are_one_time_plus_rounds(tmp_path):
    out = run_experiment(
        _tiny_config(tmp_path, sampler="stratified", round1_participation="sampled", rounds=4)
    )
    summary = json.loads((out / "summary.json").read_text())
    per_round = summary["budget"] * 2 * summary["model_bytes"]
    assert summary["one_time_bytes"] > 0
    assert [m.cumulative_bytes for m in read_metrics_csv(out / "metrics.csv")] == [
        summary["one_time_bytes"] + r * per_round for r in range(1, 5)
    ]


def test_compare_runs_deltas_and_unreached(tmp_path):
    fast = run_experiment(_tiny_config(tmp_path, name="fast", rounds=4, sample_ratio=1.0))
    slow = run_experiment(_tiny_config(tmp_path, name="slow", rounds=4))
    report = compare_runs([fast, slow], target_accuracy=0.99)
    assert report["baseline"] == str(fast)
    assert len(report["runs"]) == 2
    for row in report["runs"]:
        if not row["reached"]:
            assert row["rounds_to_target_display"] == ">4"
    assert report["runs"][0]["delta_bytes"] == 0

    with pytest.raises(ValueError):
        compare_runs([fast], 0.5)


def test_compare_runs_missing_files(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    good = run_experiment(_tiny_config(tmp_path, name="good"))
    with pytest.raises(FileNotFoundError):
        compare_runs([good, empty], 0.5)


def test_cli_run_and_compare(tmp_path, capsys):
    cfg = _tiny_config(tmp_path, name="cli1").to_dict()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))

    rc = cli_main(["run", "--config", str(cfg_path)])
    assert rc == 0
    rc = cli_main(["run", "--config", str(cfg_path), "--name", "cli2", "--seed", "6",
                   "--set", "rounds=3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "final accuracy" in out

    run1 = tmp_path / "runs" / "cli1"
    run2 = tmp_path / "runs" / "cli2"
    report_path = tmp_path / "cmp.json"
    rc = cli_main(["compare", "--target", "0.5", str(run1), str(run2),
                   "--out", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert len(report["runs"]) == 2


def test_cli_rejects_invalid_config(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"seed": 1, "n_clients": 2, "rounds": 0}))
    rc = cli_main(["run", "--config", cfg_path.as_posix()])
    assert rc == 1
    assert "rounds" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value", [("n_clients", "10"), ("lr", "fast"), ("hidden_sizes", 32)]
)
def test_cli_rejects_wrongly_typed_field(tmp_path, capsys, field, value):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"seed": 1, "n_clients": 10, "rounds": 1, field: value}))
    rc = cli_main(["run", "--config", cfg_path.as_posix()])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["../escaped", "{tmp}/absolute", "", ".", "..", "a/b"])
def test_cli_rejects_a_name_that_leaves_output_dir(tmp_path, capsys, name):
    # The run directory is output_dir / name; an empty name would write the
    # run's files straight into output_dir.
    name = name.format(tmp=tmp_path.as_posix())
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config(tmp_path, rounds=1).to_dict()))
    rc = cli_main(["run", "--config", cfg_path.as_posix(), "--set", f"name={json.dumps(name)}"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: name:") and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_cli_rejects_malformed_manual_groups(tmp_path, capsys):
    raw = {
        "seed": 1, "n_clients": 2, "rounds": 1, "partition": "manual",
        "manual_groups": [3], "sample_ratio": 0.5, "output_dir": str(tmp_path / "runs"),
    }
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(raw))
    rc = cli_main(["run", "--config", cfg_path.as_posix()])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: manual_groups:") and err.count("\n") == 1
    assert not (tmp_path / "runs").exists()


def test_cli_rejects_decay_that_underflows_the_rate_before_any_output(tmp_path, capsys):
    # 0.01 * 5e-324 rounds to 0: the second epoch would train at rate 0.
    with pytest.raises(ValueError, match="^decay: the learning rate decays to 0"):
        TrainConfig(lr=0.01, decay=5e-324, epochs=2)
    raw = {
        "seed": 1, "n_clients": 4, "rounds": 1, "lr": 0.01, "decay": 5e-324, "epochs": 2,
        "output_dir": str(tmp_path / "runs"),
    }
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(raw))
    rc = cli_main(["run", "--config", cfg_path.as_posix()])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: decay:") and err.count("\n") == 1
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "field, raw", [("spread", "NaN"), ("beta", "Infinity"), ("lr", "Infinity"), ("prox_mu", "NaN")]
)
def test_cli_rejects_non_finite_floats_before_any_output(tmp_path, capsys, field, raw):
    # Python's json parses NaN and Infinity, so `--set` can pass them in.
    if field in ("lr", "prox_mu"):
        with pytest.raises(ValueError, match=f"^{field}:"):
            TrainConfig(**{field: json.loads(raw)})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config(tmp_path, n_clients=6, algorithm="fedprox").to_dict()))
    rc = cli_main(["run", "--config", cfg_path.as_posix(), "--set", f"{field}={raw}"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}:") and err.count("\n") == 1
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "field, overrides",
    [
        ("n_clients", {"n_clients": 16}),
        ("n_clients", {"n_clients": 16, "partition": "quantity"}),
        ("manual_groups", {
            "n_clients": 12, "partition": "manual", "manual_groups": [[11, [0]], [1, [1, 2]]],
        }),
        # Each label's 5 samples are split 6 ways, so one client gets none.
        ("manual_groups", {
            "n_clients": 7, "partition": "manual", "manual_groups": [[6, [0, 1]], [1, [2]]],
        }),
    ],
    ids=["dirichlet", "quantity", "manual", "manual-two-labels"],
)
def test_cli_rejects_more_clients_than_samples_before_any_output(tmp_path, capsys, field, overrides):
    # 3 classes of 5 training samples each.
    cfg = {**_tiny_config(tmp_path, per_class=5, sample_ratio=1.0).to_dict(), **overrides}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = cli_main(["run", "--config", cfg_path.as_posix()])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}:") and err.count("\n") == 1
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "header, n_clients, message",
    [("", 12, "more clients than samples"), ("f0,f1,label", 4, "could not convert string 'f0'")],
    ids=["eight-rows-twelve-clients", "header-row"],
)
def test_cli_rejects_unbuildable_csv_before_any_output(tmp_path, capsys, header, n_clients, message):
    ds = synth_blobs(2, 2, 4, 1.0, seed=3)
    csv_path = tmp_path / "train.csv"
    np.savetxt(
        csv_path, np.column_stack([ds.features, ds.labels]), delimiter=",", fmt="%.17g",
        header=header, comments="",
    )
    cfg = _tiny_config(tmp_path, csv_path=str(csv_path), n_clients=n_clients).to_dict()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = cli_main(["run", "--config", cfg_path.as_posix()])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert not (tmp_path / "runs").exists()


def test_cli_run_with_a_directory_as_config_is_one_error_line(tmp_path, capsys):
    rc = cli_main(["run", "--config", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def _compare_error(good, bad, capsys) -> str:
    """`fedsim compare`'s stderr, asserting exit 1 and one `error:` line."""
    rc = cli_main(["compare", "--target", "0.5", str(good), str(bad)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err
    return err


def test_cli_compare_names_missing_metrics_columns(tmp_path, capsys):
    good = run_experiment(_tiny_config(tmp_path, name="good"))
    bad = run_experiment(_tiny_config(tmp_path, name="bad"))
    lines = (bad / "metrics.csv").read_text().splitlines()
    kept = [",".join(f for i, f in enumerate(line.split(",")) if i != 1) for line in lines]
    (bad / "metrics.csv").write_text("\n".join(kept) + "\n")
    assert "test_accuracy" in _compare_error(good, bad, capsys)


def test_cli_compare_rejects_header_only_metrics(tmp_path, capsys):
    good = run_experiment(_tiny_config(tmp_path, name="good"))
    bad = run_experiment(_tiny_config(tmp_path, name="bad"))
    header = (bad / "metrics.csv").read_text().splitlines()[0]
    (bad / "metrics.csv").write_text(header + "\n")
    err = _compare_error(good, bad, capsys)
    assert str(bad / "metrics.csv") in err and "no rounds" in err


def test_cli_compare_rejects_summary_that_is_not_an_object(tmp_path, capsys):
    good = run_experiment(_tiny_config(tmp_path, name="good"))
    bad = run_experiment(_tiny_config(tmp_path, name="bad"))
    (bad / "summary.json").write_text("[1, 2]")
    err = _compare_error(good, bad, capsys)
    assert str(bad / "summary.json") in err and "JSON object" in err


@pytest.mark.parametrize("value", [None, 1.5, "12"])
def test_cli_compare_rejects_non_integer_one_time_bytes(tmp_path, capsys, value):
    good = run_experiment(_tiny_config(tmp_path, name="good"))
    bad = run_experiment(_tiny_config(tmp_path, name="bad"))
    summary = json.loads((bad / "summary.json").read_text())
    summary["one_time_bytes"] = value
    (bad / "summary.json").write_text(json.dumps(summary))
    err = _compare_error(good, bad, capsys)
    assert str(bad / "summary.json") in err and "one_time_bytes" in err


def test_preprocess_clusters_diverged_clients_and_round_1_drops_them(caplog):
    ds = synth_blobs(3, 4, 20, 1.0, seed=4)
    clients = make_clients(partition_dirichlet(ds, 6, 10.0, seed=5))
    bad = ds.features.copy()
    for i in (1, 4):
        bad[clients[i].data] *= 1e160
    ds_bad = type(ds)(bad, ds.labels, ds.num_classes)
    server = ServerState(init_params(ModelSpec((4, 3)), 6))
    cfg = TrainConfig(epochs=2, batch_size=4, lr=0.05, master_seed=7)
    with caplog.at_level(logging.WARNING):
        pre = preprocess(clients, ds_bad, synth_public(4, 30, 8), server, cfg, cluster_k=2)
    assert [r.getMessage() for r in caplog.records] == [
        f"dropping update: client {i} diverged in round 1" for i in (1, 4)
    ]
    assert pre.updates[1] is None and pre.updates[4] is None
    # Both keep the global model they were sent, so their soft labels are the same.
    assert pre.matrix[1, 4] == pre.matrix[4, 1] == 0.0
    assert pre.assignment.num_clients == 6
    healthy = [pre.updates[i] for i in (0, 2, 3, 5)]
    for u in healthy:
        alone = train_clients([clients[u.client_id]], ds_bad, server.global_params, cfg, 1)[0]
        assert np.array_equal(u.new_params.values, alone.new_params.values)
    plan = SamplingPlan(1, np.arange(6))
    server1, _ = run_round(server, clients, ds_bad, plan, cfg, updates=pre.updates)
    assert np.array_equal(server1.global_params.values, aggregate_fedavg(healthy).values)


def test_stratified_run_with_a_diverging_client_clusters_every_client(tmp_path, caplog):
    ds = synth_blobs(3, 4, 30, 1.0, seed=2)
    # manual_groups [2, [0]] gives client 0 the first half of label 0's rows.
    features = ds.features.copy()
    features[np.flatnonzero(ds.labels == 0)[:15]] *= 1e160
    train_csv, test_csv = tmp_path / "train.csv", tmp_path / "test.csv"
    np.savetxt(train_csv, np.column_stack([features, ds.labels]), delimiter=",", fmt="%.17g")
    np.savetxt(test_csv, np.column_stack([ds.features, ds.labels]), delimiter=",", fmt="%.17g")
    cfg = _tiny_config(
        tmp_path, n_clients=6, rounds=3, csv_path=str(train_csv), test_csv_path=str(test_csv),
        partition="manual", manual_groups=[[2, [0]], [2, [1]], [2, [2]]], hidden_sizes=[],
        sampler="stratified", cluster_k=2,
    )
    with caplog.at_level(logging.WARNING):
        out = run_experiment(cfg)
    assert "dropping update: client 0 diverged in round 1" in caplog.text
    clusters = json.loads((out / "clusters.json").read_text())
    assert sorted(clusters) == [str(i) for i in range(6)]
    rows = read_metrics_csv(out / "metrics.csv")
    assert [m.round for m in rows] == [1, 2, 3]
    assert all(np.isfinite([m.test_accuracy, m.test_loss]).all() for m in rows)


def test_cli_reports_nan_soft_labels_as_one_error_line(tmp_path, capsys):
    # Huge but finite models: no client is dropped, yet their probe predictions are nan.
    raw = _tiny_config(
        tmp_path, n_clients=8, hidden_sizes=[8], batch_size=4, decay=1.0,
        sampler="stratified", lr=1e50,
    ).to_dict()
    cfg_path = tmp_path / "nan.json"
    cfg_path.write_text(json.dumps(raw))
    with np.errstate(all="ignore"):
        rc = cli_main(["run", "--config", cfg_path.as_posix()])
    assert rc == 1
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].endswith("has non-finite entries")
    assert "Traceback" not in err


def test_overflowing_run_completes_under_the_callers_errstate(tmp_path):
    # Rounds are scored on a worker thread. It must run under the caller's
    # np.errstate, or pytest's error::RuntimeWarning filter stops the run.
    cfg = _tiny_config(
        tmp_path, n_clients=8, rounds=3, hidden_sizes=[8], batch_size=4, decay=1.0, lr=1e100,
    )
    with np.errstate(all="ignore"):
        out = run_experiment(cfg)
    assert [m.round for m in read_metrics_csv(out / "metrics.csv")] == [1, 2, 3]


class _ScoringFailed(Exception):
    pass


def test_scoring_error_leaves_run_experiment_and_its_thread(tmp_path, monkeypatch):
    calls = []
    score = metrics_mod.evaluate_global

    def fail_on_round_2(params, test):
        calls.append(1)
        if len(calls) == 2:
            raise _ScoringFailed("round 2")
        return score(params, test)

    monkeypatch.setattr(metrics_mod, "evaluate_global", fail_on_round_2)
    threads = threading.active_count()
    with pytest.raises(_ScoringFailed, match="round 2"):
        run_experiment(_tiny_config(tmp_path, rounds=4))
    assert threading.active_count() == threads
    assert not (tmp_path / "runs" / "tiny" / "metrics.csv").exists()


_METRICS_SHA = """
import hashlib, json, sys
from fedsim import ExperimentConfig, run_experiment
out = run_experiment(ExperimentConfig(**json.loads(sys.argv[1])))
print(hashlib.sha256((out / "metrics.csv").read_bytes()).hexdigest())
"""


def test_metrics_bytes_do_not_depend_on_blas_threads(tmp_path):
    # Scoring 2,000 test rows runs GEMMs large enough for OpenBLAS to split
    # over two threads, concurrently with the next round's training.
    shas = []
    for threads in (1, 2):
        raw = _tiny_config(
            tmp_path, name=f"threads{threads}", n_clients=6, rounds=3, num_classes=4,
            dim=16, test_per_class=500, hidden_sizes=[64, 64],
        ).to_dict()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(fedsim.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")]
        )
        proc = subprocess.run(
            [sys.executable, "-c", _METRICS_SHA, json.dumps(raw)],
            env=env, capture_output=True, text=True, check=True,
        )
        shas.append(proc.stdout.strip())
    assert len(shas[0]) == 64 and shas[1] == shas[0]


def test_cli_compare_single_dir_fails(tmp_path, capsys):
    rc = cli_main(["compare", "--target", "0.5", str(tmp_path)])
    assert rc == 1
