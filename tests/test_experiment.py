import gc
import hashlib
import json
import logging
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
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
    ModelParams,
    ModelSpec,
    SamplingPlan,
    ServerState,
    TrainConfig,
    aggregate_fedavg,
    build_similarity_matrix,
    compare_runs,
    forward,
    init_params,
    make_clients,
    partition_dirichlet,
    partition_manual,
    partition_quantity,
    preprocess,
    run_experiment,
    run_round,
    synth_blobs,
    synth_public,
    train_clients,
)
from fedsim.cli import main as cli_main
from fedsim.metrics import read_metrics_csv
from fedsim.sampling import CLIENT_SET, SIM_DEPTH, SIM_TILE


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


@pytest.mark.xfail(
    raises=AssertionError,
    strict=True,
    reason="ROADMAP item 12: uniform round r, client 0's round-r batches and the "
    "[seed, r] setup salts draw one stream",
)
def test_every_random_source_draws_its_own_stream(tmp_path, monkeypatch):
    # SeedSequence ignores trailing zero words, so [seed, r, 0] is [seed, r].
    sites: dict[tuple, set] = {}
    make = np.random.default_rng

    def recording(seed=None):
        caller = sys._getframe(1)
        state = tuple(np.random.SeedSequence(seed).generate_state(4))
        sites.setdefault(state, set()).add((caller.f_code.co_filename, caller.f_lineno))
        return make(seed)

    monkeypatch.setattr(np.random, "default_rng", recording)
    run_experiment(_tiny_config(tmp_path, sample_ratio=1.0))
    assert len(sites) > 4
    assert {state: s for state, s in sites.items() if len(s) > 1} == {}


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


def test_validate_and_partitioner_give_one_message_for_synthetic_sizes():
    cfg = ExperimentConfig(
        seed=1, n_clients=3, rounds=1, num_classes=10, per_class=5, sample_ratio=1.0,
        partition="quantity", labels_per_client=2,
    )
    with pytest.raises(ConfigError) as from_config:
        cfg.validate()
    with pytest.raises(ValueError) as from_data:
        partition_quantity(synth_blobs(10, 2, 5, 1.0, seed=1), 3, 2, seed=0)
    assert str(from_config.value) == str(from_data.value)
    assert str(from_data.value).startswith("labels_per_client: infeasible")


def test_config_rejects_unknown_and_missing_keys():
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict({"seed": 1, "n_clients": 2, "rounds": 1, "nope": 3})
    assert "nope" in str(err.value)
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict({"n_clients": 2, "rounds": 1})
    assert "seed" in str(err.value)


@pytest.mark.parametrize(
    "key", ["workers", "eq1_denominator", "soft_label_reduction", "test_fraction"]
)
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


@pytest.mark.parametrize("sampler", ["uniform", "stratified"])
def test_cumulative_bytes_are_one_time_plus_rounds(tmp_path, sampler):
    out = run_experiment(
        _tiny_config(tmp_path, sampler=sampler, round1_participation="sampled", rounds=4)
    )
    summary = json.loads((out / "summary.json").read_text())
    per_round = summary["budget"] * 2 * summary["model_bytes"]
    # Only the clustering pass pays the probe download and soft-label upload.
    assert (summary["one_time_bytes"] > 0) == (sampler == "stratified")
    assert summary["recurring_bytes"] == summary["total_bytes"] - summary["one_time_bytes"]
    assert summary["recurring_bytes"] == 4 * per_round
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
    rc = cli_main(["run", "--config", str(cfg_path), "--set", "name=cli2", "--set", "seed=6",
                   "--set", "rounds=3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "final accuracy" in out

    run1 = tmp_path / "runs" / "cli1"
    run2 = tmp_path / "runs" / "cli2"
    rc = cli_main(["compare", "--target", "0.5", str(run1), str(run2)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
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


# A file's own fault is named with its path; "{path}" stands for it.
@pytest.mark.parametrize(
    "header, label_shift, n_clients, message",
    [
        ("", 0.0, 12, "more clients than samples"),
        ("f0,f1,label", 0.0, 4, "{path}: could not convert string 'f0'"),
        ("", 0.5, 4, "{path}: label column must be integral"),
    ],
    ids=["eight-rows-twelve-clients", "header-row", "fractional-label"],
)
def test_cli_rejects_unbuildable_csv_before_any_output(
    tmp_path, capsys, header, label_shift, n_clients, message
):
    ds = synth_blobs(2, 2, 4, 1.0, seed=3)
    csv_path = tmp_path / "train.csv"
    np.savetxt(
        csv_path, np.column_stack([ds.features, ds.labels + label_shift]), delimiter=",",
        fmt="%.17g", header=header, comments="",
    )
    cfg = _tiny_config(tmp_path, csv_path=str(csv_path), n_clients=n_clients).to_dict()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = cli_main(["run", "--config", cfg_path.as_posix()])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message.format(path=csv_path) in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("text", ["", "# a comment\n\n# another\n"], ids=["empty", "comments-only"])
def test_cli_rejects_csv_without_data_rows_in_one_line(tmp_path, capsys, text):
    csv_path = tmp_path / "empty.csv"
    csv_path.write_text(text)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config(tmp_path, csv_path=str(csv_path)).to_dict()))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli_main(["run", "--config", cfg_path.as_posix()])
    assert rc == 1 and not caught
    err = capsys.readouterr().err
    assert err == f"error: {csv_path} has no data rows\n"
    assert not (tmp_path / "runs").exists()


# One rule set checks synthetic and CSV sizes; a CSV's is checked against the
# file's own classes and rows, and its errors name the file and the field.
@pytest.mark.parametrize(
    "labels, overrides, message",
    [
        # Against the unused num_classes default of 10, 11 labels were rejected.
        (range(12), {"partition": "quantity", "labels_per_client": 11}, None),
        (range(3), {"n_clients": 3, "partition": "manual", "manual_groups": [[2, [0, 1]], [1, [5]]]},
         "manual_groups: entry 1 has a label outside classes 0..2"),
        # 30 rows, 6 of them held out for testing.
        (range(3), {"n_clients": 40, "sample_ratio": 0.1},
         "n_clients: 40 clients, more clients than samples (24)"),
        # Label 0 has at most 10 training rows.
        (range(3), {"n_clients": 12, "partition": "manual", "manual_groups": [[11, [0]], [1, [1, 2]]]},
         "manual_groups: entry 0 has 11 clients, more than the "),
        # Class 1 has no rows; Dirichlet deals it to no one, as quantity does.
        ([0, 2, 3], {"partition": "dirichlet"}, None),
        ([0, 2, 3], {"partition": "quantity", "labels_per_client": 2}, None),
    ],
    ids=["quantity-twelve-classes", "manual-label-not-a-class", "forty-clients-24-rows",
         "manual-group-above-its-rows", "dirichlet-empty-class", "quantity-empty-class"],
)
def test_cli_checks_csv_sizes_against_the_file(tmp_path, capsys, labels, overrides, message):
    ds = synth_blobs(max(labels) + 1, 3, 10, 1.0, seed=3)
    rows = np.column_stack([ds.features, ds.labels])[np.isin(ds.labels, labels)]
    csv_path = tmp_path / f"c{len(labels)}.csv"
    np.savetxt(csv_path, rows, delimiter=",", fmt="%.17g")
    cfg = {**_tiny_config(tmp_path, csv_path=str(csv_path)).to_dict(), **overrides}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = cli_main(["run", "--config", cfg_path.as_posix()])
    err = capsys.readouterr().err
    if message is None:
        assert rc == 0 and err == ""
        return
    assert rc == 1
    assert err.startswith(f"error: {csv_path}: {message}") and err.count("\n") == 1
    assert not (tmp_path / "runs").exists()


def _csv_case(tmp_path, case):
    """A train/test CSV pair with one fault; returns the config's CSV fields and the bad path."""
    ds = synth_blobs(3, 3, 10, 1.0, seed=3)
    train = np.column_stack([ds.features, ds.labels])
    test = train.copy()
    if case == "test-wider":
        test = np.column_stack([ds.features, ds.features[:, 0], ds.labels])
    elif case == "test-label-unknown":
        test[0, -1] = 3
    elif case == "train-label-negative":
        train[0, -1] = -1
    else:  # "train-one-row": nothing left to hold out for testing
        train = train[:1]
    paths = {"csv_path": tmp_path / "train.csv", "test_csv_path": tmp_path / "test.csv"}
    np.savetxt(paths["csv_path"], train, delimiter=",", fmt="%.17g")
    if case.startswith("test-"):
        np.savetxt(paths["test_csv_path"], test, delimiter=",", fmt="%.17g")
        return {k: str(p) for k, p in paths.items()}, paths["test_csv_path"]
    return {"csv_path": str(paths["csv_path"])}, paths["csv_path"]


@pytest.mark.parametrize(
    "case", ["test-wider", "test-label-unknown", "train-label-negative", "train-one-row"]
)
def test_cli_names_the_bad_csv_before_any_output(tmp_path, capsys, case):
    # The wider test file used to fail in round-1 scoring, after config.json
    # was written, and every case's message named no file.
    fields, bad = _csv_case(tmp_path, case)
    cfg = _tiny_config(tmp_path, n_clients=1, sample_ratio=1.0, **fields)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    rc = cli_main(["run", "--config", cfg_path.as_posix()])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(bad) in err
    assert not (tmp_path / "runs" / "tiny").exists()


def test_cli_rejects_test_csv_path_without_csv_path(tmp_path, capsys):
    # Unchecked, the run trains and scores on synthetic blobs and ignores the file.
    _, test_csv = _csv_case(tmp_path, "test-wider")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config(tmp_path, test_csv_path=str(test_csv)).to_dict()))
    rc = cli_main(["run", "--config", cfg_path.as_posix()])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: test_csv_path:") and err.count("\n") == 1
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("split", ["test_csv_path", "csv_path"])
def test_cli_rejects_a_non_finite_csv_feature_before_any_output(tmp_path, capsys, split):
    # Unchecked, a nan in the test file reaches every row of metrics.csv as
    # test_loss=nan, and an inf in a training row fails in training, without
    # the file's name, after config.json is written.
    ds = synth_blobs(3, 4, 10, 1.0, seed=3)
    clean = np.column_stack([ds.features, ds.labels])
    bad = clean.copy()
    bad[4, 1] = np.nan if split == "test_csv_path" else np.inf
    paths = {"csv_path": tmp_path / "train.csv", "test_csv_path": tmp_path / "test.csv"}
    for key, path in paths.items():
        np.savetxt(path, bad if key == split else clean, delimiter=",", fmt="%.17g")
    cfg = _tiny_config(tmp_path, **{key: str(path) for key, path in paths.items()}).to_dict()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = cli_main(["run", "--config", cfg_path.as_posix()])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: {paths[split]} line 5 holds a non-finite value\n"
    assert not (tmp_path / "runs").exists()


def test_cli_reports_a_config_too_large_to_allocate_before_any_output(tmp_path, capsys):
    # The (3, 10**15) float64 class means need 21.3 PiB, more than any address
    # space, so numpy refuses them before allocating anything.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config(tmp_path).to_dict()))
    rc = cli_main(["run", "--config", cfg_path.as_posix(), "--set", f"dim={10**15}"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
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


@pytest.mark.parametrize(
    "command, text",
    [("run", '{"seed": 1, '), ("run", "[1, 2]"), ("compare", '{"name": ')],
    ids=["truncated-config", "config-not-an-object", "truncated-summary"],
)
def test_cli_names_the_file_of_malformed_json(tmp_path, capsys, command, text):
    if command == "run":
        bad = tmp_path / "cfg.json"
        bad.write_text(text)
        rc = cli_main(["run", "--config", str(bad)])
    else:
        good = run_experiment(_tiny_config(tmp_path, name="good"))
        bad = run_experiment(_tiny_config(tmp_path, name="bad")) / "summary.json"
        bad.write_text(text)
        rc = cli_main(["compare", "--target", "0.5", str(good), str(bad.parent)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}") and err.count("\n") == 1


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


@pytest.mark.parametrize("row", ["1,0.4", "1,0.4,1.0,0.1,10,7"], ids=["short", "long"])
def test_cli_compare_names_a_metrics_row_without_one_field_per_column(tmp_path, capsys, row):
    good = run_experiment(_tiny_config(tmp_path, name="good"))
    bad = run_experiment(_tiny_config(tmp_path, name="bad"))
    header = (bad / "metrics.csv").read_text().splitlines()[0]
    (bad / "metrics.csv").write_text(f"{header}\n{row}\n")
    err = _compare_error(good, bad, capsys)
    assert f"{bad / 'metrics.csv'} line 2 " in err


def test_cli_compare_names_the_line_of_a_non_numeric_metrics_field(tmp_path, capsys):
    good = run_experiment(_tiny_config(tmp_path, name="good"))
    bad = run_experiment(_tiny_config(tmp_path, name="bad"))
    header, first, *_ = (bad / "metrics.csv").read_text().splitlines()
    row = first.split(",")
    row[1] = "abc"
    (bad / "metrics.csv").write_text(f"{header}\n{first}\n{','.join(row)}\n")
    err = _compare_error(good, bad, capsys)
    assert f"{bad / 'metrics.csv'} line 3: " in err and "'abc'" in err


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


def test_cli_reports_overflowing_probe_predictions_without_numpy_warnings(tmp_path, capsys):
    # No np.errstate here: pytest's error::RuntimeWarning filter turns any
    # numpy warning from the probe forward into an exception.
    raw = _tiny_config(
        tmp_path, n_clients=8, hidden_sizes=[8], batch_size=4, decay=1.0,
        sampler="stratified", lr=1e50,
    ).to_dict()
    cfg_path = tmp_path / "overflow.json"
    cfg_path.write_text(json.dumps(raw))
    rc = cli_main(["run", "--config", cfg_path.as_posix()])
    assert rc == 1
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == ["error: soft labels of client 1 has non-finite entries"]
    assert "Traceback" not in err and "Warning" not in err


@pytest.mark.parametrize("errstate", [{"all": "ignore"}, {}], ids=["ignore", "default"])
def test_overflowing_run_completes_under_the_callers_errstate(tmp_path, errstate):
    # Rounds are scored on a worker thread, which does not see the caller's
    # np.errstate. Scoring must ignore overflow itself, whatever that state,
    # or pytest's error::RuntimeWarning filter stops the run.
    cfg = _tiny_config(
        tmp_path, n_clients=8, rounds=3, hidden_sizes=[8], batch_size=4, decay=1.0, lr=1e100,
    )
    with np.errstate(**errstate):
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


_RUN_AND_LIST_NUMPY_MA = """
import json, sys
from fedsim import ExperimentConfig, run_experiment
run_experiment(ExperimentConfig(**json.loads(sys.argv[1])))
print("numpy.ma" in sys.modules)
"""


def test_stratified_run_does_not_import_numpy_ma(tmp_path):
    # `np.unique` imports `numpy.ma` on first use, 10-14 ms and 0.8 MB of a
    # run's set-up; duplicate checks sort and compare neighbours instead.
    raw = _tiny_config(tmp_path, sampler="stratified", rounds=2).to_dict()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(fedsim.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_AND_LIST_NUMPY_MA, json.dumps(raw)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "False"


def test_cli_compare_single_dir_fails(tmp_path, capsys):
    rc = cli_main(["compare", "--target", "0.5", str(tmp_path)])
    assert rc == 1


# sha256 of the pre-pass matrix at 1000 clients x 200 probe rows x 20 classes,
# taken when `preprocess` still stacked every client's probe predictions.
_PREPASS_SHA = "b590943f0fbe0030ea83ffe6d0f7de137fc1279261e7190114c32adb9333c51e"


def test_prepass_matrix_bytes_pinned_at_the_cluster_scale_shape():
    # cluster-scale's shape: 1000 clients in 10 label-pair groups of 100, a
    # (16, 32, 20) model and 200 probe rows, so four groups of probe rows.
    ds = synth_blobs(20, 16, 100, 1.0, [1000, 1])
    groups = [(100, [2 * g, 2 * g + 1]) for g in range(10)]
    clients = make_clients(partition_manual(ds, groups))
    server = ServerState(init_params(ModelSpec((16, 32, 20)), [1000, 2]))
    cfg = TrainConfig(epochs=1, batch_size=8, lr=1.0, master_seed=1000)
    pre = preprocess(clients, ds, synth_public(16, 200, [1000, 3]), server, cfg, cluster_k=10)
    assert pre.matrix.shape == (1000, 1000)
    assert hashlib.sha256(pre.matrix.tobytes()).hexdigest() == _PREPASS_SHA


@pytest.mark.parametrize("hidden, classes", [([], 10), ([12], 20), ([12, 5], 3)])
def test_probe_predictions_give_the_stacked_forward_bytes(hidden, classes):
    # 520 probe rows are several groups at every class count here.
    rng = np.random.default_rng(len(hidden) * 100 + classes)
    spec = ModelSpec((6, *hidden, classes))
    models = [init_params(spec, [7, i]) for i in range(37)]
    models = [ModelParams(m.values * rng.uniform(1, 4), spec) for m in models]
    probe = rng.normal(size=(520, 6))
    soft = experiment_mod.ProbePredictions(models, probe)
    stack = np.stack([forward(m, probe)[0] for m in models])
    assert len(soft) == 37 and np.array_equal(soft[4], stack[4])
    assert len(soft[30:]) == 7 and np.array_equal(soft[30:][0], stack[30])
    assert soft.shape == stack.shape and soft[30:].shape == stack[30:].shape
    assert soft[:0].shape[0] == 0
    for lo, hi in ((0, 64), (128, 256), (512, 520)):
        out = np.empty((6, hi - lo, classes))
        soft.fill_rows(5, lo, out)
        assert np.array_equal(out, stack[5:11, lo:hi])
    for clients in (slice(None), slice(9)):
        got = build_similarity_matrix(soft[clients])
        assert got.tobytes() == build_similarity_matrix(stack[clients]).tobytes()


def test_stratified_run_reads_the_probe_shape_without_a_forward(tmp_path, monkeypatch):
    # The build learns (clients, probe rows, classes) from `ProbePredictions.shape`;
    # every probe prediction comes from `fill_rows`.
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return forward(*args, **kwargs)

    monkeypatch.setattr(experiment_mod, "forward", counted)
    run_experiment(_tiny_config(tmp_path, sampler="stratified", rounds=2))
    assert calls == []


def test_prepass_build_holds_one_group_of_probe_rows(monkeypatch):
    n, samples, classes = 64, 1000, 10
    ds = synth_blobs(classes, 8, 40, 1.0, seed=4)
    clients = make_clients(partition_dirichlet(ds, n, 1.0, 5))
    server = ServerState(init_params(ModelSpec((8, 16, classes)), 6))
    seen = {}
    train, build = experiment_mod.train_clients, experiment_mod.build_similarity_matrix

    def trained(*args, **kwargs):
        updates = train(*args, **kwargs)
        tracemalloc.reset_peak()
        seen["start"] = tracemalloc.get_traced_memory()[0]
        return updates

    def built(soft):
        matrix = build(soft)
        seen["peak"] = tracemalloc.get_traced_memory()[1]
        return matrix

    monkeypatch.setattr(experiment_mod, "train_clients", trained)
    monkeypatch.setattr(experiment_mod, "build_similarity_matrix", built)
    rows = 256  # widened so that 1000 probe rows take four groups
    pad = -(-n // SIM_TILE) * SIM_TILE
    bound = 8 * (
        n * rows * classes  # one group of probe rows, every client
        + n * n  # the result
        + pad * SIM_DEPTH  # log P of one column chunk
        + 2 * CLIENT_SET * SIM_DEPTH  # one client set's floored operand and its divisors
        + SIM_TILE * pad  # one block row of tile products
    ) + 2**19
    assert 8 * n * samples * classes > bound  # every client's probe predictions at once break it
    tracemalloc.start()
    try:
        preprocess(clients, ds, synth_public(8, samples, 7), server, TrainConfig(batch_size=8))
    finally:
        tracemalloc.stop()
    assert seen["peak"] - seen["start"] < bound
