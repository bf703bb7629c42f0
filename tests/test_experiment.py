import json

import numpy as np
import pytest

from fedsim import (
    ConfigError,
    ExperimentConfig,
    ModelSpec,
    ServerState,
    TrainConfig,
    compare_runs,
    init_params,
    make_clients,
    partition_manual,
    preprocess,
    run_experiment,
    synth_blobs,
    synth_public,
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


def test_cli_compare_single_dir_fails(tmp_path, capsys):
    rc = cli_main(["compare", "--target", "0.5", str(tmp_path)])
    assert rc == 1
