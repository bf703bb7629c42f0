"""Every benchmark workload's configs pass validation and build their data,
each scores its test set in a pinned number of row blocks and keeps the
pinned bytes of its run artifacts, and a traced pre-pass still feeds the
benchmark's similarity metrics.

`bench/workloads.py`, `bench/tracer.py` and `bench/worker.py` are loaded
read-only from their files, so a config the validator rejects, or soft labels
the tracer or the scale sweep cannot read, show up here rather than as a
refused benchmark run.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from fedsim import ExperimentConfig, ModelSpec, build_similarity_matrix, run_experiment
from fedsim.experiment import _build_data, _build_partition
from fedsim.mlp import _row_blocks

ROOT = Path(__file__).resolve().parent.parent


def _load_bench(name: str):
    """`bench/<name>.py`, loaded read-only from its file."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # A dataclass looks its module up in sys.modules while being defined.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


WORKLOADS = _load_bench("workloads").WORKLOADS
# Row blocks `evaluate_global` scores each workload's test set in. A workload
# or `mlp.BLOCK_MACS` change that moves one across the one-block boundary
# changes which GEMMs score it, and fails here.
SCORING_BLOCKS = {"battery": 1, "cluster-scale": 1, "wide-scaffold": 24}


def test_every_declared_workload_is_defined():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert declared and {w["name"] for w in declared} <= set(WORKLOADS)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_configs_validate_and_build(workload, seed, tmp_path):
    configs = WORKLOADS[workload].configs(seed, tmp_path.as_posix())
    assert configs
    for _, raw in configs:
        cfg = ExperimentConfig.from_dict(raw)
        train, test = _build_data(cfg)
        assert len(_build_partition(cfg, train).assignment) == cfg.n_clients
        spec = ModelSpec((train.dim, *cfg.hidden_sizes, train.num_classes))
        assert _row_blocks(spec, len(test)) == SCORING_BLOCKS[workload]
        if cfg.sampler == "stratified":  # the probe forward
            assert _row_blocks(spec, cfg.public_count) == 1
    assert list(tmp_path.iterdir()) == []


# Run artifacts whose bytes every workload config keeps, each pinned for its
# seed-1 config cut to 2 rounds; None marks a file a uniform run does not write.
# Wide-scaffold's metrics.csv hash was taken while `evaluate_global` scored
# the whole test set in one pass; it now scores in 24 row blocks, and every
# golden config scores in one.
ARTIFACTS = ("metrics.csv", "similarity_matrix.csv", "clusters.json", "summary.json")
_ARTIFACT_SHAS = {
    "battery-stratified": (
        "481618c73a917bfa2ac4858dd76410b7ad7c8d8dee81dfc8e13adff798f16524",
        "b6e28b89bef08a7cf42b199a777a6a94d5082141df71cd63968c9b5fe01c1f85",
        "a942fc7f7c1f4961eab4e8664516b743d9f925104fd12931091e368ea54b1d5c",
        "fc5aac2fd4e0ef33febdfa01b64bfadbd4536a474b902ca5ce43f9c6af68beba",
    ),
    "battery-uniform": (
        "73072addeca321b32bfac4bb4458234ebb6d89ed70bf5bc5e87e49c45e14f3a5",
        None,
        None,
        "8be16c1688badf71721a2862b8d11e5f66dc7b31639c65ec3b8cb75aad1c508a",
    ),
    "cluster-scale-stratified": (
        "39495f99a511b5be45e92f0c60f524e795a4efd85b82bdc7bbcab41a6e6e33e9",
        "61eb2e03e1130d4ffe3796e808be47ad88158f7be1d2908c65a271b2935609ef",
        "23f8e48ffc7d1926d15ee2c880a6942d7481f85a52d197561906fade184f3c02",
        "f76216f2eea480e662986734a05f6223a295b67be042202265723eea600acc4d",
    ),
    "wide-scaffold-uniform": (
        "1f335bbcb6d7c31621ad9f3661d50e4fd03f06d471729a8c34e4f915ce0216b1",
        None,
        None,
        "f652183b1f4231a0fdb2ed8f7a02d742a5b90950b7dd19b704b85aedfa10a738",
    ),
}


@pytest.mark.parametrize(
    "workload, role",
    [(name, role) for name, w in sorted(WORKLOADS.items()) for role, _ in w.configs(1, "")],
)
def test_every_workload_config_keeps_its_artifact_bytes(workload, role, tmp_path):
    raw = dict(WORKLOADS[workload].configs(1, tmp_path.as_posix()))[role]
    out = run_experiment(ExperimentConfig.from_dict({**raw, "rounds": 2}))
    got = tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest() if (out / name).exists() else None
        for name in ARTIFACTS
    )
    assert got == _ARTIFACT_SHAS[f"{workload}-{role}"]


def test_traced_prepass_feeds_the_similarity_metrics_and_the_sweep(tmp_path, monkeypatch):
    tracer_mod = _load_bench("tracer")
    # bench/worker.py imports its siblings by their plain names.
    monkeypatch.setitem(sys.modules, "tracer", tracer_mod)
    monkeypatch.setitem(sys.modules, "workloads", _load_bench("workloads"))
    worker = _load_bench("worker")
    cfg = ExperimentConfig(
        seed=3, n_clients=6, rounds=2, num_classes=3, dim=4, per_class=20, test_per_class=10,
        partition="dirichlet", beta=0.5, hidden_sizes=[5], sampler="stratified",
        sample_ratio=0.5, epochs=1, batch_size=8, lr=0.05, public_count=300,
        output_dir=tmp_path.as_posix(), name="traced",
    )
    with tracer_mod.Tracer() as tracer:
        out = run_experiment(cfg)
    layers = tracer_mod.layer_metrics(tracer, (4, 5, 3))
    assert layers["sampling.similarity.s"] > 0
    assert layers["sampling.similarity.gflops"] > 0
    # The scale sweep reruns the build on what `preprocess` passed it.
    (soft,) = [args[0] for args in tracer.similarity_args]
    assert len(soft) == cfg.n_clients and np.shape(soft[0]) == (cfg.public_count, 3)
    saved = np.loadtxt(out / "similarity_matrix.csv", delimiter=",")
    assert np.array_equal(build_similarity_matrix(soft[: len(soft)]), saved)
    swept = worker.sweep(soft, [cfg.seed, 6])
    sizes = ("n100", "n400", "nall")
    assert sorted(swept) == sorted(f"sampling.{p}.s.{n}" for p in ("similarity", "kmeans") for n in sizes)
    assert all(s > 0 for s in swept.values())
