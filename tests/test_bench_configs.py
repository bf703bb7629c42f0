"""Every benchmark workload's configs pass validation and build their data.

`bench/workloads.py` is loaded read-only from its file, so a config the
validator rejects shows up here rather than as a refused benchmark run.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from fedsim import ExperimentConfig
from fedsim.experiment import _build_data, _build_partition

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS_PY = ROOT / "bench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    # Its dataclass looks its module up in sys.modules while being defined.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


WORKLOADS = _load_workloads().WORKLOADS


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
        train, _ = _build_data(cfg)
        assert len(_build_partition(cfg, train).assignment) == cfg.n_clients
    assert list(tmp_path.iterdir()) == []
