"""Self-tests for the benchmark's own machinery.

    python3 bench/selftest.py        (or: python3 -m pytest bench/selftest.py)

They check that tracing does not change fedsim's outputs, that the wrappers
are removed afterwards, that metric names are well formed, and that an entry
point a run never calls (or that no longer exists) reports zero calls.
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import fedsim.experiment as experiment  # noqa: E402
from tracer import TARGETS, Tracer, _resolve, layer_metrics  # noqa: E402
from worker import adjusted_rand_index, crossing_round  # noqa: E402
from workloads import TARGET_ACCURACY  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _tiny(out_dir: Path, sampler: str) -> experiment.ExperimentConfig:
    return experiment.ExperimentConfig.from_dict(dict(
        seed=3, n_clients=6, rounds=3, num_classes=3, dim=4, per_class=20,
        test_per_class=10, partition="dirichlet", beta=0.5, hidden_sizes=[5],
        sampler=sampler, sample_ratio=0.5, epochs=1, batch_size=8, lr=0.05,
        public_count=30, output_dir=str(out_dir), name=sampler,
    ))


def _digest(run_dir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(run_dir.iterdir())
        if p.name in ("metrics.csv", "similarity_matrix.csv", "clusters.json")
    }


def _scratch() -> Path:
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=out, prefix="selftest-"))


def _attributes() -> list:
    found = []
    for module, attr, _ in TARGETS:
        owner, name = _resolve(module, attr)
        found.append(getattr(owner, name, None))
    return found


def test_traced_and_untraced_outputs_identical():
    tmp = _scratch()
    try:
        plain = _digest(experiment.run_experiment(_tiny(tmp / "plain", "stratified")))
        with Tracer() as tracer:
            traced = _digest(experiment.run_experiment(_tiny(tmp / "traced", "stratified")))
        assert set(plain) == {"metrics.csv", "similarity_matrix.csv", "clusters.json"}
        assert plain == traced
        assert layer_metrics(tracer, (4, 5, 3))["mlp.loss_and_grad.calls"] > 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def test_wrappers_removed_after_traced_run():
    before = _attributes()
    tmp = _scratch()
    try:
        with Tracer() as tracer:
            assert _attributes() != before
            experiment.run_experiment(_tiny(tmp, "uniform"))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    assert all(a is b for a, b in zip(_attributes(), before))
    assert not tracer.missing


def test_metric_names_well_formed_and_listed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for group in ("end_to_end", "per_layer") for m in spec[group]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names), names
    assert len(names) == len(set(names))
    listed = {m["name"] for m in spec["per_layer"]}
    produced = set(layer_metrics(Tracer(), (4, 5, 3)))
    assert produced <= listed, sorted(produced - listed)


def test_uncalled_or_missing_entry_point_reports_zero_calls():
    targets = TARGETS + (("fedsim.engine", "inlined_away", "mlp.loss_and_grad"),)
    tmp = _scratch()
    try:
        with Tracer(targets) as tracer:
            experiment.run_experiment(_tiny(tmp, "uniform"))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    assert tracer.missing == ["fedsim.engine.inlined_away"]
    m = layer_metrics(tracer, (4, 5, 3))
    assert m["sampling.similarity.s"] == 0.0
    assert m["sampling.similarity.gflops"] == 0.0
    assert m["experiment.preprocess.s"] == 0.0
    empty = layer_metrics(Tracer(), None)
    assert empty["mlp.loss_and_grad.calls"] == 0
    assert empty["mlp.step_gflops"] == 0.0


def test_workload_descriptions_state_the_target():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert all(f"{TARGET_ACCURACY:.2f}" in w["why"] for w in spec["workloads"])


def test_crossing_round_and_ari_hand_values():
    assert abs(crossing_round([0.1, 0.3, 0.5], 0.4) - 2.5) < 1e-9
    assert crossing_round([0.5], 0.4) == 1.0
    assert crossing_round([0.1, 0.2], 0.4) == 3.0
    assert adjusted_rand_index([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0
    assert abs(adjusted_rand_index([0, 0, 1, 1], [0, 1, 0, 1]) + 0.5) < 1e-12


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    failures = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc!r}")
    sys.exit(1 if failures else 0)
