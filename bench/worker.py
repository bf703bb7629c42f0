"""One repetition of one workload, in a fresh interpreter.

`run.py` starts this script once per repetition, so set-up time and peak RSS
belong to this repetition alone:

    python3 bench/worker.py SPEC_JSON RESULT_PATH

It imports fedsim from the checkout's `src/`, runs the workload's configs
through `fedsim.experiment.run_experiment`, checks every run's output files,
and writes one JSON result. With tracing on it also writes the spans.
"""

from __future__ import annotations

import csv
import ctypes
import hashlib
import json
import logging
import math
import resource
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer, layer_metrics
from workloads import TARGET_ACCURACY, WORKLOADS

# The first call of any of these marks the start of round 1.
ROUND_START = ("preprocess", "run_round", "uniform_sample", "stratified_sample")
METRICS_COLUMNS = ("round", "test_accuracy", "test_loss", "sample_relative_entropy", "cumulative_bytes")


def mark_first_round(module, sink: list):
    """Record the monotonic time of the first round-1 call, then unwrap.

    Returns a function that restores the module's attributes if no round
    ever started.
    """
    saved = {n: getattr(module, n) for n in ROUND_START if callable(getattr(module, n, None))}

    def restore():
        for name, fn in saved.items():
            setattr(module, name, fn)

    def marker(fn):
        def first_call(*args, **kwargs):
            if not sink:
                sink.append(time.monotonic())
                restore()
            return fn(*args, **kwargs)
        return first_call

    for name, fn in saved.items():
        setattr(module, name, marker(fn))
    return restore


class DropCounter(logging.Handler):
    """Counts updates that fedsim.engine logs as dropped for divergence."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.dropped = 0

    def emit(self, record):
        if record.getMessage().startswith("dropping update"):
            self.dropped += 1


def crossing_round(accuracies: list[float], target: float) -> float:
    """Round at which accuracy first reaches `target`, linearly interpolated.

    Round r's accuracy is accuracies[r - 1]. A run that never reaches the
    target scores one round past its schedule.
    """
    for i, acc in enumerate(accuracies):
        if acc >= target:
            if i == 0:
                return 1.0
            prev = accuracies[i - 1]
            return i + (target - prev) / (acc - prev)
    return len(accuracies) + 1.0


def adjusted_rand_index(truth: list[int], labels: list[int]) -> float:
    pairs = {}
    for t, c in zip(truth, labels):
        pairs[(t, c)] = pairs.get((t, c), 0) + 1
    rows, cols = {}, {}
    for (t, c), count in pairs.items():
        rows[t] = rows.get(t, 0) + count
        cols[c] = cols.get(c, 0) + count

    def comb2(x):
        return x * (x - 1) / 2

    index = sum(comb2(v) for v in pairs.values())
    a = sum(comb2(v) for v in rows.values())
    b = sum(comb2(v) for v in cols.values())
    expected = a * b / comb2(len(truth))
    best = (a + b) / 2
    return 1.0 if best == expected else (index - expected) / (best - expected)


def _sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def check_run(out: Path, raw: dict) -> dict:
    """Check one run directory; returns its outputs and a list of problems."""
    problems: list[str] = []
    acc: list[float] = []
    cum: list[int] = []
    with open(out / "metrics.csv", newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != METRICS_COLUMNS:
            problems.append(f"metrics.csv columns are {reader.fieldnames}")
        rows = list(reader)
    if [r.get("round") for r in rows] != [str(i) for i in range(1, raw["rounds"] + 1)]:
        problems.append(f"metrics.csv has {len(rows)} rows, not one per round 1..{raw['rounds']}")
    for r in rows:
        values = [float(r[c]) for c in METRICS_COLUMNS[1:4]]
        if not all(math.isfinite(v) for v in values):
            problems.append(f"metrics.csv round {r['round']} has a non-finite value")
        acc.append(values[0])
        cum.append(int(r["cumulative_bytes"]))
    if any(b < a for a, b in zip(cum, cum[1:])):
        problems.append("cumulative_bytes decreases")
    summary = json.loads((out / "summary.json").read_text())
    if not cum or cum[-1] != summary["total_bytes"]:
        problems.append("last cumulative_bytes differs from summary.json total_bytes")

    clusters = None
    if raw["sampler"] == "stratified":
        try:
            mapping = json.loads((out / "clusters.json").read_text())
            clusters = [int(mapping[str(i)]) for i in range(raw["n_clients"])]
            if len(mapping) != raw["n_clients"]:
                problems.append("clusters.json names clients that do not exist")
        except (OSError, KeyError, ValueError) as exc:
            problems.append(f"clusters.json does not cover every client: {exc!r}")
        if not (out / "similarity_matrix.csv").is_file():
            problems.append("similarity_matrix.csv is missing")

    return {
        "problems": problems,
        "accuracy": acc,
        "mean_entropy_after_round1": summary["mean_entropy_after_round1"],
        "total_bytes": int(summary["total_bytes"]),
        "clusters": clusters,
        "hashes": {
            "metrics.csv": _sha256(out / "metrics.csv"),
            "similarity_matrix.csv": _sha256(out / "similarity_matrix.csv"),
        },
        "io_bytes": sum(p.stat().st_size for p in out.iterdir() if p.is_file()),
    }


def attempted_updates(cfg) -> int:
    """local_train calls the config asks for: the pre-pass trains everyone."""
    if cfg.sampler == "stratified":
        return cfg.n_clients + cfg.budget * (cfg.rounds - 1)
    return cfg.budget * cfg.rounds


def sweep(soft, seed) -> dict[str, float]:
    """Time the pre-pass's similarity build and k-means at 100, 400, all clients."""
    from fedsim.sampling import build_similarity_matrix, kmeans_cluster

    out = {}
    for label, n in (("n100", 100), ("n400", 400), ("nall", len(soft))):
        part = soft[: min(n, len(soft))]
        t0 = time.perf_counter()
        matrix = build_similarity_matrix(part)
        t1 = time.perf_counter()
        kmeans_cluster(matrix, min(10, len(part)), seed)
        t2 = time.perf_counter()
        out[f"sampling.similarity.s.{label}"] = t1 - t0
        out[f"sampling.kmeans.s.{label}"] = t2 - t1
    return out


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if fn is not None:
                    return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        # As the loaded library reports it; None where it cannot be queried.
        "blas_threads": blas_threads(),
    }


def main(spec: dict) -> dict:
    root = Path(spec["root"])
    sys.path.insert(0, str(root / "src"))
    t0 = time.perf_counter()
    import fedsim.cli  # noqa: F401  (imports every layer, as the CLI does)
    import_s = time.perf_counter() - t0
    import fedsim
    import fedsim.experiment as experiment

    if not Path(fedsim.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise RuntimeError(f"imported fedsim from {fedsim.__file__}, not from the checkout")

    workload = WORKLOADS[spec["workload"]]
    configs = workload.configs(spec["seed"], spec["out_dir"])
    counter = DropCounter()
    logging.getLogger("fedsim.engine").addHandler(counter)
    round_start: list[float] = []
    restore = mark_first_round(experiment, round_start) if not spec["trace"] else None
    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()

    runs = []
    run_s = cpu_s = 0.0
    try:
        for role, raw in configs:
            cfg = experiment.ExperimentConfig.from_dict(raw)
            record = {"role": role, "seed": spec["seed"], "attempted": attempted_updates(cfg)}
            before = counter.dropped
            r0, w0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
            try:
                out = experiment.run_experiment(cfg)
            except Exception:  # a failing run is counted, not fatal
                record["problems"] = [traceback.format_exc()]
                out = None
            w1, r1 = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
            run_s += w1 - w0
            cpu_s += (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
            record["dropped"] = counter.dropped - before
            if out is not None:
                try:
                    record.update(check_run(Path(out), raw))
                except (OSError, ValueError, KeyError) as exc:
                    record["problems"] = [f"output check could not read the run: {exc!r}"]
                else:
                    acc = record["accuracy"]
                    record["final_accuracy"] = acc[-1]
                    record["rounds_to_target"] = crossing_round(acc, TARGET_ACCURACY)
                    if raw["partition"] == "manual" and record["clusters"] is not None:
                        # Ground truth: the manual group each client belongs to.
                        truth = [g for g, (count, _) in enumerate(raw["manual_groups"]) for _ in range(count)]
                        record["cluster_ari"] = adjusted_rand_index(truth, record["clusters"])
            runs.append(record)
    finally:
        if tracer is not None:
            tracer.remove()
        if restore is not None:
            restore()
        logging.getLogger("fedsim.engine").removeHandler(counter)

    result = {
        "import_s": import_s,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "runs": runs,
        "env": environment(),
    }
    if round_start:
        result["setup_s"] = round_start[0] - spec["spawned"]
    if tracer is not None:
        raw = configs[0][1]
        sizes = (raw["dim"], *raw["hidden_sizes"], raw["num_classes"])
        layers = layer_metrics(tracer, sizes)
        if spec.get("sweep"):
            kept = tracer.similarity_args
            layers.update(sweep(kept[0][0], [spec["seed"], 6]) if kept else {})
        tracer.save(spec["spans_path"])
        result["layers"] = layers
        result["missing"] = tracer.missing
    return result


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    result = main(spec)
    Path(sys.argv[2]).write_text(json.dumps(result))
