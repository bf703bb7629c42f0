"""Span tracing of fedsim's layers from outside the package.

A `Tracer` replaces each traced function at the module attribute its caller
looks up (for example `fedsim.engine.loss_and_grad`, which `local_train`
resolves through the engine module's globals) with a wrapper that records one
span: name, start, end and the index of the enclosing span. Spans live in
flat arrays in memory and are written out once the run ends. `remove()` puts
every original attribute back.

A target that no longer exists (say, a later change inlines `loss_and_grad`)
is skipped: its span name still appears in the summary with zero calls, so the
change shows in the trace instead of breaking the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

# (module, attribute, span name). The span name's first component is the
# fedsim module (layer) that defines the function.
TARGETS = (
    ("fedsim.engine", "loss_and_grad", "mlp.loss_and_grad"),
    ("fedsim.engine", "sgd_step", "mlp.sgd_step"),
    ("fedsim.experiment", "forward", "mlp.forward"),
    ("fedsim.metrics", "forward", "mlp.forward"),
    ("fedsim.experiment", "init_params", "mlp.init_params"),
    ("fedsim.engine", "local_train", "engine.local_train"),
    ("fedsim.experiment", "local_train", "engine.local_train"),
    ("fedsim.experiment", "run_round", "engine.run_round"),
    ("fedsim.experiment", "make_clients", "engine.make_clients"),
    ("fedsim.engine", "aggregate_fedavg", "engine.aggregate"),
    ("fedsim.engine", "aggregate_scaffold", "engine.aggregate"),
    ("fedsim.engine", "aggregate_fednova", "engine.aggregate"),
    ("fedsim.experiment", "build_similarity_matrix", "sampling.similarity"),
    ("fedsim.experiment", "kmeans_cluster", "sampling.kmeans"),
    ("fedsim.experiment", "uniform_sample", "sampling.plan"),
    ("fedsim.experiment", "stratified_sample", "sampling.plan"),
    ("fedsim.experiment", "save_matrix_csv", "sampling.save_matrix_csv"),
    ("fedsim.sampling", "ClusterAssignment.save_json", "sampling.save_clusters_json"),
    ("fedsim.metrics", "evaluate_global", "metrics.evaluate_global"),
    ("fedsim.metrics", "sample_relative_entropy", "metrics.sample_relative_entropy"),
    ("fedsim.experiment", "write_metrics_csv", "metrics.write_metrics_csv"),
    ("fedsim.experiment", "preprocess", "experiment.preprocess"),
    ("fedsim.experiment", "run_experiment", "experiment.run"),
    ("fedsim.experiment", "synth_blobs", "data.synth_blobs"),
    ("fedsim.experiment", "synth_public", "data.synth_public"),
    ("fedsim.experiment", "load_csv", "data.load_csv"),
    ("fedsim.experiment", "partition_dirichlet", "data.partition"),
    ("fedsim.experiment", "partition_quantity", "data.partition"),
    ("fedsim.experiment", "partition_manual", "data.partition"),
)

LAYERS = ("mlp", "engine", "sampling", "metrics", "experiment", "data")
IO_SPANS = ("sampling.save_matrix_csv", "sampling.save_clusters_json", "metrics.write_metrics_csv")


def _resolve(module: str, attr: str):
    """(owner object, attribute name) for `module` plus a dotted `attr`."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, name
    return owner, name


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.span_names = sorted({t[2] for t in targets})
        self._code = {n: i for i, n in enumerate(self.span_names)}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        # Batch rows summed over loss_and_grad calls (for the FLOP count).
        self.rows = 0
        # Arguments of each build_similarity_matrix call (the soft labels, for
        # the FLOP count and the scale sweep).
        self.similarity_args: list[tuple] = []
        self.missing: list[str] = []
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module, attr, span in self.targets:
            owner, name = _resolve(module, attr)
            fn = getattr(owner, name, None) if owner is not None else None
            if not callable(fn):
                self.missing.append(f"{module}.{attr}")
                continue
            self._saved.append((owner, name, fn))
            setattr(owner, name, self._wrap(fn, span))

    def remove(self) -> None:
        while self._saved:
            owner, name, fn = self._saved.pop()
            setattr(owner, name, fn)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def _wrap(self, fn, span: str):
        code = self._code[span]
        name_id, start, end, parent, stack = (
            self.name_id, self.start, self.end, self.parent, self._stack,
        )
        clock = time.perf_counter
        count_rows = span == "mlp.loss_and_grad"
        kept = self.similarity_args if span == "sampling.similarity" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(code)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            if count_rows and len(args) > 1:
                self.rows += len(args[1])
            if kept is not None:
                kept.append(args)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.asarray(self.name_id, dtype=np.int64),
            "start": np.asarray(self.start, dtype=np.float64),
            "end": np.asarray(self.end, dtype=np.float64),
            "parent": np.asarray(self.parent, dtype=np.int64),
        }

    def save(self, path) -> None:
        """Write every span (name, start, end, parent) as a compressed npz."""
        np.savez_compressed(path, names=np.asarray(self.span_names), **self.arrays())


def span_stats(tracer: Tracer) -> dict[str, dict]:
    """Per span name: call count, durations, total and self seconds.

    `total_s` counts only outermost spans of a name, so a name that nests in
    itself (scaffold aggregation calling fedavg aggregation) is not counted
    twice. Self time is a span's duration minus its direct children's.
    """
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    child = np.zeros_like(dur)
    has_parent = a["parent"] >= 0
    np.add.at(child, a["parent"][has_parent], dur[has_parent])
    self_time = dur - child
    parent_name = np.full(dur.size, -1, dtype=np.int64)
    parent_name[has_parent] = a["name_id"][a["parent"][has_parent]]
    stats = {}
    for code, name in enumerate(tracer.span_names):
        mask = a["name_id"] == code
        outer = mask & (parent_name != code)
        stats[name] = {
            "calls": int(mask.sum()),
            "durations": dur[mask],
            "total_s": float(dur[outer].sum()),
            "self_s": float(self_time[mask].sum()),
        }
    return stats


def _pct(values: np.ndarray, q: float, scale: float) -> float:
    return float(np.percentile(values, q) * scale) if values.size else 0.0


def layer_metrics(tracer: Tracer, layer_sizes: tuple[int, ...] | None) -> dict[str, float]:
    """Per-layer metrics from one traced run, by the names BENCHMARK.json lists.

    `layer_sizes` is the model's (input, hidden..., classes) shape, used for
    the computed FLOP count of an SGD step.
    """
    st = span_stats(tracer)
    m: dict[str, float] = {}
    lg, sgd = st["mlp.loss_and_grad"], st["mlp.sgd_step"]
    m["mlp.loss_and_grad.calls"] = lg["calls"]
    m["mlp.loss_and_grad.us_p50"] = _pct(lg["durations"], 50, 1e6)
    m["mlp.loss_and_grad.us_p99"] = _pct(lg["durations"], 99, 1e6)
    m["mlp.sgd_step.us_p50"] = _pct(sgd["durations"], 50, 1e6)
    m["mlp.forward.calls"] = st["mlp.forward"]["calls"]
    m["mlp.forward.s"] = st["mlp.forward"]["total_s"]
    # Computed, not counted: 6 FLOPs per weight per row (forward GEMM plus
    # the two backward GEMMs), matmuls only.
    step_s = lg["total_s"] + sgd["total_s"]
    if layer_sizes and step_s > 0:
        weights = sum(a * b for a, b in zip(layer_sizes[:-1], layer_sizes[1:]))
        m["mlp.step_gflops"] = 6.0 * weights * tracer.rows / step_s / 1e9
    else:
        m["mlp.step_gflops"] = 0.0

    lt = st["engine.local_train"]
    m["engine.local_train.calls"] = lt["calls"]
    m["engine.local_train.s"] = lt["total_s"]
    m["engine.local_train.self_s"] = lt["self_s"]
    m["engine.local_train.ms_p50"] = _pct(lt["durations"], 50, 1e3)
    m["engine.local_train.ms_p95"] = _pct(lt["durations"], 95, 1e3)
    rr = st["engine.run_round"]
    m["engine.run_round.ms_p50"] = _pct(rr["durations"], 50, 1e3)
    m["engine.run_round.ms_p95"] = _pct(rr["durations"], 95, 1e3)
    m["engine.aggregate.s"] = st["engine.aggregate"]["total_s"]

    sim = st["sampling.similarity"]
    m["sampling.similarity.s"] = sim["total_s"]
    # Computed: the per-sample cross term is 2*n^2*m*k FLOPs.
    flops = 0.0
    for args in tracer.similarity_args:
        soft = args[0]
        if len(soft):
            rows, classes = np.shape(soft[0])
            flops += 2.0 * len(soft) ** 2 * rows * classes
    m["sampling.similarity.gflops"] = flops / sim["total_s"] / 1e9 if sim["total_s"] > 0 else 0.0
    m["sampling.kmeans.s"] = st["sampling.kmeans"]["total_s"]
    m["sampling.plan.us_p50"] = _pct(st["sampling.plan"]["durations"], 50, 1e6)

    m["metrics.evaluate_global.s"] = st["metrics.evaluate_global"]["total_s"]
    m["metrics.sample_relative_entropy.s"] = st["metrics.sample_relative_entropy"]["total_s"]

    m["experiment.preprocess.s"] = st["experiment.preprocess"]["total_s"]
    m["experiment.preprocess.self_s"] = st["experiment.preprocess"]["self_s"]
    m["experiment.run.self_s"] = st["experiment.run"]["self_s"]
    m["experiment.io.s"] = sum(st[n]["total_s"] for n in IO_SPANS)
    m["data.build.s"] = sum(s["total_s"] for n, s in st.items() if n.startswith("data."))

    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(s["self_s"] for n, s in st.items() if n.startswith(layer + "."))
    m["trace.spans"] = len(tracer.start)
    return m
