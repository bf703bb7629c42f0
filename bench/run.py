"""fedsim's benchmark: run one workload (or all) from a seed and report metrics.

    python3 bench/run.py --workload battery --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

Closed loop: this single-threaded runner runs one repetition at a time, each
in a fresh `worker.py` interpreter, until `--seconds` have passed and every
quality seed has run, plus one repeat that checks byte-determinism. With
`--trace 0` it prints the end-to-end metrics; with `--trace 1` it alternates
untraced and traced repetitions and prints the per-layer metrics. Metric
names, units and order come from BENCHMARK.json. The last stdout line is one
JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS, sub_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
# Everything must end within 180 s: no repetition starts unless it can end
# by HARD_LIMIT_S, and none may run past DEADLINE_S.
HARD_LIMIT_S = 150.0
DEADLINE_S = 170.0
BLAS_THREADS = "1"


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (no result line is printed)."""


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def run_worker(spec: dict, deadline: float) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    work = Path(tempfile.mkdtemp(dir=OUT, prefix=f"{spec['workload']}-"))
    result_path = work / "result.json"
    spec = {**spec, "root": str(ROOT), "out_dir": str(work / "runs")}
    timeout = max(5.0, deadline - time.monotonic())
    try:
        spec["spawned"] = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec), str(result_path)],
            env=env, cwd=ROOT, timeout=timeout, capture_output=True, text=True,
        )
        if proc.returncode != 0 or not result_path.is_file():
            raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
        return json.loads(result_path.read_text())
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {timeout:.0f} s") from exc
    finally:
        shutil.rmtree(work, ignore_errors=True)


def repetitions(workload, seed: int, seconds: int, trace: bool) -> list[dict]:
    """Run repetitions until the time is used and the minimum count is met."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    reps = []
    longest = 0.0
    k = workload.quality_seeds
    while True:
        i = len(reps)
        traced = trace and i % 2 == 1
        spec = {
            "workload": workload.name,
            # Untraced runs cycle through the quality seeds; traced runs stay
            # on the first so traced and untraced outputs can be compared.
            "seed": sub_seed(seed, 0 if trace else i % k),
            "trace": traced,
            "sweep": traced and workload.sweep and not any(r["traced"] for r in reps),
            "spans_path": str(OUT / f"spans-{workload.name}-{seed}.npz"),
        }
        began = time.monotonic()
        rep = run_worker(spec, deadline)
        longest = max(longest, time.monotonic() - began)
        rep["traced"], rep["seed"] = traced, spec["seed"]
        reps.append(rep)
        elapsed = time.monotonic() - start
        out_of_time = elapsed + longest > HARD_LIMIT_S
        if len(reps) >= (2 if trace else k + 1):
            if elapsed >= seconds or out_of_time:
                return reps
        elif out_of_time:
            raise BenchError(f"{len(reps)} repetitions took {elapsed:.0f} s; too slow to finish")


def check_determinism(reps: list[dict]) -> int:
    """Runs whose output hashes differ from an earlier run of the same seed."""
    seen: dict[tuple, dict] = {}
    mismatches = 0
    for rep in reps:
        for run in rep["runs"]:
            if "hashes" not in run:
                continue
            key = (run["role"], run["seed"])
            if key in seen and seen[key] != run["hashes"]:
                run.setdefault("problems", []).append(f"output hashes differ from an earlier {key} run")
                mismatches += 1
            seen.setdefault(key, run["hashes"])
    return mismatches


def _median(values) -> float:
    return float(statistics.median(values))


def _per_seed(runs: list[dict], role: str, key: str) -> float:
    """Mean over distinct seeds of one run field (equal across repeats)."""
    by_seed = {}
    for run in runs:
        if run["role"] == role and key in run:
            by_seed.setdefault(run["seed"], run[key])
    return sum(by_seed.values()) / len(by_seed) if by_seed else 0.0


def end_to_end(workload, reps: list[dict]) -> dict[str, float]:
    runs = [run for rep in reps for run in rep["runs"]]
    attempted = sum(run["attempted"] for run in runs)
    dropped = sum(run["dropped"] for run in runs)
    setups = [rep["setup_s"] for rep in reps if "setup_s" in rep]
    if not setups:
        raise BenchError("no repetition reached round 1 through a known entry point")
    return {
        "setup_s": _median(setups),
        "run_s": _median(rep["run_s"] for rep in reps),
        "cpu_s": _median(rep["cpu_s"] for rep in reps),
        "peak_rss_mb": _median(rep["peak_rss_mb"] for rep in reps),
        "final_accuracy": _per_seed(runs, workload.main_role, "final_accuracy"),
        "rounds_to_target": _per_seed(runs, workload.main_role, "rounds_to_target"),
        "accepted_update_share": 1.0 - dropped / attempted if attempted else 0.0,
    }


def per_layer(workload, reps: list[dict]) -> dict[str, float]:
    traced = [rep for rep in reps if rep["traced"]]
    plain = [rep for rep in reps if not rep["traced"]]
    names = set().union(*(rep["layers"] for rep in traced))
    m = {n: _median(rep["layers"].get(n, 0.0) for rep in traced) for n in names}
    for label in ("n100", "n400", "nall"):
        for part in ("similarity", "kmeans"):
            name = f"sampling.{part}.s.{label}"
            m[name] = next((rep["layers"][name] for rep in traced if name in rep["layers"]), 0.0)
    runs = traced[0]["runs"]
    m["engine.dropped_updates"] = sum(run["dropped"] for run in runs)
    m["metrics.wire_bytes"] = sum(run.get("total_bytes", 0) for run in runs)
    m["experiment.io.bytes"] = sum(run.get("io_bytes", 0) for run in runs)
    m["sampling.cluster_ari"] = _per_seed(runs, workload.main_role, "cluster_ari")
    entropy = {run["role"]: run.get("mean_entropy_after_round1") for run in runs}
    if entropy.get("uniform") and entropy.get("stratified") is not None:
        m["sampling.entropy_ratio"] = entropy["stratified"] / entropy["uniform"]
    else:
        m["sampling.entropy_ratio"] = 0.0
    m["cli.import_s"] = _median(rep["import_s"] for rep in reps)
    m["trace.run_s"] = _median(rep["run_s"] for rep in traced)
    m["trace.overhead_s"] = m["trace.run_s"] - _median(rep["run_s"] for rep in plain)
    return m


def bench_one(name: str, seed: int, seconds: int, trace: bool, spec: dict) -> dict:
    workload = WORKLOADS[name]
    load_start = os.getloadavg()
    reps = repetitions(workload, seed, seconds, trace)
    mismatches = check_determinism(reps)
    runs = [run for rep in reps for run in rep["runs"]]
    failed = sum(1 for run in runs if run.get("problems"))
    values = per_layer(workload, reps) if trace else end_to_end(workload, reps)
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    env = {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        **reps[0]["env"],
        "blas_threads_requested": BLAS_THREADS,
        "git_commit": git_commit(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "repetitions": len(reps),
        "determinism_mismatches": mismatches,
    }
    problems = [p for run in runs for p in run.get("problems", [])]
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": failed == 0, "attempted": len(runs), "failed": failed,
        "metrics": metrics, "env": env, "problems": problems, "repetitions": reps,
    }
    (OUT / f"result-{name}-{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        if not (ROOT / "src" / "fedsim" / "__init__.py").is_file():
            raise BenchError(f"no fedsim sources under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        OUT.mkdir(exist_ok=True)
        if args.workload != "all":
            records = [bench_one(args.workload, args.seed, seconds, bool(args.trace), spec)]
        else:
            records = [
                bench_one(name, args.seed, seconds, trace, spec)
                for name in WORKLOADS for trace in (False, True)
            ]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for rec in records:
        tag = f"{rec['workload']}{' (traced)' if rec['trace'] else ''}"
        for name, m in rec["metrics"].items():
            print(f"{tag:24} {name:36} {m['value']:>16.6g} {m['unit']}")
        print(f"{tag:24} env {json.dumps(rec['env'], sort_keys=True)}")
        for problem in rec["problems"]:
            print(f"{tag:24} FAILED CHECK: {problem.strip()}")
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {
            f"{rec['workload']}.{name}": m for rec in records for name, m in rec["metrics"].items()
        }
    print(json.dumps({
        "correct": all(rec["correct"] for rec in records),
        "attempted": sum(rec["attempted"] for rec in records),
        "failed": sum(rec["failed"] for rec in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
