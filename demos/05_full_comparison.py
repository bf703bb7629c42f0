"""End-to-end run comparison with its byte totals.

Runs one uniform and one stratified experiment from the same seed, then uses
compare_runs to report rounds-to-target and byte deltas, mirroring a
communication-cost table: per-round traffic, the stratified pipeline's
one-time probe/soft-label term, and the total.

Run:  python3 demos/05_full_comparison.py
"""

import json
import tempfile
from pathlib import Path

from fedsim import ExperimentConfig, compare_runs, run_experiment


def main():
    out_root = Path(tempfile.mkdtemp(prefix="fedsim_demo_"))
    base = dict(
        seed=22,
        n_clients=100,
        rounds=60,
        num_classes=10,
        dim=16,
        per_class=200,
        spread=1.5,
        test_per_class=200,
        partition="quantity",
        labels_per_client=2,
        hidden_sizes=[32],
        algorithm="fedavg",
        sample_ratio=0.1,
        epochs=20,
        batch_size=64,
        lr=0.5,
        round1_participation="sampled",
        output_dir=str(out_root),
    )
    runs = []
    for sampler in ("uniform", "stratified"):
        cfg = ExperimentConfig(sampler=sampler, name=sampler, **base)
        out = run_experiment(cfg)
        summary = json.loads((out / "summary.json").read_text())
        runs.append(out)
        print(
            f"{sampler:10s}: final acc {summary['final_accuracy']:.3f}, "
            f"recurring {summary['recurring_bytes']/1e6:.2f}MB, "
            f"one-time {summary['one_time_bytes']/1e6:.2f}MB, "
            f"total {summary['total_bytes']/1e6:.2f}MB"
        )

    report = compare_runs(runs, target_accuracy=0.55)
    print("\nrounds to 55% accuracy and byte deltas vs the uniform baseline:")
    for row in report["runs"]:
        print(
            f"  {row['name']:10s} rounds={row['rounds_to_target_display']:>4s} "
            f"bytes={row['bytes_to_target']/1e6:8.2f}MB "
            f"delta_recurring={row['delta_recurring_bytes']/1e6:+8.2f}MB"
        )
    print(f"\nartifacts in {out_root}")


if __name__ == "__main__":
    main()
