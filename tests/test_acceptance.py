"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

The entropy-separation and convergence-speed criteria share a battery of
uniform/stratified experiment pairs (five seeds, 300 rounds each) built once
per session; the cluster-recovery criteria reuse the cached manual-split
scenarios from conftest. Run with `pytest tests/test_acceptance.py -s` to see
the per-criterion lines as they complete.
"""

import json
import math
import time

import numpy as np
import pytest

from fedsim import (
    ClientState,
    ExperimentConfig,
    ModelParams,
    ModelSpec,
    ServerState,
    TrainConfig,
    compare_runs,
    forward,
    init_params,
    kl_divergence,
    latent_cluster_gap,
    linear_cka,
    loss_and_grad,
    make_clients,
    partition_dirichlet,
    run_experiment,
    run_round,
    sample_relative_entropy,
    synth_blobs,
    uniform_sample,
)
from fedsim.metrics import comm_cost_step, read_metrics_csv, rounds_to_target
from fedsim.sampling import SamplingPlan, stratified_sample

from tests.conftest import MANUAL_SEEDS, manual_scenario

BATTERY_SEEDS = (11, 22, 33, 44, 55)
BATTERY_ROUNDS = 300
ENTROPY_ROUNDS = 200  # criterion 1 window


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num}] {name}: {status}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)


def _battery_config(seed: int, sampler: str, out_dir) -> ExperimentConfig:
    return ExperimentConfig(
        seed=seed,
        n_clients=100,
        rounds=BATTERY_ROUNDS,
        num_classes=10,
        dim=16,
        per_class=200,
        spread=1.5,
        test_per_class=400,
        partition="quantity",
        labels_per_client=2,
        hidden_sizes=[32],
        algorithm="fedavg",
        sampler=sampler,
        sample_ratio=0.1,
        epochs=20,
        batch_size=64,
        lr=0.5,
        decay=0.99,
        round1_participation="sampled",
        output_dir=str(out_dir),
        name=f"{sampler}-{seed}",
    )


@pytest.fixture(scope="session")
def battery(tmp_path_factory):
    """Uniform and stratified runs for every battery seed, plus wall time."""
    out_dir = tmp_path_factory.mktemp("battery")
    t0 = time.time()
    runs = {}
    for seed in BATTERY_SEEDS:
        for sampler in ("uniform", "stratified"):
            path = run_experiment(_battery_config(seed, sampler, out_dir))
            runs[(seed, sampler)] = {
                "path": path,
                "metrics": read_metrics_csv(path / "metrics.csv"),
            }
    return {"runs": runs, "elapsed": time.time() - t0}


def test_criterion_1_entropy_separation(battery):
    per_seed = {}
    for seed in BATTERY_SEEDS:
        strat = battery["runs"][(seed, "stratified")]["metrics"][:ENTROPY_ROUNDS]
        uni = battery["runs"][(seed, "uniform")]["metrics"][:ENTROPY_ROUNDS]
        # Stratified sampling starts after the round-1 clustering pre-pass.
        es = float(np.mean([m.sample_relative_entropy for m in strat[1:]]))
        eu = float(np.mean([m.sample_relative_entropy for m in uni[1:]]))
        per_seed[seed] = (es, eu)
    lower_everywhere = all(es < eu for es, eu in per_seed.values())
    strong = sum(es <= 0.7 * eu for es, eu in per_seed.values())
    elapsed = battery["elapsed"]
    ok = lower_everywhere and strong >= 4 and elapsed < 300
    ratios = ", ".join(f"{s}:{es/eu:.2f}" for s, (es, eu) in per_seed.items())
    _report(1, "entropy separation", ok, f"ratios {ratios}; battery {elapsed:.0f}s")
    assert lower_everywhere
    assert strong >= 4
    assert elapsed < 300


def test_criterion_2_manual_split_cluster_recovery():
    recoveries = 0
    entropy_ok = 0
    for seed in MANUAL_SEEDS:
        sc = manual_scenario(seed)
        recoveries += sc.recovered_exactly()
        strat, uni = [], []
        for r in range(2, 102):
            sp = stratified_sample(sc.pre.assignment, 5, r, seed)
            up = uniform_sample(24, 5, r, seed)
            strat.append(sample_relative_entropy(sp, sc.partition, sc.train.labels, 10))
            uni.append(sample_relative_entropy(up, sc.partition, sc.train.labels, 10))
        mean_s, mean_u = float(np.mean(strat)), float(np.mean(uni))
        if mean_s < 0.1 and mean_u >= 3 * mean_s:
            entropy_ok += 1
        # Per-round directional claim: stratified below uniform in >=90% of rounds.
        frac = np.mean([s < u for s, u in zip(strat, uni)])
        assert frac >= 0.9
    ok = recoveries >= 4 and entropy_ok == len(MANUAL_SEEDS)
    _report(
        2,
        "manual-split cluster recovery",
        ok,
        f"exact recovery {recoveries}/5; entropy gap held in {entropy_ok}/5 seeds",
    )
    assert recoveries >= 4
    assert entropy_ok == len(MANUAL_SEEDS)


def test_criterion_3_latent_gap():
    gaps = []
    for seed in MANUAL_SEEDS:
        sc = manual_scenario(seed)
        probe = sc.test.features
        latents = [forward(u.new_params, probe)[1] for u in sc.pre.updates]
        intra, rand = latent_cluster_gap(latents, sc.pre.assignment, seed)
        gaps.append((intra, rand))
    ok = all(intra < rand for intra, rand in gaps)
    detail = ", ".join(f"{i:.3f}<{r:.3f}" for i, r in gaps)
    _report(3, "latent distance gap", ok, detail)
    assert ok


def test_criterion_4_convergence_speed(battery):
    finals = [
        battery["runs"][(seed, "uniform")]["metrics"][-1].test_accuracy
        for seed in BATTERY_SEEDS
    ]
    target = float(np.median(finals))
    wins = 0
    margins = {}
    deltas = {}
    for seed in BATTERY_SEEDS:
        uni = battery["runs"][(seed, "uniform")]
        strat = battery["runs"][(seed, "stratified")]
        ru = rounds_to_target([m.test_accuracy for m in uni["metrics"]], target)
        rs = rounds_to_target([m.test_accuracy for m in strat["metrics"]], target)
        win = rs is not None and (ru is None or rs < ru)
        wins += win
        margins[seed] = (ru, rs)
        report = compare_runs([uni["path"], strat["path"]], target)
        deltas[seed] = report["runs"][1]["delta_recurring_bytes"]
    negative_deltas = sum(d < 0 for d in deltas.values())
    ok = wins >= 4 and negative_deltas >= 4
    detail = (
        f"target {target:.3f}; (uniform, stratified) rounds "
        + ", ".join(f"{s}:{m}" for s, m in margins.items())
        + f"; negative recurring deltas {negative_deltas}/5"
    )
    _report(4, "convergence speed", ok, detail)
    assert wins >= 4
    assert negative_deltas >= 4


def test_criterion_5_cost_ledger_ratios(tmp_path):
    plan = SamplingPlan(1, np.arange(10))
    fed = comm_cost_step(plan, model_bytes=1_000_000, algorithm="fedavg")
    sca = comm_cost_step(plan, model_bytes=1_000_000, algorithm="scaffold")
    ratio_exact = (
        sca.per_client_down_bytes == 2 * fed.per_client_down_bytes
        and sca.per_client_up_bytes == 2 * fed.per_client_up_bytes
    )

    base = dict(
        seed=3, n_clients=8, rounds=4, num_classes=4, dim=6, per_class=20,
        test_per_class=8, partition="dirichlet", hidden_sizes=[5], sample_ratio=0.5,
        epochs=1, batch_size=8, lr=0.05, public_count=50,
        round1_participation="sampled", output_dir=str(tmp_path),
    )
    fed_run = run_experiment(ExperimentConfig(sampler="uniform", name="fed", **base))
    lefl_run = run_experiment(ExperimentConfig(sampler="stratified", name="lefl", **base))
    fed_sum = json.loads((fed_run / "summary.json").read_text())
    lefl_sum = json.loads((lefl_run / "summary.json").read_text())

    model_bytes = fed_sum["model_bytes"]
    budget, rounds, n = 4, 4, 8
    per_round = budget * 2 * model_bytes
    same_per_round = lefl_sum["recurring_bytes"] == fed_sum["total_bytes"] == rounds * per_round
    public_bytes = 50 * 6 * 4
    soft_bytes = 50 * 4 * 4
    one_time = n * (public_bytes + soft_bytes)
    decomposition = (
        lefl_sum["one_time_bytes"] == one_time
        and lefl_sum["total_bytes"] == lefl_sum["recurring_bytes"] + one_time
    )
    ok = ratio_exact and same_per_round and decomposition
    _report(
        5,
        "cost-ledger ratios",
        ok,
        f"scaffold/fedavg = {sca.per_client_up_bytes / fed.per_client_up_bytes:.2f}x; "
        f"one-time {one_time} bytes",
    )
    assert ratio_exact
    assert same_per_round
    assert decomposition


def test_criterion_6_numerical_core():
    rng = np.random.default_rng(4242)
    specs = [ModelSpec(s) for s in [(3, 4, 2), (4, 2), (2, 3, 3), (3, 5, 4, 3)]]
    worst = 0.0
    for trial in range(20):
        spec = specs[trial % len(specs)]
        p = init_params(spec, int(rng.integers(1e6)))
        x = rng.normal(size=(4, spec.input_dim))
        y = rng.integers(0, spec.num_classes, size=4)
        _, grad = loss_and_grad(p, x, y)
        fd = np.zeros_like(grad)
        for i in range(grad.size):
            up, down = p.values.copy(), p.values.copy()
            up[i] += 1e-5
            down[i] -= 1e-5
            fd[i] = (
                loss_and_grad(ModelParams(up, spec), x, y)[0]
                - loss_and_grad(ModelParams(down, spec), x, y)[0]
            ) / 2e-5
        denom = np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-6)
        worst = max(worst, float(np.max(np.abs(grad - fd) / denom)))
    grad_ok = worst < 1e-4

    kl_zero = kl_divergence([0.3, 0.7], [0.3, 0.7]) == 0.0
    kl_hand = abs(kl_divergence([0.5, 0.5], [0.25, 0.75]) - 0.143841) < 1e-6
    kl_nonneg = all(
        kl_divergence(rng.dirichlet(np.ones(5)), rng.dirichlet(np.ones(5))) >= 0
        for _ in range(100)
    )

    acts = rng.normal(size=(200, 6))
    cka_self = abs(linear_cka(acts, acts) - 1.0) < 1e-9
    cka_scale = abs(linear_cka(acts, 2.5 * acts) - 1.0) < 1e-9
    cka_bounded = all(
        -1e-9 <= linear_cka(rng.normal(size=(50, 4)), rng.normal(size=(50, 3))) <= 1 + 1e-9
        for _ in range(20)
    )
    ok = grad_ok and kl_zero and kl_hand and kl_nonneg and cka_self and cka_scale and cka_bounded
    _report(6, "numerical core", ok, f"max grad rel err {worst:.2e}")
    assert ok


def test_criterion_7_reduction_identities():
    ds = synth_blobs(4, 6, 40, 1.0, seed=77)
    part = partition_dirichlet(ds, 8, beta=1e6, seed=78)  # near-equal shard sizes
    spec = ModelSpec((6, 8, 4))
    init = init_params(spec, 79)
    plan = uniform_sample(8, 4, 1, 80)

    def one_round(algorithm, prox_mu=0.0):
        clients = make_clients(part)
        control = np.zeros(spec.num_params) if algorithm == "scaffold" else None
        server = ServerState(init.copy(), control, 0, 80)
        cfg = TrainConfig(
            algorithm=algorithm, epochs=2, batch_size=64, lr=0.05,
            prox_mu=prox_mu, master_seed=80,
        )
        server2, _ = run_round(server, clients, ds, plan, cfg)
        return server2.global_params.values

    fedavg = one_round("fedavg")
    prox = one_round("fedprox", prox_mu=0.0)
    scaffold = one_round("scaffold")
    fednova = one_round("fednova")  # equal batch counts -> equal local steps

    prox_ok = np.array_equal(prox, fedavg)
    scaffold_ok = np.array_equal(scaffold, fedavg)
    nova_ok = np.array_equal(fednova, fedavg)
    ok = prox_ok and scaffold_ok and nova_ok
    _report(
        7,
        "reduction identities",
        ok,
        f"fedprox(0)={prox_ok}, scaffold(0)={scaffold_ok}, fednova(eq)={nova_ok}, bitwise",
    )
    assert ok


def test_criterion_8_byte_level_determinism(tmp_path):
    base = dict(
        seed=17, n_clients=12, rounds=5, num_classes=5, dim=8, per_class=30,
        test_per_class=10, partition="quantity", labels_per_client=2,
        hidden_sizes=[10], sample_ratio=0.5, epochs=2, batch_size=8, lr=0.05,
        public_count=60, sampler="stratified", output_dir=str(tmp_path),
    )
    first = run_experiment(ExperimentConfig(name="d1", **base))
    second = run_experiment(ExperimentConfig(name="d2", **base))
    rerun_same = (first / "metrics.csv").read_bytes() == (second / "metrics.csv").read_bytes()
    matrix_same = (first / "similarity_matrix.csv").read_bytes() == (
        second / "similarity_matrix.csv"
    ).read_bytes()
    ok = rerun_same and matrix_same
    _report(
        8,
        "byte-level determinism",
        ok,
        f"rerun={rerun_same}, matrix={matrix_same}",
    )
    assert ok
