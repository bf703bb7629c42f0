"""The four aggregation rules side by side, plus their reduction identities.

fedprox with mu=0, scaffold with zero control variates, and fednova with equal
local step counts all collapse to plain fedavg, bit for bit.

Run:  python3 demos/04_aggregators.py
"""

import numpy as np

from fedsim import (
    ModelSpec,
    ServerState,
    TrainConfig,
    evaluate_global,
    init_params,
    make_clients,
    partition_dirichlet,
    run_round,
    synth_blobs,
    uniform_sample,
)


def fresh(clients):
    from fedsim import ClientState

    return [ClientState(c.id, c.data.copy()) for c in clients]


def main():
    seed = 9
    train = synth_blobs(5, 8, 100, spread=1.0, seed=[seed, 1])
    test = synth_blobs(5, 8, 40, spread=1.0, seed=[seed, 1])  # same means, fresh noise
    part = partition_dirichlet(train, 12, beta=0.5, seed=[seed, 5])
    clients = make_clients(part)
    spec = ModelSpec((8, 16, 5))
    init = init_params(spec, [seed, 4])

    print("algorithm  acc@r1  acc@r5  acc@r10")
    for algorithm in ("fedavg", "fedprox", "scaffold", "fednova"):
        cfg = TrainConfig(
            algorithm=algorithm, epochs=5, batch_size=16, lr=0.05,
            prox_mu=0.1 if algorithm == "fedprox" else 0.0, master_seed=seed,
        )
        control = np.zeros(spec.num_params) if algorithm == "scaffold" else None
        server = ServerState(init.copy(), control, 0, seed)
        local = fresh(clients)
        accs = []
        for r in range(1, 11):
            plan = uniform_sample(12, 6, r, seed)
            server, _ = run_round(server, local, train, plan, cfg)
            accs.append(evaluate_global(server.global_params, test)[0])
        print(f"{algorithm:9s}  {accs[0]:.3f}   {accs[4]:.3f}   {accs[9]:.3f}")

    # Reduction identities: one round under shared seeds.
    plan = uniform_sample(12, 6, 1, seed)
    outputs = {}
    for algorithm, extra in [
        ("fedavg", {}),
        ("fedprox", {"prox_mu": 0.0}),
        ("scaffold", {}),
    ]:
        cfg = TrainConfig(algorithm=algorithm, epochs=3, batch_size=16, lr=0.05,
                          master_seed=seed, **extra)
        control = np.zeros(spec.num_params) if algorithm == "scaffold" else None
        server, _ = run_round(
            ServerState(init.copy(), control, 0, seed), fresh(clients), train, plan, cfg
        )
        outputs[algorithm] = server.global_params.values
    print("\nfedprox(mu=0)  == fedavg:",
          np.array_equal(outputs["fedprox"], outputs["fedavg"]))
    print("scaffold(c=0)  == fedavg:",
          np.array_equal(outputs["scaffold"], outputs["fedavg"]))

    # fednova with equal step counts: same batch count for all clients.
    even = synth_blobs(5, 8, 60, spread=1.0, seed=[seed, 7])
    even_part = partition_dirichlet(even, 6, beta=1e6, seed=[seed, 8])
    even_clients = make_clients(even_part)
    outs = {}
    for algorithm in ("fedavg", "fednova"):
        cfg = TrainConfig(algorithm=algorithm, epochs=2, batch_size=64, lr=0.05,
                          master_seed=seed)
        server, _ = run_round(
            ServerState(init.copy(), None, 0, seed), fresh(even_clients), even,
            uniform_sample(6, 4, 1, seed), cfg,
        )
        outs[algorithm] = server.global_params.values
    print("fednova(eq τ)  == fedavg:", np.array_equal(outs["fednova"], outs["fedavg"]))


if __name__ == "__main__":
    main()
