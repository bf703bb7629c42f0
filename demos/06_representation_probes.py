"""Representation similarity probe: latent distances within clusters.

After the clustering pre-pass, clients grouped together should have learned
similar high-level features. On a shared probe batch, the demo compares the
mean Euclidean distance between per-client mean latent vectors within
clusters against the same distance under size-preserving random relabelings.
The clustering itself reads soft labels, not these latent features.

Run:  python3 demos/06_representation_probes.py
"""

from fedsim import (
    ModelSpec,
    ServerState,
    TrainConfig,
    forward,
    init_params,
    latent_cluster_gap,
    make_clients,
    partition_manual,
    preprocess,
    synth_blobs,
    synth_public,
)

GROUPS = [(5, [0, 1]), (5, [2, 3]), (5, [4, 5]), (5, [6, 7]), (4, [8, 9])]


def main():
    seed = 33
    train = synth_blobs(10, 16, 100, spread=1.0, seed=[seed, 1])
    probe = synth_blobs(10, 16, 40, spread=1.0, seed=[seed, 2]).features
    public = synth_public(16, 1000, seed=[seed, 3])
    clients = make_clients(partition_manual(train, GROUPS))
    server = ServerState(init_params(ModelSpec((16, 32, 10)), [seed, 4]))
    cfg = TrainConfig(epochs=10, batch_size=8, lr=0.1, decay=0.99, master_seed=seed)
    pre = preprocess(clients, train, public, server, cfg, cluster_k=5)

    latents = [forward(u.new_params, probe)[1] for u in pre.updates]
    intra, rand = latent_cluster_gap(latents, pre.assignment, seed=seed)
    print(f"latent distance within clusters: {intra:.4f}")
    print(f"latent distance, random groups : {rand:.4f}   (20 relabelings)")


if __name__ == "__main__":
    main()
