"""Representation similarity probes: latent distances and CKA heatmaps.

After the clustering pre-pass, clients grouped together should have learned
similar high-level features. Two checks on a shared probe batch:

  * mean Euclidean distance between per-client mean latent vectors, within
    clusters vs under size-preserving random relabelings;
  * layer-by-layer linear CKA for a same-cluster pair vs a cross-cluster pair.

Run:  python3 demos/06_representation_probes.py
"""

from fedsim import (
    ModelSpec,
    ServerState,
    TrainConfig,
    cka_layer_map,
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

    labels = pre.assignment.labels
    partner = next(i for i in range(1, 24) if labels[i] == labels[0])
    stranger = next(i for i in range(1, 24) if labels[i] != labels[0])

    def show(title, grid):
        print(f"\n{title}")
        print("            " + "  ".join(f"layer{j}" for j in range(grid.shape[1])))
        for i, row in enumerate(grid):
            print(f"    layer{i}  " + "  ".join(f"{v:6.3f}" for v in row))

    show(
        f"CKA, same cluster (client 0 vs {partner})",
        cka_layer_map(pre.updates[0].new_params, pre.updates[partner].new_params, probe),
    )
    show(
        f"CKA, different cluster (client 0 vs {stranger})",
        cka_layer_map(pre.updates[0].new_params, pre.updates[stranger].new_params, probe),
    )


if __name__ == "__main__":
    main()
