"""Dense feed-forward classifier operating on a flat float64 parameter vector.

Forward pass, softmax cross-entropy with analytic gradients (optionally with a
proximal penalty toward an anchor vector), and plain SGD steps. The public
functions validate their inputs and return new arrays. `loss_and_grad` is the
reference backprop: `engine.train_clients` runs the same arithmetic, operation
for operation, on stacks of clients, and `unpack_params` gives it per-layer
views of those stacks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Applied before any explicit log of a probability.
PROB_FLOOR = 1e-12
# Least multiply-adds per layer GEMM of a `forward_logits` row block: above
# OpenBLAS's 10**6 small-matrix cutoff a row's bits do not depend on the row count.
BLOCK_MACS = 2**20


@dataclass(frozen=True)
class ModelSpec:
    """Layer widths from input to output; hidden layers are ReLU, output is softmax."""

    layer_sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 2:
            raise ValueError("model needs at least an input and an output layer")
        if any(s <= 0 for s in sizes):
            raise ValueError(f"layer sizes must be positive, got {sizes}")
        if sizes[-1] < 2:
            raise ValueError("output layer needs at least 2 classes")

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def num_classes(self) -> int:
        return self.layer_sizes[-1]

    @property
    def layer_shapes(self) -> list[tuple[int, int]]:
        return list(zip(self.layer_sizes[:-1], self.layer_sizes[1:]))

    @property
    def num_params(self) -> int:
        return sum(fi * fo + fo for fi, fo in self.layer_shapes)


@dataclass
class ModelParams:
    """Flat weight+bias vector (per layer: row-major W then b), always finite."""

    values: np.ndarray
    spec: ModelSpec

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.spec.num_params,):
            raise ValueError(
                f"parameter vector has length {v.shape}, spec needs {self.spec.num_params}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("parameters must be finite")
        self.values = v

    def copy(self) -> "ModelParams":
        return ModelParams(self.values.copy(), self.spec)


def init_params(spec: ModelSpec, seed) -> ModelParams:
    """Seeded scaled-uniform weights (±sqrt(6/(fan_in+fan_out))), zero biases."""
    rng = np.random.default_rng(seed)
    chunks = []
    for fan_in, fan_out in spec.layer_shapes:
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        chunks.append(rng.uniform(-limit, limit, size=fan_in * fan_out))
        chunks.append(np.zeros(fan_out))
    return ModelParams(np.concatenate(chunks), spec)


def unpack_params(values: np.ndarray, spec: ModelSpec) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer (W, b) views of vectors laid out like the parameters.

    The layout runs along the last axis, so a (clients, num_params) stack
    gives (clients, fan_in, fan_out) weights and (clients, fan_out) biases.
    """
    lead = values.shape[:-1]
    layers = []
    offset = 0
    for fan_in, fan_out in spec.layer_shapes:
        w = values[..., offset : offset + fan_in * fan_out].reshape(*lead, fan_in, fan_out)
        offset += fan_in * fan_out
        b = values[..., offset : offset + fan_out]
        offset += fan_out
        layers.append((w, b))
    return layers


def _check_batch(params: ModelParams, batch) -> np.ndarray:
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"batch must be 2-d, got shape {x.shape}")
    if x.shape[1] != params.spec.input_dim:
        raise ValueError(
            f"batch has {x.shape[1]} features, model expects {params.spec.input_dim}"
        )
    return x


def _check_training_batch(params: ModelParams, batch, labels) -> tuple[np.ndarray, np.ndarray]:
    """Validated float features and labels for a loss/gradient evaluation.

    The batch must match the model's input width and be finite; labels need
    one entry per row, each a class index of the model.
    """
    x = _check_batch(params, batch)
    if not np.all(np.isfinite(x)):
        raise ValueError("batch contains non-finite values")
    y = np.asarray(labels)
    if y.shape != (x.shape[0],):
        raise ValueError("labels must match the batch row count")
    if y.min() < 0 or y.max() >= params.spec.num_classes:
        raise ValueError("labels out of range")
    return x, y


def _activations(layers, x: np.ndarray):
    """All post-activation layer inputs plus the output logits.

    The bias and the ReLU are applied in place on each fresh GEMM output, so
    a layer costs one activation-sized array.
    """
    acts = [x]
    h = x
    for w, b in layers[:-1]:
        h = h @ w
        h += b
        np.maximum(h, 0.0, out=h)
        acts.append(h)
    w, b = layers[-1]
    logits = h @ w
    logits += b
    return acts, logits


def softmax(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise softmax over the last axis, into `out` if given (`out` may be `logits`).

    Every step works row by row, so a row's bytes do not depend on the rows
    or batches around it.
    """
    z = np.subtract(logits, logits.max(axis=-1, keepdims=True), out=out)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax over the last axis (a batch, or a stack of batches)."""
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def forward(params: ModelParams, batch) -> tuple[np.ndarray, np.ndarray]:
    """Softmax probabilities and the latent (post-activation penultimate) layer.

    For a model without hidden layers the latent is the input itself.
    """
    x = _check_batch(params, batch)
    acts, logits = _activations(unpack_params(params.values, params.spec), x)
    return softmax(logits), acts[-1]


def _row_blocks(spec: ModelSpec, rows: int) -> int:
    """`forward_logits`'s row blocks: rows // ceil(BLOCK_MACS / least fan_in * fan_out), at least 1."""
    return max(1, rows // -(-BLOCK_MACS // min(fi * fo for fi, fo in spec.layer_shapes)))


def forward_logits(params: ModelParams, batch) -> np.ndarray:
    """The output layer's values before the softmax: `forward`'s probabilities are their `softmax`.

    Rows run in `_row_blocks` near-equal blocks, so one block's activations, and
    OpenBLAS's packed copy of one, are held at a time. Each block's layer GEMMs
    are the whole batch's or do at least BLOCK_MACS multiply-adds: same bytes.
    """
    x = _check_batch(params, batch)
    layers = unpack_params(params.values, params.spec)
    parts = np.array_split(x, _row_blocks(params.spec, len(x)))
    return np.concatenate([_activations(layers, part)[1] for part in parts])


def loss_and_grad(
    params: ModelParams,
    batch,
    labels,
    prox_mu: float = 0.0,
    anchor: ModelParams | None = None,
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy (plus prox_mu/2·‖params−anchor‖²) and its gradient."""
    x, y = _check_training_batch(params, batch, labels)
    if prox_mu < 0:
        raise ValueError("prox_mu must be >= 0")
    if prox_mu > 0 and anchor is None:
        raise ValueError("prox_mu > 0 requires an anchor")
    if prox_mu > 0 and anchor.values.shape != params.values.shape:
        raise ValueError("anchor length must match params")

    layers = unpack_params(params.values, params.spec)
    acts, logits = _activations(layers, x)
    m = x.shape[0]
    rows = np.arange(m)
    logp = log_softmax(logits)
    loss = -float(logp[rows, y].mean())

    grad = np.empty_like(params.values)
    grad_layers = unpack_params(grad, params.spec)
    d = np.exp(logp)
    d[rows, y] -= 1.0
    d /= m
    for li in range(len(layers) - 1, -1, -1):
        gw, gb = grad_layers[li]
        np.matmul(acts[li].T, d, out=gw)
        d.sum(axis=0, out=gb)
        if li > 0:
            d = (d @ layers[li][0].T) * (acts[li] > 0)
    if prox_mu > 0:
        diff = params.values - anchor.values
        grad += prox_mu * diff
        loss += 0.5 * prox_mu * float(diff @ diff)
    return loss, grad


def sgd_step(params: ModelParams, grad: np.ndarray, lr: float) -> ModelParams:
    """One gradient step; any learning-rate decay schedule is owned by the caller."""
    g = np.asarray(grad, dtype=np.float64)
    if g.shape != params.values.shape:
        raise ValueError("gradient length must match params")
    if not np.all(np.isfinite(g)):
        raise ValueError("gradient contains non-finite values")
    if not lr > 0:
        raise ValueError("learning rate must be > 0")
    return ModelParams(params.values - lr * g, params.spec)
