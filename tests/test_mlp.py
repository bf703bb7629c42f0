import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fedsim
import fedsim.mlp as mlp_mod
from fedsim import ModelParams, ModelSpec, forward, init_params, loss_and_grad, sgd_step
from fedsim.mlp import BLOCK_MACS, _activations, _row_blocks, forward_logits, unpack_params


def test_init_length_matches_shape_arithmetic():
    p = init_params(ModelSpec((4, 3, 2)), seed=0)
    assert p.values.shape == (4 * 3 + 3 + 3 * 2 + 2,)  # 23


def test_init_deterministic_and_seed_sensitive():
    spec = ModelSpec((4, 3, 2))
    a = init_params(spec, seed=7)
    b = init_params(spec, seed=7)
    assert np.array_equal(a.values, b.values)
    spec2 = ModelSpec((2, 2))
    assert not np.array_equal(init_params(spec2, 1).values, init_params(spec2, 2).values)


def test_init_within_limits_and_finite():
    spec = ModelSpec((8, 5, 3))
    p = init_params(spec, seed=3)
    assert np.all(np.isfinite(p.values))
    limit = math.sqrt(6.0 / (8 + 5))
    w1 = p.values[: 8 * 5]
    assert np.all(np.abs(w1) <= limit)


@pytest.mark.parametrize("sizes", [(4,), (3, 1), (0, 2), (4, -1, 2)])
def test_invalid_specs_rejected(sizes):
    with pytest.raises(ValueError):
        ModelSpec(sizes)


def test_params_length_validated():
    spec = ModelSpec((2, 2))
    with pytest.raises(ValueError):
        ModelParams(np.zeros(5), spec)
    with pytest.raises(ValueError):
        ModelParams(np.full(6, np.inf), spec)


def test_forward_zero_params_uniform_rows():
    spec = ModelSpec((4, 3, 5))
    p = ModelParams(np.zeros(spec.num_params), spec)
    probs, latent = forward(p, np.random.default_rng(0).normal(size=(6, 4)))
    assert np.allclose(probs, 0.2)
    assert latent.shape == (6, 3)


def test_forward_rows_normalized():
    rng = np.random.default_rng(5)
    spec = ModelSpec((3, 7, 4))
    p = init_params(spec, 11)
    probs, _ = forward(p, rng.normal(size=(20, 3)) * 5)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(probs >= 0)


def test_forward_matches_hand_computation():
    # One hidden unit, hand-set weights; oracle evaluated with scalar math.
    spec = ModelSpec((2, 1, 2))
    w1, b1 = [0.5, -0.25], 0.1
    w2, b2 = [1.0, -1.0], [0.2, -0.1]
    p = ModelParams(np.array(w1 + [b1] + w2 + b2), spec)

    x = [1.0, 2.0]
    pre = w1[0] * x[0] + w1[1] * x[1] + b1  # 0.1
    hidden = max(pre, 0.0)
    logits = [hidden * w2[0] + b2[0], hidden * w2[1] + b2[1]]
    e = [math.exp(v) for v in logits]
    expected = [e[0] / sum(e), e[1] / sum(e)]

    probs, latent = forward(p, np.array([x]))
    assert probs[0] == pytest.approx(expected, abs=1e-12)
    assert latent[0, 0] == pytest.approx(hidden, abs=1e-15)

    # Negative pre-activation: ReLU clamps the latent to zero.
    x2 = [-2.0, 1.0]
    probs2, latent2 = forward(p, np.array([x2]))
    assert latent2[0, 0] == 0.0
    e2 = [math.exp(b2[0]), math.exp(b2[1])]
    assert probs2[0] == pytest.approx([e2[0] / sum(e2), e2[1] / sum(e2)], abs=1e-12)


def test_forward_dimension_mismatch():
    p = init_params(ModelSpec((4, 2)), 0)
    with pytest.raises(ValueError):
        forward(p, np.zeros((3, 5)))


def test_unpack_params_of_a_stack_are_views_of_each_row():
    spec = ModelSpec((4, 6, 3, 2))
    stack = np.random.default_rng(5).normal(size=(3, spec.num_params))
    stacked = unpack_params(stack, spec)
    for c, row in enumerate(stack):
        for (w, b), (row_w, row_b) in zip(stacked, unpack_params(row, spec)):
            assert np.array_equal(w[c], row_w) and np.array_equal(b[c], row_b)
    for w, b in stacked:
        assert np.shares_memory(w, stack) and np.shares_memory(b, stack)
    assert [(w.shape, b.shape) for w, b in stacked] == [
        ((3, fi, fo), (3, fo)) for fi, fo in spec.layer_shapes
    ]


def test_prox_zero_reduces_to_plain_objective():
    rng = np.random.default_rng(17)
    spec = ModelSpec((3, 4, 2))
    p = init_params(spec, 1)
    x = rng.normal(size=(8, 3))
    y = rng.integers(0, 2, size=8)
    plain = loss_and_grad(p, x, y)
    anchored = loss_and_grad(p, x, y, prox_mu=0.0, anchor=init_params(spec, 9))
    assert plain[0] == anchored[0]
    assert np.array_equal(plain[1], anchored[1])


def test_prox_zero_displacement_contributes_nothing():
    rng = np.random.default_rng(3)
    spec = ModelSpec((3, 4, 2))
    p = init_params(spec, 1)
    x = rng.normal(size=(8, 3))
    y = rng.integers(0, 2, size=8)
    plain_loss, plain_grad = loss_and_grad(p, x, y)
    prox_loss, prox_grad = loss_and_grad(p, x, y, prox_mu=2.5, anchor=p.copy())
    assert prox_loss == pytest.approx(plain_loss, abs=0)
    np.testing.assert_array_equal(prox_grad, plain_grad)


def _finite_difference(p, x, y, prox_mu=0.0, anchor=None, step=1e-5):
    fd = np.zeros_like(p.values)
    for i in range(p.values.size):
        up = p.values.copy()
        up[i] += step
        down = p.values.copy()
        down[i] -= step
        lu, _ = loss_and_grad(ModelParams(up, p.spec), x, y, prox_mu, anchor)
        ld, _ = loss_and_grad(ModelParams(down, p.spec), x, y, prox_mu, anchor)
        fd[i] = (lu - ld) / (2 * step)
    return fd


def test_gradient_matches_central_finite_differences():
    rng = np.random.default_rng(2024)
    specs = [ModelSpec(s) for s in [(3, 4, 2), (2, 3, 3), (4, 2), (3, 5, 4, 3)]]
    checked = 0
    for trial in range(24):
        spec = specs[trial % len(specs)]
        p = init_params(spec, int(rng.integers(1e6)))
        x = rng.normal(size=(5, spec.input_dim))
        y = rng.integers(0, spec.num_classes, size=5)
        if trial % 3 == 0:
            mu, anchor = 0.7, init_params(spec, int(rng.integers(1e6)))
        else:
            mu, anchor = 0.0, None
        _, grad = loss_and_grad(p, x, y, mu, anchor)
        fd = _finite_difference(p, x, y, mu, anchor)
        denom = np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-6)
        assert np.max(np.abs(grad - fd) / denom) < 1e-4
        checked += 1
    assert checked >= 20


def test_loss_rejects_bad_inputs():
    spec = ModelSpec((2, 2))
    p = init_params(spec, 0)
    with pytest.raises(ValueError):
        loss_and_grad(p, np.zeros((2, 2)), np.array([0, 5]))
    with pytest.raises(ValueError):
        loss_and_grad(p, np.full((2, 2), np.nan), np.array([0, 1]))
    with pytest.raises(ValueError):
        loss_and_grad(p, np.zeros((2, 2)), np.array([0, 1]), prox_mu=1.0)


def test_sgd_step_fixed_point_and_hand_value():
    spec = ModelSpec((2, 2))
    p = init_params(spec, 4)
    same = sgd_step(p, np.zeros(spec.num_params), lr=0.3)
    assert np.array_equal(same.values, p.values)

    vec = ModelParams(np.full(spec.num_params, 1.0), spec)
    stepped = sgd_step(vec, np.full(spec.num_params, 2.0), lr=0.5)
    assert np.array_equal(stepped.values, np.zeros(spec.num_params))


def test_sgd_step_rejects_bad_lr_and_grad():
    spec = ModelSpec((2, 2))
    p = init_params(spec, 4)
    with pytest.raises(ValueError):
        sgd_step(p, np.zeros(spec.num_params), lr=0.0)
    with pytest.raises(ValueError):
        sgd_step(p, np.zeros(spec.num_params), lr=-0.1)
    bad = np.zeros(spec.num_params)
    bad[0] = np.inf
    with pytest.raises(ValueError):
        sgd_step(p, bad, lr=0.1)


def test_training_loop_bit_identical_across_repeats():
    spec = ModelSpec((3, 4, 2))
    data_rng = np.random.default_rng(8)
    x = data_rng.normal(size=(12, 3))
    y = data_rng.integers(0, 2, size=12)

    def train():
        p = init_params(spec, 55)
        rng = np.random.default_rng(99)
        lr = 0.05
        for _ in range(4):
            order = rng.permutation(12)
            for s in range(0, 12, 4):
                sel = order[s : s + 4]
                _, g = loss_and_grad(p, x[sel], y[sel])
                p = sgd_step(p, g, lr)
            lr *= 0.9
        return p.values

    assert np.array_equal(train(), train())


def test_no_nan_inf_escapes_on_finite_inputs():
    rng = np.random.default_rng(31)
    spec = ModelSpec((4, 8, 3))
    p = init_params(spec, 6)
    x = rng.normal(size=(10, 4)) * 100
    y = rng.integers(0, 3, size=10)
    probs, latent = forward(p, x)
    loss, grad = loss_and_grad(p, x, y)
    assert np.all(np.isfinite(probs)) and np.all(np.isfinite(latent))
    assert math.isfinite(loss) and np.all(np.isfinite(grad))


def _random_model(spec, rows, seed):
    rng = np.random.default_rng(seed)
    return ModelParams(rng.normal(size=spec.num_params), spec), rng.normal(size=(rows, spec.input_dim))


# Narrow output layers, 256-wide hidden layers, and rows spanning one to five
# blocks. Specs whose least fan_in * fan_out is under 320 (blocks of over 3277
# rows) are left out, and so are examples with over 2**21 hidden activations.
@settings(max_examples=30, deadline=None)
@given(
    sizes=st.tuples(
        st.sampled_from([16, 32]),
        st.lists(st.sampled_from([32, 256]), max_size=2),
        st.sampled_from([2, 10, 20]),
    ).map(lambda t: (t[0], *t[1], t[2])),
    blocks=st.integers(1, 5),
    extra=st.integers(0, 2**16),
    seed=st.integers(0, 2**32 - 1),
)
@example(sizes=(32, 10), blocks=2, extra=0, seed=0)  # 2048-row chunks of 32 -> 10 differ
@example(sizes=(32, 256, 256, 10), blocks=5, extra=409, seed=1)  # wide-scaffold's model
@example(sizes=(32, 256, 2), blocks=3, extra=5, seed=2)
def test_blocked_logits_have_the_bytes_of_one_whole_batch_pass(sizes, blocks, extra, seed):
    spec = ModelSpec(sizes)
    least = min(fi * fo for fi, fo in spec.layer_shapes)
    assume(least >= 320)
    per_block = -(-BLOCK_MACS // least)
    rows = blocks * per_block + extra % per_block
    assume(rows * sum(sizes[1:-1]) <= 2**21)
    assert _row_blocks(spec, rows) == blocks
    params, x = _random_model(spec, rows, seed)
    whole = _activations(unpack_params(params.values, spec), x)[1]
    assert forward_logits(params, x).tobytes() == whole.tobytes()


def test_row_blocks_are_near_equal_and_each_gemm_passes_the_cutoff(monkeypatch):
    # wide-scaffold's scoring: 10,000 test rows through a (32, 256, 256, 10) model.
    spec = ModelSpec((32, 256, 256, 10))
    params, x = _random_model(spec, 10_000, 3)
    seen = []
    activations = mlp_mod._activations

    def counted(layers, part):
        seen.append(len(part))
        return activations(layers, part)

    monkeypatch.setattr(mlp_mod, "_activations", counted)
    forward_logits(params, x)
    assert len(seen) == _row_blocks(spec, 10_000) == 24
    assert sum(seen) == 10_000 and set(seen) == {416, 417}
    assert min(seen) * 256 * 10 >= BLOCK_MACS
    assert _row_blocks(spec, 409) == _row_blocks(spec, 0) == 1


_BLOCKED_SCORES = """
import hashlib
import numpy as np
from fedsim import Dataset, ModelParams, ModelSpec, evaluate_global
from fedsim.mlp import _row_blocks, forward_logits

spec = ModelSpec((32, 256, 256, 10))
rng = np.random.default_rng(27)
params = ModelParams(rng.normal(scale=0.1, size=spec.num_params), spec)
rows = 3 * 410 + 7
test = Dataset(rng.normal(size=(rows, 32)), rng.integers(0, 10, size=rows), 10)
assert _row_blocks(spec, rows) == 3
logits = forward_logits(params, test.features)
print(hashlib.sha256(logits.tobytes()).hexdigest(), *map(repr, evaluate_global(params, test)))
"""


def _blocked_scores_in_subprocess(threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(fedsim.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", _BLOCKED_SCORES], env=env, capture_output=True, text=True, check=True
    )
    return proc.stdout.split()


def test_multi_block_scores_do_not_depend_on_blas_threads():
    one = _blocked_scores_in_subprocess(1)
    assert len(one) == 3 and len(one[0]) == 64
    assert _blocked_scores_in_subprocess(2) == one
