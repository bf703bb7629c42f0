import math

import numpy as np
import pytest

from fedsim import ModelParams, ModelSpec, forward, init_params, loss_and_grad, sgd_step
from fedsim.mlp import unpack_params


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
