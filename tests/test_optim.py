import warnings

import numpy as np
import pytest

import oracles
from crossmodal.core import RngStream
from crossmodal.errors import ConfigError, NumericError
from crossmodal.model import TRAINABLE, ModelGrads, init_params
from crossmodal.optim import cosine_lr, init_optim_state, step


def make_setup(seed=0):
    rng = RngStream(seed)
    params = init_params(4, 5, 3, 2, rng)
    grads = ModelGrads(
        *(rng.normal(size=getattr(params, name).shape) for name in TRAINABLE)
    )
    return params, grads


def test_init_state_shapes_and_validation():
    params, _ = make_setup()
    state = init_optim_state(params, base_lr=0.01)
    assert state.step_count == 0
    for name in TRAINABLE:
        m, v = getattr(state.m, name), getattr(state.v, name)
        assert m.shape == getattr(params, name).shape
        assert not m.any() and not v.any()
    with pytest.raises(ConfigError):
        init_optim_state(params, base_lr=-1.0)
    with pytest.raises(ConfigError):
        init_optim_state(params, weight_decay=np.inf)


def test_step_matches_scalar_oracle():
    params, grads = make_setup()
    state = init_optim_state(params, base_lr=0.05, weight_decay=0.01)
    snapshots = {n: getattr(params, n).copy() for n in TRAINABLE}
    oracle_m = {n: np.zeros_like(snapshots[n]).ravel().tolist() for n in TRAINABLE}
    oracle_v = {n: np.zeros_like(snapshots[n]).ravel().tolist() for n in TRAINABLE}
    oracle_p = {n: snapshots[n].ravel().tolist() for n in TRAINABLE}
    for t in (1, 2, 3):
        step(state, params, grads, 0.05)
        for name in TRAINABLE:
            oracle_p[name], oracle_m[name], oracle_v[name] = oracles.adamw_step(
                oracle_p[name],
                getattr(grads, name).ravel().tolist(),
                oracle_m[name],
                oracle_v[name],
                t,
                0.05,
                0.9,
                0.999,
                1e-8,
                0.01,
            )
            assert np.allclose(
                getattr(params, name).ravel(), oracle_p[name], atol=1e-12
            ), name
            assert np.allclose(getattr(state.m, name).ravel(), oracle_m[name], atol=1e-12)
            assert np.allclose(getattr(state.v, name).ravel(), oracle_v[name], atol=1e-12)
    assert state.step_count == 3


def test_decay_only_step():
    # zero gradient: the update reduces to pure decoupled decay
    params, _ = make_setup()
    params.w1[...] = 1.0
    zero = ModelGrads(*(np.zeros_like(getattr(params, n)) for n in TRAINABLE))
    state = init_optim_state(params, base_lr=0.1, weight_decay=0.01)
    step(state, params, zero, 0.1)
    assert np.allclose(params.w1, 0.999, atol=1e-15)


@pytest.mark.parametrize("lr", [-0.1, np.nan, np.inf])
def test_bad_learning_rate_is_refused_before_any_write(lr):
    params, grads = make_setup()
    state = init_optim_state(params)
    step(state, params, grads, state.base_lr)  # warm the moments
    before = [t.copy() for t in (params.flat, state.m.flat, state.v.flat)]
    with pytest.raises(ConfigError, match="^learning rate must be finite and >= 0"):
        step(state, params, grads, lr=lr)
    assert state.step_count == 1
    for now, then in zip((params.flat, state.m.flat, state.v.flat), before):
        assert now.tobytes() == then.tobytes()


def test_nonfinite_gradient_rejects_whole_step():
    params, grads = make_setup()
    state = init_optim_state(params)
    step(state, params, grads, state.base_lr)  # warm the moments
    before_p = {n: getattr(params, n).copy() for n in TRAINABLE}
    before_m = {n: getattr(state.m, n).copy() for n in TRAINABLE}
    grads.w2[0, 0] = np.nan
    with pytest.raises(NumericError, match="w2"):
        step(state, params, grads, state.base_lr)
    assert state.step_count == 1
    for name in TRAINABLE:
        assert np.array_equal(getattr(params, name), before_p[name]), name
        assert np.array_equal(getattr(state.m, name), before_m[name]), name


def test_overflowing_step_names_parameter_and_step():
    params, grads = make_setup()
    state = init_optim_state(params, base_lr=1e300)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="^non-finite parameter w1 after step 1$"):
            step(state, params, grads, state.base_lr)
    assert state.step_count == 1


def test_overflowing_step_raises_without_a_numpy_warning():
    params, grads = make_setup()
    state = init_optim_state(params, base_lr=1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="^non-finite parameter w1 after step 1$"):
            step(state, params, grads, state.base_lr)


def test_cosine_lr_endpoints_and_midpoint():
    assert cosine_lr(0, 10, 1.0, 0.1) == pytest.approx(1.0)
    assert cosine_lr(10, 10, 1.0, 0.1) == pytest.approx(0.1)
    assert cosine_lr(5, 10, 1.0, 0.1) == pytest.approx(0.55)


def test_cosine_lr_monotone_decreasing():
    values = [cosine_lr(e, 40, 3e-4, 3e-6) for e in range(41)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert min(values) == values[-1]


def test_cosine_lr_rejects_bad_arguments():
    with pytest.raises(ConfigError):
        cosine_lr(0, 0, 1.0, 0.1)
    with pytest.raises(ConfigError):
        cosine_lr(11, 10, 1.0, 0.1)
    with pytest.raises(ConfigError):
        cosine_lr(-1, 10, 1.0, 0.1)
    with pytest.raises(ConfigError):
        cosine_lr(0, 10, 0.1, 1.0)  # min above base
