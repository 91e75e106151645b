import numpy as np
import pytest
from conftest import CORRUPT_CHECKPOINT_KINDS, write_corrupt_checkpoints

from crossmodal.core import RngStream
from crossmodal.errors import ConfigError, DimensionError, StateError
from crossmodal.model import (
    BN_EPS,
    TRAINABLE,
    ModelGrads,
    backward,
    extract_test_features,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
    update_bn_stats,
)
from crossmodal.optim import init_optim_state, step


def make_params(rng, in_dim=5, hidden=6, embed=4, classes=3):
    return init_params(in_dim, hidden, embed, classes, rng)


def test_init_shapes_and_defaults(rng):
    p = make_params(rng)
    assert p.w1.shape == (5, 6) and p.b1.shape == (6,)
    assert p.w2.shape == (6, 4) and p.b2.shape == (4,)
    assert p.wc.shape == (4, 3) and p.bc.shape == (3,)
    assert np.array_equal(p.b1, np.zeros(6))
    assert np.array_equal(p.bn_gamma, np.ones(4))
    assert np.array_equal(p.bn_running_var, np.ones(4))
    assert p.in_dim == 5 and p.hidden_dim == 6 and p.embed_dim == 4 and p.n_classes == 3
    with pytest.raises(ConfigError):
        init_params(0, 6, 4, 3, rng)


def test_forward_matches_hand_rolled_math(rng):
    p = make_params(rng)
    x = rng.normal(size=(7, 5))
    emb, bn, logits, trace = forward(p, x)
    want_emb = np.maximum(x @ p.w1 + p.b1, 0) @ p.w2 + p.b2
    assert np.allclose(emb, want_emb, atol=1e-12)
    mean, var = want_emb.mean(axis=0), want_emb.var(axis=0)
    want_bn = p.bn_gamma * (want_emb - mean) / np.sqrt(var + BN_EPS) + p.bn_beta
    assert np.allclose(bn, want_bn, atol=1e-12)
    assert np.allclose(logits, want_bn @ p.wc + p.bc, atol=1e-12)
    # train-mode normalization really does center and scale
    assert np.allclose(bn.mean(axis=0), p.bn_beta, atol=1e-9)


def test_relu_clamps_hidden_activations(rng):
    p = make_params(rng)
    x = rng.normal(size=(6, 5))
    _, _, _, trace = forward(p, x)
    assert trace.a1.min() >= 0.0
    assert np.array_equal(trace.a1, np.maximum(trace.z1, 0.0))


def test_eval_mode_uses_running_stats_and_is_rowwise(rng):
    p = make_params(rng)
    p.bn_running_mean[:] = rng.normal(size=4)
    p.bn_running_var[:] = 0.5 + rng.normal(size=4) ** 2
    x = rng.normal(size=(6, 5))
    bn_all = extract_test_features(p, x)
    emb = np.maximum(x @ p.w1 + p.b1, 0) @ p.w2 + p.b2
    want = p.bn_gamma * (emb - p.bn_running_mean) / np.sqrt(p.bn_running_var + BN_EPS)
    assert np.allclose(bn_all, want + p.bn_beta, atol=1e-12)
    for i in range(6):
        # table lookup per row: a one-row batch agrees to matmul rounding
        bn_one = extract_test_features(p, x[i : i + 1])
        assert np.allclose(bn_one[0], bn_all[i], atol=1e-12)


def test_forward_mode_and_shape_errors(rng):
    p = make_params(rng)
    with pytest.raises(DimensionError):
        forward(p, np.zeros((4, 3)))
    with pytest.raises(DimensionError):
        extract_test_features(p, np.zeros((4, 3)))
    with pytest.raises(ConfigError):
        forward(p, np.zeros((1, 5)))  # batch statistics need 2 rows
    bad = make_params(rng)
    bad.bn_running_var[0] = 0.0
    with pytest.raises(StateError):
        extract_test_features(bad, np.zeros((4, 5)))


def test_backward_rejects_mismatched_upstreams(rng):
    p = make_params(rng)
    x = rng.normal(size=(6, 5))
    _, _, _, trace = forward(p, x)
    with pytest.raises(DimensionError):
        backward(trace, p, d_embeddings=np.zeros((6, 3)))
    with pytest.raises(DimensionError):
        backward(trace, p, d_logits=np.zeros((6, 4)))


def test_backward_paths_are_additive(rng):
    p = make_params(rng)
    x = rng.normal(size=(6, 5))
    _, _, _, trace = forward(p, x)
    d_emb = rng.normal(size=(6, 4))
    d_logits = rng.normal(size=(6, 3))
    both = backward(trace, p, d_embeddings=d_emb, d_logits=d_logits)
    only_e = backward(trace, p, d_embeddings=d_emb)
    only_l = backward(trace, p, d_logits=d_logits)
    for name in TRAINABLE:
        assert np.allclose(
            getattr(both, name),
            getattr(only_e, name) + getattr(only_l, name),
            atol=1e-12,
        )


def test_update_bn_stats_formula(rng):
    p = make_params(rng)
    x = rng.normal(size=(6, 5))
    _, _, _, trace = forward(p, x)
    before_mean = p.bn_running_mean.copy()
    before_var = p.bn_running_var.copy()
    update_bn_stats(p, trace, momentum=0.25)
    n = 6
    assert np.allclose(
        p.bn_running_mean, 0.75 * before_mean + 0.25 * trace.mean, atol=1e-12
    )
    assert np.allclose(
        p.bn_running_var,
        0.75 * before_var + 0.25 * trace.var * n / (n - 1),
        atol=1e-12,
    )


def test_update_bn_stats_guards(rng):
    p = make_params(rng)
    _, _, _, trace = forward(p, rng.normal(size=(6, 5)))
    with pytest.raises(ConfigError):
        update_bn_stats(p, trace, momentum=0.0)
    with pytest.raises(ConfigError):
        update_bn_stats(p, trace, momentum=1.5)


def test_params_copy_is_deep(rng):
    p = make_params(rng)
    q = p.copy()
    q.w1 += 1.0
    assert not np.array_equal(p.w1, q.w1)


def _assert_packed(tensors):
    for name in TRAINABLE:
        assert np.shares_memory(getattr(tensors, name), tensors.flat), name
    want = np.concatenate([getattr(tensors, name).ravel() for name in TRAINABLE])
    assert tensors.flat.dtype == np.float64 and np.array_equal(tensors.flat, want)


def test_adopted_gradients_are_views_of_the_given_buffer(rng):
    p = make_params(rng)
    flat = rng.normal(size=p.flat.size)
    grads = ModelGrads.adopt(flat, p)
    assert grads.flat is flat
    _assert_packed(grads)
    for name in TRAINABLE:
        assert grads[name].shape == getattr(p, name).shape
    # backward fills a new buffer on every call, and the same inputs fill it the same
    _, _, _, trace = forward(p, rng.normal(size=(6, 5)))
    d_emb, d_logits = rng.normal(size=(6, 4)), rng.normal(size=(6, 3))
    first = backward(trace, p, d_embeddings=d_emb, d_logits=d_logits)
    again = backward(trace, p, d_embeddings=d_emb, d_logits=d_logits)
    assert first.flat.tobytes() == again.flat.tobytes()
    assert not np.shares_memory(first.flat, again.flat)


def test_trainable_tensors_are_views_of_one_flat_vector(rng, tmp_path):
    p = make_params(rng)
    _, _, _, trace = forward(p, rng.normal(size=(6, 5)))
    grads = backward(trace, p, d_logits=rng.normal(size=(6, 3)))
    state = init_optim_state(p)
    path = tmp_path / "model.npz"
    save_checkpoint(path, p, state)
    loaded, opt = load_checkpoint(path)
    for tensors in (p, grads, state.m, state.v, loaded, opt.m, opt.v):
        _assert_packed(tensors)
    assert not np.shares_memory(p.bn_running_mean, p.flat)
    assert not np.shares_memory(p.bn_running_var, p.flat)
    q = p.copy()
    _assert_packed(q)
    assert np.array_equal(q.flat, p.flat) and not np.shares_memory(q.flat, p.flat)
    assert not np.shares_memory(q.bn_running_mean, p.bn_running_mean)
    assert not np.shares_memory(q.bn_running_var, p.bn_running_var)


def test_checkpoint_roundtrip_params_only(rng, tmp_path):
    p = make_params(rng)
    path = tmp_path / "model.npz"
    save_checkpoint(path, p)
    loaded, opt = load_checkpoint(path)
    assert opt is None
    for name in (*TRAINABLE, "bn_running_mean", "bn_running_var"):
        assert np.array_equal(getattr(loaded, name), getattr(p, name)), name


def test_checkpoint_roundtrip_with_optimizer(rng, tmp_path):
    p = make_params(rng)
    state = init_optim_state(p, base_lr=0.01, weight_decay=0.001)
    x = rng.normal(size=(6, 5))
    _, _, _, trace = forward(p, x)
    grads = backward(trace, p, d_logits=rng.normal(size=(6, 3)))
    step(state, p, grads)
    path = tmp_path / "model.npz"
    save_checkpoint(path, p, state)
    loaded, opt = load_checkpoint(path)
    assert opt.step_count == 1
    assert (opt.base_lr, opt.beta1, opt.beta2) == (0.01, 0.9, 0.999)
    assert opt.weight_decay == 0.001
    for name in TRAINABLE:
        assert np.array_equal(opt.m[name], state.m[name]), name
        assert np.array_equal(opt.v[name], state.v[name]), name
    # resumed training continues bit-for-bit
    grads2 = backward(trace, loaded, d_logits=np.ones((6, 3)))
    step(opt, loaded, grads2)
    step(state, p, backward(trace, p, d_logits=np.ones((6, 3))))
    for name in TRAINABLE:
        assert np.array_equal(getattr(loaded, name), getattr(p, name)), name


@pytest.mark.parametrize("kind", CORRUPT_CHECKPOINT_KINDS)
def test_corrupt_checkpoint_raises_state_error(tmp_path, kind):
    path, fragment = write_corrupt_checkpoints(tmp_path)[kind]
    with pytest.raises(StateError) as info:
        load_checkpoint(path)
    assert str(path) in str(info.value) and fragment in str(info.value)


def test_checkpoint_rejects_future_version(rng, tmp_path):
    p = make_params(rng)
    path = tmp_path / "model.npz"
    save_checkpoint(path, p)
    data = dict(np.load(path))
    data["format_version"] = np.array(99)
    with open(path, "wb") as fh:
        np.savez(fh, **data)
    with pytest.raises(StateError):
        load_checkpoint(path)
