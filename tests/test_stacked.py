"""Stacked calls: slice s of every output equals the 2-D call on slice s, bit for bit.

Every public loss, ``compute_centers``, both stage objectives, ``forward`` /
``backward`` and ``loss_and_grads`` take a leading stack axis. They are
checked at the gradient checker's shapes (18-row batches, 12 rows for the
model) and on a 64-row ``sample_batch`` batch, whose global triplet mines
through the certified route above ``core._BLOCK`` rows. The functions that
take one model (``update_bn_stats``, ``optim.step``, ``save_checkpoint``)
refuse a stack by name before they write anything, the ``ModelParams`` and
``ModelGrads`` constructors refuse one by name, and ``ModelParams.copy``
keeps a stack's layout.
"""

from dataclasses import fields, replace

import numpy as np
import pytest

from crossmodal import core, gradcheck, losses, synthdata
from crossmodal.batch import BatchSpec, Stage, sample_batch
from crossmodal.core import _BLOCK, RngStream
from crossmodal.errors import DimensionError
from crossmodal.losses import LossConfig
from crossmodal.model import (
    ModelGrads,
    ModelParams,
    backward,
    forward,
    init_params,
    save_checkpoint,
    update_bn_stats,
)
from crossmodal.optim import init_optim_state, step
from crossmodal.trainer import loss_and_grads

S = 6


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_slices(stacked, one, s):
    """``stacked``'s slice s is ``one``: floats, arrays, dicts of them, or outputs with fields.

    A field that one side leaves None (a head-free step's logits) is None on both.
    """
    if one is None or stacked is None:
        assert stacked is None and one is None
    elif isinstance(one, dict):
        assert stacked.keys() == one.keys()
        for key in one:
            assert_slices(stacked[key], one[key], s)
    elif hasattr(one, "__dataclass_fields__"):
        for name in one.__dataclass_fields__:
            if name != "mining":
                assert_slices(getattr(stacked, name), getattr(one, name), s)
    else:
        assert same_bits(np.asarray(stacked)[s], one)


def _checker_batch(seed: int, stage: Stage):
    return gradcheck._random_batch(RngStream(seed), 3, 3, 4, stage.modality_pair).validate()


def _sampled_batch(seed: int, stage: Stage):
    ds = synthdata.generate(
        12, 6, synthdata.BENCHMARK_LAYOUT, synthdata.BENCHMARK_GAP,
        synthdata.BENCHMARK_NOISE, RngStream(seed),
    )
    return sample_batch(ds, BatchSpec(8, 4), stage, RngStream(seed).child(1))


BATCHES = {"checker": _checker_batch, "sampled": _sampled_batch}


def _stack(x: np.ndarray, seed: int) -> np.ndarray:
    """S copies of ``x``: the first as it is, the others moved by different noise."""
    noise = RngStream(seed).child(9).normal(scale=0.3, size=(S, *x.shape))
    noise[0] = 0.0
    return x[None] + noise


def test_the_sampled_batch_mines_through_the_certified_route():
    batch = _sampled_batch(0, Stage.STAGE2)
    assert len(batch) == 64 > _BLOCK


@pytest.mark.parametrize("seed", [0, 1])
def test_identity_loss_slices(seed):
    rng = RngStream(seed)
    logits = rng.normal(size=(18, 3))
    labels = rng.integers(0, 3, size=18)
    stack = _stack(logits, seed)
    out = losses.identity_loss(stack, labels)
    assert out.value.shape == (S,)
    for s in range(S):
        assert_slices(out, losses.identity_loss(stack[s], labels), s)


def _centers(batch):
    stats = losses.compute_centers(batch)
    return {"centers": stats.centers, "neg_margins": stats.neg_margins, "dist": stats.distances}


LOSSES = {
    "intra": (Stage.STAGE1, lambda b: losses.hard_triplet_intra(b, 0.1)),
    "global": (Stage.STAGE2, lambda b: losses.hard_triplet_global(b, 0.1)),
    "msel_euclid": (Stage.STAGE2, lambda b: losses.msel(b, "euclid")),
    "msel_cosine": (Stage.STAGE2, lambda b: losses.msel(b, "cosine")),
    "dcl_hard": (Stage.STAGE2, lambda b: losses.dcl(b, "hard")),
    "dcl_all": (Stage.STAGE2, lambda b: losses.dcl(b, "all")),
    "dcl_dyn": (Stage.STAGE2, lambda b: losses.dcl(b, "dyn")),
    "centers": (Stage.STAGE2, _centers),
}


@pytest.mark.parametrize("shape", sorted(BATCHES))
@pytest.mark.parametrize("name", sorted(LOSSES))
@pytest.mark.parametrize("seed", [0, 1])
def test_loss_slices(shape, name, seed):
    stage, loss_fn = LOSSES[name]
    batch = BATCHES[shape](seed, stage)
    stack = replace(batch, features=_stack(batch.features, seed))
    out = loss_fn(stack)
    for s in range(S):
        assert_slices(out, loss_fn(replace(batch, features=stack.features[s])), s)
    if name != "centers":
        assert out.value.shape == (S,) and out.mining is None


OBJECTIVES = {
    "stage1": (Stage.STAGE1, losses.stage1_objective, LossConfig()),
    "stage2": (Stage.STAGE2, losses.stage2_objective, LossConfig()),
    "stage2_hard_id": (
        Stage.STAGE2,
        losses.stage2_objective,
        LossConfig(dcl_mode="hard", include_id_stage2=True),
    ),
}


@pytest.mark.parametrize("shape", sorted(BATCHES))
@pytest.mark.parametrize("name", sorted(OBJECTIVES))
def test_objective_slices(shape, name):
    stage, objective, cfg = OBJECTIVES[name]
    batch = BATCHES[shape](2, stage)
    n_classes = len(batch.structure.identities)
    logits = _stack(RngStream(3).normal(size=(len(batch), n_classes)), 4)
    targets = np.searchsorted(batch.structure.identities, batch.labels)
    stack = replace(batch, features=_stack(batch.features, 5))
    out = objective(stack, logits, targets, cfg)
    assert out.mining is None
    for s in range(S):
        one = objective(replace(batch, features=stack.features[s]), logits[s], targets, cfg)
        assert_slices(out, one, s)


def _param_stack(params: ModelParams, seed: int) -> ModelParams:
    return ModelParams.adopt(_stack(params.flat, seed), params)


@pytest.mark.parametrize("stacked_rows", [False, True])
def test_forward_and_backward_slices(stacked_rows):
    params = init_params(5, 6, 4, 3, RngStream(0))
    stack = _param_stack(params, 1)
    x = RngStream(2).normal(size=(12, 5))
    xs = _stack(x, 3) if stacked_rows else x
    emb, bn, logits, trace = forward(stack, xs)
    d_emb = _stack(RngStream(4).normal(size=emb.shape[1:]), 5)
    d_logits = _stack(RngStream(6).normal(size=logits.shape[1:]), 7)
    grads = backward(trace, stack, d_embeddings=d_emb, d_logits=d_logits)
    assert grads.flat.shape == stack.flat.shape
    for s in range(S):
        one = ModelParams.adopt(stack.flat[s], params)
        e, b, z, t = forward(one, xs[s] if stacked_rows else x)
        assert_slices(emb, e, s)
        assert_slices(bn, b, s)
        assert_slices(logits, z, s)
        for name in t.__dataclass_fields__:
            if name != "x" or stacked_rows:
                assert_slices(getattr(trace, name), getattr(t, name), s)
        g = backward(t, one, d_embeddings=d_emb[s], d_logits=d_logits[s])
        assert_slices(grads.flat, g.flat, s)
        assert same_bits(grads.w1[s], g.w1)


@pytest.mark.parametrize("shape", ["checker", "sampled"])
@pytest.mark.parametrize("stage", [Stage.STAGE1, Stage.STAGE2])
def test_loss_and_grads_slices(shape, stage):
    if shape == "checker":
        batch = gradcheck._random_batch(RngStream(8), 3, 2, 5, stage.modality_pair).validate()
    else:
        batch = _sampled_batch(8, stage)
    targets = np.searchsorted(batch.structure.identities, batch.labels)
    n_classes = len(batch.structure.identities)
    params = init_params(batch.features.shape[1], 6, 4, n_classes, RngStream(9))
    stack = _param_stack(params, 10)
    cfg = LossConfig()
    out, grads, trace = loss_and_grads(stack, batch, stage, cfg, targets)
    assert out.value.shape == (S,)
    for s in range(S):
        one = ModelParams.adopt(stack.flat[s], params)
        o, g, t = loss_and_grads(one, batch, stage, cfg, targets)
        assert_slices(out, o, s)
        assert_slices(grads.flat, g.flat, s)
        assert_slices(trace.logits, t.logits, s)
    if stage is Stage.STAGE2:  # the default stage-2 objective reads no logits
        assert trace.logits is None and out.grad_logits is None


def test_stacked_calls_build_no_traced_distance_matrix(monkeypatch):
    # the benchmark's tracer reads 2-D shapes from these two functions' arguments
    def refuse(*args, **kwargs):
        raise AssertionError("a stacked call reached a traced distance function")

    for module in (core, losses):
        for name in ("pairwise_distances", "cross_distances"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    for stage, loss_fn in LOSSES.values():
        batch = _checker_batch(0, stage)
        loss_fn(replace(batch, features=_stack(batch.features, 0)))
    for stage, objective, cfg in OBJECTIVES.values():
        batch = _checker_batch(0, stage)
        logits = _stack(RngStream(1).normal(size=(len(batch), 3)), 2)
        objective(replace(batch, features=_stack(batch.features, 0)), logits, batch.labels, cfg)


def test_stacked_features_need_a_batch_structure():
    batch = gradcheck._random_batch(RngStream(0), 3, 3, 4, ("vis", "ir"))
    with pytest.raises(DimensionError, match="features must be 2-D, got shape"):
        replace(batch, features=np.zeros((2, *batch.features.shape)))


def _model_and_stack():
    params = init_params(5, 6, 4, 3, RngStream(0))
    return params, _param_stack(params, 1)


def _state_bytes(*arrays) -> list[bytes]:
    return [np.asarray(a).tobytes() for a in arrays]


def test_update_bn_stats_refuses_a_stack_before_writing():
    params, stack = _model_and_stack()
    x = RngStream(2).normal(size=(12, 5))
    stacked_trace = forward(params, _stack(x, 3))[3]  # one model on stacked rows
    for model, trace in ((stack, forward(stack, x)[3]), (params, stacked_trace)):
        before = _state_bytes(model.flat, model.bn_running_mean, model.bn_running_var)
        with pytest.raises(DimensionError, match="^update_bn_stats takes one model, not a stack"):
            update_bn_stats(model, trace)
        assert _state_bytes(model.flat, model.bn_running_mean, model.bn_running_var) == before


def test_optim_step_refuses_a_stack_before_writing():
    params, stack = _model_and_stack()
    x = RngStream(2).normal(size=(12, 5))
    emb, _, logits, trace = forward(stack, x)
    grads = backward(trace, stack, d_embeddings=np.zeros_like(emb), d_logits=np.ones_like(logits))
    state = init_optim_state(params)
    before = _state_bytes(stack.flat, state.m.flat, state.v.flat)
    with pytest.raises(DimensionError, match="^step takes one model, not a stack: params"):
        step(state, stack, grads, state.base_lr)
    assert state.step_count == 0
    assert _state_bytes(stack.flat, state.m.flat, state.v.flat) == before


def test_save_checkpoint_refuses_a_stack_before_writing(tmp_path):
    params, stack = _model_and_stack()
    path = tmp_path / "stack.npz"
    with pytest.raises(DimensionError, match="^save_checkpoint takes one model, not a stack"):
        save_checkpoint(path, stack)
    with pytest.raises(DimensionError, match="^save_checkpoint takes one model, not a stack: m"):
        save_checkpoint(path, params, init_optim_state(stack))
    assert not path.exists()


@pytest.mark.parametrize("cls", [ModelParams, ModelGrads])
def test_constructors_refuse_a_stack_by_name(cls):
    # a stack must come from adopt: packed by the constructor, it would pass check_single
    params, stack = _model_and_stack()
    tensors = {f.name: getattr(stack, f.name) for f in fields(cls)}
    message = rf"^{cls.__name__} takes one model: w1 has shape \({S}, 5, 6\), not 2-D "
    with pytest.raises(DimensionError, match=message + rf"\({cls.__name__}.adopt makes a stack\)$"):
        cls(**tensors)
    tensors = {f.name: getattr(params, f.name) for f in fields(cls)}
    with pytest.raises(DimensionError, match=r": b1 has shape \(1, 6\), not 1-D "):
        cls(**{**tensors, "b1": params.b1[None]})
    with pytest.raises(DimensionError, match=r": wc has shape \(12,\), not 2-D "):
        cls(**{**tensors, "wc": params.wc.ravel()})
