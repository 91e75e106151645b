import gc
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from crossmodal import gradcheck, trainer
from crossmodal.batch import BatchSpec, FeatureLayout, Stage, sample_batch
from crossmodal.config import parse_config_file
from crossmodal.core import RngStream
from crossmodal.errors import ConfigError, DimensionError, NumericError, SamplingError
from crossmodal.evalkit import report_text
from crossmodal.gradcheck import check_component
from crossmodal.losses import LossConfig, reads_logits
from crossmodal.model import TRAINABLE, ModelGrads, backward, check_encoder, forward, init_params
from crossmodal.optim import cosine_lr
from crossmodal.synthdata import SynthDataset, generate, load_features
from crossmodal.trainer import (
    EpochLog,
    TrainConfig,
    ablate,
    ablation_table,
    evaluate_params,
    stage_for_epoch,
    steps_per_epoch,
    train,
)

LAYOUT = FeatureLayout(shared_dims=3, color_dims=2, modality_dims=2)

#: Integer parameter name -> a call that passes it the value under test.
_INTEGER_PARAMETERS = {
    "BatchSpec.p": lambda v: BatchSpec(v, 2),
    "BatchSpec.k": lambda v: BatchSpec(2, v),
    "check_encoder.hidden_dim": lambda v: check_encoder(hidden_dim=v),
    "FeatureLayout.color_dims": lambda v: FeatureLayout(1, v, 1),
    "RngStream.seed": lambda v: RngStream(v),
    "RngStream.path": lambda v: RngStream(0).child(v),
    "check_component.instances": lambda v: check_component("l_id", instances=v),
    "generate.n_ids": lambda v: generate(v, 2, LAYOUT, 1.0, 0.1, RngStream(0)),
    "generate.per_modality": lambda v: generate(2, v, LAYOUT, 1.0, 0.1, RngStream(0)),
    **{
        f"TrainConfig.{name}": lambda v, name=name: TrainConfig(
            **{"epochs": 2, "stage1_epochs": 1, name: v}
        ).validate()
        for name in (
            "p", "k", "hidden_dim", "embed_dim", "epochs", "stage1_epochs", "seed", "eval_every"
        )
    },
}


@pytest.fixture(scope="module")
def tiny_data():
    return generate(4, 3, LAYOUT, 1.5, 0.2, RngStream(21))


def tiny_cfg(**kw):
    base = dict(
        p=3,
        k=2,
        hidden_dim=8,
        embed_dim=6,
        epochs=4,
        stage1_epochs=2,
        base_lr=1e-2,
        seed=0,
    )
    base.update(kw)
    return TrainConfig(**base)


# ---------------------------------------------------------------- schedule


def test_stage_for_epoch_gray_first():
    cfg = tiny_cfg(epochs=6, stage1_epochs=2)
    stages = [stage_for_epoch(cfg, e) for e in range(6)]
    assert stages == [Stage.STAGE1] * 2 + [Stage.STAGE2] * 4


def test_stage_for_epoch_rgb_first_mirrors_budget():
    cfg = tiny_cfg(epochs=6, stage1_epochs=2, schedule="rgb_first")
    stages = [stage_for_epoch(cfg, e) for e in range(6)]
    assert stages == [Stage.STAGE2] * 4 + [Stage.STAGE1] * 2


@pytest.mark.parametrize("schedule", ["gray_first", "rgb_first"])
def test_stage_budget_edge_cases(schedule):
    all2 = tiny_cfg(epochs=4, stage1_epochs=0, schedule=schedule)
    assert all(stage_for_epoch(all2, e) is Stage.STAGE2 for e in range(4))
    all1 = tiny_cfg(epochs=4, stage1_epochs=4, schedule=schedule)
    assert all(stage_for_epoch(all1, e) is Stage.STAGE1 for e in range(4))


def test_config_validation():
    with pytest.raises(ConfigError):
        tiny_cfg(epochs=0).validate()
    with pytest.raises(ConfigError):
        tiny_cfg(stage1_epochs=5).validate()  # exceeds epochs=4
    with pytest.raises(ConfigError):
        tiny_cfg(schedule="interleaved").validate()
    with pytest.raises(ConfigError):
        tiny_cfg(eval_direction="g2v").validate()
    with pytest.raises(ConfigError):
        tiny_cfg(base_lr=-1.0).validate()
    assert tiny_cfg().validate() is not None


@pytest.mark.parametrize("value", [2.5, np.float64(2.0), True, "2"])
@pytest.mark.parametrize("param", list(_INTEGER_PARAMETERS))
def test_integer_parameters_fail_by_name(param, value):
    # int() would truncate 2.5 (a 1.5 seed trains seed 1), and a bool is not a count
    message = f"^{param.split('.')[1]} must be an integer, got {re.escape(repr(value))}$"
    with pytest.raises(ConfigError, match=message):
        _INTEGER_PARAMETERS[param](value)


@pytest.mark.parametrize("param", list(_INTEGER_PARAMETERS))
def test_integer_parameters_take_numpy_integers(param):
    _INTEGER_PARAMETERS[param](np.int64(2))


def test_steps_per_epoch_counts_vis_and_ir(tiny_data):
    # 12 vis + 12 ir rows, batch 2*3*2 = 12 -> 2 steps
    assert steps_per_epoch(tiny_data, tiny_cfg()) == 2
    assert steps_per_epoch(tiny_data, tiny_cfg(p=3, k=3)) == 2  # ceil(24/18)


# ---------------------------------------------------------------- training loop


def test_train_logs_and_stage_terms(tiny_data):
    params, logs = train(tiny_data, tiny_cfg())
    assert [log.epoch for log in logs] == [0, 1, 2, 3]
    assert [log.stage for log in logs] == [1, 1, 2, 2]
    for log in logs[:2]:
        assert set(log.terms) == {"intra", "id"}
    for log in logs[2:]:
        assert set(log.terms) == {"global", "msel", "dcl"}
    # only the final epoch evaluated by default
    assert [log.eval is not None for log in logs] == [False, False, False, True]
    assert logs[-1].eval.n_queries == 12
    for name in TRAINABLE:
        assert np.isfinite(getattr(params, name)).all()


def test_train_is_bitwise_deterministic(tiny_data):
    p1, logs1 = train(tiny_data, tiny_cfg())
    p2, logs2 = train(tiny_data, tiny_cfg())
    for name in (*TRAINABLE, "bn_running_mean", "bn_running_var"):
        assert np.array_equal(getattr(p1, name), getattr(p2, name)), name
    assert report_text(logs1[-1].eval) == report_text(logs2[-1].eval)
    assert all(a.terms == b.terms for a, b in zip(logs1, logs2))
    p3, _ = train(tiny_data, tiny_cfg(seed=1))
    assert not np.array_equal(p1.w1, p3.w1)


def test_train_eval_every_and_eval_dataset(tiny_data):
    held_out = generate(4, 3, LAYOUT, 1.5, 0.2, RngStream(22))
    _, logs = train(tiny_data, tiny_cfg(eval_every=2), eval_dataset=held_out)
    assert [log.eval is not None for log in logs] == [False, True, False, True]
    # evaluated on the held-out split, not on the training rows
    direct, _ = train(tiny_data, tiny_cfg())
    want = evaluate_params(direct, held_out, "t2v")
    assert logs[-1].eval.rank1 == want.rank1
    assert report_text(logs[-1].eval) == report_text(want)


def test_train_on_epoch_callback_sees_every_epoch(tiny_data):
    seen = []
    train(tiny_data, tiny_cfg(), on_epoch=lambda e, p, log: seen.append((e, log.stage)))
    assert seen == [(0, 1), (1, 1), (2, 2), (3, 2)]


def test_train_cosine_lr_column(tiny_data):
    _, logs = train(tiny_data, tiny_cfg())
    lrs = [log.lr for log in logs]
    assert lrs[0] == pytest.approx(1e-2)
    assert all(a >= b for a, b in zip(lrs, lrs[1:]))


def test_train_error_carries_epoch_context(tiny_data):
    # p larger than the identity count: fails inside the first batch
    cfg = tiny_cfg(p=5, k=2)
    with pytest.raises(ConfigError, match="identities"):
        train(tiny_data, cfg)  # caught upfront by the dataset check
    # k = 3 works for vis (3 rows) but the check runs per stage/modality
    ok, _ = train(tiny_data, tiny_cfg(p=3, k=3, epochs=2, stage1_epochs=1))
    assert ok is not None


def test_train_overflow_fails_on_the_batch_that_overflowed(tiny_data):
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="^epoch 0, batch 0: non-finite parameter w1 "):
            train(tiny_data, tiny_cfg(base_lr=1e300))


def _with_a_nan_vis_row(data: SynthDataset) -> SynthDataset:
    feats = data.features.copy()
    feats[data.rows_of(1, "vis")[0]] = np.nan  # drawn in stage 2 only
    return SynthDataset(feats, data.labels, data.modalities)


def _non_finite_steps(data: SynthDataset, cfg: TrainConfig) -> list[tuple[int, int]]:
    """Every stage-2 ``(epoch, batch)`` whose own ``sample_batch`` raises ``NumericError``."""
    bad, root, spec = [], RngStream(cfg.seed), BatchSpec(cfg.p, cfg.k)
    for epoch in range(cfg.stage1_epochs, cfg.epochs):
        for b in range(steps_per_epoch(data, cfg)):
            try:
                sample_batch(data, spec, Stage.STAGE2, root.child(1, epoch, b))
            except NumericError:
                bad.append((epoch, b))
    return bad


def test_train_names_the_first_batch_with_a_non_finite_row(tiny_data):
    data, cfg = _with_a_nan_vis_row(tiny_data), tiny_cfg()
    epoch, b = _non_finite_steps(data, cfg)[0]
    want = f"^epoch {epoch}, batch {b}: batch features contain NaN or Inf$"
    with pytest.raises(NumericError, match=want):
        train(data, cfg)


def test_a_non_finite_batch_past_its_runs_first_epoch_fails_in_its_turn(tiny_data):
    # the run's batches are drawn before its first step; this one still fails when reached
    data = _with_a_nan_vis_row(tiny_data)
    for seed in range(50):
        cfg = tiny_cfg(epochs=8, stage1_epochs=2, seed=seed)
        epoch, b = _non_finite_steps(data, cfg)[0]
        if epoch > cfg.stage1_epochs and b > 0:
            break
    else:
        pytest.fail("no seed puts the first bad batch past the run's first epoch and batch")
    seen = []
    want = f"^epoch {epoch}, batch {b}: batch features contain NaN or Inf$"
    with pytest.raises(NumericError, match=want):
        train(data, cfg, on_epoch=lambda e, params, log: seen.append(e))
    assert seen == list(range(epoch))


@pytest.mark.parametrize("schedule", ["gray_first", "rgb_first"])
@pytest.mark.parametrize("stage1_epochs", [0, 3, 6])
def test_each_step_is_fed_its_own_streams_batch(tiny_data, monkeypatch, schedule, stage1_epochs):
    cfg = tiny_cfg(epochs=6, stage1_epochs=stage1_epochs, schedule=schedule)
    fed, real = [], trainer.loss_and_grads

    def spy(params, batch, stage, loss_cfg, targets):
        fed.append((batch, stage, targets))
        return real(params, batch, stage, loss_cfg, targets)

    monkeypatch.setattr(trainer, "loss_and_grads", spy)
    train(tiny_data, cfg)
    root, spec, n_steps = RngStream(cfg.seed), BatchSpec(cfg.p, cfg.k), steps_per_epoch(tiny_data, cfg)
    steps = [(e, b) for e in range(cfg.epochs) for b in range(n_steps)]
    assert len(fed) == len(steps)
    for (e, b), (batch, stage, targets) in zip(steps, fed):
        assert stage is stage_for_epoch(cfg, e)
        want = sample_batch(tiny_data, spec, stage, root.child(1, e, b))
        got_s, want_s = batch.structure, want.structure
        pairs = [(batch.features, want.features), (batch.labels, want.labels)]
        pairs += [(batch.modalities, want.modalities), (got_s.order, want_s.order)]
        pairs += [(got_s.identities, want_s.identities)]
        if reads_logits(stage, cfg.loss):
            pairs += [(targets, np.searchsorted(tiny_data.identities, want.labels))]
        else:  # the objective reads no logits, so no classifier targets are made
            assert targets is None, (e, b)
        for got, expect in pairs:
            assert got.dtype == expect.dtype and got.shape == expect.shape, (e, b)
            assert got.tobytes() == expect.tobytes(), (e, b)
        assert got_s.layout is want_s.layout


#: The ``tracemalloc`` peak, above its start, of one training of ``configs/default.cfg`` on
#: the bundled splits, as measured at the commit before the sampler drew a stage run's batches
#: together: ``tracemalloc.start()`` after one warm-up training in the same process, then
#: ``get_traced_memory()`` peak minus current at the start (1 073.8 KB, numpy 2.4, Python 3.11).
#: The peak is the final evaluation's; whatever the sampler holds at that point adds to it.
DEFAULT_TRAIN_TRACED_PEAK = 1_099_532


def test_default_training_peak_stays_within_a_tenth_of_its_recorded_value():
    root = Path(__file__).resolve().parent.parent
    cfg = parse_config_file(root / "configs" / "default.cfg").train
    train_set = load_features(root / "data" / "benchmark_train.csv")
    eval_set = load_features(root / "data" / "benchmark_test.csv")
    train(train_set, cfg, eval_set)  # builds the row tables and the shared layouts
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        train(train_set, cfg, eval_set)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * DEFAULT_TRAIN_TRACED_PEAK, peak


def test_train_dataset_check_message(tiny_data):
    # the identities are listed as plain ints, not numpy scalar reprs
    want = "STAGE1 needs 4 'gray' rows per identity; identities [0, 1, 2, 3] fall short"
    with pytest.raises(ConfigError) as info:
        train(tiny_data, tiny_cfg(k=4))
    assert str(info.value) == want


def test_evaluate_params_directions(tiny_data):
    params, _ = train(tiny_data, tiny_cfg())
    t2v = evaluate_params(params, tiny_data, "t2v")
    v2t = evaluate_params(params, tiny_data, "v2t")
    assert t2v.n_queries == v2t.n_queries == 12
    with pytest.raises(ConfigError):
        evaluate_params(params, tiny_data, "x2y")


def _train_recording_steps(monkeypatch, dataset, cfg):
    """Train, recording the optimizer state and learning rate of every step."""
    seen = []
    real_step = trainer.step

    def spy(state, params, grads, lr):
        seen.append((state, lr))
        real_step(state, params, grads, lr)

    monkeypatch.setattr(trainer, "step", spy)
    _, logs = train(dataset, cfg)
    return seen, logs


def test_one_optimizer_spans_the_stage_switch(tiny_data, monkeypatch):
    seen, logs = _train_recording_steps(monkeypatch, tiny_data, tiny_cfg())
    assert [log.stage for log in logs] == [1, 1, 2, 2]
    assert len({id(state) for state, _ in seen}) == 1
    assert seen[-1][0].step_count == len(seen) == len(logs) * steps_per_epoch(tiny_data, tiny_cfg())


def test_every_step_uses_its_epochs_logged_lr(tiny_data, monkeypatch):
    cfg = tiny_cfg()
    seen, logs = _train_recording_steps(monkeypatch, tiny_data, cfg)
    n_steps = steps_per_epoch(tiny_data, cfg)
    assert [lr for _, lr in seen] == [log.lr for log in logs for _ in range(n_steps)]
    want = [cosine_lr(e, cfg.epochs, cfg.base_lr, cfg.base_lr / 100.0) for e in range(cfg.epochs)]
    assert [log.lr for log in logs] == want


# ---------------------------------------------------------------- head-free steps

_HEAD = ("bn_gamma", "bn_beta", "wc", "bc")


def _default_run():
    root = Path(__file__).resolve().parent.parent
    cfg = parse_config_file(root / "configs" / "default.cfg").train
    return load_features(root / "data" / "benchmark_train.csv"), cfg


def _step_bytes(monkeypatch, dataset, cfg, full_pass):
    """Per step: its stage, its gradients, the parameters after ``step`` and the
    running statistics after ``update_bn_stats``.

    ``full_pass`` runs every step's forward with the head, so the objective
    gets logits and a step that reads none feeds ``backward`` their zero
    gradient: the reference a head-free step must equal.
    """
    real_lg, real_step, real_bn = trainer.loss_and_grads, trainer.step, trainer.update_bn_stats
    steps = []

    def loss_and_grads(params, batch, stage, loss_cfg, targets):
        out, grads, trace = real_lg(params, batch, stage, loss_cfg, targets)
        steps.append({"stage": stage, "grads": ModelGrads.adopt(grads.flat.copy(), params)})
        return out, grads, trace

    def step(state, params, grads, lr):
        real_step(state, params, grads, lr)
        steps[-1]["params"] = params.flat.tobytes()

    def update_bn_stats(params, trace):
        real_bn(params, trace)
        steps[-1]["stats"] = params.bn_running_mean.tobytes() + params.bn_running_var.tobytes()

    with monkeypatch.context() as m:
        if full_pass:
            m.setattr(trainer, "forward", lambda params, x, head=True: forward(params, x))
        m.setattr(trainer, "loss_and_grads", loss_and_grads)
        m.setattr(trainer, "step", step)
        m.setattr(trainer, "update_bn_stats", update_bn_stats)
        train(dataset, cfg)
    return steps


@pytest.mark.parametrize(
    "delta",
    [
        {},
        {"schedule": "rgb_first", "epochs": 4, "stage1_epochs": 2},
        {"epochs": 3, "stage1_epochs": 0},
    ],
    ids=["default", "rgb_first", "stage1_epochs=0"],
)
def test_head_free_steps_equal_the_full_pass_byte_for_byte(monkeypatch, delta):
    dataset, cfg = _default_run()
    cfg = replace(cfg, **delta)
    got = _step_bytes(monkeypatch, dataset, cfg, full_pass=False)
    want = _step_bytes(monkeypatch, dataset, cfg, full_pass=True)
    assert len(got) == len(want) == cfg.epochs * steps_per_epoch(dataset, cfg)
    head_free = 0
    for i, (g, w) in enumerate(zip(got, want)):
        assert g["stage"] is w["stage"], i
        for name in TRAINABLE:
            assert getattr(g["grads"], name).tobytes() == getattr(w["grads"], name).tobytes(), i
        assert g["params"] == w["params"] and g["stats"] == w["stats"], i
        if not reads_logits(g["stage"], cfg.loss):
            head_free += 1
            for name in _HEAD:  # +0.0: every byte zero
                assert not any(getattr(g["grads"], name).tobytes()), (i, name)
    n_stage2 = (cfg.epochs - cfg.stage1_epochs) * steps_per_epoch(dataset, cfg)
    assert head_free == n_stage2 > 0  # 168 of the default recipe's 224 steps


def _stage2_step(include_id_stage2: bool):
    batch = gradcheck._random_batch(RngStream(5), 3, 2, 5, Stage.STAGE2.modality_pair).validate()
    params = init_params(5, 6, 4, 3, RngStream(6))
    loss_cfg = LossConfig(include_id_stage2=include_id_stage2)
    return params, trainer.loss_and_grads(params, batch, Stage.STAGE2, loss_cfg, batch.labels)


def test_a_stage2_step_traces_no_neck_or_logits():
    _, (out, _, trace) = _stage2_step(include_id_stage2=False)
    assert out.grad_logits is None and "id" not in out.terms
    assert (trace.istd, trace.xhat, trace.bn_embeddings, trace.logits) == (None,) * 4
    for stat in (trace.mean, trace.var):  # the running-statistics update still reads them
        assert stat.shape == (4,)


def test_a_stage2_step_with_the_identity_term_runs_the_head():
    _, (out, grads, trace) = _stage2_step(include_id_stage2=True)
    assert "id" in out.terms and trace.logits.shape == out.grad_logits.shape == (12, 3)
    assert np.abs(grads.wc).max() > 0


def test_a_head_free_trace_refuses_a_logits_upstream():
    params, (out, _, trace) = _stage2_step(include_id_stage2=False)
    with pytest.raises(DimensionError, match="head-free trace"):
        backward(trace, params, out.grad_embeddings, np.zeros((12, 3)))


# ---------------------------------------------------------------- ablation


def test_ablate_rows_and_table(tiny_data):
    with np.errstate(over="ignore", invalid="ignore"):
        rows = ablate(
            tiny_data,
            tiny_cfg(),
            variants=[
                ("base", {}),
                ("no_msel", {"loss.lambda1": "0"}),
                ("broken", {"optim.base_lr": "1e300"}),
            ],
            seeds=[0, 1],
        )
    assert [row["variant"] for row in rows] == ["base", "no_msel", "broken"]
    for row in rows[:2]:
        assert row["seeds"] == 2
        assert len(row["rank1_values"]) == 2
        assert row["rank1_mean"] == pytest.approx(np.mean(row["rank1_values"]))
        for key in ("rank1", "mean_ap", "minp", "gap_ratio", "pos_sim"):
            assert f"{key}_mean" in row and f"{key}_std" in row
    assert rows[2] == {
        "variant": "broken",
        "error": "epoch 0, batch 0: non-finite parameter w1 after step 1",
    }

    table = ablation_table(rows)
    lines = table.strip().split("\n")
    assert lines[0].startswith("variant,seeds,rank1_mean")
    assert lines[1].startswith("base,2,")
    assert lines[3].startswith("broken,error:")


def test_ablate_base_variant_reproduces_plain_training(tiny_data):
    rows = ablate(tiny_data, tiny_cfg(), variants=[], seeds=[0])
    _, logs = train(tiny_data, tiny_cfg())
    assert rows[0]["variant"] == "base"
    assert rows[0]["rank1_values"][0] == logs[-1].eval.rank1


def test_ablate_needs_seeds(tiny_data):
    with pytest.raises(ConfigError):
        ablate(tiny_data, tiny_cfg(), variants=[], seeds=[])


@pytest.mark.parametrize(
    "delta, reason",
    [
        ({"loss.lamda1": "0"}, "unknown config key 'loss.lamda1'"),
        ({"loss.margin": "-1"}, "margin must be finite and >= 0"),
        ({"batch.k": "99"}, "STAGE1 needs 99 'gray' rows per identity"),
    ],
)
def test_ablate_refuses_a_bad_variant_before_any_run(tiny_data, monkeypatch, delta, reason):
    monkeypatch.setattr(trainer, "train", None)  # any run would fail with a TypeError
    with pytest.raises(ConfigError, match=f"^variant 'bad': {re.escape(reason)}"):
        ablate(tiny_data, tiny_cfg(), [("base", {}), ("bad", delta)], [0])


def test_ablate_checks_the_evaluation_set_before_any_run(tiny_data, monkeypatch):
    monkeypatch.setattr(trainer, "train", None)
    no_ir = tiny_data.modalities != "ir"
    eval_data = SynthDataset(
        tiny_data.features[no_ir], tiny_data.labels[no_ir], tiny_data.modalities[no_ir]
    )
    with pytest.raises(ConfigError, match="^variant 'base': evaluation needs both visible"):
        ablate(tiny_data, tiny_cfg(), [], [0], eval_data)
