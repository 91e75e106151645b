import re

import numpy as np
import pytest

from crossmodal import trainer
from crossmodal.batch import BatchSpec, FeatureLayout, Stage, sample_batch
from crossmodal.core import RngStream
from crossmodal.errors import ConfigError, NumericError, SamplingError
from crossmodal.evalkit import report_text
from crossmodal.gradcheck import check_component
from crossmodal.losses import LossConfig
from crossmodal.model import TRAINABLE, check_encoder
from crossmodal.optim import cosine_lr
from crossmodal.synthdata import SynthDataset, generate
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


def test_train_names_the_first_batch_with_a_non_finite_row(tiny_data):
    feats = tiny_data.features.copy()
    feats[tiny_data.rows_of(1, "vis")[0]] = np.nan  # drawn in stage 2 only
    data = SynthDataset(feats, tiny_data.labels, tiny_data.modalities)
    cfg, bad = tiny_cfg(), []
    root, spec = RngStream(cfg.seed), BatchSpec(cfg.p, cfg.k)
    for epoch in range(cfg.stage1_epochs, cfg.epochs):
        for b in range(steps_per_epoch(data, cfg)):
            try:
                sample_batch(data, spec, Stage.STAGE2, root.child(1, epoch, b))
            except NumericError:
                bad.append((epoch, b))
    epoch, b = bad[0]
    want = f"^epoch {epoch}, batch {b}: batch features contain NaN or Inf$"
    with pytest.raises(NumericError, match=want):
        train(data, cfg)


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
