from dataclasses import fields, is_dataclass

import pytest

from crossmodal.config import (
    KEY_SPECS,
    RunConfig,
    apply_overrides,
    apply_train_overrides,
    parse_assignment,
    parse_config_file,
    resolved_text,
    set_key,
)
from crossmodal.errors import ConfigError
from crossmodal.trainer import TrainConfig


def test_set_key_reaches_nested_attributes():
    cfg = RunConfig()
    set_key(cfg, "data.path", "train.csv")
    set_key(cfg, "batch.p", "6")
    set_key(cfg, "loss.lambda1", "0.25")
    set_key(cfg, "loss.include_id_stage2", "true")
    assert cfg.data_path == "train.csv"
    assert cfg.train.p == 6
    assert cfg.train.loss.lambda1 == 0.25
    assert cfg.train.loss.include_id_stage2 is True


def test_set_key_rejects_unknown_and_bad_values():
    cfg = RunConfig()
    with pytest.raises(ConfigError, match="unknown config key"):
        set_key(cfg, "train.momentum", "0.9")
    with pytest.raises(ConfigError, match="bad value"):
        set_key(cfg, "batch.p", "eight")
    with pytest.raises(ConfigError, match="bad value"):
        set_key(cfg, "loss.include_id_stage2", "maybe")


def test_apply_overrides_copies():
    cfg = RunConfig()
    out = apply_overrides(cfg, {"batch.p": "5", "train.seed": "3"})
    assert out.train.p == 5 and out.train.seed == 3
    assert cfg.train.p == 8 and cfg.train.seed == 0  # original untouched


def test_apply_train_overrides_rejects_data_keys():
    cfg = TrainConfig()
    out = apply_train_overrides(cfg, {"loss.lambda2": "0"})
    assert out.loss.lambda2 == 0.0
    assert cfg.loss.lambda2 == 0.5
    with pytest.raises(ConfigError, match="data.path"):
        apply_train_overrides(cfg, {"data.path": "x.csv"})


def test_parse_assignment():
    assert parse_assignment("a.b = 3 ") == ("a.b", "3")
    assert parse_assignment("k=v=w") == ("k", "v=w")
    for bad in ("novalue", "=x", "k=", "="):
        with pytest.raises(ConfigError):
            parse_assignment(bad)


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "data.path = train.csv\n"
        "\n"
        "batch.p = 4  # trailing comment\n"
        "optim.base_lr = 0.01\n"
    )
    cfg = parse_config_file(path)
    assert cfg.data_path == "train.csv"
    assert cfg.train.p == 4
    assert cfg.train.base_lr == 0.01


def test_parse_config_file_reports_line_number(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("batch.p = 4\nnot an assignment\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:2"):
        parse_config_file(path)
    path.write_text("batch.p = 4\nbatch.q = 4\n")
    with pytest.raises(ConfigError, match=r":2: unknown config key"):
        parse_config_file(path)


def test_resolved_text_round_trips(tmp_path):
    cfg = RunConfig(data_path="a.csv", eval_path="b.csv")
    cfg.train.p = 5
    cfg.train.loss.dcl_mode = "all"
    cfg.train.base_lr = 1e-5
    cfg.train.loss.include_id_stage2 = True
    text = resolved_text(cfg)
    path = tmp_path / "resolved.cfg"
    path.write_text(text)
    back = parse_config_file(path)
    assert back == cfg
    # serializing again is a fixed point
    assert resolved_text(back) == text


def test_resolved_text_omits_unset_paths():
    text = resolved_text(RunConfig())
    assert "data.path" not in text
    assert "=none" not in text
    # every other known key is present
    for key in KEY_SPECS:
        if key in ("data.path", "data.eval_path"):
            continue
        assert f"{key}=" in text


def _leaf_paths(obj, prefix=()):
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from _leaf_paths(value, prefix + (f.name,))
        else:
            yield prefix + (f.name,)


def test_key_specs_name_each_config_field_once():
    # set_key would setattr a path that names no field without complaint
    paths = [path for path, _ in KEY_SPECS.values()]
    assert sorted(paths) == sorted(_leaf_paths(RunConfig()))
    assert len(KEY_SPECS) == 19


def test_float_serialization_is_lossless(tmp_path):
    cfg = RunConfig()
    cfg.train.base_lr = 0.1 + 0.2  # 0.30000000000000004
    path = tmp_path / "t.cfg"
    path.write_text(resolved_text(cfg))
    assert parse_config_file(path).train.base_lr == cfg.train.base_lr
