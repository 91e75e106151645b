import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import CORRUPT_CHECKPOINT_KINDS, make_pk_batch, write_corrupt_checkpoints

from crossmodal import __version__, cli, losses, machine, synthdata
from crossmodal.cli import main
from crossmodal.core import RngStream
from crossmodal.losses import LossConfig, LossOutput, stage1_objective, stage2_objective
from crossmodal.model import load_checkpoint
from crossmodal.synthdata import load_features


def write_small_config(tmp_path, data_path, eval_path=None, **extra):
    lines = [
        f"data.path = {data_path}",
        "batch.p = 3",
        "batch.k = 2",
        "model.hidden_dim = 8",
        "model.embed_dim = 6",
        "train.epochs = 4",
        "train.stage1_epochs = 2",
        "optim.base_lr = 0.01",
    ]
    if eval_path:
        lines.append(f"data.eval_path = {eval_path}")
    lines += [f"{k} = {v}" for k, v in extra.items()]
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture()
def small_data(tmp_path):
    out = tmp_path / "train.csv"
    rc = main(
        [
            "generate",
            "--ids", "4",
            "--per-modality", "3",
            "--shared-dims", "3",
            "--color-dims", "2",
            "--modality-dims", "2",
            "--noise", "0.2",
            "--seed", "5",
            "--out", str(out),
        ]
    )
    assert rc == 0
    return out


def test_generate_writes_loadable_deterministic_file(small_data, tmp_path, capsys):
    capsys.readouterr()
    ds = load_features(small_data)
    assert len(ds) == 4 * 3 * 3
    twin = tmp_path / "twin.csv"
    main(
        [
            "generate",
            "--ids", "4",
            "--per-modality", "3",
            "--shared-dims", "3",
            "--color-dims", "2",
            "--modality-dims", "2",
            "--noise", "0.2",
            "--seed", "5",
            "--out", str(twin),
        ]
    )
    assert twin.read_bytes() == small_data.read_bytes()


@pytest.mark.parametrize("seed,split", [(11, "train"), (12, "test")])
def test_generate_writes_the_bundled_split_byte_for_byte(tmp_path, capsys, seed, split):
    out = tmp_path / f"{split}.csv"
    assert main(["generate", "--seed", str(seed), "--out", str(out)]) == 0
    root = Path(__file__).resolve().parent.parent
    assert out.read_bytes() == (root / "data" / f"benchmark_{split}.csv").read_bytes()


def test_generate_failed_write_keeps_previous_file(tmp_path, capsys, monkeypatch):
    out = tmp_path / "feats.csv"
    out.write_text("old\n")

    def crash(dataset, path):
        with open(path, "w", encoding="ascii") as fh:
            fh.write("partial")
        raise OSError("disk full")

    monkeypatch.setattr(synthdata, "save_features", crash)
    assert main(["generate", "--ids", "4", "--per-modality", "3", "--out", str(out)]) == 2
    assert "disk full" in capsys.readouterr().err
    assert out.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["feats.csv"]


def test_usage_errors_exit_1(capsys):
    assert main(["trane"]) == 1
    assert main(["generate"]) == 1  # --out is required
    assert main(["eval", "--checkpoint", "x.npz"]) == 1  # --data is required
    capsys.readouterr()


def test_version_exits_0(capsys):
    assert main(["--version"]) == 0
    assert "crossmodal" in capsys.readouterr().out


def _run_module(*args, cwd):
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "crossmodal.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )


def test_module_entry_point_runs_the_cli(tmp_path):
    proc = _run_module("--version", cwd=tmp_path)
    assert (proc.returncode, proc.stdout) == (0, f"crossmodal {__version__}\n")
    proc = _run_module("train", "--config", "missing.cfg", cwd=tmp_path)
    assert proc.returncode == 1
    assert "the following arguments are required: --out" in proc.stderr


@pytest.mark.parametrize("flag, value", [("--gap", "nan"), ("--noise", "inf"), ("--gap", "-1")])
def test_generate_bad_gap_or_noise_exits_1_without_a_file(tmp_path, capsys, flag, value):
    out = tmp_path / "feats.csv"
    args = ["--ids", "4", "--per-modality", "3", flag, value, "--out", str(out)]
    assert main(["generate", *args]) == 1
    err = capsys.readouterr().err
    assert err == "error: gap_strength and noise_sigma must be finite and >= 0\n"
    assert list(tmp_path.iterdir()) == []


def test_train_run_directory(small_data, tmp_path, capsys):
    cfg = write_small_config(tmp_path, small_data)
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "rank1=" in out

    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["tool"] == "crossmodal"
    assert manifest["command"] == "train"
    assert manifest["seed"] == 0
    assert manifest["config"]["batch.p"] == "3"
    assert manifest["inputs"]["data"].endswith("train.csv")
    assert manifest["artifacts"]["checkpoint"] == "checkpoint.npz"

    csv_lines = (run_dir / "epochs.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "epoch,stage,lr,intra,global,msel,dcl,id,rank1,mean_ap,minp"
    assert len(csv_lines) == 1 + 4
    first = csv_lines[1].split(",")
    assert first[0] == "0" and first[1] == "1"
    assert first[3] != "" and first[4] == ""  # stage 1 logs intra, not global
    last = csv_lines[-1].split(",")
    assert last[1] == "2" and last[8] != ""  # final epoch carries eval columns

    report = (run_dir / "report_t2v.txt").read_text()
    assert report.startswith("rank1=")
    hist = (run_dir / "report_t2v_hist.csv").read_text()
    assert hist.startswith("bin_left,bin_right,pos_count,neg_count")
    params, _ = load_checkpoint(run_dir / "checkpoint.npz")
    assert params.in_dim == 7

    resolved = (run_dir / "config.resolved.cfg").read_text()
    assert "batch.p=3" in resolved


def test_train_refuses_nonempty_out_dir(small_data, tmp_path, capsys):
    cfg = write_small_config(tmp_path, small_data)
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "keep.txt").write_text("do not clobber\n")
    assert main(["train", "--config", str(cfg), "--out", str(run_dir)]) == 1
    assert "already exists" in capsys.readouterr().err
    assert (run_dir / "keep.txt").read_text() == "do not clobber\n"


def test_train_requires_data_path(tmp_path, capsys):
    cfg = tmp_path / "nodata.cfg"
    cfg.write_text("batch.p = 3\n")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 1
    assert "data.path" in capsys.readouterr().err


def test_train_missing_data_file_exits_2(tmp_path, capsys):
    cfg = write_small_config(tmp_path, tmp_path / "absent.csv")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    capsys.readouterr()


def test_set_override_beats_config_file(small_data, tmp_path, capsys):
    cfg = write_small_config(tmp_path, small_data)
    run_dir = tmp_path / "run"
    rc = main(
        [
            "train",
            "--config", str(cfg),
            "--set", "train.seed=7",
            "--set", "train.epochs=2",
            "--set", "train.stage1_epochs=1",
            "--out", str(run_dir),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["config"]["train.epochs"] == "2"
    assert len((run_dir / "epochs.csv").read_text().strip().split("\n")) == 3


def test_bad_set_override_exits_1(small_data, tmp_path, capsys):
    cfg = write_small_config(tmp_path, small_data)
    rc = main(["train", "--config", str(cfg), "--set", "junk", "--out", str(tmp_path / "r")])
    assert rc == 1
    rc = main(
        ["train", "--config", str(cfg), "--set", "no.such=1", "--out", str(tmp_path / "r2")]
    )
    assert rc == 1
    capsys.readouterr()


def test_checkpoint_every_writes_snapshots(small_data, tmp_path, capsys):
    cfg = write_small_config(tmp_path, small_data)
    run_dir = tmp_path / "run"
    rc = main(
        ["train", "--config", str(cfg), "--out", str(run_dir), "--checkpoint-every", "2"]
    )
    assert rc == 0
    capsys.readouterr()
    assert (run_dir / "checkpoint_epoch1.npz").exists()
    assert (run_dir / "checkpoint_epoch3.npz").exists()
    assert not (run_dir / "checkpoint_epoch0.npz").exists()


def test_negative_checkpoint_every_exits_1_before_creating_the_run(
    small_data, tmp_path, capsys
):
    cfg = write_small_config(tmp_path, small_data)
    run_dir = tmp_path / "run"
    rc = main(
        ["train", "--config", str(cfg), "--out", str(run_dir), "--checkpoint-every", "-2"]
    )
    assert rc == 1
    assert "--checkpoint-every must be >= 0" in capsys.readouterr().err
    assert not run_dir.exists()


@pytest.mark.parametrize(
    "override",
    [
        "model.bn_momentum=0",
        "model.activation=tanh",
        "model.hidden_dim=0",
        "model.embed_dim=0",
        "optim.base_lr=nan",
        "optim.base_lr=inf",
        "optim.beta1=1.5",
        "optim.beta2=1",
        "optim.eps=0",
        "optim.eps=nan",
        "optim.weight_decay=-1",
        "optim.weight_decay=inf",
        "optim.min_lr=-1",
        "train.seed=-1",
    ],
)
def test_invalid_model_or_optimizer_value_exits_1_before_creating_the_run(
    small_data, tmp_path, capsys, override
):
    cfg = write_small_config(tmp_path, small_data)
    run_dir = tmp_path / "run"
    rc = main(["train", "--config", str(cfg), "--set", override, "--out", str(run_dir)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not run_dir.exists()


@pytest.mark.parametrize("override", ["loss.margin=nan", "loss.lambda1=inf", "loss.lambda2=nan"])
def test_invalid_loss_value_exits_1_before_creating_the_run(small_data, tmp_path, capsys, override):
    cfg = write_small_config(tmp_path, small_data)
    run_dir = tmp_path / "run"
    rc = main(["train", "--config", str(cfg), "--set", override, "--out", str(run_dir)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not run_dir.exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("loss.msel_metric", "euclid"),  # msel is euclid only
        # Adam's betas and eps and the batch-norm momentum are the functions' defaults
        ("optim.beta1", "0.9"),
        ("optim.beta2", "0.999"),
        ("optim.eps", "1e-08"),
        ("model.bn_momentum", "0.1"),
    ],
)
def test_removed_key_exits_1_naming_its_line(small_data, tmp_path, capsys, key, value):
    # a resolved config from an earlier version must drop the retired key's line
    cfg = write_small_config(tmp_path, small_data, **{key: value})
    run_dir = tmp_path / "run"
    rc = main(["train", "--config", str(cfg), "--out", str(run_dir)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {cfg}:9: unknown config key {key!r}\n"
    assert not run_dir.exists()


def _rewritten(name, rewrite):
    """A copy of the data file holding its header and each row as ``rewrite`` returns it."""

    def write(tmp_path, data_path):
        header, *rows = data_path.read_text().splitlines(keepends=True)
        path = tmp_path / name
        path.write_text(header + "".join(map(rewrite, rows)))
        return path

    return write


_one_identity = _rewritten("one_id.csv", lambda row: row if row.startswith("0,") else "")
_without_gray = _rewritten("no_gray.csv", lambda row: "" if ",gray," in row else row)
_without_ir = _rewritten("no_ir.csv", lambda row: "" if ",ir," in row else row)
# a leading 9 turns infrared identity 0 into 90, 1 into 91, ...: ids no visible row carries
_ir_ids_shifted = _rewritten("ir_shifted.csv", lambda row: "9" + row if ",ir," in row else row)


@pytest.mark.parametrize(
    "data,eval_data,override,needle",
    [
        (None, None, "batch.p=1000", "batches need 1000"),
        (_one_identity, None, "batch.p=3", "dataset has 1 identities"),
        (_without_gray, None, "train.schedule=gray_first", "'gray' rows per identity"),
        (None, _without_ir, "train.eval_direction=t2v", "both visible and infrared rows"),
        (None, _ir_ids_shifted, "train.eval_direction=t2v", "no t2v query identity"),
    ],
    ids=["batch_p_1000", "one_identity", "no_gray", "eval_no_ir", "eval_ir_ids_shifted"],
)
def test_unusable_dataset_exits_1_before_creating_the_run(
    small_data, tmp_path, capsys, data, eval_data, override, needle
):
    data_path = small_data if data is None else data(tmp_path, small_data)
    eval_path = None if eval_data is None else eval_data(tmp_path, small_data)
    cfg = write_small_config(tmp_path, data_path, eval_path)
    run_dir = tmp_path / "run"
    rc = main(["train", "--config", str(cfg), "--set", override, "--out", str(run_dir)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and needle in err
    assert not run_dir.exists()


def test_train_on_a_one_identity_eval_split_exits_1_before_creating_the_run(
    small_data, tmp_path, capsys
):
    cfg = write_small_config(tmp_path, small_data, _one_identity(tmp_path, small_data))
    run_dir = tmp_path / "run"
    rc = main(["train", "--config", str(cfg), "--out", str(run_dir)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "t2v evaluation needs two identities" in err
    assert not run_dir.exists()


def test_eval_on_a_one_identity_split_exits_1(small_data, tmp_path, capsys):
    cfg = write_small_config(tmp_path, small_data)
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(run_dir)]) == 0
    capsys.readouterr()
    one_id = _one_identity(tmp_path, small_data)
    rc = main(["eval", "--checkpoint", str(run_dir / "checkpoint.npz"), "--data", str(one_id)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "evaluation needs two identities" in captured.err


@pytest.mark.parametrize(
    "content,needle",
    [
        (b"\xef\xbb\xbfid,modality,f0\n0,vis,1.0\n", "line 1: non-ASCII byte 0xef"),
        (b"id,modality,f0\n99999999999999999999,vis,1.0\n", "line 2: identity"),
    ],
    ids=["byte_order_mark", "label_overflow"],
)
def test_unreadable_feature_file_exits_1_naming_the_line(tmp_path, capsys, content, needle):
    data_path = tmp_path / "bad.csv"
    data_path.write_bytes(content)
    cfg = write_small_config(tmp_path, data_path)
    rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and needle in err and "Traceback" not in err


def test_non_ascii_config_file_exits_1_naming_the_byte_and_line(small_data, tmp_path, capsys):
    cfg = tmp_path / "f.cfg"
    cfg.write_bytes(f"data.path = {small_data}\n# caf\u00e9\n".encode("utf-8"))
    run_dir = tmp_path / "run"
    rc = main(["train", "--config", str(cfg), "--out", str(run_dir)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: line 2: non-ASCII byte 0xc3\n"
    assert not run_dir.exists()


def test_non_ascii_variants_file_exits_1_naming_the_byte_and_line(small_data, tmp_path, capsys):
    cfg = write_small_config(tmp_path, small_data)
    variants = tmp_path / "variants.txt"
    variants.write_bytes("base:\n\n# r\u00e9sum\u00e9 of the grid\n".encode("utf-8"))
    out_dir = tmp_path / "ab"
    argv = ["ablate", "--config", str(cfg), "--data", str(small_data)]
    rc = main([*argv, "--variants", str(variants), "--out", str(out_dir)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: line 3: non-ASCII byte 0xc3\n"
    assert not out_dir.exists()


def test_run_directory_holds_no_temporary_files(small_data, tmp_path, capsys):
    cfg = write_small_config(tmp_path, small_data)
    run_dir = tmp_path / "run"
    rc = main(
        ["train", "--config", str(cfg), "--out", str(run_dir), "--checkpoint-every", "2"]
    )
    assert rc == 0
    capsys.readouterr()
    assert sorted(p.name for p in run_dir.iterdir()) == [
        "checkpoint.npz",
        "checkpoint_epoch1.npz",
        "checkpoint_epoch3.npz",
        "config.resolved.cfg",
        "epochs.csv",
        "manifest.json",
        "report_t2v.txt",
        "report_t2v_hist.csv",
    ]
    assert json.loads((run_dir / "manifest.json").read_text())["status"] == "complete"


def test_interrupted_write_keeps_previous_file(tmp_path):
    path = tmp_path / "report.txt"
    cli._write_atomic(str(path), "old\n")

    def crash(tmp):
        with open(tmp, "w", encoding="ascii") as fh:
            fh.write("partial")
        raise OSError("disk full")

    with pytest.raises(OSError):
        cli._write_atomic(str(path), crash)
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]


@pytest.mark.parametrize(
    "override, exit_code, prefix",
    [
        ("optim.base_lr=1e300", 2, "epoch 0, batch "),  # parameters overflow mid-epoch
    ],
)
def test_failed_run_records_status(small_data, tmp_path, capsys, override, exit_code, prefix):
    cfg = write_small_config(tmp_path, small_data)
    run_dir = tmp_path / "run"
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["train", "--config", str(cfg), "--set", override, "--out", str(run_dir)])
    assert rc == exit_code
    message = capsys.readouterr().err.strip().removeprefix("error: ")
    assert message.startswith(prefix)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["status"] == f"failed: {message}"
    assert not (run_dir / "checkpoint.npz").exists()


def test_overflowing_features_name_the_forward_statistics(tmp_path, capsys):
    root = Path(__file__).resolve().parent.parent
    data = load_features(root / "data" / "benchmark_train.csv")
    huge = tmp_path / "huge.csv"
    synthdata.save_features(
        synthdata.SynthDataset(data.features * 1e300, data.labels, data.modalities), huge
    )
    run_dir = tmp_path / "run"
    argv = ["train", "--config", str(root / "configs" / "default.cfg"), "--out", str(run_dir)]
    argv += ["--set", f"data.path={huge}"]
    argv += ["--set", f"data.eval_path={root / 'data' / 'benchmark_test.csv'}"]
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "error: epoch 0, batch 0: non-finite batch-norm variance in the forward pass\n"
    assert [w for w in seen if issubclass(w.category, RuntimeWarning)] == []
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["status"] == "failed: " + err.strip().removeprefix("error: ")


def test_failed_checkpoint_write_records_status(small_data, tmp_path, capsys, monkeypatch):
    def disk_full(path, params):
        raise OSError("disk full")

    monkeypatch.setattr(cli, "save_checkpoint", disk_full)
    cfg = write_small_config(tmp_path, small_data)
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(run_dir)]) == 2
    assert "disk full" in capsys.readouterr().err
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["status"] == "failed: disk full"
    assert not (run_dir / "report_t2v.txt").exists()


def test_eval_reproduces_training_report(small_data, tmp_path, capsys):
    cfg = write_small_config(tmp_path, small_data)
    run_dir = tmp_path / "run"
    main(["train", "--config", str(cfg), "--out", str(run_dir)])
    capsys.readouterr()
    rc = main(
        [
            "eval",
            "--checkpoint", str(run_dir / "checkpoint.npz"),
            "--data", str(small_data),
            "--out", str(tmp_path / "evaldir"),
        ]
    )
    assert rc == 0
    stdout = capsys.readouterr().out
    # training evaluated on the same (training) file: reports agree byte for byte
    trained = (run_dir / "report_t2v.txt").read_text()
    assert stdout == trained
    assert (tmp_path / "evaldir" / "report_t2v.txt").read_text() == trained
    assert (
        (tmp_path / "evaldir" / "report_t2v_hist.csv").read_text()
        == (run_dir / "report_t2v_hist.csv").read_text()
    )


def test_eval_v2t_direction(small_data, tmp_path, capsys):
    cfg = write_small_config(tmp_path, small_data)
    run_dir = tmp_path / "run"
    main(["train", "--config", str(cfg), "--out", str(run_dir)])
    capsys.readouterr()
    rc = main(
        [
            "eval",
            "--checkpoint", str(run_dir / "checkpoint.npz"),
            "--data", str(small_data),
            "--direction", "v2t",
        ]
    )
    assert rc == 0
    assert "rank1=" in capsys.readouterr().out


def test_eval_missing_checkpoint_exits_2(small_data, capsys):
    rc = main(["eval", "--checkpoint", "/nonexistent.npz", "--data", str(small_data)])
    assert rc == 2
    capsys.readouterr()


@pytest.mark.parametrize("kind", CORRUPT_CHECKPOINT_KINDS)
def test_eval_corrupt_checkpoint_exits_2(small_data, tmp_path, capsys, kind):
    path, fragment = write_corrupt_checkpoints(tmp_path)[kind]
    rc = main(["eval", "--checkpoint", str(path), "--data", str(small_data)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err


def test_ablate_with_variants_file(small_data, tmp_path, capsys):
    cfg = write_small_config(tmp_path, small_data)
    variants = tmp_path / "variants.txt"
    variants.write_text(
        "# two quick variants\n"
        "base:\n"
        "no_terms: loss.lambda1=0 loss.lambda2=0\n"
    )
    out_dir = tmp_path / "ab"
    rc = main(
        [
            "ablate",
            "--config", str(cfg),
            "--data", str(small_data),
            "--variants", str(variants),
            "--seeds", "0,1",
            "--out", str(out_dir),
        ]
    )
    assert rc == 0
    stdout = capsys.readouterr().out
    lines = stdout.strip().split("\n")
    assert lines[0].startswith("variant,seeds,")
    assert lines[1].startswith("base,2,")
    assert lines[2].startswith("no_terms,2,")
    assert (out_dir / "ablation.csv").read_text() == stdout


def test_ablate_failed_write_keeps_previous_table(small_data, tmp_path, capsys, monkeypatch):
    cfg = write_small_config(tmp_path, small_data)
    out_dir = tmp_path / "ab"
    out_dir.mkdir()
    (out_dir / "ablation.csv").write_text("old\n")

    def disk_full(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cli.os, "replace", disk_full)
    rc = main(["ablate", "--config", str(cfg), "--data", str(small_data), "--out", str(out_dir)])
    assert rc == 2
    assert "disk full" in capsys.readouterr().err
    assert (out_dir / "ablation.csv").read_text() == "old\n"
    assert [p.name for p in out_dir.iterdir()] == ["ablation.csv"]


def test_ablate_unusable_out_fails_before_training(small_data, tmp_path, capsys, monkeypatch):
    cfg = write_small_config(tmp_path, small_data)
    out = tmp_path / "taken"
    out.write_text("a file, not a directory\n")
    trained = []
    real = cli.trainer.train

    def counting(*args, **kwargs):
        trained.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli.trainer, "train", counting)
    args = ["--config", str(cfg), "--data", str(small_data), "--seeds", "0,1"]
    rc = main(["ablate", *args, "--out", str(out)])
    assert rc == 2
    assert trained == []
    assert str(out) in capsys.readouterr().err


def test_ablate_bad_variants_line_exits_1(small_data, tmp_path, capsys):
    cfg = write_small_config(tmp_path, small_data)
    variants = tmp_path / "variants.txt"
    variants.write_text("just a name without colon\n")
    rc = main(
        ["ablate", "--config", str(cfg), "--data", str(small_data), "--variants", str(variants)]
    )
    assert rc == 1
    capsys.readouterr()


def test_ablate_bad_seeds_exits_1(small_data, tmp_path, capsys):
    cfg = write_small_config(tmp_path, small_data)
    rc = main(["ablate", "--config", str(cfg), "--data", str(small_data), "--seeds", "0,x"])
    assert rc == 1
    capsys.readouterr()


def test_ablate_bad_variant_exits_1_without_a_table(small_data, tmp_path, capsys):
    cfg = write_small_config(tmp_path, small_data)
    variants = tmp_path / "variants.txt"
    variants.write_text("ok: loss.lambda1=0\ntypo: loss.lamda1=0\nneg: loss.margin=-1\n")
    out_dir = tmp_path / "ab"
    args = ["--config", str(cfg), "--data", str(small_data), "--out", str(out_dir)]
    rc = main(["ablate", *args, "--variants", str(variants)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == "error: variant 'typo': unknown config key 'loss.lamda1'\n"
    assert captured.out == ""
    assert not out_dir.exists()


def test_ablate_negative_seed_exits_1_without_a_table(small_data, tmp_path, capsys):
    cfg = write_small_config(tmp_path, small_data)
    out_dir = tmp_path / "ab"
    args = ["--config", str(cfg), "--data", str(small_data), "--out", str(out_dir)]
    rc = main(["ablate", *args, "--seeds", "0,-1"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == "error: seed must be non-negative\n" and captured.out == ""
    assert not out_dir.exists()


def test_gradcheck_single_component(capsys):
    rc = main(["gradcheck", "--component", "l_id", "--seeds", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS l_id:")
    assert "max_rel_error=" in out


def test_train_manifest_records_the_machine_and_input_digests(small_data, tmp_path, capsys):
    evalset = tmp_path / "eval.csv"
    evalset.write_bytes(Path(small_data).read_bytes())
    cfg = write_small_config(tmp_path, small_data, eval_path=evalset)
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(run_dir)]) == 0
    capsys.readouterr()
    manifest = json.loads((run_dir / "manifest.json").read_text())
    digest = hashlib.sha256(Path(small_data).read_bytes()).hexdigest()
    assert manifest["input_sha256"] == {"data": digest, "eval_data": digest}
    record = manifest["machine"]
    assert record["python"] == platform.python_version()
    assert record["numpy"] == np.__version__
    assert record["blas"] == machine.blas_record()
    assert record["blas"]["kernel"] == machine.blas_kernel() != ""
    assert record["threads"] == {var: os.environ.get(var) for var in machine.THREAD_VARS}
    assert set(record["threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}


@pytest.mark.parametrize(
    "attr, value", [("_OPENBLAS", "libno_such_blas_*.so"), ("_CORENAME", "no_such_query")]
)
def test_blas_kernel_is_unknown_without_the_library_or_its_query(monkeypatch, attr, value):
    monkeypatch.setattr(machine, attr, value)
    assert machine.blas_kernel() == "unknown"


def test_gradcheck_fails_on_a_nan_gradient(monkeypatch, capsys):
    real = losses.msel

    def planted(batch, metric="euclid"):
        out = real(batch, metric)
        grad = out.grad.copy()
        grad[..., 0, 0] = np.nan
        return LossOutput(out.value, grad, out.mining)

    monkeypatch.setattr(losses, "msel", planted)
    rc = main(["gradcheck", "--component", "msel_euclid", "--seeds", "1"])
    out = capsys.readouterr().out
    assert out.startswith("FAIL msel_euclid: max_rel_error=nan")
    assert rc == cli.RUNTIME_EXIT


def test_gradcheck_rejects_unknown_component(capsys):
    assert main(["gradcheck", "--component", "everything"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("seeds", ["0", "-3"])
def test_gradcheck_without_instances_exits_1(capsys, seeds):
    assert main(["gradcheck", "--component", "l_global", "--seeds", seeds]) == 1
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert "instances must be >= 1" in captured.err


@pytest.mark.parametrize("tol", ["-1", "nan", "0"])
def test_gradcheck_bad_tol_exits_1(capsys, tol):
    assert main(["gradcheck", "--component", "l_id", "--seeds", "1", "--tol", tol]) == 1
    captured = capsys.readouterr()
    assert "FAIL" not in captured.out and "PASS" not in captured.out
    assert "tol must be finite and > 0" in captured.err


# ---------------------------------------------------------------- README

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_epochs_csv_columns_match_the_writer():
    documented = re.search(r"^- `epochs\.csv` — `([^`]+)`", README, re.M).group(1)
    assert documented == cli.EPOCH_CSV_HEADER


def test_loss_term_columns_match_the_objectives_terms():
    # a renamed term would otherwise leave its epochs.csv column blank
    cfg = LossConfig(lambda1=0.5, lambda2=0.5, include_id_stage2=True)
    emitted = set()
    for objective, pair in ((stage1_objective, ("gray", "ir")), (stage2_objective, ("vis", "ir"))):
        batch = make_pk_batch(RngStream(0), 3, 2, 4, pair)
        logits = RngStream(1).normal(size=(12, 3))
        emitted |= set(objective(batch, logits, batch.labels, cfg).terms)
    assert emitted == set(cli._LOSS_TERMS)


def test_readme_run_directory_lists_the_manifest_artifacts(small_data, tmp_path, capsys):
    cfg = write_small_config(tmp_path, small_data)
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(run_dir)]) == 0
    capsys.readouterr()
    manifest = json.loads((run_dir / "manifest.json").read_text())
    section = README.split("### Run directories", 1)[1].split("\n\n")[2]
    bullets = [line for line in section.splitlines() if line.startswith("- ")]
    documented = [
        name.format(direction=manifest["config"]["train.eval_direction"])
        for line in bullets
        for name in re.findall(r"`([^`]+)`", line.split(" — ", 1)[0])
    ]
    assert documented == ["manifest.json", *manifest["artifacts"].values()]
