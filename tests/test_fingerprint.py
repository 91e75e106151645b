"""Pinned behaviour fingerprint of the default training run.

A change that claims "same behaviour" must leave this digest unchanged; a
change that alters float order on purpose updates it and says why in
CHANGES.md. The hash is taken the same way as ``bench/workloads.fingerprint``:
SHA-256 over each parameter tensor's name, shape and little-endian float64
bytes, in field order, then the final evaluation's ``report_text``.
"""

import hashlib
import pathlib
from dataclasses import fields

import numpy as np
from conftest import pin_note

from crossmodal.config import parse_config_file
from crossmodal.evalkit import report_text
from crossmodal.synthdata import load_features
from crossmodal.trainer import train

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: configs/default.cfg, seed 0, on the bundled benchmark splits.
DEFAULT_RUN_FINGERPRINT = "8479f38a114424ade1f97865ef64a8a6de71289beabacd4e5f780ab98fa2c5d6"


def _fingerprint(params, report) -> str:
    digest = hashlib.sha256()
    names = [f.name for f in fields(params) if f.name != "activation"]
    assert len(names) == 10
    for name in names:
        arr = np.ascontiguousarray(getattr(params, name), dtype="<f8")
        digest.update(f"{name}{arr.shape}".encode("ascii"))
        digest.update(arr.tobytes())
    digest.update(report_text(report).encode("ascii"))
    return digest.hexdigest()


def test_default_run_fingerprint_is_pinned():
    cfg = parse_config_file(ROOT / "configs" / "default.cfg").train.validate()
    assert cfg.seed == 0
    train_set = load_features(ROOT / "data" / "benchmark_train.csv")
    eval_set = load_features(ROOT / "data" / "benchmark_test.csv")
    params, logs = train(train_set, cfg, eval_set)
    assert _fingerprint(params, logs[-1].eval) == DEFAULT_RUN_FINGERPRINT, pin_note()
