import numpy as np
import pytest

from crossmodal.batch import LabeledBatch
from crossmodal.core import RngStream
from crossmodal.model import init_params, save_checkpoint


def make_pk_batch(rng: RngStream, p: int, k: int, dim: int, pair=("vis", "ir")):
    """Random-feature batch with the P x K x 2-modality block structure."""
    feats = rng.normal(size=(2 * p * k, dim))
    labels = np.repeat(np.arange(p), 2 * k)
    mods = np.tile(np.repeat(list(pair), k), p)
    return LabeledBatch(feats, labels, mods)


def write_corrupt_checkpoints(tmp_path):
    """Unreadable checkpoints by kind, each with a fragment its error must name."""
    good = tmp_path / "good.npz"
    save_checkpoint(good, init_params(4, 5, 3, 2, RngStream(0)))
    raw = good.read_bytes()
    (tmp_path / "truncated.npz").write_bytes(raw[: len(raw) // 2])
    (tmp_path / "not_a_zip.npz").write_text("not a checkpoint\n")
    fields = dict(np.load(good))
    del fields["param_w2"]
    np.savez(tmp_path / "no_w2.npz", **fields)
    return {
        "truncated": (tmp_path / "truncated.npz", "not a readable .npz archive"),
        "not_a_zip": (tmp_path / "not_a_zip.npz", "not a readable .npz archive"),
        "missing_field": (tmp_path / "no_w2.npz", "param_w2"),
    }


@pytest.fixture
def rng():
    return RngStream(1234)
