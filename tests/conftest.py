import numpy as np
import pytest

from crossmodal.batch import LabeledBatch
from crossmodal.core import RngStream
from crossmodal.machine import blas_kernel
from crossmodal.model import init_params, save_checkpoint
from crossmodal.optim import init_optim_state


#: The OpenBLAS kernel the pinned digests were taken on. Another kernel sums
#: matrix products in another order, so a pin may not hold there.
PIN_KERNEL = "SkylakeX"


def pin_note() -> str:
    """A pinned digest's assertion message: the kernel this run is on and the pin's."""
    return f"ran on OpenBLAS kernel {blas_kernel()}; the digest was taken on {PIN_KERNEL}"


def make_pk_batch(rng: RngStream, p: int, k: int, dim: int, pair=("vis", "ir")):
    """Random-feature batch with the P x K x 2-modality block structure."""
    feats = rng.normal(size=(2 * p * k, dim))
    labels = np.repeat(np.arange(p), 2 * k)
    mods = np.tile(np.repeat(list(pair), k), p)
    return LabeledBatch(feats, labels, mods)


CORRUPT_CHECKPOINT_KINDS = (
    "truncated",
    "not_a_zip",
    "bare_npy",
    "missing_field",
    "nan_w1",
    "wrong_shape_b2",
    "text_bc",
    "bool_bn_gamma",
    "nan_opt_m_w1",
    "wrong_shape_opt_v_bc",
    "identity_activation",
)


def write_corrupt_checkpoints(tmp_path):
    """Unreadable or tampered checkpoints by kind, each with a fragment its error must name."""
    good = tmp_path / "good.npz"
    params = init_params(4, 5, 3, 2, RngStream(0))
    save_checkpoint(good, params, init_optim_state(params))
    raw = good.read_bytes()
    (tmp_path / "truncated.npz").write_bytes(raw[: len(raw) // 2])
    (tmp_path / "not_a_zip.npz").write_text("not a checkpoint\n")
    with open(tmp_path / "bare.npz", "wb") as fh:
        np.save(fh, params.w1)
    kinds = {
        "truncated": (tmp_path / "truncated.npz", "not a readable .npz archive"),
        "not_a_zip": (tmp_path / "not_a_zip.npz", "not a readable .npz archive"),
        "bare_npy": (tmp_path / "bare.npz", "not a readable .npz archive"),
    }
    tampered = {
        "missing_field": ("param_w2", None, "param_w2"),
        "nan_w1": ("param_w1", np.full((4, 5), np.nan), "param_w1 has non-finite values"),
        "wrong_shape_b2": ("param_b2", np.zeros(7), "param_b2 has shape (7,)"),
        "text_bc": ("param_bc", np.array(["a", "b"]), "param_bc has dtype <U1"),
        "bool_bn_gamma": ("param_bn_gamma", np.ones(3, bool), "param_bn_gamma has dtype bool"),
        "nan_opt_m_w1": ("opt_m_w1", np.full((4, 5), np.nan), "opt_m_w1 has non-finite values"),
        "wrong_shape_opt_v_bc": ("opt_v_bc", np.zeros((2, 1)), "opt_v_bc has shape (2, 1)"),
        "identity_activation": ("activation", np.array("identity"), "activation is 'identity'"),
    }
    for kind, (field, value, fragment) in tampered.items():
        fields = dict(np.load(good))
        if value is None:
            del fields[field]
        else:
            fields[field] = value
        np.savez(tmp_path / f"{kind}.npz", **fields)
        kinds[kind] = (tmp_path / f"{kind}.npz", fragment)
    return kinds


@pytest.fixture
def rng():
    return RngStream(1234)
