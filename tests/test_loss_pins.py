"""Bit-exactness pins and structure checks for the stage-2 loss kernels.

The digests are SHA-256 over the little-endian float64 bytes of a loss's
value, its terms and its gradients, on seeded batches in ``sample_batch``'s
row order (identity blocks in drawn order, each holding K rows of one
modality then K of the other). They were computed before the losses moved
to identity-block and mined-entry kernels, so any float-order change in
those kernels moves them.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

import oracles
from conftest import pin_note
from crossmodal.batch import LabeledBatch
from crossmodal.core import RngStream
from crossmodal.losses import (
    LossConfig,
    dcl,
    hard_triplet_global,
    hard_triplet_intra,
    msel,
    stage2_objective,
)

DIM = 16

#: (objective, P, K) -> digest, computed on the kernels before the rewrite.
PINS = {
    ("stage2_euclid", 8, 4): "ab08a3ec1ae099fb799b426424ebe72c9851509ff6b009ff997336046a792df9",
    ("stage2_euclid", 32, 8): "603b4001f31f85b80aa51fb46fa5b8bcbaa7f6ab85189e974c8986ca9752129f",
    ("stage2_cosine", 8, 4): "cc958ff261503b554bffa74bf47c23962060930002ba9bff15c1f0e55e111954",
    ("stage2_cosine", 32, 8): "7749d7bfa0f209c2c5394cb83219b62d7e7d5a24e26022b12f1cf413e0b008e9",
    ("intra", 8, 4): "472866267bbf56b8ec2b28da5e3bb9cb8241663d22b628a955077fa4ab8eaeb5",
    ("intra", 32, 8): "b022d13c41d986aced3d9a1923a2e7c0630466dff30dcce383c841ed44010479",
}


def sampled_order_batch(seed: int, p: int, k: int, pair=("vis", "ir")) -> LabeledBatch:
    """P identities in a drawn order, each a block of K ``pair[0]`` then K ``pair[1]`` rows."""
    rng = RngStream(seed)
    feats = rng.normal(size=(2 * p * k, DIM))
    labels = np.repeat(3 * rng.permutation(p) + 7, 2 * k)
    mods = np.tile(np.repeat(list(pair), k), p)
    return LabeledBatch(feats, labels, mods).validate()


def _digest(*values) -> str:
    digest = hashlib.sha256()
    for v in values:
        digest.update(np.ascontiguousarray(v, dtype="<f8").tobytes())
    return digest.hexdigest()


def _objective_digest(name: str, p: int, k: int) -> str:
    if name == "intra":
        batch = sampled_order_batch(p * k, p, k, pair=("gray", "ir"))
        out = hard_triplet_intra(batch, 0.1)
        return _digest(out.value, out.grad)
    metric = name.split("_")[1]
    batch = sampled_order_batch(p * k, p, k)
    logits = RngStream(p * k).child(1).normal(size=(len(batch), p))
    out = stage2_objective(batch, logits, batch.labels, LossConfig(msel_metric=metric))
    terms = [out.terms[key] for key in ("global", "msel", "dcl")]
    return _digest(out.value, terms, out.grad_embeddings, out.grad_logits)


@pytest.mark.parametrize("name, p, k", sorted(PINS))
def test_loss_bytes_are_pinned(name, p, k):
    assert _objective_digest(name, p, k) == PINS[name, p, k], pin_note()


def _oracle_batches():
    """A K=3 batch (2K not a multiple of 8) and a batch with its rows shuffled."""
    odd = sampled_order_batch(1, 4, 3)
    shuffled = sampled_order_batch(2, 3, 4)
    perm = RngStream(3).permutation(len(shuffled))
    shuffled = LabeledBatch(
        shuffled.features[perm], shuffled.labels[perm], shuffled.modalities[perm]
    )
    return {"k3": odd, "shuffled": shuffled}


@pytest.mark.parametrize("name", ["k3", "shuffled"])
def test_block_and_mined_kernels_match_loop_oracles(name):
    batch = _oracle_batches()[name]
    feats, labels = batch.features.tolist(), batch.labels.tolist()
    mods = batch.modalities.tolist()
    close = dict(rel=0, abs=1e-12)
    for metric in ("euclid", "cosine"):
        assert msel(batch, metric).value == pytest.approx(oracles.msel(feats, labels, mods, metric), **close)
    out = msel(batch, "euclid")
    assert np.allclose(out.grad, oracles.msel_grad(feats, labels, mods), rtol=0, atol=1e-12)
    assert out.mining.gap() == pytest.approx(oracles.msel_gap(feats, labels), **close)
    tri = hard_triplet_global(batch, 0.1)
    assert tri.value == pytest.approx(oracles.batch_hard_triplet(feats, labels, 0.1), **close)
    expected = oracles.batch_hard_triplet_grad(feats, labels, 0.1)
    assert np.allclose(tri.grad, expected, rtol=0, atol=1e-12)
    intra = hard_triplet_intra(batch, 0.1).value
    assert intra == pytest.approx(oracles.intra_triplet(feats, labels, mods, 0.1), **close)
    for mode in ("hard", "all", "dyn"):
        out = dcl(batch, mode)
        assert out.value == pytest.approx(oracles.dcl(feats, labels, mode), **close)
        assert np.allclose(out.grad, oracles.dcl_grad(feats, labels, mode), rtol=0, atol=1e-12)


def test_msel_allocates_less_than_one_dense_matrix():
    # the identity-block form never holds an n x n array; the dense form held several
    batch = sampled_order_batch(0, 32, 8)
    n = len(batch)
    tracemalloc.start()
    try:
        msel(batch, "euclid")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8
