from dataclasses import replace

import numpy as np
import pytest

import oracles
from conftest import make_pk_batch
from crossmodal.batch import LabeledBatch
from crossmodal import losses
from crossmodal.core import _BLOCK, RngStream, _certified, pairwise_distances
from crossmodal.errors import (
    ConfigError,
    DegenerateError,
    LabelError,
    NumericError,
    SamplingError,
    StageError,
)
from crossmodal.losses import (
    LossConfig,
    compute_centers,
    dcl,
    hard_triplet_global,
    hard_triplet_intra,
    identity_loss,
    msel,
    stage1_objective,
    stage2_objective,
)

# ---------------------------------------------------------------- frozen examples


def _global_example():
    return LabeledBatch(
        np.array([[0.0], [0.5], [0.6], [1.0]]),
        np.array([0, 0, 1, 1]),
        np.array(["vis", "ir", "vis", "ir"]),
    )


def test_global_triplet_hand_value():
    # anchors 0.5 and 0.6 are the only active hinges: 0.5 and 0.4
    assert hard_triplet_global(_global_example(), 0.1).value == pytest.approx(0.9, abs=1e-12)


def test_global_triplet_zero_hinge_is_inactive():
    # inner anchors: pos 1.0, neg 1.1, margin 0.1 -> hinge exactly 0
    batch = LabeledBatch(
        np.array([[0.0], [1.0], [2.1], [3.1]]),
        np.array([0, 0, 1, 1]),
        np.array(["vis", "ir", "vis", "ir"]),
    )
    out = hard_triplet_global(batch, 0.1)
    assert out.value == 0.0
    assert np.array_equal(out.grad, np.zeros((4, 1)))


def test_intra_triplet_hand_value():
    # gray half reproduces the global example; ir half is collapsed-and-separated
    batch = LabeledBatch(
        np.array([[0.0], [0.5], [0.6], [1.0], [0.0], [0.0], [5.0], [5.0]]),
        np.array([0, 0, 1, 1, 0, 0, 1, 1]),
        np.array(["gray"] * 4 + ["ir"] * 4),
    )
    assert hard_triplet_intra(batch, 0.1).value == pytest.approx(0.9, abs=1e-12)


def test_msel_hand_value():
    batch = LabeledBatch(
        np.array([[0.0], [0.2], [1.0], [1.2]]),
        np.array([0, 0, 0, 0]),
        np.array(["vis", "vis", "ir", "ir"]),
    )
    assert msel(batch, "euclid").value == pytest.approx(0.65, abs=1e-12)


def _center_example():
    return LabeledBatch(
        np.array([[0.0], [0.2], [1.0], [1.2]]),
        np.array([0, 0, 1, 1]),
        np.array(["vis", "ir", "vis", "ir"]),
    )


def test_center_stats_hand_values():
    stats = compute_centers(_center_example())
    assert np.allclose(stats.centers.ravel(), [0.1, 1.1], atol=1e-15)
    assert np.allclose(stats.neg_margins, [1.0, 1.0], atol=1e-15)


def test_dcl_hand_value_dyn_and_hard_agree_here():
    batch = _center_example()
    expected = 0.2 / 1.8
    assert dcl(batch, "dyn").value == pytest.approx(expected, abs=1e-12)
    assert dcl(batch, "hard").value == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------- oracle spot checks
# (the full >= 200-instance sweep lives in test_acceptance.py)


def test_losses_match_oracles_spot(rng):
    for t in range(20):
        r = rng.child(t)
        p = 2 + int(r.integers(0, 2))
        k = 2 + int(r.integers(0, 2))
        dim = 2 + int(r.integers(0, 3))
        batch = make_pk_batch(r, p, k, dim)
        feats = batch.features.tolist()
        labels = batch.labels.tolist()
        mods = batch.modalities.tolist()
        assert hard_triplet_global(batch, 0.1).value == pytest.approx(
            oracles.batch_hard_triplet(feats, labels, 0.1), abs=1e-10
        )
        assert msel(batch, "euclid").value == pytest.approx(
            oracles.msel(feats, labels, mods, "euclid"), abs=1e-10
        )
        assert msel(batch, "cosine").value == pytest.approx(
            oracles.msel(feats, labels, mods, "cosine"), abs=1e-10
        )
        for mode in ("hard", "all", "dyn"):
            assert dcl(batch, mode).value == pytest.approx(
                oracles.dcl(feats, labels, mode), abs=1e-10
            )
        gray = make_pk_batch(r, p, k, dim, pair=("gray", "ir"))
        assert hard_triplet_intra(gray, 0.1).value == pytest.approx(
            oracles.intra_triplet(
                gray.features.tolist(), gray.labels.tolist(), gray.modalities.tolist(), 0.1
            ),
            abs=1e-10,
        )


def test_identity_loss_matches_oracle(rng):
    logits = rng.normal(size=(8, 5))
    labels = rng.integers(0, 5, size=8)
    out = identity_loss(logits, labels)
    assert out.value == pytest.approx(
        oracles.identity_loss(logits.tolist(), labels.tolist()), abs=1e-12
    )
    # gradient row sums vanish: softmax minus one-hot
    assert np.allclose(out.grad.sum(axis=1), 0.0, atol=1e-12)


# ---------------------------------------------------------------- kernel vs loops at ties
# gradcheck draws general-position batches only; these sit on the ties it
# avoids. Coordinates are small integers so every distance, center and mean
# is exact and both sides make the same discrete choices.


def _tie_batch(rows, labels, mods):
    return LabeledBatch(np.array(rows, dtype=float), labels, mods)


_PAIR = ["vis", "vis", "ir", "ir"]

TIE_BATCHES = {
    # coincident rows inside an identity, and across identities
    "duplicates": _tie_batch(
        [[0, 0], [0, 0], [1, 0], [0, 0], [2, 0], [2, 0], [0, 0], [3, 1],
         [1, 1], [1, 1], [1, 1], [0, 2]],
        [0] * 4 + [1] * 4 + [2] * 4,
        _PAIR * 3,
    ),
    # every anchor sees two equally hard positives and two equally hard negatives;
    # every identity sees all negatives at one distance from its center
    "equidistant": _tie_batch(
        [[-1], [1], [-1], [1], [3], [-3], [3], [-3]], [0] * 4 + [1] * 4, _PAIR * 2
    ),
    # at margin 1 the hinges of the rows at 0 and at 6 are exactly 0
    "zero_hinge": _tie_batch(
        [[0], [2], [0], [2], [3], [6], [3], [6]], [0] * 4 + [1] * 4, _PAIR * 2
    ),
    # both centers sit at 0, on two rows of identity 0
    "on_center": _tie_batch(
        [[-2], [2], [0], [0], [5], [5], [-5], [-5]], [0] * 4 + [1] * 4, _PAIR * 2
    ),
}


@pytest.mark.parametrize("name", sorted(TIE_BATCHES))
def test_batch_hard_grad_matches_anchor_loop_at_ties(name):
    batch = TIE_BATCHES[name]
    feats, labels = batch.features.tolist(), batch.labels.tolist()
    for margin in (0.1, 1.0):
        expected = oracles.batch_hard_triplet_grad(feats, labels, margin)
        got = hard_triplet_global(batch, margin).grad
        assert np.allclose(got, expected, rtol=0, atol=1e-12)
    intra = hard_triplet_intra(batch, 1.0).grad
    for mod in set(batch.modalities.tolist()):
        rows = np.flatnonzero(batch.modalities == mod)
        expected = oracles.batch_hard_triplet_grad(
            batch.features[rows].tolist(), batch.labels[rows].tolist(), 1.0
        )
        assert np.allclose(intra[rows], expected, rtol=0, atol=1e-12)


def test_tie_batches_hit_the_conventions():
    # rows at 2 and 3 are active (2 + 2 + 3 + 3); rows at 0 and 6 sit on the kink
    assert hard_triplet_global(TIE_BATCHES["zero_hinge"], 1.0).value == 10.0
    # row 0's two hardest positives (rows 1, 3) and negatives (rows 5, 7) tie
    d = pairwise_distances(TIE_BATCHES["equidistant"].features)
    assert d[0, 1] == d[0, 3] and d[0, 5] == d[0, 7]
    stats = compute_centers(TIE_BATCHES["equidistant"])
    assert np.array_equal(stats.distances[~stats.members], [3.0] * 4 + [1.0] * 4)
    # rows 2 and 3 sit on both centers: own rows for identity 0, negatives for 1
    on_center = compute_centers(TIE_BATCHES["on_center"])
    assert np.array_equal(np.argwhere(on_center.distances == 0), [[0, 2], [0, 3], [1, 2], [1, 3]])


@pytest.mark.parametrize("mode", ["hard", "all", "dyn"])
@pytest.mark.parametrize("name", ["duplicates", "equidistant", "on_center"])
def test_dcl_grad_matches_identity_loop_at_ties(name, mode):
    batch = TIE_BATCHES[name]
    expected = oracles.dcl_grad(batch.features.tolist(), batch.labels.tolist(), mode)
    assert np.allclose(dcl(batch, mode).grad, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "name, loss_fn",
    [
        ("duplicates", lambda b: hard_triplet_global(b, 0.1)),  # coincident rows
        ("duplicates", lambda b: hard_triplet_intra(b, 0.1)),
        ("equidistant", lambda b: hard_triplet_global(b, 0.1)),  # tied hardest pairs
        ("equidistant", lambda b: dcl(b, "hard")),  # tied nearest negatives
        ("equidistant", lambda b: dcl(b, "dyn")),  # negatives on the threshold
        ("zero_hinge", lambda b: hard_triplet_global(b, 1.0)),
        ("on_center", lambda b: dcl(b, "all")),  # rows on a center
        ("on_center", lambda b: dcl(b, "hard")),
        ("on_center", lambda b: dcl(b, "dyn")),
    ],
)
def test_mining_gap_is_zero_on_a_tie(name, loss_fn):
    assert loss_fn(TIE_BATCHES[name]).mining.gap() == 0.0


def _intra_gap_oracle(batch, margin):
    gaps = []
    for mod in set(batch.modalities.tolist()):
        rows = np.flatnonzero(batch.modalities == mod)
        gaps.append(
            oracles.batch_hard_gap(
                batch.features[rows].tolist(), batch.labels[rows].tolist(), margin
            )
        )
    return min(gaps)


def test_mining_gap_matches_loop_oracle(rng):
    batches = list(TIE_BATCHES.values())
    for t in range(20):
        r = rng.child(t)
        p, k, dim = 2 + int(r.integers(0, 2)), 2 + int(r.integers(0, 2)), 2 + int(r.integers(0, 3))
        batches.append(make_pk_batch(r, p, k, dim))
    for batch in batches:
        feats, labels = batch.features.tolist(), batch.labels.tolist()
        for margin in (0.1, 1.0):
            got = hard_triplet_global(batch, margin).mining.gap()
            assert got == pytest.approx(oracles.batch_hard_gap(feats, labels, margin), abs=1e-12)
            got = hard_triplet_intra(batch, margin).mining.gap()
            assert got == pytest.approx(_intra_gap_oracle(batch, margin), abs=1e-12)
        for mode in ("hard", "all", "dyn"):
            got = dcl(batch, mode).mining.gap()
            assert got == pytest.approx(oracles.dcl_gap(feats, labels, mode), abs=1e-12)


def test_stage2_objective_merges_its_terms_mining(rng):
    batch = make_pk_batch(rng, 3, 2, 4)
    cfg = LossConfig()
    out = stage2_objective(batch, np.zeros((len(batch), 3)), batch.labels, cfg)
    parts = (
        hard_triplet_global(batch, cfg.margin),
        msel(batch),
        dcl(batch, cfg.dcl_mode),
    )
    assert out.mining.gap() == min(part.mining.gap() for part in parts)
    assert msel(batch, "cosine").mining is None  # no mining decision to report


# ---------------------------------------------------------------- certified mining route
# Above core._BLOCK rows the batch-hard miner takes each hardest negative from
# the matmul form only where core._certified proves the choice, and mines
# every other row on the difference form. These batches send rows down that
# fallback on purpose: tiled tie batches (duplicated rows and exact ties
# across copies), unit rows scaled below and above core._SCALE_RANGE (so no
# row is certified, yet every distance stays finite), near ties that the
# matmul form's rounding error hides (so its own argmin is often wrong), and
# a tiled tie batch beside general-position rows (some rows certified, some
# not).


def _tiled(name, copies):
    """``copies`` of a tie batch stacked, each copy under its own labels."""
    batch = TIE_BATCHES[name]
    offset = batch.labels.max() + 1
    return LabeledBatch(
        np.tile(batch.features, (copies, 1)),
        np.concatenate([batch.labels + c * offset for c in range(copies)]),
        np.tile(batch.modalities, copies),
    )


def _unit_rows(scale, p=9, k=2, dim=4):
    batch = make_pk_batch(RngStream(p * k), p, k, dim)
    feats = batch.features / np.sqrt((batch.features**2).sum(axis=1, keepdims=True))
    return LabeledBatch(feats * scale, batch.labels, batch.modalities)


def _near_ties():
    """Distinct points of an integer grid, 2^8 from the origin, moved by ~1e-12.

    Grid distances tie often; the moves break the ties by far less than the
    matmul form's rounding error there (~1e-10), and far more than the
    difference form's.
    """
    r = RngStream(7)
    cells = r.permutation(64)[:40]
    grid = np.stack([cells // 8, cells % 8], axis=1) + 2.0**8
    batch = make_pk_batch(r, 10, 2, 2)
    return LabeledBatch(grid + 1e-12 * batch.features, batch.labels, batch.modalities)


def _mixed():
    ties, free = _tiled("equidistant", 3), make_pk_batch(RngStream(5), 4, 2, 1)
    return LabeledBatch(
        np.vstack([ties.features, free.features]),
        np.concatenate([ties.labels, free.labels + ties.labels.max() + 1]),
        np.concatenate([ties.modalities, free.modalities]),
    )


#: name -> (batch, scale of its features, whether every row must fall back)
FALLBACK_BATCHES = {
    "duplicates": (_tiled("duplicates", 6), 1.0, True),  # 72 rows; 36 per modality
    "equidistant": (_tiled("equidistant", 9), 1.0, True),
    "zero_hinge": (_tiled("zero_hinge", 9), 1.0, True),
    "on_center": (_tiled("on_center", 9), 1.0, True),
    "below_range": (_unit_rows(2.0**-490), 2.0**-490, True),
    "above_range": (_unit_rows(2.0**510), 2.0**510, True),
    "near_ties": (_near_ties(), 1.0, False),
    "mixed": (_mixed(), 1.0, False),  # 40 rows, 24 of them tied
}


@pytest.fixture
def fallback_rows(monkeypatch):
    """Per certified-route call: the number of rows it sent to the difference form."""
    counts = []

    def spy(gap, scale, d):
        proved = _certified(gap, scale, d)
        counts.append((len(proved), int((~proved).sum())))
        return proved

    monkeypatch.setattr(losses, "_certified", spy)
    return counts


@pytest.mark.parametrize("name", sorted(FALLBACK_BATCHES))
def test_fallback_mining_is_the_dense_form_bit_for_bit(name, fallback_rows):
    batch, scale, every_row = FALLBACK_BATCHES[name]
    for margin in (0.1 * scale, scale):
        out = hard_triplet_global(batch, margin)
        value, grad = oracles.dense_batch_hard(batch.features, batch.labels, margin)
        assert out.value == value and np.array_equal(out.grad, grad)
        intra, total = hard_triplet_intra(batch, margin), 0.0
        for rows, _ in batch.structure.layout.modality_pairs:
            value, grad = oracles.dense_batch_hard(batch.features[rows], batch.labels[rows], margin)
            total += value
            assert np.array_equal(intra.grad[rows], grad)
        assert intra.value == total
    assert all(n > _BLOCK for n, _ in fallback_rows)
    assert all(0 < bad for _, bad in fallback_rows)
    assert every_row == all(bad == n for n, bad in fallback_rows)


@pytest.mark.parametrize("name", sorted(FALLBACK_BATCHES))
def test_fallback_mining_matches_loop_oracles(name):
    batch, scale, _ = FALLBACK_BATCHES[name]
    feats, labels = batch.features.tolist(), batch.labels.tolist()
    close = dict(rel=0, abs=1e-12)
    for margin in (0.1 * scale, scale):
        out = hard_triplet_global(batch, margin)
        expected = oracles.batch_hard_triplet(feats, labels, margin)
        assert out.value / scale == pytest.approx(expected / scale, **close)
        expected = oracles.batch_hard_triplet_grad(feats, labels, margin)
        assert np.allclose(out.grad, expected, rtol=0, atol=1e-12)
        expected = oracles.batch_hard_gap(feats, labels, margin)
        assert out.mining.gap() / scale == pytest.approx(expected / scale, **close)


@pytest.mark.parametrize("p", [16, 17])  # 32 rows: the dense route; 34 rows: the certified one
def test_mining_routes_meet_at_the_block_size(p, fallback_rows):
    batch = make_pk_batch(RngStream(p), p, 1, 5)
    feats, labels = batch.features.tolist(), batch.labels.tolist()
    for margin in (0.1, 1.0):
        out = hard_triplet_global(batch, margin)
        value, grad = oracles.dense_batch_hard(batch.features, batch.labels, margin)
        assert out.value == value and np.array_equal(out.grad, grad)
        expected = oracles.batch_hard_triplet_grad(feats, labels, margin)
        assert np.allclose(out.grad, expected, rtol=0, atol=1e-12)
        expected = oracles.batch_hard_gap(feats, labels, margin)
        assert out.mining.gap() == pytest.approx(expected, rel=0, abs=1e-12)
    assert len(fallback_rows) == (2 if len(batch) > _BLOCK else 0)


# ---------------------------------------------------------------- invariances


def _perm(batch: LabeledBatch, perm: np.ndarray) -> LabeledBatch:
    return LabeledBatch(
        batch.features[perm], batch.labels[perm], batch.modalities[perm]
    )


@pytest.mark.parametrize(
    "loss_fn",
    [
        lambda b: hard_triplet_global(b, 0.1),
        lambda b: msel(b, "euclid"),
        lambda b: msel(b, "cosine"),
        lambda b: dcl(b, "hard"),
        lambda b: dcl(b, "all"),
        lambda b: dcl(b, "dyn"),
    ],
)
def test_permutation_invariance(rng, loss_fn):
    for t in range(5):
        r = rng.child(t)
        batch = make_pk_batch(r, 3, 2, 4)
        perm = r.permutation(len(batch))
        a = loss_fn(batch)
        b = loss_fn(_perm(batch, perm))
        assert abs(a.value - b.value) <= 1e-12 * max(1.0, abs(a.value))
        assert np.allclose(a.grad[perm], b.grad, atol=1e-12)


@pytest.mark.parametrize(
    "loss_fn",
    [
        lambda b: hard_triplet_global(b, 0.1),
        lambda b: hard_triplet_intra(b, 0.1),
        lambda b: msel(b, "euclid"),
        lambda b: dcl(b, "hard"),
        lambda b: dcl(b, "all"),
        lambda b: dcl(b, "dyn"),
    ],
)
def test_translation_invariance(rng, loss_fn):
    for t in range(5):
        r = rng.child(t)
        batch = make_pk_batch(r, 3, 2, 4)
        shift = r.normal(size=4) * 10.0
        moved = LabeledBatch(batch.features + shift, batch.labels, batch.modalities)
        assert loss_fn(moved).value == pytest.approx(loss_fn(batch).value, abs=1e-9)


# ---------------------------------------------------------------- zero cases


def test_msel_zero_case_exact():
    # every row of the identity coincides: both positive means are zero
    feats = np.array([[1.0, 2.0]] * 4 + [[5.0, 6.0]] * 4)
    batch = LabeledBatch(
        feats, [0] * 4 + [1] * 4, ["vis", "vis", "ir", "ir"] * 2
    )
    out = msel(batch, "euclid")
    assert out.value == 0.0
    assert np.array_equal(out.grad, np.zeros_like(feats))


def test_dcl_zero_case_exact():
    # own rows sit exactly at their centers: numerator is exactly zero
    feats = np.array([[2.0, 0.0]] * 4 + [[0.0, 3.0]] * 4)
    batch = LabeledBatch(
        feats, [0] * 4 + [1] * 4, ["vis", "vis", "ir", "ir"] * 2
    )
    for mode in ("hard", "all", "dyn"):
        out = dcl(batch, mode)
        assert out.value == 0.0
        assert np.array_equal(out.grad, np.zeros_like(feats))


def test_dcl_degenerate_when_everything_coincides():
    feats = np.ones((8, 2))
    batch = LabeledBatch(feats, [0] * 4 + [1] * 4, ["vis", "vis", "ir", "ir"] * 2)
    with pytest.raises(DegenerateError):
        dcl(batch, "all")


# ---------------------------------------------------------------- error taxonomy


def test_triplet_needs_positives_and_negatives():
    with pytest.raises(SamplingError):  # k = 1: no same-modality positive
        hard_triplet_intra(_center_example(), 0.1)
    one_id = LabeledBatch(np.zeros((4, 2)), [0] * 4, ["vis", "ir", "vis", "ir"])
    with pytest.raises(SamplingError):
        hard_triplet_global(one_id, 0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("p, k, dim", [(3, 3, 4), (32, 8, 16)])  # 18 and 512 rows
def test_batch_hard_refuses_non_finite_features(rng, p, k, dim, bad):
    batch = make_pk_batch(rng, p, k, dim).validate()
    feats = batch.features.copy()
    feats[5, 1] = bad
    broken = replace(batch, features=feats)  # keeps the structure: no re-validation
    logits = np.zeros((len(batch), p))
    for loss_fn in (
        lambda b: hard_triplet_global(b, 0.1),
        lambda b: hard_triplet_intra(b, 0.1),
        lambda b: stage2_objective(b, logits, b.labels, LossConfig()),
    ):
        with pytest.raises(NumericError, match="matrix contains NaN or Inf"):
            loss_fn(broken)


def test_msel_needs_k_at_least_two():
    batch = _center_example()  # k = 1
    with pytest.raises(ConfigError):
        msel(batch, "euclid")
    with pytest.raises(ConfigError):
        msel(make_pk_batch(RngStream(0), 2, 2, 3), "chebyshev")


def test_identity_loss_label_errors(rng):
    logits = rng.normal(size=(4, 3))
    with pytest.raises(LabelError):
        identity_loss(logits, [0, 1, 2, 3])
    with pytest.raises(LabelError):
        identity_loss(logits, [0, -1, 1, 1])


def test_compute_centers_needs_two_identities():
    batch = LabeledBatch(np.zeros((4, 2)), [3] * 4, ["vis", "ir", "vis", "ir"])
    with pytest.raises(ConfigError):
        compute_centers(batch)


# ---------------------------------------------------------------- stage objectives


def test_stage1_objective_composition(rng):
    batch = make_pk_batch(rng, 3, 2, 4, pair=("gray", "ir"))
    logits = rng.normal(size=(len(batch), 3))
    out = stage1_objective(batch, logits, batch.labels, LossConfig())
    tri = hard_triplet_intra(batch, 0.1)
    ce = identity_loss(logits, batch.labels)
    assert out.value == pytest.approx(tri.value + ce.value, abs=1e-12)
    assert out.terms == {"intra": tri.value, "id": ce.value}
    assert np.array_equal(out.grad_embeddings, tri.grad)
    assert np.array_equal(out.grad_logits, ce.grad)


def test_stage2_objective_composition(rng):
    batch = make_pk_batch(rng, 3, 2, 4)
    logits = rng.normal(size=(len(batch), 3))
    cfg = LossConfig(lambda1=0.3, lambda2=0.7)
    out = stage2_objective(batch, logits, batch.labels, cfg)
    tri = hard_triplet_global(batch, 0.1)
    me = msel(batch, "euclid")
    dc = dcl(batch, "dyn")
    assert out.value == pytest.approx(tri.value + 0.3 * me.value + 0.7 * dc.value, abs=1e-12)
    assert set(out.terms) == {"global", "msel", "dcl"}
    assert np.allclose(
        out.grad_embeddings, tri.grad + 0.3 * me.grad + 0.7 * dc.grad, atol=1e-12
    )
    assert np.array_equal(out.grad_logits, np.zeros_like(logits))


def test_stage2_objective_is_the_exact_weighted_sum_of_its_terms(rng):
    # 72 rows: past the blocked-kernel threshold, so the triplet's distances are blocked.
    batch = make_pk_batch(rng, 6, 6, 5)
    logits = rng.normal(size=(len(batch), 6))
    cfg = LossConfig(lambda1=0.3, lambda2=0.7)
    out = stage2_objective(batch, logits, batch.labels, cfg)
    tri = hard_triplet_global(batch, cfg.margin)
    me = msel(batch)
    dc = dcl(batch, cfg.dcl_mode)
    assert out.terms["global"] == tri.value
    assert out.terms["msel"] == me.value
    grad = tri.grad.copy()
    grad += cfg.lambda1 * me.grad
    grad += cfg.lambda2 * dc.grad
    assert np.array_equal(out.grad_embeddings, grad)


def test_stage2_objective_builds_the_block_distances_once(monkeypatch, rng):
    # 72 rows: the global triplet mines its hardest positives from the identity blocks
    batch = make_pk_batch(rng, 6, 6, 5)
    built = []
    real = losses._block_distances

    def spy(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(losses, "_block_distances", spy)
    out = stage2_objective(batch, np.zeros((len(batch), 6)), batch.labels, LossConfig())
    assert len(built) == 1
    # the miner masks a copy: msel's record keeps the shared array, unmasked
    assert out.mining.parts[1].dist is built[0]
    assert np.isfinite(built[0]).all()
    assert built[0].tobytes() == msel(batch).mining.dist.tobytes()


def test_stage2_with_zero_lambdas_equals_global_exactly(rng):
    batch = make_pk_batch(rng, 3, 3, 4)
    logits = rng.normal(size=(len(batch), 3))
    cfg = LossConfig(lambda1=0.0, lambda2=0.0)
    out = stage2_objective(batch, logits, batch.labels, cfg)
    tri = hard_triplet_global(batch, 0.1)
    assert out.value == tri.value
    assert np.array_equal(out.grad_embeddings, tri.grad)
    assert set(out.terms) == {"global"}


def test_stage2_identity_flag(rng):
    batch = make_pk_batch(rng, 3, 2, 4)
    logits = rng.normal(size=(len(batch), 3))
    cfg = LossConfig(include_id_stage2=True)
    out = stage2_objective(batch, logits, batch.labels, cfg)
    assert "id" in out.terms
    assert not np.array_equal(out.grad_logits, np.zeros_like(logits))


def test_stage_objectives_check_modalities(rng):
    vis = make_pk_batch(rng.child(0), 3, 2, 4)
    gray = make_pk_batch(rng.child(1), 3, 2, 4, pair=("gray", "ir"))
    logits = np.zeros((12, 3))
    with pytest.raises(StageError):
        stage1_objective(vis, logits, vis.labels, LossConfig())
    with pytest.raises(StageError):
        stage2_objective(gray, logits, gray.labels, LossConfig())


def test_loss_config_validation():
    with pytest.raises(ConfigError):
        LossConfig(margin=-0.1).validate()
    with pytest.raises(ConfigError):
        LossConfig(lambda1=-1.0).validate()
    with pytest.raises(ConfigError):
        LossConfig(dcl_mode="soft").validate()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
def test_loss_config_rejects_a_margin_that_is_not_finite_and_nonnegative(value):
    # a NaN margin makes every hinge comparison false: the triplet term reads 0
    with pytest.raises(ConfigError, match="^margin must be finite and >= 0$"):
        LossConfig(margin=value).validate()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
def test_loss_config_rejects_a_lambda1_that_is_not_finite_and_nonnegative(value):
    with pytest.raises(ConfigError, match="^lambda1 must be finite and >= 0$"):
        LossConfig(lambda1=value).validate()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
def test_loss_config_rejects_a_lambda2_that_is_not_finite_and_nonnegative(value):
    with pytest.raises(ConfigError, match="^lambda2 must be finite and >= 0$"):
        LossConfig(lambda2=value).validate()


def test_objectives_name_their_first_nonfinite_term():
    stage1 = make_pk_batch(RngStream(0), 3, 2, 4, pair=("gray", "ir")).validate()
    stage2 = make_pk_batch(RngStream(1), 3, 2, 4).validate()
    logits = np.zeros((12, 3))
    spread = np.tile([1.7e308, -1.7e308, 0.0], (12, 1))  # label-1 rows: infinite cross-entropy
    cfg = LossConfig(include_id_stage2=True)
    cases = [
        (stage1_objective, replace(stage1, features=stage1.features * 1e300), logits, "intra"),
        (stage1_objective, stage1, spread, "id"),
        (stage2_objective, replace(stage2, features=stage2.features * 1e300), logits, "global"),
        (stage2_objective, stage2, spread, "id"),
    ]
    for objective, batch, z, term in cases:
        with np.errstate(all="ignore"), pytest.raises(
            NumericError, match=f"^non-finite {term} loss term$"
        ):
            objective(batch, z, batch.labels, cfg)


def test_objectives_name_the_term_whose_input_is_not_finite():
    stage1 = make_pk_batch(RngStream(0), 3, 2, 4, pair=("gray", "ir")).validate()
    stage2 = make_pk_batch(RngStream(1), 3, 2, 4).validate()
    logits = np.zeros((12, 3))
    bad_logits = logits.copy()
    bad_logits[4, 1] = np.inf
    cfg = LossConfig(include_id_stage2=True)
    cases = [
        (stage1_objective, stage1, bad_logits, "id"),
        (stage2_objective, stage2, bad_logits, "id"),
    ]
    by_features = ((stage1_objective, stage1, "intra"), (stage2_objective, stage2, "global"))
    for objective, batch, term in by_features:
        feats = batch.features.copy()
        feats[5, 1] = np.inf
        cases.append((objective, replace(batch, features=feats), logits, term))
    for objective, batch, z, term in cases:
        with pytest.raises(
            NumericError, match=f"^non-finite {term} loss term: matrix contains NaN or Inf$"
        ):
            objective(batch, z, batch.labels, cfg)


def test_stage2_objective_reads_the_logits_only_with_its_identity_term():
    batch = make_pk_batch(RngStream(1), 3, 2, 4).validate()
    logits = np.zeros((12, 3))
    logits[0, 0] = np.inf
    out = stage2_objective(batch, logits, batch.labels, LossConfig())
    assert set(out.terms) == {"global", "msel", "dcl"}
    assert np.array_equal(out.grad_logits, np.zeros((12, 3)))
    assert out.value == stage2_objective(batch, np.zeros((12, 3)), batch.labels, LossConfig()).value
    with pytest.raises(NumericError, match="^non-finite id loss term: matrix contains NaN or Inf$"):
        stage2_objective(batch, logits, batch.labels, LossConfig(include_id_stage2=True))
