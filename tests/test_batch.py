from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import make_pk_batch

from crossmodal import batch as batch_module
from crossmodal.batch import (
    BatchSpec,
    FeatureLayout,
    LabeledBatch,
    Modality,
    PairMasks,
    Stage,
    grayscale_of,
    sample_batch,
)
from crossmodal.config import parse_config_file
from crossmodal.core import RngStream
from crossmodal.errors import ConfigError, DimensionError, NumericError, SamplingError
from crossmodal.losses import (
    DCL_MODES,
    LossConfig,
    compute_centers,
    hard_triplet_global,
    hard_triplet_intra,
    msel,
    stage1_objective,
    stage2_objective,
)
from crossmodal.synthdata import SynthDataset, load_features, make_benchmark
from crossmodal.trainer import train

ROOT = Path(__file__).resolve().parent.parent


def test_feature_layout_slices():
    layout = FeatureLayout(2, 3, 4)
    assert layout.total_dims == 9
    assert layout.shared_slice == slice(0, 2)
    assert layout.color_slice == slice(2, 5)
    assert layout.modality_slice == slice(5, 9)
    with pytest.raises(ConfigError):
        FeatureLayout(0, 1, 1)


def test_stage_modality_pairs():
    assert Stage.STAGE1.modality_pair == ("gray", "ir")
    assert Stage.STAGE2.modality_pair == ("vis", "ir")
    assert Modality.VIS.value == "vis"


def test_grayscale_replaces_color_block_with_mean():
    layout = FeatureLayout(2, 3, 1)
    v = np.array([9.0, 8.0, 1.0, 2.0, 3.0, 7.0])
    g = grayscale_of(v, layout)
    assert np.array_equal(g, [9.0, 8.0, 2.0, 2.0, 2.0, 7.0])
    assert np.array_equal(v, [9.0, 8.0, 1.0, 2.0, 3.0, 7.0])  # input untouched


def test_grayscale_is_idempotent(rng):
    layout = FeatureLayout(3, 4, 2)
    v = rng.normal(size=9)
    once = grayscale_of(v, layout)
    assert np.array_equal(grayscale_of(once, layout), once)


def test_grayscale_dimension_mismatch():
    with pytest.raises(DimensionError):
        grayscale_of(np.zeros(5), FeatureLayout(2, 2, 2))


def test_batch_spec_validation():
    assert BatchSpec(2, 2).rows == 8
    with pytest.raises(ConfigError):
        BatchSpec(1, 4)
    with pytest.raises(ConfigError):
        BatchSpec(4, 1)


def test_labeled_batch_validation():
    feats = np.zeros((4, 2))
    labels = [0, 0, 1, 1]
    batch = LabeledBatch(feats, labels, ["vis", "ir", "vis", "ir"])
    assert batch.validate() is batch
    assert batch.cell_count() == 1
    assert batch.dim == 2 and len(batch) == 4
    with pytest.raises(ConfigError):
        LabeledBatch(feats, labels, ["vis", "ir", "vis", "rgb"])
    with pytest.raises(DimensionError):
        LabeledBatch(feats, [0, 1], ["vis", "ir"])
    with pytest.raises(NumericError):
        LabeledBatch(feats * np.nan, labels, ["vis", "ir", "vis", "ir"]).validate()
    single = LabeledBatch(feats, labels, ["vis"] * 4)
    with pytest.raises(ConfigError):
        single.validate()


def test_cell_count_rejects_uneven_cells():
    batch = LabeledBatch(
        np.zeros((5, 2)), [0, 0, 0, 1, 1], ["vis", "vis", "ir", "vis", "ir"]
    )
    with pytest.raises(ConfigError):
        batch.cell_count()


def test_sample_batch_structure_and_determinism():
    ds = make_benchmark("train")
    spec = BatchSpec(4, 3)
    for stage in (Stage.STAGE1, Stage.STAGE2):
        batch = sample_batch(ds, spec, stage, RngStream(5))
        assert len(batch) == spec.rows
        assert batch.structure.modalities == tuple(sorted(stage.modality_pair))
        assert len(batch.structure.identities) == spec.p
        assert batch.cell_count() == spec.k
        # rows are drawn without replacement: all distinct
        combos = {(int(l), str(m), tuple(f)) for l, m, f in
                  zip(batch.labels, batch.modalities, batch.features)}
        assert len(combos) == spec.rows
    again = sample_batch(ds, spec, Stage.STAGE1, RngStream(5))
    ref = sample_batch(ds, spec, Stage.STAGE1, RngStream(5))
    assert np.array_equal(again.features, ref.features)
    other = sample_batch(ds, spec, Stage.STAGE1, RngStream(6))
    assert not np.array_equal(again.features, other.features)


def test_sample_batch_rejects_small_datasets():
    ds = make_benchmark("train")
    with pytest.raises(SamplingError):
        sample_batch(ds, BatchSpec(17, 2), Stage.STAGE1, RngStream(0))
    with pytest.raises(SamplingError):
        sample_batch(ds, BatchSpec(4, 9), Stage.STAGE2, RngStream(0))


def test_structure_survives_feature_swap_but_not_label_change():
    batch = make_pk_batch(RngStream(0), 2, 2, 3).validate()
    swapped = replace(batch, features=batch.features + 1.0)
    assert swapped.structure is batch.structure
    with pytest.raises(ValueError):
        batch.labels[0] = 1  # the arrays a structure was derived from are read-only
    uneven = replace(batch, labels=[0, 0, 0, 1, 1, 1, 1, 1])
    for use in (
        LabeledBatch.cell_count,
        msel,
        compute_centers,
        hard_triplet_intra,
        hard_triplet_global,
    ):
        with pytest.raises(ConfigError, match="uneven"):
            use(uneven)


def test_sample_batch_names_the_short_identity():
    tags = ["vis"] * 3 + ["ir"] * 3
    ds = SynthDataset(np.zeros((11, 2)), [0] * 6 + [1] * 5, tags + tags[:5])
    assert (ds.min_count("vis"), ds.min_count(Modality.IR), ds.min_count("gray")) == (3, 2, 0)
    with pytest.raises(SamplingError, match="identity 1 has 2 'ir' rows, batch needs 3"):
        sample_batch(ds, BatchSpec(2, 3), Stage.STAGE2, RngStream(0))
    assert len(sample_batch(ds, BatchSpec(2, 2), Stage.STAGE2, RngStream(0))) == 8


def _scrambled_dataset() -> SynthDataset:
    """40 identities with scattered labels, 9 rows per modality, rows in shuffled order."""
    rng = RngStream(3)
    ids = np.sort(rng.choice(10**6, size=40, replace=False))
    labels = np.repeat(ids, 27)
    tags = np.tile(np.repeat(["vis", "gray", "ir"], 9), 40)
    perm = rng.permutation(labels.size)
    return SynthDataset(rng.normal(size=(labels.size, 5)), labels[perm], tags[perm])


_STRUCTURE_FIELDS = ("labels", "tags", "identities", "modalities", "k")
_MASK_FIELDS = ("every_pos", "every_neg", "off", "pos", "neg")


def _derived(s) -> tuple[dict, dict]:
    """Every field of a structure and every array it derives, by name: ``(exact, by_block)``.

    ``by_block`` holds the arrays with one entry per identity block, blocks
    in the layout's own identity order.
    """
    layout = s.layout
    exact = {name: getattr(s, name) for name in _STRUCTURE_FIELDS}
    exact["mod_codes"] = layout.mod_codes
    exact["members.own"], exact["members.count"] = s.members
    exact["batch_pairs.intra"], exact["batch_pairs.cross"] = layout.batch_pairs
    by_block = dict(zip(("block_pairs.intra", "block_pairs.cross"), layout.block_pairs))
    named = [("pairs", layout.pairs)]
    for code, (rows, masks) in enumerate(layout.modality_pairs):
        exact[f"modality_pairs[{code}].rows"] = rows
        named.append((f"modality_pairs[{code}]", masks))
    for prefix, masks in named:
        exact.update({f"{prefix}.{name}": getattr(masks, name) for name in _MASK_FIELDS})
        by_block[f"{prefix}.blocks"] = masks.blocks
    return exact, by_block


def _assert_same(name, value, expect):
    if isinstance(expect, np.ndarray):
        assert value.dtype == expect.dtype, name
        assert np.array_equal(value, expect), name
    else:
        assert type(value) is type(expect) and value == expect, name


@pytest.mark.parametrize("stage", list(Stage))
@pytest.mark.parametrize("p, k", [(2, 2), (3, 3), (8, 4), (32, 8)])
def test_sampled_structure_equals_the_validated_one(stage, p, k):
    ds = _scrambled_dataset()
    ascending = []
    for seed in range(4):
        batch = sample_batch(ds, BatchSpec(p, k), stage, RngStream(seed, (p, k)))
        fresh = LabeledBatch(batch.features, batch.labels.copy(), batch.modalities.copy())
        ours, ref = _derived(batch.structure), _derived(fresh.validate().structure)
        for got, want in zip(ours, ref):
            assert list(got) == list(want)
            for name, value in got.items():
                if isinstance(value, np.ndarray):
                    assert not value.flags.writeable and not want[name].flags.writeable, name
        for name, value in ours[0].items():
            _assert_same(name, value, ref[0][name])
        # the sampled layout keeps the drawn order: identity code c is its block order[c]
        order = batch.structure.order
        for name, value in ours[1].items():
            _assert_same(name, value[order], ref[1][name])
        ascending.append(bool((np.diff(batch.labels[:: 2 * k]) > 0).all()))
    assert not all(ascending)  # identities are not drawn in label order


_STAGE_OBJECTIVES = {
    Stage.STAGE1: (stage1_objective, [LossConfig()]),
    Stage.STAGE2: (
        stage2_objective,
        [
            LossConfig(dcl_mode=mode, include_id_stage2=with_id)
            for mode in DCL_MODES
            for with_id in (False, True)
        ],
    ),
}


@pytest.mark.parametrize("stage", list(Stage))
@pytest.mark.parametrize("p, k", [(8, 4), (32, 8)])
def test_sampled_objectives_equal_the_validated_ones_bit_for_bit(stage, p, k):
    """Blocks in the drawn order give every objective the same bits as blocks in code order."""
    ds = _scrambled_dataset()
    objective, configs = _STAGE_OBJECTIVES[stage]
    for seed in range(2):
        rng = RngStream(seed, (p, k))
        batch = sample_batch(ds, BatchSpec(p, k), stage, rng)
        fresh = LabeledBatch(batch.features, batch.labels.copy(), batch.modalities.copy())
        assert not np.array_equal(batch.structure.order, np.arange(p))
        logits = rng.normal(size=(len(batch), len(ds.identities)))
        labels = np.searchsorted(ds.identities, batch.labels)
        for cfg in configs:
            ours = objective(batch, logits, labels, cfg)
            ref = objective(fresh.validate(), logits, labels, cfg)
            assert ours.value == ref.value and ours.terms == ref.terms, cfg
            assert np.array_equal(ours.grad_embeddings, ref.grad_embeddings), cfg
            assert np.array_equal(ours.grad_logits, ref.grad_logits), cfg


def test_sampled_batches_share_one_layout_per_stage_and_shape():
    ds = _scrambled_dataset()
    spec = BatchSpec(8, 4)
    a, b = (sample_batch(ds, spec, Stage.STAGE2, RngStream(s)).structure for s in (0, 1))
    assert a.layout is b.layout
    assert a.layout.pairs is b.layout.pairs  # the n x n masks, built once for both
    pairs = a.layout.pairs
    rows = np.arange(0, spec.rows, 3)
    assert np.array_equal(pairs.neg_rows(rows), pairs.neg[rows])
    assert sample_batch(ds, spec, Stage.STAGE1, RngStream(0)).structure.layout is not a.layout
    narrow = sample_batch(ds, BatchSpec(8, 3), Stage.STAGE2, RngStream(0))
    assert narrow.structure.layout is not a.layout


def test_certified_mining_reads_no_dense_mask():
    batch_module._sampled_layout.cache_clear()
    batch = sample_batch(_scrambled_dataset(), BatchSpec(32, 8), Stage.STAGE2, RngStream(0))
    hard_triplet_global(batch)
    hard_triplet_intra(batch)
    layout = batch.structure.layout
    for masks in (layout.pairs, *(m for _, m in layout.modality_pairs)):
        assert "masks" not in vars(masks)


def test_training_validates_no_batch_and_derives_masks_once_per_layout(monkeypatch):
    calls = {"validate": 0, "PairMasks.of": 0}
    validate, of = LabeledBatch.validate, PairMasks.of.__func__

    def counted_validate(self):
        calls["validate"] += 1
        return validate(self)

    def counted_of(cls, id_codes):
        calls["PairMasks.of"] += 1
        return of(cls, id_codes)

    monkeypatch.setattr(LabeledBatch, "validate", counted_validate)
    monkeypatch.setattr(PairMasks, "of", classmethod(counted_of))
    batch_module._sampled_layout.cache_clear()
    cfg = parse_config_file(ROOT / "configs" / "default.cfg").train
    _, logs = train(load_features(ROOT / "data" / "benchmark_train.csv"), cfg)
    assert sum(log.n_batches for log in logs) == 224
    # one layout per stage: stage 1 reads its pairs within each modality, stage 2 over all rows
    assert calls == {"validate": 0, "PairMasks.of": 3}
