from dataclasses import replace

import numpy as np
import pytest
from conftest import make_pk_batch

from crossmodal.batch import (
    BatchSpec,
    FeatureLayout,
    LabeledBatch,
    Modality,
    Stage,
    grayscale_of,
    sample_batch,
)
from crossmodal.core import RngStream
from crossmodal.errors import ConfigError, DimensionError, NumericError, SamplingError
from crossmodal.losses import compute_centers, hard_triplet_global, hard_triplet_intra, msel
from crossmodal.synthdata import SynthDataset, make_benchmark


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
