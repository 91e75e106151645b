from dataclasses import replace
from pathlib import Path

import numpy as np
import oracles
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
    sample_batches,
)
from crossmodal.config import parse_config_file
from crossmodal.core import RngStream
from crossmodal.errors import (
    ConfigError,
    DimensionError,
    LabelError,
    NumericError,
    SamplingError,
)
from crossmodal.losses import (
    DCL_MODES,
    LossConfig,
    compute_centers,
    hard_triplet_global,
    hard_triplet_intra,
    identity_loss,
    msel,
    stage1_objective,
    stage2_objective,
)
from crossmodal.synthdata import SynthDataset, load_features, make_benchmark
from crossmodal.trainer import steps_per_epoch, train

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


@pytest.mark.parametrize("layout", [FeatureLayout(2, 3, 1), FeatureLayout(3, 19, 2)])
@pytest.mark.parametrize("lead", [(5,), (3, 4)])
def test_grayscale_of_rows_equals_the_per_vector_call(layout, lead):
    rows = np.random.default_rng(len(lead)).normal(size=lead + (layout.total_dims,))
    before = rows.copy()
    out = grayscale_of(rows, layout)
    want = [grayscale_of(v, layout) for v in rows.reshape(-1, layout.total_dims)]
    assert out.tobytes() == np.stack(want).tobytes()
    assert grayscale_of(out, layout).tobytes() == out.tobytes()  # idempotent on rows too
    assert np.array_equal(rows, before)  # input untouched


@pytest.mark.parametrize("color_dims", range(1, 13))
def test_grayscale_of_is_idempotent_bit_for_bit_at_every_color_width(color_dims):
    # the mean of equal values can round away from them (about one row in eight at width 5)
    layout = FeatureLayout(2, color_dims, 1)
    rows = np.random.default_rng(color_dims).normal(size=(200, layout.total_dims))
    once = grayscale_of(rows, layout)
    assert grayscale_of(once, layout).tobytes() == once.tobytes()
    for v in once[:8]:
        assert grayscale_of(v, layout).tobytes() == v.tobytes()


@pytest.mark.parametrize("shape", [(6,), (4, 6), (2, 3, 6)])
def test_grayscale_of_refuses_bad_input_of_every_shape(shape):
    layout = FeatureLayout(2, 2, 2)
    bad = np.zeros(shape)
    bad.flat[-1] = np.inf
    with pytest.raises(NumericError):
        grayscale_of(bad, layout)
    with pytest.raises(DimensionError):
        grayscale_of(np.zeros(shape[:-1] + (5,)), layout)


def test_batch_spec_validation():
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
    assert len(batch) == 4
    with pytest.raises(ConfigError):
        LabeledBatch(feats, labels, ["vis", "ir", "vis", "rgb"])
    with pytest.raises(DimensionError):
        LabeledBatch(feats, [0, 1], ["vis", "ir"])
    with pytest.raises(NumericError):
        LabeledBatch(feats * np.nan, labels, ["vis", "ir", "vis", "ir"]).validate()
    single = LabeledBatch(feats, labels, ["vis"] * 4)
    with pytest.raises(ConfigError):
        single.validate()


#: Labels an int64 cast would truncate or raise on, with how the error shows them.
_BAD_LABELS = {
    "fractional": ([0.5, 0.7, 1.2, 1.9], "0.5"),  # truncation would merge identities
    "nan": ([0, np.nan, 1, 1], "nan"),
    "beyond_uint64": ([0, 1, 2**64, 1], "dtype object"),
}


@pytest.mark.parametrize("kind", list(_BAD_LABELS))
def test_non_integer_labels_fail_by_name(kind):
    labels, shown = _BAD_LABELS[kind]
    feats, tags = np.zeros((4, 2)), ["vis", "ir", "vis", "ir"]
    calls = (
        lambda: LabeledBatch(feats, labels, tags),
        lambda: SynthDataset(feats, labels, tags),
        lambda: identity_loss(np.zeros((4, 3)), labels),
    )
    for call in calls:
        with pytest.raises(LabelError, match=f"^labels must hold integer identities, got {shown}$"):
            call()


def test_cell_count_rejects_uneven_cells():
    batch = LabeledBatch(
        np.zeros((5, 2)), [0, 0, 0, 1, 1], ["vis", "vis", "ir", "vis", "ir"]
    )
    with pytest.raises(ConfigError):
        batch.cell_count()


def test_sample_batch_structure_and_determinism():
    ds = make_benchmark("train")
    spec = BatchSpec(4, 3)
    n = 2 * spec.p * spec.k
    for stage in (Stage.STAGE1, Stage.STAGE2):
        batch = sample_batch(ds, spec, stage, RngStream(5))
        assert len(batch) == n
        assert batch.structure.modalities == tuple(sorted(stage.modality_pair))
        assert len(batch.structure.identities) == spec.p
        assert batch.cell_count() == spec.k
        # rows are drawn without replacement: all distinct
        combos = {(int(l), str(m), tuple(f)) for l, m, f in
                  zip(batch.labels, batch.modalities, batch.features)}
        assert len(combos) == n
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
    vis, ir = ds.row_table(("vis", "ir"))[1].min(axis=0)  # the fewest rows of each tag
    gray = ds.row_table(("gray", "ir"))[1][:, 0].min()
    assert (vis, ir, gray) == (3, 2, 0)
    with pytest.raises(SamplingError, match="identity 1 has 2 'ir' rows, batch needs 3"):
        sample_batch(ds, BatchSpec(2, 3), Stage.STAGE2, RngStream(0))
    assert len(sample_batch(ds, BatchSpec(2, 2), Stage.STAGE2, RngStream(0))) == 8


def test_sample_batch_names_a_short_identity_of_the_first_tag_first():
    # identity 0 falls short in 'ir' and identity 2 in 'vis'; stage 2 draws vis, then ir
    cells = {(0, "vis"): 3, (0, "ir"): 2, (1, "vis"): 3, (1, "ir"): 3, (2, "vis"): 2, (2, "ir"): 3}
    labels = np.repeat([i for i, _ in cells], list(cells.values()))
    tags = np.repeat([m for _, m in cells], list(cells.values()))
    ds = SynthDataset(np.zeros((labels.size, 2)), labels, tags)
    with pytest.raises(SamplingError, match="identity 2 has 2 'vis' rows, batch needs 3"):
        sample_batch(ds, BatchSpec(2, 3), Stage.STAGE2, RngStream(0))


def _scrambled_dataset() -> SynthDataset:
    """40 identities with scattered labels, 9 rows per modality, rows in shuffled order."""
    rng = RngStream(3)
    ids = np.sort(rng.choice(10**6, size=40, replace=False))
    labels = np.repeat(ids, 27)
    tags = np.tile(np.repeat(["vis", "gray", "ir"], 9), 40)
    perm = rng.permutation(labels.size)
    return SynthDataset(rng.normal(size=(labels.size, 5)), labels[perm], tags[perm])


def _uneven_dataset() -> SynthDataset:
    """The bundled split less up to 3 rows per (identity, modality) cell: 5 to 8 rows each."""
    full = make_benchmark("train")
    keep = np.ones(len(full), dtype=bool)
    for ident in full.identities:
        for shift, mod in enumerate(("vis", "gray", "ir")):
            keep[full.rows_of(ident, mod)[: (ident + shift) % 4]] = False
    return SynthDataset(full.features[keep], full.labels[keep], full.modalities[keep])


_DRAW_CASES = {
    "bundled": (lambda: load_features(ROOT / "data" / "benchmark_train.csv"), BatchSpec(8, 4)),
    "uneven": (_uneven_dataset, BatchSpec(8, 4)),
    "scrambled": (_scrambled_dataset, BatchSpec(32, 8)),
}


@pytest.mark.parametrize("stage", list(Stage))
@pytest.mark.parametrize("case", list(_DRAW_CASES))
def test_sample_batch_draws_the_rows_of_one_choice_per_cell(stage, case):
    make, spec = _DRAW_CASES[case]
    ds = make()
    if case == "uneven":
        assert sorted(set(ds.row_table(stage.modality_pair)[1].ravel().tolist())) == [5, 6, 7, 8]
    for seed in range(50):
        ours, ref = RngStream(seed, (9,)), RngStream(seed, (9,))
        batch = sample_batch(ds, spec, stage, ours)
        chosen, rows = oracles.per_cell_rows(ds, spec, stage, ref)
        assert np.array_equal(batch.features, ds.features[rows])
        assert np.array_equal(batch.labels, ds.labels[rows])
        assert np.array_equal(batch.modalities, ds.modalities[rows])
        assert np.array_equal(batch.structure.identities, np.sort(ds.identities[chosen]))
        assert ours.integers(2**62) == ref.integers(2**62)  # both streams end in one place


@pytest.mark.parametrize("stage", list(Stage))
def test_sample_batches_yield_each_streams_own_batch(stage):
    ds, spec = _uneven_dataset(), BatchSpec(8, 4)
    streams = [RngStream(5, (1, b)) for b in range(6)]
    batches = list(sample_batches(ds, spec, stage, streams))
    assert len(batches) == len(streams)
    assert list(sample_batches(ds, spec, stage, [])) == []
    for b, batch in enumerate(batches):
        want = sample_batch(ds, spec, stage, RngStream(5, (1, b)))
        assert np.array_equal(batch.features, want.features)
        assert np.array_equal(batch.labels, want.labels)
        assert np.array_equal(batch.modalities, want.modalities)
        assert np.array_equal(batch.structure.identities, want.structure.identities)
        assert np.array_equal(batch.structure.order, want.structure.order)
        assert batch.structure.layout is want.structure.layout
        assert not batch.labels.flags.writeable and not batch.structure.order.flags.writeable


def test_sample_batches_raise_a_non_finite_batch_in_its_turn():
    full, spec, stage = make_benchmark("train"), BatchSpec(8, 4), Stage.STAGE2
    feats = full.features.copy()
    feats[full.rows_of(full.identities[0], "ir")] = np.nan  # in every batch drawing it
    ds = SynthDataset(feats, full.labels, full.modalities)
    streams = [RngStream(4, (b,)) for b in range(12)]
    bad = []
    for b in range(len(streams)):
        try:
            sample_batch(ds, spec, stage, RngStream(4, (b,)))
            bad.append(False)
        except NumericError:
            bad.append(True)
    first = bad.index(True)
    assert first > 0
    batches = sample_batches(ds, spec, stage, streams)
    for _ in range(first):
        assert np.isfinite(next(batches).features).all()
    with pytest.raises(NumericError, match="^batch features contain NaN or Inf$"):
        next(batches)


class _CountingGenerator:
    """Forwards to a numpy ``Generator``, recording the name of every method called."""

    def __init__(self, gen):
        self._gen, self.calls = gen, []

    def __getattr__(self, name):
        method = getattr(self._gen, name)

        def counted(*args, **kwargs):
            self.calls.append(name)
            return method(*args, **kwargs)

        return counted


@pytest.mark.parametrize("stage", list(Stage))
def test_a_sampled_batch_makes_two_generator_calls(stage):
    rng = RngStream(0)
    counting = rng._gen = _CountingGenerator(rng._gen)
    batch = sample_batch(_scrambled_dataset(), BatchSpec(32, 8), stage, rng)
    assert len(batch) == 512
    assert counting.calls == ["choice", "integers"]


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
    rows = np.arange(0, 2 * spec.p * spec.k, 3)
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
    data = load_features(ROOT / "data" / "benchmark_train.csv")
    _, logs = train(data, cfg)
    assert len(logs) * steps_per_epoch(data, cfg) == 224
    # one layout per stage: stage 1 reads its pairs within each modality, stage 2 over all rows
    assert calls == {"validate": 0, "PairMasks.of": 3}
