import numpy as np
import oracles
import pytest

from crossmodal.batch import FeatureLayout, grayscale_of
from crossmodal.core import RngStream
from crossmodal.errors import ConfigError, DimensionError, ParseError
from crossmodal.synthdata import (
    BENCHMARK_GAP,
    BENCHMARK_LAYOUT,
    BENCHMARK_N_IDS,
    BENCHMARK_NOISE,
    BENCHMARK_PER_MODALITY,
    SynthDataset,
    generate,
    load_features,
    make_benchmark,
    save_features,
)

LAYOUT = FeatureLayout(shared_dims=3, color_dims=2, modality_dims=2)


def small(seed=0, n_ids=4, per=3, gap=1.5, noise=0.2):
    return generate(n_ids, per, LAYOUT, gap, noise, RngStream(seed))


def test_generate_counts_and_tags():
    ds = small()
    assert len(ds) == 3 * 4 * 3
    assert ds.dim == LAYOUT.total_dims
    assert np.array_equal(ds.identities, np.arange(4))
    for ident in range(4):
        for mod in ("vis", "gray", "ir"):
            assert ds.count_of(ident, mod) == 3
    assert ds.modality_rows("vis").size == 12


def test_generate_block_structure():
    ds = small(noise=0.0)
    vis = ds.features[ds.modality_rows("vis")]
    ir = ds.features[ds.modality_rows("ir")]
    # single-modality blocks are exactly zero on the other side
    assert not vis[:, LAYOUT.modality_slice].any()
    assert not ir[:, LAYOUT.color_slice].any()
    assert ir[:, LAYOUT.modality_slice].any()
    # noiseless rows sit on the identity prototype
    for ident in ds.identities:
        rows = ds.features[ds.rows_of(ident, "vis")][:, LAYOUT.shared_slice]
        assert np.allclose(rows, rows[0], atol=1e-15)
        assert np.allclose(rows[0], ds.prototypes[ident], atol=1e-15)


def test_gray_rows_are_grayscale_views_of_vis():
    ds = small()
    for ident in ds.identities:
        vis = ds.features[ds.rows_of(ident, "vis")]
        gray = ds.features[ds.rows_of(ident, "gray")]
        for v, g in zip(vis, gray):
            assert np.array_equal(g, grayscale_of(v, LAYOUT))


def test_gap_strength_scales_ir_block():
    weak = small(gap=0.5)
    strong = small(gap=2.0)
    w = np.abs(weak.features[weak.modality_rows("ir")][:, LAYOUT.modality_slice])
    s = np.abs(strong.features[strong.modality_rows("ir")][:, LAYOUT.modality_slice])
    assert np.allclose(s, 4.0 * w, atol=1e-12)


def test_generate_is_deterministic():
    a, b = small(seed=7), small(seed=7)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.modalities, b.modalities)
    c = small(seed=8)
    assert not np.array_equal(a.features, c.features)


def test_generate_validation():
    with pytest.raises(ConfigError):
        generate(1, 3, LAYOUT, 1.0, 0.1, RngStream(0))
    with pytest.raises(ConfigError):
        generate(4, 1, LAYOUT, 1.0, 0.1, RngStream(0))
    with pytest.raises(ConfigError):
        generate(4, 3, LAYOUT, -1.0, 0.1, RngStream(0))


def test_dataset_validation():
    with pytest.raises(DimensionError):
        SynthDataset(np.zeros(5), [0] * 5, ["vis"] * 5)
    with pytest.raises(DimensionError):
        SynthDataset(np.zeros((4, 2)), [0] * 3, ["vis"] * 4)
    with pytest.raises(ConfigError):
        SynthDataset(np.zeros((2, 2)), [0, -1], ["vis", "ir"])
    with pytest.raises(ConfigError):
        SynthDataset(np.zeros((2, 2)), [0, 1], ["vis", "rgb"])


def test_rows_of_missing_cell_is_empty():
    ds = small()
    assert ds.rows_of(99, "vis").size == 0
    assert ds.count_of(99, "ir") == 0


def test_row_table_pads_each_identity_rows_per_tag():
    """``row_table`` holds each identity's rows per tag, one padded cell each."""
    # identity 1 loses a gray row and identity 2 an ir row, so cell sizes differ
    full = small()
    keep = np.ones(len(full), dtype=bool)
    keep[full.rows_of(1, "gray")[0]] = keep[full.rows_of(2, "ir")[-1]] = False
    ds = SynthDataset(full.features[keep], full.labels[keep], full.modalities[keep])
    pair = ("gray", "ir")
    table = ds.row_table(pair)
    assert ds.row_table(pair) is table  # built once per pair
    rows, counts = table
    assert rows.shape == (len(ds.identities), 2, 3) and counts.shape == (len(ds.identities), 2)
    assert not rows.flags.writeable and not counts.flags.writeable
    for ident, cells, sizes in zip(ds.identities, rows, counts):
        for cell, size, mod in zip(cells, sizes, pair):
            assert cell[:size].tolist() == ds.rows_of(ident, mod).tolist()
            assert (cell[size:] == len(ds)).all()  # padding indexes past the last row
    assert counts[1].tolist() == [2, 3] and counts[2].tolist() == [3, 2]


def test_row_table_without_rows_is_empty():
    empty = SynthDataset(np.zeros((0, 3)), [], [])
    rows, counts = empty.row_table(("gray", "ir"))
    assert rows.shape == (0, 2, 0) and counts.shape == (0, 2)
    assert empty.min_count("vis") == 0 and empty.rows_of(0, "vis").size == 0
    vis_only = SynthDataset(np.zeros((4, 3)), [0, 0, 1, 1], ["vis"] * 4)
    rows, counts = vis_only.row_table(("gray", "ir"))
    assert rows.shape == (2, 2, 2) and (rows == 4).all() and not counts.any()
    assert not rows.flags.writeable and not counts.flags.writeable


def _generate_cases():
    """``(n_ids, per_modality, layout, gap, noise, seed, path)``: benchmark sets, then random."""
    bench = (BENCHMARK_LAYOUT, BENCHMARK_GAP, BENCHMARK_NOISE)
    for seed in range(3):  # bench/workloads.py: train_wide's two sets, eval_gallery's gallery
        yield (64, 16, *bench, seed, (2, 0))
        yield (16, 8, *bench, seed, (2, 1))
        yield (128, 16, *bench, seed, (2,))
    yield (BENCHMARK_N_IDS, BENCHMARK_PER_MODALITY, *bench, 11, ())  # the bundled splits
    yield (BENCHMARK_N_IDS, BENCHMARK_PER_MODALITY, *bench, 12, ())
    draw = np.random.default_rng(30)
    for case in range(24):
        n_ids, per = (int(x) for x in draw.integers(2, 12, size=2))
        layout = FeatureLayout(*(int(x) for x in draw.integers(1, 20, size=3)))
        gap = 0.0 if case == 1 else float(draw.uniform(0, 3))
        noise = 0.0 if case % 4 == 0 else float(draw.uniform(0, 2))
        yield (n_ids, per, layout, gap, noise, case, (int(draw.integers(0, 5)),))


@pytest.mark.parametrize("case", list(_generate_cases()), ids=lambda c: f"{c[0]}x{c[1]}-s{c[5]}")
def test_generate_equals_the_per_identity_draws_bit_for_bit(case):
    *shape, seed, path = case
    ds = generate(*shape, RngStream(seed).child(*path))
    features, labels, tags, prototypes = oracles.per_identity_dataset(
        *shape, RngStream(seed).child(*path)
    )
    assert ds.features.tobytes() == features.tobytes()
    assert ds.labels.tobytes() == labels.tobytes()
    assert ds.modalities.dtype == tags.dtype and np.array_equal(ds.modalities, tags)
    assert ds.prototypes.tobytes() == prototypes.tobytes()


def _cell_set(seed: int) -> SynthDataset:
    """Rows in shuffled order, labels up to 10^6, 0 to 5 rows per cell; every third lacks gray."""
    draw = np.random.default_rng(seed)
    ids = np.sort(draw.choice(np.arange(1, 10**6), size=int(draw.integers(1, 12)), replace=False))
    absent = "gray" if seed % 3 == 0 else None
    cells = [(i, m) for i in ids for m in ("vis", "gray", "ir") if m != absent]
    sizes = draw.integers(0, 6, size=len(cells))
    labels = np.repeat([i for i, _ in cells], sizes).astype(np.int64)
    tags = np.repeat([m for _, m in cells], sizes)
    perm = draw.permutation(labels.size)
    return SynthDataset(draw.normal(size=(labels.size, 2)), labels[perm], tags[perm])


@pytest.mark.parametrize("seed", range(30))
def test_cell_table_equals_the_row_by_row_index(seed):
    ds = _cell_set(seed)
    index = oracles.row_index(ds.labels, ds.modalities)
    present = sorted({ident for ident, _ in index})
    assert ds.identities.tolist() == present
    below_between_above = [0, *(i + 1 for i in present), 10**6, 2**63 - 1, 2**64]
    for ident in present + [i for i in below_between_above if i not in present]:
        for mod in ("vis", "gray", "ir"):
            want = index.get((ident, mod), np.empty(0, dtype=np.int64))
            assert ds.rows_of(ident, mod).tolist() == want.tolist()
            assert ds.count_of(ident, mod) == want.size
    for mod in ("vis", "gray", "ir"):
        assert ds.min_count(mod) == min((len(index.get((i, mod), ())) for i in present), default=0)
        assert ds.modality_rows(mod).tolist() == np.flatnonzero(ds.modalities == mod).tolist()
    for pair in [("gray", "ir"), ("vis", "ir"), ("ir", "vis"), ("vis", "gray")]:
        rows, counts = ds.row_table(pair)
        assert rows.shape[:2] == counts.shape == (len(present), 2)
        for ident, cells, sizes in zip(present, rows, counts):
            for cell, size, mod in zip(cells, sizes, pair):
                assert cell[:size].tolist() == index.get((ident, mod), np.empty(0)).tolist()
                assert (cell[size:] == len(ds)).all()


def test_cell_queries_name_an_unknown_tag():
    ds = small()
    for query in (
        lambda: ds.rows_of(0, "rgb"),
        lambda: ds.count_of(0, "rgb"),
        lambda: ds.min_count("rgb"),
        lambda: ds.modality_rows("rgb"),
        lambda: ds.row_table(("rgb", "ir")),
    ):
        with pytest.raises(ConfigError, match="unknown modality tag 'rgb'"):
            query()


def test_save_load_roundtrip_is_bitwise(tmp_path):
    ds = small(seed=3)
    path = tmp_path / "feats.csv"
    save_features(ds, path)
    back = load_features(path)
    assert np.array_equal(back.features, ds.features)  # %.17g is lossless
    assert np.array_equal(back.labels, ds.labels)
    assert np.array_equal(back.modalities, ds.modalities)
    save_features(back, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def test_load_skips_blank_lines(tmp_path):
    path = tmp_path / "feats.csv"
    path.write_text("id,modality,f0\n0,vis,1.5\n\n0,ir,2.5\n1,vis,0.5\n1,ir,3.5\n")
    ds = load_features(path)
    assert len(ds) == 4
    assert ds.features[1, 0] == 2.5


@pytest.mark.parametrize(
    "text,line,needle",
    [
        ("", 1, "empty"),
        ("id,modality,f0\n", 2, "no rows"),
        ("modality,id,f0\n0,vis,1.0\n", 1, "header"),
        ("id,modality,feat0\n0,vis,1.0\n", 1, "f0"),
        ("id,modality,f0\n0,vis\n", 2, "fields"),
        ("id,modality,f0\n0,vis,1.0\nx,vis,1.0\n", 3, "integer"),
        ("id,modality,f0\n-2,vis,1.0\n", 2, "non-negative"),
        ("id,modality,f0\n0,thermal,1.0\n", 2, "modality"),
        ("id,modality,f0\n0,vis,abc\n", 2, "non-numeric"),
        ("id,modality,f0\n0,vis,nan\n", 2, "non-finite"),
        ("id,modality,f0\n0,vis,inf\n", 2, "non-finite"),
    ],
)
def test_load_reports_line_numbers(tmp_path, text, line, needle):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ParseError) as exc:
        load_features(path)
    assert exc.value.line == line
    assert needle in str(exc.value)


def test_benchmark_shape_and_determinism():
    train = make_benchmark("train")
    assert len(train) == 3 * BENCHMARK_N_IDS * BENCHMARK_PER_MODALITY
    assert train.dim == BENCHMARK_LAYOUT.total_dims
    assert train.gap_strength == BENCHMARK_GAP
    again = make_benchmark("train")
    assert np.array_equal(train.features, again.features)
    test = make_benchmark("test")
    assert not np.array_equal(train.features, test.features)
    with pytest.raises(ConfigError):
        make_benchmark("val")


def test_bundled_csv_matches_generator():
    # the files shipped under data/ are exactly the benchmark splits
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    for split in ("train", "test"):
        path = root / "data" / f"benchmark_{split}.csv"
        if not path.exists():
            pytest.skip("bundled benchmark files not present")
        disk = load_features(path)
        fresh = make_benchmark(split)
        assert np.array_equal(disk.features, fresh.features)
        assert np.array_equal(disk.labels, fresh.labels)
        assert np.array_equal(disk.modalities, fresh.modalities)
