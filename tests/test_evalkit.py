import hashlib
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from conftest import pin_note
from crossmodal import evalkit
from crossmodal.core import RngStream, _euclid, cross_distances
from crossmodal.errors import (
    ConfigError,
    DegenerateError,
    DimensionError,
    LabelError,
    NumericError,
)
from crossmodal.evalkit import (
    cmc,
    evaluate,
    mean_ap,
    minp,
    modality_gap_ratio,
    rank,
    report_table,
    report_text,
    similarity_histogram,
)
from crossmodal.model import init_params
from crossmodal.synthdata import BENCHMARK_GAP, BENCHMARK_LAYOUT, BENCHMARK_NOISE, generate
from crossmodal.trainer import evaluate_params

# ---------------------------------------------------------------- frozen examples


def _worked_example():
    # 1-D gallery at x = 1..5; the two hits land at ranks 1 and 3 after
    # sorting by distance from the query at x = 0.9
    gallery = np.arange(1.0, 6.0)[:, None]
    gallery_ids = np.array([0, 1, 0, 1, 1])
    query = np.array([[0.9]])
    return rank(query, gallery, np.array([0]), gallery_ids)


def test_ap_frozen_value():
    assert mean_ap(_worked_example()) == pytest.approx(0.8333, abs=5e-5)


def test_inp_frozen_value():
    assert minp(_worked_example()) == pytest.approx(0.6667, abs=5e-5)


def test_cmc_frozen_curve():
    gallery = np.arange(1.0, 6.0)[:, None]
    gallery_ids = np.array([0, 0, 1, 0, 1])
    result = rank(np.array([[0.9]]), gallery, np.array([1]), gallery_ids)
    assert np.allclose(cmc(result, 5), [0.0, 0.0, 1.0, 1.0, 1.0])


def test_perfect_ranking_scores_ones():
    feats = np.array([[0.0, 1.0], [10.0, 1.0], [20.0, 1.0]])
    ids = np.array([0, 1, 2])
    result = rank(feats, feats + 0.01, ids, ids)
    assert cmc(result, 1)[0] == 1.0
    assert mean_ap(result) == 1.0
    assert minp(result) == 1.0


def test_worst_inp_is_count_over_gallery_size():
    # single relevant row hiding at the last position
    gallery = np.arange(1.0, 5.0)[:, None]
    gallery_ids = np.array([1, 1, 1, 0])
    result = rank(np.array([[0.0]]), gallery, np.array([0]), gallery_ids)
    assert minp(result) == pytest.approx(1.0 / 4.0)


def test_distance_tie_keeps_lower_gallery_index():
    gallery = np.array([[1.0], [-1.0], [1.0]])
    result = rank(np.array([[0.0]]), gallery, np.array([7]), np.array([5, 7, 7]))
    assert result.order[0].tolist() == [0, 1, 2]
    assert result.relevant[0].tolist() == [False, True, True]


# ---------------------------------------------------------------- scan oracles


def _assert_matches_oracles(qf, gf, qid, gid):
    """rank / cmc / mean_ap / minp against the brute-force scans, query by query."""
    n_q, n_g = len(qf), len(gf)
    result = rank(qf, gf, qid, gid)

    kept_rows = [i for i in range(n_q) if qid[i] in gid.tolist()]
    assert result.order.shape == (len(kept_rows), n_g)
    assert result.dropped == n_q - len(kept_rows)

    ap_sum = inp_sum = 0.0
    first_hits = []
    gids = gid.tolist()
    for out_row, i in enumerate(kept_rows):
        order = oracles.rank_gallery(qf[i].tolist(), gf.tolist())
        assert oracles.rank_gallery_by_count(qf[i].tolist(), gf.tolist()) == order
        assert result.order[out_row].tolist() == order
        ap_sum += oracles.average_precision(order, gids, qid[i])
        inp_sum += oracles.inverse_negative_penalty(order, gids, qid[i])
        first_hits.append(oracles.first_hit_rank(order, gids, qid[i]))
    assert mean_ap(result) == pytest.approx(ap_sum / len(kept_rows), abs=1e-10)
    assert minp(result) == pytest.approx(inp_sum / len(kept_rows), abs=1e-10)
    curve = cmc(result, n_g)
    for k in range(1, n_g + 1):
        want = sum(1 for f in first_hits if f <= k) / len(first_hits)
        assert curve[k - 1] == pytest.approx(want, abs=1e-10)
    return result


def test_metrics_match_scan_oracles(rng):
    for t in range(30):
        r = rng.child(t)
        n_q = 2 + int(r.integers(0, 5))  # up to 6 queries
        n_g = 4 + int(r.integers(0, 7))  # up to 10 gallery rows
        dim = 3
        qf = r.normal(size=(n_q, dim))
        gf = r.normal(size=(n_g, dim))
        qid = r.integers(0, 3, size=n_q)
        gid = r.integers(0, 3, size=n_g)
        if not any(q in gid.tolist() for q in qid.tolist()):
            gid[0] = qid[0]
        _assert_matches_oracles(qf, gf, qid, gid)


def test_tie_heavy_gallery_matches_oracles():
    # five integer points, each repeated at scattered gallery positions under
    # different identities; three queries sit exactly on gallery points and
    # two are equidistant from two distinct points, so every query has ties
    base = np.array([[0.0, 0, 0], [1, 0, 0], [0, 2, 0], [1, 1, 1], [3, 0, 0]])
    gf = base[[3, 0, 1, 0, 4, 2, 1, 3, 0, 2, 4, 1]]
    gid = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2])
    qf = np.array([[0.0, 0, 0], [1, 0, 0], [0.5, 0, 0], [1, 1, 1], [2, 0, 0]])
    qid = np.array([2, 0, 1, 1, 0])
    dist = cross_distances(qf, gf)
    assert (dist == 0.0).sum() == 8  # exact zeros, not rounding noise
    result = _assert_matches_oracles(qf, gf, qid, gid)
    for row, order in enumerate(result.order):
        step, index_step = np.diff(dist[row, order]), np.diff(order)
        assert np.all((step > 0) | ((step == 0) & (index_step > 0)))  # ties: lower index first
        assert (step == 0).any()


def test_rank_restable_sorts_only_tied_rows(rng):
    # Exact gallery duplicates would tie under every query, so the tied rows
    # come from three unit gallery points instead: a query whose first two
    # coordinates are 0 is at an exactly equal distance from all three (its
    # squared differences are small integers). Two such queries sit exactly
    # on gallery points. The random queries between them have no tie, so one
    # block holds both kinds.
    units = np.array([[1.0, 0, 0, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])
    on_plane = np.array([[0.0, 0, 2, 0], [0, 0, 0, 3], [0, 0, 1, 1], [0, 0, -1, 2]])
    gf = np.concatenate([rng.normal(size=(20, 4)), units, on_plane[:2]])
    gf = gf[rng.permutation(len(gf))]
    gid = np.arange(len(gf)) % 5
    qf = np.concatenate([rng.normal(size=(24, 4)), on_plane])
    perm = rng.permutation(len(qf))
    qf, tied_query = qf[perm], perm >= 24
    qid = rng.integers(0, 6, size=len(qf))  # identity 5 is never in the gallery
    dist = cross_distances(qf, gf)
    stable = np.argsort(dist, axis=1, kind="stable")
    sorted_dist = np.take_along_axis(dist, stable, axis=1)
    has_tie = (np.diff(sorted_dist, axis=1) == 0).any(axis=1)
    assert has_tie.tolist() == tied_query.tolist()

    result = rank(qf, gf, qid, gid)
    kept = np.isin(qid, gid)
    assert has_tie[kept].any() and not has_tie[kept].all()
    assert np.array_equal(result.order, stable[kept])
    for out_row, i in enumerate(np.flatnonzero(kept)):
        want = oracles.rank_gallery_by_count(qf[i].tolist(), gf.tolist(), oracles.euclid)
        assert result.order[out_row].tolist() == want


_ONE_ULP = np.nextafter(1.0, 2.0)
_BASE = np.random.default_rng(11).normal(size=(5, 3))
#: name -> (queries, gallery) on which an unproved matmul-form order goes wrong.
_ADVERSARIAL_GALLERIES = {
    "ulp_apart": (  # gallery rows 1-2 ulp apart; one query sits on one of them
        np.array([[0.0, 5, 7], [2, 5, 7], [_ONE_ULP, 5, 7], [1.5, 5, 7], [1, 6, 7]]),
        np.array(
            [
                [np.nextafter(_ONE_ULP, 2.0), 5, 7],
                [1.0, 5, 7],
                [_ONE_ULP, 5, 7],
                [3, 5, 7],
                [1, 6, 7],
                [_ONE_ULP, 5, 7],
            ]
        ),
    ),
    "root_merges": (  # squared distances 1 + 2^-52 and 1 have the same root 1.0: a tie
        np.zeros((1, 3)),
        np.array([[1.0, 2.0**-26, 0], [1, 0, 0], [0, 2, 0]]),
    ),
    "lattice_ties": (  # squared distances 20, 20, 16, 2: rows 0 and 1 tie
        np.array([[2.0, 5]]),
        np.array([[0.0, 1], [6, 3], [2, 1], [1, 6]]),
    ),
    "duplicates_and_zeros": (  # duplicated rows; two queries equal to a duplicated row
        np.concatenate([_BASE[[0, 3]], np.random.default_rng(12).normal(size=(4, 3))]),
        _BASE[[3, 0, 1, 0, 4, 2, 1, 3, 0]],
    ),
    "signed_zeros": (
        np.array([[-0.0, 1, 2], [0.0, 1, 2], [-0.0, -0.0, -0.0], [0.0, -0.0, 2]]),
        np.array([[0.0, 1, 2], [-0.0, 1, 2], [0.0, -0.0, 2], [-0.0, 0.0, 2], [1, 1, 2]]),
    ),
}


@pytest.mark.parametrize("scale", [1.0, 1e-160, 1e150])  # 1e-160: subnormal squares
@pytest.mark.parametrize("name", list(_ADVERSARIAL_GALLERIES))
def test_rank_adversarial_galleries_match_counting_oracle(name, scale):
    qf, gf = _ADVERSARIAL_GALLERIES[name]
    qid, gid = np.zeros(len(qf), dtype=int), np.arange(len(gf)) % 2
    _assert_matches_oracles(qf * scale, gf * scale, qid, gid)


@pytest.fixture
def fallback_rows(monkeypatch):
    """Query rows ``rank`` hands to the difference form, one array per call."""
    calls = []
    real = evalkit.cross_distances

    def recorded(a, b):
        calls.append(np.array(a))
        return real(a, b)

    monkeypatch.setattr(evalkit, "cross_distances", recorded)
    return calls


@pytest.mark.parametrize("dim", [2, 16, 64])
@pytest.mark.parametrize("scale", [1e-100, 1e-3, 1.0, 1e4, 1e100])
def test_rank_certifies_generic_galleries(fallback_rows, dim, scale):
    r = np.random.default_rng(dim)
    qf, gf = r.normal(size=(40, dim)) * scale, r.normal(size=(300, dim)) * scale
    result = rank(qf, gf, np.zeros(40, dtype=int), np.arange(300) % 3)
    assert fallback_rows == []
    assert np.array_equal(result.order, np.argsort(cross_distances(qf, gf), axis=1, kind="stable"))


def test_rank_falls_back_only_on_the_tied_row(rng, fallback_rows):
    # the query at (0, 0, 2, 0) is at distance sqrt(5) from each unit point
    units = np.array([[1.0, 0, 0, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])
    gf = np.concatenate([rng.normal(size=(30, 4)), units])
    qf = rng.normal(size=(12, 4))
    qf[5] = [0.0, 0, 2, 0]
    result = rank(qf, gf, np.zeros(12, dtype=int), np.zeros(33, dtype=int))
    assert len(fallback_rows) == 1 and np.array_equal(fallback_rows[0], qf[5:6])
    assert np.array_equal(result.order, np.argsort(cross_distances(qf, gf), axis=1, kind="stable"))
    row = result.order[5].tolist()
    assert row[row.index(30) : row.index(30) + 3] == [30, 31, 32]  # the tie, by index


@pytest.mark.parametrize("scale", [1e153, 1e160])  # squared scale above 2^1020; overflowing
def test_rank_falls_back_above_the_certified_scale(fallback_rows, scale):
    r = np.random.default_rng(1)
    qf, gf = r.normal(size=(3, 4)) * scale, r.normal(size=(50, 4)) * scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the matmul form's own overflow stays silent
        result = rank(qf, gf, np.zeros(3, dtype=int), np.zeros(50, dtype=int))
    assert sum(map(len, fallback_rows)) == 3
    assert np.array_equal(result.order, np.argsort(cross_distances(qf, gf), axis=1, kind="stable"))


def test_rank_fallback_streams_its_difference_tensor(fallback_rows):
    # 1000 queries against 500 rows listed twice: every row ties, so every row falls
    # back; a one-shot 1000 x 1000 x 16 difference tensor would be 128 MB
    r = np.random.default_rng(2)
    qf, gf = r.normal(size=(1000, 16)), np.repeat(r.normal(size=(500, 16)), 2, axis=0)
    qid, gid = np.arange(1000) % 500, np.repeat(np.arange(500), 2)
    tracemalloc.start()
    try:
        result = rank(qf, gf, qid, gid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(map(len, fallback_rows)) == 1000
    one_shot = np.argsort(_euclid(qf, gf), axis=1, kind="stable")
    assert result.order.tobytes() == one_shot.tobytes()
    assert peak < 40 * 2**20


def test_rank_validation_and_degenerate():
    with pytest.raises(DimensionError):
        rank(np.zeros((2, 3)), np.zeros((2, 3)), [0], [0, 1])
    with pytest.raises(DimensionError, match="dimension mismatch"):
        rank(np.ones((1, 2)), np.ones((2, 3)), [0], [0, 1])
    with pytest.raises(DegenerateError):
        rank(np.zeros((1, 2)), np.ones((2, 2)), [0], [1, 2])
    with pytest.raises(ConfigError):
        cmc(_worked_example(), 0)


@pytest.mark.parametrize("density", [0.002, 0.01, 0.1, 0.5])
def test_query_scores_match_the_dense_form_bitwise(density):
    rng = RngStream(int(density * 1000))
    relevant = rng.integers(0, 10**6, size=(64, 2048)) < density * 10**6
    relevant[~relevant.any(axis=1), 7] = True  # every row keeps a hit, as ``rank`` guarantees
    relevant[0] = False
    relevant[0, 0] = True  # a single hit at the first rank
    relevant[1] = False
    relevant[1, -1] = True  # a single hit at the last rank
    relevant[2] = True  # every gallery row relevant
    relevant[3, -1] = True  # the last column among others
    for ours, dense in zip(evalkit._query_scores(relevant), oracles.dense_query_scores(relevant)):
        assert ours.dtype == dense.dtype
        assert np.array_equal(ours, dense)


# ---------------------------------------------------------------- similarity diagnostics


def test_histogram_counts_cover_all_cross_pairs(rng):
    n_per = 4
    feats = rng.normal(size=(2 * n_per, 3))
    ids = np.tile([0, 0, 1, 1], 2)
    tags = np.array(["ir"] * n_per + ["vis"] * n_per)
    pos, neg, edges = similarity_histogram(feats, ids, tags, bins=10)
    # cross pairs: 4x4 grid, half same-identity
    assert pos.sum() == 8
    assert neg.sum() == 8
    assert edges[0] == -1.0 and edges[-1] == 1.0 and edges.size == 11


def test_histogram_validation():
    feats = np.ones((4, 2))
    ids = [0, 0, 1, 1]
    tags = ["ir", "vis", "ir", "vis"]
    with pytest.raises(ConfigError):
        similarity_histogram(feats, ids, tags, bins=1)
    with pytest.raises(DimensionError):
        similarity_histogram(feats, [0, 1], tags)
    zero = feats.copy()
    zero[2] = 0.0
    with pytest.raises(NumericError):
        similarity_histogram(zero, ids, tags)


def test_gap_ratio_hand_value():
    # same identity: within-modality dist 1, cross-modality dists {2, 3, 3, 4} -> mean 3
    feats = np.array([[0.0], [1.0], [3.0], [4.0]])
    ids = np.zeros(4, dtype=int)
    tags = np.array(["ir", "ir", "vis", "vis"])
    assert modality_gap_ratio(feats, ids, tags) == pytest.approx(3.0, abs=1e-12)


def test_gap_ratio_degenerate_cases():
    feats = np.zeros((2, 2))
    with pytest.raises(DegenerateError):
        modality_gap_ratio(feats, [0, 0], ["ir", "vis"])  # no within pairs
    coincident = np.array([[0.0, 0], [0, 0], [1, 0], [1, 0]])
    with pytest.raises(DegenerateError):
        modality_gap_ratio(coincident, [0, 0, 0, 0], ["ir", "ir", "vis", "vis"])


def test_gap_ratio_rejects_mismatched_rows():
    feats = np.arange(12.0).reshape(6, 2)
    tags = ["ir", "ir", "vis", "vis", "ir", "vis"]
    with pytest.raises(DimensionError):
        modality_gap_ratio(feats, [0, 0, 0, 0, 1], tags)  # one id short
    with pytest.raises(DimensionError):
        modality_gap_ratio(feats, [0, 0, 0, 0, 1, 1], tags[:5])


@pytest.mark.parametrize("bins", [2, 3, 7, 30, 1000, 9000])  # 9000: finer than the lookup table
def test_similarity_bins_match_np_histogram_at_every_edge(bins):
    r = np.random.default_rng(bins)
    edges = np.linspace(-1.0, 1.0, bins + 1)
    cells = (np.arange(2 * evalkit._CELLS + 1) - evalkit._CELLS) / evalkit._CELLS
    points = np.concatenate([edges, cells, [-1.0, 1.0, -0.0, 0.0, 5e-324, -5e-324, 1e-310]])
    values = np.concatenate(
        [points, np.nextafter(points, -2.0), np.nextafter(points, 2.0), r.uniform(-1, 1, 4000)]
    )
    values = np.clip(values, -1.0, 1.0)  # the range _similarity_stats bins
    same = r.random(values.size) < 0.3
    binned = evalkit._SimilarityBins(bins)
    half = values.size // 2
    for part in (slice(0, half), slice(half, None)):  # counts accumulate over blocks
        binned.add(values[part].copy(), same[part])
    counts = binned.counts()
    assert np.array_equal(counts[0], np.histogram(values[same], bins, range=(-1.0, 1.0))[0])
    assert np.array_equal(counts[1], np.histogram(values, bins, range=(-1.0, 1.0))[0])
    if bins == 30:
        assert binned.unresolved.mean() < 0.01  # the table settles almost every value


def _random_diagnostic_inputs(r, dim, tie_heavy):
    """Ragged identities (singletons, one above 32 rows) over three tags, optionally rounded."""
    small = r.integers(1, 12, size=int(r.integers(2, 8)))
    sizes = np.concatenate([small, [1, 33 + int(r.integers(0, 8))]])
    ids = np.repeat(r.permutation(sizes.size) * 7 - 5, sizes)
    x = r.normal(size=(ids.size, dim))
    if tie_heavy:
        x = np.round(x, 0)
        x[~x.any(axis=1), 0] = 1.0  # cosine needs nonzero rows
        x[1::3] = x[::3][: x[1::3].shape[0]]  # repeated rows: exact ties and exact 0 distances
    tags = np.array(["gray", "ir", "vis"])[r.integers(0, 3, size=ids.size)]
    perm = r.permutation(ids.size)
    return x[perm], ids[perm], tags[perm]


def _gap_outcome(fn, *args):
    try:
        return float.hex(fn(*args))
    except DegenerateError as err:
        return f"DegenerateError: {err}"


@pytest.mark.parametrize("dim", [1, 3, 16, 64])
def test_similarity_stats_match_the_histogram_form_bitwise(dim):
    r = np.random.default_rng(100 + dim)
    for t in range(12):
        feats, ids, tags = _random_diagnostic_inputs(r, dim, tie_heavy=t % 2 == 1)
        bins = [2, 3, 7, 30, 1000, 9000][t % 6]
        counts, sums = evalkit._similarity_stats(feats, ids, tags, bins)
        want_counts, want_sums = oracles.similarity_stats(feats, ids, tags, bins)
        assert np.array_equal(counts, want_counts)
        assert sums.tobytes() == want_sums.tobytes()


@pytest.mark.parametrize("stack_bytes", [evalkit._STACK_BYTES, 1])  # 1: one group per call
@pytest.mark.parametrize("dim", [1, 3, 16, 64])
def test_gap_ratio_matches_the_per_identity_form_bitwise(monkeypatch, dim, stack_bytes):
    monkeypatch.setattr(evalkit, "_STACK_BYTES", stack_bytes)
    r = np.random.default_rng(200 + dim)
    for t in range(12):
        feats, ids, tags = _random_diagnostic_inputs(r, dim, tie_heavy=t % 2 == 1)
        want = _gap_outcome(oracles.gap_ratio, feats, ids, tags)
        assert _gap_outcome(modality_gap_ratio, feats, ids, tags) == want
    # forty equal groups: one stacked call, or forty at one byte per call
    ids = np.repeat(np.arange(40), 4)
    feats = r.normal(size=(ids.size, dim))
    tags = np.tile(["ir", "ir", "vis", "vis"], 40)
    assert float.hex(modality_gap_ratio(feats, ids, tags)) == float.hex(
        oracles.gap_ratio(feats, ids, tags)
    )


def test_gap_ratio_of_a_large_identity_builds_no_stacked_tensor():
    # one 1024-row identity: its s x s x d difference tensor would be 128 MiB
    x = np.random.default_rng(0).normal(size=(1024, 16))
    ids, tags = np.zeros(1024, dtype=int), np.tile(["ir", "vis"], 512)
    tracemalloc.start()
    try:
        ratio = modality_gap_ratio(x, ids, tags)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert float.hex(ratio) == float.hex(oracles.gap_ratio(x, ids, tags))
    assert peak < 40 * 2**20


# ---------------------------------------------------------------- full report


def _toy_eval():
    rngs = np.random.default_rng(5)
    q = rngs.normal(size=(6, 4))
    g = rngs.normal(size=(9, 4))
    qid = np.array([0, 0, 1, 1, 2, 2])
    gid = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2])
    return evaluate(q, qid, g, gid, bins=12)


def test_evaluate_report_fields():
    rep = _toy_eval()
    assert rep.n_queries == 6 and rep.n_gallery == 9
    assert rep.dropped_queries == 0
    assert 0.0 <= rep.rank1 <= rep.rank5 <= rep.rank10 <= rep.rank20 <= 1.0
    assert rep.rank20 == 1.0  # gallery smaller than 20: curve saturates
    assert 0.0 <= rep.minp <= rep.mean_ap <= 1.0
    assert rep.pos_hist.sum() == 6 * 3  # one positive block per query
    assert rep.bin_edges.size == 13


def test_evaluate_edge_cases_raise():
    rngs = np.random.default_rng(5)
    q, g = rngs.normal(size=(4, 3)), rngs.normal(size=(6, 3))
    qid, gid = np.array([0, 0, 1, 1]), np.array([0, 0, 0, 1, 1, 1])
    zero = g.copy()
    zero[2] = 0.0
    with pytest.raises(NumericError):
        evaluate(q, qid, zero, gid)
    with pytest.raises(DegenerateError):
        evaluate(q, qid, g, gid, query_tag="vis", gallery_tag="vis")
    with pytest.raises(DegenerateError):
        evaluate(q, [5, 5, 6, 6], g, gid)
    with pytest.raises(DimensionError):
        evaluate(q, np.zeros(5, dtype=int), g, gid)


def test_evaluate_refuses_one_tag_before_ranking(monkeypatch):
    calls = []
    real = evalkit._hit_positions
    monkeypatch.setattr(evalkit, "_hit_positions", lambda *args: calls.append(1) or real(*args))
    rngs = np.random.default_rng(5)
    q, g = rngs.normal(size=(4, 3)), rngs.normal(size=(6, 3))
    with pytest.raises(DegenerateError, match="both 'vis'"):
        evaluate(q, [0, 0, 1, 1], g, [0, 0, 0, 1, 1, 1], query_tag="vis", gallery_tag="vis")
    assert calls == []


def test_evaluate_one_identity_has_no_negative_pair():
    # every query and gallery row holds identity 3: no pair crosses identities
    rngs = np.random.default_rng(5)
    q, g = rngs.normal(size=(4, 3)), rngs.normal(size=(6, 3))
    with pytest.raises(DegenerateError, match="no query-gallery pair crosses identities"):
        evaluate(q, [3] * 4, g, [3] * 6)


@pytest.mark.parametrize("bins", [2.5, "30", 30.0, None, True, 1, np.int64(1)])
def test_bins_other_than_an_integer_from_2_fail_by_name(bins):
    rngs = np.random.default_rng(5)
    q, g = rngs.normal(size=(4, 3)), rngs.normal(size=(6, 3))
    message = f"^bins must be an integer >= 2, got {re.escape(repr(bins))}$"
    with pytest.raises(ConfigError, match=message):
        similarity_histogram(q, [0, 0, 1, 1], ["ir", "vis", "ir", "vis"], bins=bins)
    with pytest.raises(ConfigError, match=message):
        evaluate(q, [5, 5, 6, 6], g, [0, 0, 0, 1, 1, 1], bins=bins)  # no query would match


def test_numpy_integer_bins_pass():
    rngs = np.random.default_rng(5)
    q, g = rngs.normal(size=(4, 3)), rngs.normal(size=(6, 3))
    qid, gid = [0, 0, 1, 1], [0, 0, 0, 1, 1, 1]
    want = evaluate(q, qid, g, gid, bins=255)
    for bins in (np.int64(255), np.int32(255), np.uint8(255)):  # uint8: bins + 1 must not wrap
        rep = evaluate(q, qid, g, gid, bins=bins)
        assert report_text(rep) + report_table(rep) == report_text(want) + report_table(want)


#: SHA-256 of ``evaluate_params`` on ``_pinned_gallery``: ``report_text`` +
#: ``report_table`` + the ``float.hex`` of five scalars, taken from the
#: ``np.histogram`` / per-identity form of the similarity diagnostics.
EVALUATE_PINS = {
    "t2v": "91f91c4c3b226bfd31f25d1245b308b1b76d303cfc673b9cf7c9efdeb60f94d5",
    "v2t": "9fa723bc75d7ac734b18c8248f8630ab24c6f59c444ad93cc33c379743074543",
}


@pytest.mark.parametrize("direction", list(EVALUATE_PINS))
def test_evaluate_full_precision_pin(direction):
    ds = generate(24, 12, BENCHMARK_LAYOUT, BENCHMARK_GAP, BENCHMARK_NOISE, RngStream(20))
    params = init_params(BENCHMARK_LAYOUT.total_dims, 32, 16, 24, RngStream(21))
    rep = evaluate_params(params, ds, direction)
    digest = hashlib.sha256((report_text(rep) + report_table(rep)).encode("ascii"))
    for name in ("gap_ratio", "pos_sim_mean", "neg_sim_mean", "mean_ap", "minp"):
        digest.update(float.hex(getattr(rep, name)).encode("ascii"))
    assert digest.hexdigest() == EVALUATE_PINS[direction], pin_note()


@pytest.mark.parametrize("block", [1, 3, 64])
@pytest.mark.parametrize("direction", ["t2v", "v2t"])
def test_evaluate_diagnostics_match_the_former_forms_bitwise(monkeypatch, block, direction):
    monkeypatch.setattr(evalkit, "_BLOCK", block)
    ds = generate(12, 6, BENCHMARK_LAYOUT, BENCHMARK_GAP, BENCHMARK_NOISE, RngStream(4))
    q_tag, g_tag = ("ir", "vis") if direction == "t2v" else ("vis", "ir")
    q_rows, g_rows = ds.modality_rows(q_tag), ds.modality_rows(g_tag)
    qf, gf = np.round(ds.features[q_rows], 1), np.round(ds.features[g_rows], 1)  # with ties
    qid, gid = ds.labels[q_rows], ds.labels[g_rows]
    rep = evaluate(qf, qid, gf, gid, query_tag=q_tag, gallery_tag=g_tag, bins=30)
    feats, ids = np.concatenate([qf, gf]), np.concatenate([qid, gid])
    tags = np.repeat([q_tag, g_tag], [len(qf), len(gf)])
    counts, sums = oracles.similarity_stats(feats, ids, tags, 30)
    assert np.array_equal(rep.pos_hist, counts[0]) and np.array_equal(rep.neg_hist, counts[1])
    assert float.hex(rep.pos_sim_mean) == float.hex(float(sums[0] / counts[0].sum()))
    assert float.hex(rep.neg_sim_mean) == float.hex(float(sums[1] / counts[1].sum()))
    assert float.hex(rep.gap_ratio) == float.hex(oracles.gap_ratio(feats, ids, tags))


def _assert_block_size_invariant(monkeypatch, q, qid, g, gid):
    """evaluate at 1- and 3-row query blocks against a single block."""
    reports = {}
    for block in (10**6, 1, 3):
        monkeypatch.setattr(evalkit, "_BLOCK", block)
        reports[block] = evaluate(q, qid, g, gid, bins=12)
    whole = reports[10**6]
    for block in (1, 3):
        rep = reports[block]
        for name in ("rank1", "rank5", "rank10", "rank20", "dropped_queries", "n_queries"):
            assert getattr(rep, name) == getattr(whole, name)
        for name in ("pos_hist", "neg_hist", "bin_edges"):
            assert np.array_equal(getattr(rep, name), getattr(whole, name))
        for name in ("mean_ap", "minp", "gap_ratio", "pos_sim_mean", "neg_sim_mean"):
            assert getattr(rep, name) == pytest.approx(getattr(whole, name), abs=1e-12)
    return whole


def test_evaluate_blocks_split_identities(monkeypatch):
    rngs = np.random.default_rng(7)
    q, g = rngs.normal(size=(10, 4)), rngs.normal(size=(12, 4))
    qid = np.array([0, 0, 0, 1, 1, 2, 2, 2, 3, 3])  # 3-row blocks cut identities 1, 2, 3
    gid = np.repeat(np.arange(4), 3)
    whole = _assert_block_size_invariant(monkeypatch, q, qid, g, gid)
    assert whole.dropped_queries == 0 and whole.n_queries == 10


def test_evaluate_block_of_dropped_queries(monkeypatch):
    rngs = np.random.default_rng(8)
    q, g = rngs.normal(size=(10, 4)), rngs.normal(size=(12, 4))
    qid = np.array([0, 1, 2, 7, 8, 9, 1, 2, 0, 3])  # the second 3-row block has no match
    gid = np.repeat(np.arange(4), 3)
    whole = _assert_block_size_invariant(monkeypatch, q, qid, g, gid)
    assert whole.dropped_queries == 3 and whole.n_queries == 7
    # histograms still cover every query row, dropped ones included
    assert whole.pos_hist.sum() + whole.neg_hist.sum() == 10 * 12


# ---------------------------------------------------------------- evaluate against rank

_SCALES = [1.0, 1e-160, 1e150, 1e153, 1e160]  # 1e153 and up: the matmul form overflows


@pytest.fixture
def ranking_only(monkeypatch):
    """``evaluate`` with its similarity diagnostics stubbed out.

    The adversarial galleries hold zero rows (cosine undefined) and rows whose
    squared distances overflow; the tests that use this read only the
    retrieval fields, which the diagnostics do not touch.
    """
    monkeypatch.setattr(
        evalkit, "_similarity_stats", lambda f, i, t, bins: (np.ones((2, bins), int), np.ones(2))
    )
    monkeypatch.setattr(evalkit, "modality_gap_ratio", lambda f, i, t: 1.0)


def _assert_evaluate_matches_rank(qf, qid, gf, gid, **tags):
    """evaluate's retrieval fields equal ``rank`` + ``_query_scores`` block by block, exactly."""
    report = evaluate(qf, qid, gf, gid, **tags)
    want = oracles.ranked_block_scores(qf, qid, gf, gid)
    assert {name: getattr(report, name) for name in want} == want
    return report


@pytest.mark.parametrize("scale", _SCALES)
@pytest.mark.parametrize("name", list(_ADVERSARIAL_GALLERIES))
def test_evaluate_adversarial_galleries_match_rank(ranking_only, name, scale):
    qf, gf = _ADVERSARIAL_GALLERIES[name]
    with np.errstate(over="ignore", invalid="ignore"):
        for qid in (np.zeros(len(qf), dtype=int), np.arange(len(qf)) % 3):
            _assert_evaluate_matches_rank(qf * scale, qid, gf * scale, np.arange(len(gf)) % 2)


@pytest.mark.parametrize("block", [1, 3, 64])
def test_evaluate_tie_heavy_galleries_match_rank(ranking_only, monkeypatch, block):
    # coordinates rounded to one decimal in 2-3 dims; the gallery repeats its
    # first half (every other gallery) or a prefix of it, so exact ties and
    # exact zeros fill most rows and the rows that certify share their blocks
    monkeypatch.setattr(evalkit, "_BLOCK", block)
    r = np.random.default_rng(block)
    for t in range(20):
        dim, n_g = int(r.integers(2, 4)), int(r.integers(3, 40))
        half, ids = np.round(r.normal(size=(n_g, dim)), 1), r.integers(0, 6, size=n_g)
        n_dup = n_g if t % 2 else int(r.integers(0, n_g))
        gf, gid = np.concatenate([half, half[:n_dup]]), np.concatenate([ids, ids[:n_dup]])
        n_q = int(r.integers(1, 150))
        qf = np.concatenate([np.round(r.normal(size=(n_q, dim)), 1), gf[: n_q // 4]])
        qid = r.integers(0, 9, size=len(qf))  # identities 6-8 never occur in the gallery
        qid[0] = gid[0]
        report = _assert_evaluate_matches_rank(qf, qid, gf, gid)
        assert report.n_queries + report.dropped_queries == len(qf)


def test_evaluate_block_mixing_certified_and_fallback_rows(rng, fallback_rows):
    units = np.array([[1.0, 0, 0, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])
    gf = np.concatenate([rng.normal(size=(30, 4)), units])
    qf = rng.normal(size=(12, 4))
    qf[5] = [0.0, 0, 2, 0]  # at distance sqrt(5) from each unit point
    qid, gid = np.arange(12) % 3, np.arange(33) % 3
    report = evaluate(qf, qid, gf, gid)
    sent = list(fallback_rows)
    fallback_rows.clear()
    want = oracles.ranked_block_scores(qf, qid, gf, gid)
    assert {name: getattr(report, name) for name in want} == want
    assert len(sent) == len(fallback_rows) == 1  # one 12-row block, one fallback row
    assert np.array_equal(sent[0], qf[5:6]) and np.array_equal(fallback_rows[0], qf[5:6])


@pytest.mark.parametrize("block", [1, 3, 64])
def test_evaluate_v2t_roles_match_rank(monkeypatch, block):
    monkeypatch.setattr(evalkit, "_BLOCK", block)
    ds = generate(12, 6, BENCHMARK_LAYOUT, BENCHMARK_GAP, BENCHMARK_NOISE, RngStream(4))
    vis, ir = ds.modality_rows("vis"), ds.modality_rows("ir")
    report = _assert_evaluate_matches_rank(
        ds.features[vis],
        ds.labels[vis],
        ds.features[ir],
        ds.labels[ir],
        query_tag="vis",
        gallery_tag="ir",
    )
    assert report.n_queries == 72 and report.dropped_queries == 0


def test_evaluate_gives_ranks_dimension_error():
    with pytest.raises(DimensionError, match="^dimension mismatch: 2 vs 3$"):
        evaluate(np.ones((1, 2)), [0], np.ones((2, 3)), [0, 1])


def test_evaluate_checks_bins_before_ranking():
    rngs = np.random.default_rng(5)
    q, g = rngs.normal(size=(4, 3)), rngs.normal(size=(6, 3))
    with pytest.raises(ConfigError, match="bins"):
        evaluate(q, [5, 5, 6, 6], g, [0, 0, 0, 1, 1, 1], bins=1)  # no query would match


_BAD_IDS = {
    "fractional": ([0.5, 0.9, 1.2, 1.9], "0.5"),
    "nan": ([0.0, np.nan, 1.0, 1.0], "nan"),
    "infinite": ([0.0, 0.0, np.inf, 1.0], "inf"),
    "beyond_int64": ([0.0, 0.0, 1.0, 2.0**63], "9.223372036854776e\\+18"),
    "text": (["a", "a", "b", "b"], "dtype <U1"),
    "objects": ([0, None, 1, 1], "dtype object"),
}


@pytest.mark.parametrize("kind", list(_BAD_IDS))
def test_identity_arrays_fail_by_name(kind):
    bad, shown = _BAD_IDS[kind]
    rngs = np.random.default_rng(5)
    q, g = rngs.normal(size=(4, 3)), rngs.normal(size=(4, 3))
    good, tags = [0, 0, 1, 1], ["ir", "ir", "vis", "vis"]
    calls = [
        ("query_ids", lambda: evaluate(q, bad, g, good)),
        ("gallery_ids", lambda: evaluate(q, good, g, bad)),
        ("query_ids", lambda: rank(q, g, bad, good)),
        ("gallery_ids", lambda: rank(q, g, good, bad)),
        ("ids", lambda: similarity_histogram(q, bad, tags)),
        ("ids", lambda: modality_gap_ratio(q, bad, tags)),
    ]
    for name, call in calls:
        with pytest.raises(LabelError, match=f"^{name} must hold integer identities, got {shown}$"):
            call()


def test_integer_identity_lists_and_arrays_keep_working():
    rngs = np.random.default_rng(5)
    q, g = rngs.normal(size=(4, 3)), rngs.normal(size=(6, 3))
    gid = [0, 0, 0, 1, 1, 1]
    want = evaluate(q, [0, 0, 1, 1], g, gid)
    for qid in (np.array([0, 0, 1, 1], dtype=np.uint8), np.array([0.0, 0, 1, 1])):
        assert report_text(evaluate(q, qid, g, gid)) == report_text(want)


def test_evaluate_memory_is_bounded():
    # 2 x 1024 rows of 16 dims: one 64-row block's difference tensor is 8 MB;
    # building the (n+m)^2 x d pairwise tensors instead peaks near 0.6 GB
    ds = generate(64, 16, BENCHMARK_LAYOUT, BENCHMARK_GAP, BENCHMARK_NOISE, RngStream(3))
    ir, vis = ds.modality_rows("ir"), ds.modality_rows("vis")
    assert len(ir) == len(vis) == 1024
    tracemalloc.start()
    try:
        rep = evaluate(ds.features[ir], ds.labels[ir], ds.features[vis], ds.labels[vis])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.n_queries == 1024
    assert peak < 40 * 2**20


#: ``tracemalloc`` peak of ``evaluate`` below on the ``np.histogram`` form of
#: the similarity diagnostics (5.72 MB); the lookup table must not raise it.
_HISTOGRAM_FORM_PEAK = 5_720_000


def test_evaluate_peak_stays_within_the_histogram_forms():
    ds = generate(128, 16, BENCHMARK_LAYOUT, BENCHMARK_GAP, BENCHMARK_NOISE, RngStream(3))
    ir, vis = ds.modality_rows("ir"), ds.modality_rows("vis")
    qf, qid, gf, gid = ds.features[ir], ds.labels[ir], ds.features[vis], ds.labels[vis]
    assert qf.shape == gf.shape == (2048, 16)
    tracemalloc.start()
    try:
        rep = evaluate(qf, qid, gf, gid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.n_queries == 2048
    assert peak <= _HISTOGRAM_FORM_PEAK


def test_report_text_format():
    text = report_text(_toy_eval())
    lines = text.strip().split("\n")
    assert lines[0].startswith("rank1=")
    keys = [ln.split("=")[0] for ln in lines]
    assert keys == [
        "rank1",
        "rank5",
        "rank10",
        "rank20",
        "mean_ap",
        "minp",
        "gap_ratio",
        "pos_sim_mean",
        "neg_sim_mean",
        "dropped_queries",
        "n_queries",
        "n_gallery",
    ]
    for ln in lines[:9]:
        float(ln.split("=")[1])  # every metric line parses as a float


def test_report_table_format():
    rep = _toy_eval()
    table = report_table(rep)
    lines = table.strip().split("\n")
    assert lines[0] == "bin_left,bin_right,pos_count,neg_count"
    assert len(lines) == 1 + rep.pos_hist.size
    first = lines[1].split(",")
    assert float(first[0]) == -1.0
    total_pos = sum(int(ln.split(",")[2]) for ln in lines[1:])
    assert total_pos == rep.pos_hist.sum()
