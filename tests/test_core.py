import numpy as np
import pytest

import oracles
from crossmodal.core import (
    RngStream,
    _euclid,
    cross_distances,
    euclidean_distance,
    pairwise_distances,
    subsets,
)
from crossmodal.errors import ConfigError, DimensionError, NumericError


def test_euclidean_distance_basics():
    assert euclidean_distance([0.0, 0.0], [3.0, 4.0]) == 5.0
    assert euclidean_distance([1.0, 2.0], [1.0, 2.0]) == 0.0


def test_distance_validation_errors():
    with pytest.raises(DimensionError):
        euclidean_distance([1.0, 2.0], [1.0])
    with pytest.raises(DimensionError):
        euclidean_distance([[1.0]], [[1.0]])
    with pytest.raises(NumericError):
        euclidean_distance([np.nan], [0.0])


def test_pairwise_matches_scalar_oracle(rng):
    x = rng.normal(size=(7, 3))
    d = pairwise_distances(x)
    for i in range(7):
        for j in range(7):
            assert d[i, j] == pytest.approx(oracles.euclid(x[i], x[j]), abs=1e-12)


def test_pairwise_exactly_symmetric(rng):
    x = rng.normal(size=(9, 4))
    d = pairwise_distances(x)
    assert np.array_equal(d, d.T)
    assert np.all(np.abs(np.diag(d)) < 1e-15)


@pytest.mark.parametrize("dim", [5, 16])
@pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 63, 64, 65, 97, 300, 512])
def test_pairwise_euclid_bitwise_equals_one_shot_form(rng, n, dim):
    x = rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
    # Duplicated rows put exact zeros off the diagonal, some of them across blocks.
    x[n // 2 :: 7] = x[0]
    dist = pairwise_distances(x)
    assert np.array_equal(dist, oracles.pairwise_euclid_single(x))
    assert np.array_equal(dist, dist.T)
    assert np.array_equal(np.diag(dist), np.zeros(n))
    if n > 1:
        assert (dist[~np.eye(n, dtype=bool)] == 0).any()


#: ``(populations, k)`` over both branches of numpy's no-replacement ``choice``:
#: Floyd's (with pop = k and k = pop - 1) and the tail shuffle taken when
#: pop > 10 000 and k > pop // 50, on both sides of each of those bounds.
_SUBSET_CASES = [
    ([8] * 16, 4),
    ([16] * 64, 8),
    ([5, 9, 6, 30, 7], 5),
    ([4], 4),
    ([5], 4),
    ([2, 3, 1], 1),
    ([10000], 300),
    ([10001], 200),
    ([10001], 201),
    ([10001, 6, 20000], 5),
    ([20000], 400),
    ([20000], 401),
    ([20000, 500, 10001], 401),
    ([10001], 10001),
    ([10002], 10001),
]


@pytest.mark.parametrize("pops, k", _SUBSET_CASES)
def test_subsets_equal_one_choice_per_population(pops, k):
    ours, ref = RngStream(11, (k,)), RngStream(11, (k,))
    want = np.array([ref.choice(pop, size=k, replace=False) for pop in pops])
    got = subsets([ours], [pops], k)
    assert got.shape == (1, len(pops), k)
    assert np.array_equal(got[0], want)
    assert ours.integers(2**62) == ref.integers(2**62)  # the stream ends where choice left it


def test_subsets_equal_choice_on_random_populations():
    draw = RngStream(12)
    for case in range(300):
        k = int(draw.integers(1, 12))
        pops = draw.integers(k, k + 30, size=int(draw.integers(1, 20)))
        ours, ref = RngStream(case), RngStream(case)
        want = np.array([ref.choice(pop, size=k, replace=False) for pop in pops])
        assert np.array_equal(subsets([ours], [pops], k)[0], want), (pops.tolist(), k)
        assert ours.integers(2**62) == ref.integers(2**62)


@pytest.mark.parametrize(
    "pops, k", [([[8, 9, 8], [12, 8, 10], [8, 8, 30]], 4), ([[10001]] * 2, 300)]
)
def test_subsets_draw_each_row_from_its_own_stream(pops, k):
    ours = [RngStream(13, (s,)) for s in range(len(pops))]
    refs = [RngStream(13, (s,)) for s in range(len(pops))]
    want = [[ref.choice(pop, size=k, replace=False) for pop in row] for ref, row in zip(refs, pops)]
    assert np.array_equal(subsets(ours, pops, k), np.array(want))
    assert [s.integers(2**62) for s in ours] == [s.integers(2**62) for s in refs]


def test_subsets_reject_more_picks_than_rows():
    with pytest.raises(ConfigError, match="cannot draw 4 of 3"):
        subsets([RngStream(0)], [[5, 3, 8]], 4)
    with pytest.raises(ConfigError):
        subsets([RngStream(0)], [[5]], 0)
    with pytest.raises(DimensionError, match="one row of populations per stream"):
        subsets([RngStream(0), RngStream(1)], [[5, 6]], 2)


def test_pairwise_rejects_bad_metric(rng):
    # euclid is the only metric: pairwise_distances takes no metric argument
    with pytest.raises(TypeError):
        pairwise_distances(rng.normal(size=(3, 2)), "cosine")


def test_cross_distances_match_pairwise_blocks(rng):
    b = rng.normal(size=(5, 3))
    for rows in (4, 32, 33, 70):  # one block, then 32-row blocks and a shorter last one
        a = rng.normal(size=(rows, 3))
        full = pairwise_distances(np.concatenate([a, b]))
        assert np.allclose(cross_distances(a, b), full[:rows, rows:], atol=1e-12)
        assert cross_distances(a, b).tobytes() == _euclid(a, b).tobytes()  # the one-shot form
    with pytest.raises(DimensionError):
        cross_distances(a, rng.normal(size=(2, 7)))


def test_rng_streams_are_reproducible():
    a = RngStream(7).normal(size=5)
    b = RngStream(7).normal(size=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, RngStream(8).normal(size=5))


def test_rng_children_are_independent_of_parent_draws():
    r1 = RngStream(3)
    r1.normal(size=100)  # consume parent draws
    c1 = r1.child(5).normal(size=4)
    c2 = RngStream(3).child(5).normal(size=4)
    assert np.array_equal(c1, c2)
    assert not np.array_equal(c1, RngStream(3).child(6).normal(size=4))


def test_rng_nested_child_paths():
    assert np.array_equal(
        RngStream(0).child(1).child(2, 3).integers(0, 100, size=8),
        RngStream(0).child(1, 2, 3).integers(0, 100, size=8),
    )


def test_rng_rejects_bad_seeds():
    with pytest.raises(ConfigError):
        RngStream(-1)
    with pytest.raises(ConfigError):
        RngStream(0).child(-2)


@pytest.mark.parametrize(
    "seed, path, suffix",
    [(0, (), (1,)), (3, (1, 2), (5, 0, 7)), (2**40, (9,), (np.int64(4), 2)), (7, (1,), ())],
)
def test_child_draws_equal_the_stream_at_the_joined_path(seed, path, suffix):
    child, ref = RngStream(seed, path).child(*suffix), RngStream(seed, path + suffix)
    assert (child.seed, child.path) == (ref.seed, ref.path)
    assert all(type(p) is int for p in child.path)
    assert np.array_equal(child.integers(0, 2**62, size=8), ref.integers(0, 2**62, size=8))
    assert np.array_equal(child.child(2).normal(size=3), ref.child(2).normal(size=3))


@pytest.mark.parametrize(
    "bad, message",
    [
        (-2, "stream path components must be non-negative"),
        (1.5, "path must be an integer, got 1.5"),
        (True, "path must be an integer, got True"),
        ("3", "path must be an integer, got '3'"),
    ],
)
def test_child_refuses_a_bad_component_as_the_constructor_does(bad, message):
    for make in (lambda: RngStream(0, (1,)).child(2, bad), lambda: RngStream(0, (1, 2, bad))):
        with pytest.raises(ConfigError) as info:
            make()
        assert str(info.value) == message
