import numpy as np
import pytest

import oracles
from crossmodal.core import (
    RngStream,
    cross_distances,
    euclidean_distance,
    pairwise_distances,
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


def test_pairwise_rejects_bad_metric(rng):
    # euclid is the only metric: pairwise_distances takes no metric argument
    with pytest.raises(TypeError):
        pairwise_distances(rng.normal(size=(3, 2)), "cosine")


def test_cross_distances_match_pairwise_blocks(rng):
    a = rng.normal(size=(4, 3))
    b = rng.normal(size=(5, 3))
    full = pairwise_distances(np.concatenate([a, b]))
    assert np.allclose(cross_distances(a, b), full[:4, 4:], atol=1e-12)
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
