"""Dense float64 kernels: distance metrics, pairwise matrices, seeded RNG streams."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DimensionError, NumericError

#: Norm threshold below which cosine distance is treated as undefined.
NORM_EPS = 1e-12

METRICS = ("euclid", "cosine")

#: Euclid ``pairwise_distances`` is built in ``_BLOCK``-row blocks over the
#: upper triangle.
_BLOCK = 32


def as_vector(values) -> np.ndarray:
    """Coerce to a finite 1-D float64 array."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionError(f"expected a 1-D vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise NumericError("vector contains NaN or Inf")
    return v


def as_matrix(values) -> np.ndarray:
    """Coerce to a finite, nonempty 2-D float64 array."""
    m = np.asarray(values, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got shape {m.shape}")
    if m.size == 0:
        raise DimensionError("matrix must be nonempty")
    if not np.isfinite(m).all():
        raise NumericError("matrix contains NaN or Inf")
    return m


def euclidean_distance(a, b) -> float:
    """Square root of the summed squared coordinate differences."""
    va, vb = as_vector(a), as_vector(b)
    if va.shape != vb.shape:
        raise DimensionError(f"dimension mismatch: {va.shape[0]} vs {vb.shape[0]}")
    d = va - vb
    return float(np.sqrt(np.dot(d, d)))


def cosine_distance(a, b) -> float:
    """One minus the cosine similarity of a and b; range [0, 2] up to rounding."""
    va, vb = as_vector(a), as_vector(b)
    if va.shape != vb.shape:
        raise DimensionError(f"dimension mismatch: {va.shape[0]} vs {vb.shape[0]}")
    na = float(np.sqrt(np.dot(va, va)))
    nb = float(np.sqrt(np.dot(vb, vb)))
    if na <= NORM_EPS or nb <= NORM_EPS:
        raise NumericError("cosine distance undefined for (near-)zero-norm vectors")
    return float(1.0 - np.dot(va, vb) / (na * nb))


def _euclid(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclid distances from each row of ``a`` to each row of ``b``, over stacked leading axes.

    Entry ``[..., i, j]`` reduces ``a[..., i, :] - b[..., j, :]``, which
    swapping ``a`` and ``b`` negates exactly, so the result transposes bitwise.
    """
    diff = a[..., :, None, :] - b[..., None, :, :]
    return np.sqrt(np.einsum("...ijk,...ijk->...ij", diff, diff))


def pairwise_distances(batch, metric: str = "euclid") -> np.ndarray:
    """All-pairs distance matrix over the rows of ``batch``.

    The result is exactly symmetric: euclid entries are built from coordinate
    differences (which negate exactly under row swap), and cosine similarities
    are computed once per unordered pair and mirrored.

    Euclid entries come from :func:`_euclid`, row block ``[a, a + _BLOCK)``
    against rows ``[a, n)`` only, in increasing ``a``; the block's columns
    ``[0, a)`` are mirrored from the blocks above it, and a batch of at most
    ``_BLOCK`` rows is one block. So the matrix is bitwise equal to the
    one-shot n x n x d form while the largest temporary shrinks from n*n*d to
    _BLOCK*n*d floats.
    """
    x = as_matrix(batch)
    if metric not in METRICS:
        raise ConfigError(f"unknown metric {metric!r}, expected one of {METRICS}")
    if metric == "euclid":
        n = x.shape[0]
        out = np.empty((n, n))
        for a in range(0, n, _BLOCK):
            b = min(a + _BLOCK, n)
            out[a:b, a:] = _euclid(x[a:b], x[a:])
            out[a:b, :a] = out[:a, a:b].T
        return out
    norms = np.sqrt(np.einsum("ij,ij->i", x, x))
    if (norms <= NORM_EPS).any():
        raise NumericError("cosine distance undefined for (near-)zero-norm rows")
    xn = x / norms[:, None]
    s = xn @ xn.T
    iu = np.triu_indices(x.shape[0], 1)
    s.T[iu] = s[iu]
    return 1.0 - s


def cross_distances(a, b) -> np.ndarray:
    """Rectangular euclid distance matrix between rows of ``a`` and rows of ``b``."""
    xa, xb = as_matrix(a), as_matrix(b)
    if xa.shape[1] != xb.shape[1]:
        raise DimensionError(f"dimension mismatch: {xa.shape[1]} vs {xb.shape[1]}")
    return _euclid(xa, xb)


class RngStream:
    """Seeded PCG64 stream with deterministic, spawnable child streams.

    A stream is identified by ``(seed, path)``: the same identity yields the
    same draw sequence on every run. ``child(i, j, ...)`` derives an
    independent substream keyed by the path suffix, so per-epoch or per-batch
    streams never depend on how many draws the parent made.
    """

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        self.seed = int(seed)
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        self.path = tuple(int(p) for p in path)
        if any(p < 0 for p in self.path):
            raise ConfigError("stream path components must be non-negative")
        seq = np.random.SeedSequence(self.seed, spawn_key=self.path)
        self._gen = np.random.Generator(np.random.PCG64(seq))

    def child(self, *path: int) -> "RngStream":
        """Deterministic substream at the given path suffix."""
        return RngStream(self.seed, self.path + path)

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None):
        return self._gen.normal(loc, scale, size)

    def integers(self, low: int, high: int | None = None, size=None):
        return self._gen.integers(low, high, size)

    def choice(self, a, size=None, replace: bool = True):
        return self._gen.choice(a, size=size, replace=replace)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, path={self.path})"
