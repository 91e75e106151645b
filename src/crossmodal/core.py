"""Dense float64 kernels: distances, pairwise matrices, seeded RNG streams."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DimensionError, LabelError, NumericError

#: Norm threshold below which cosine distance is treated as undefined.
NORM_EPS = 1e-12

#: ``pairwise_distances`` (over the upper triangle) and ``cross_distances``
#: are built in ``_BLOCK``-row blocks.
_BLOCK = 32
#: Unit roundoff of float64.
_U = 2.0**-53
#: Squared scale ``(|a_i| + max_j |b_j|)^2`` a certified row must lie in: far
#: enough above the subnormal range that underflow is negligible against the
#: bound, and far enough below the overflow threshold that no intermediate
#: overflows.
_SCALE_RANGE = (2.0**-960, 2.0**1020)
#: Above this population numpy's no-replacement ``choice`` may shuffle instead of running Floyd.
_TAIL_POP = 10_000


def check_int(name: str, value, minimum: int | None = None) -> None:
    """``ConfigError`` naming ``name`` unless ``value`` is a Python or numpy integer, not a bool,
    and, with ``minimum``, at least ``minimum``.
    """
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not integer or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ConfigError(f"{name} must be an integer{bound}, got {value!r}")


def as_ids(values, name: str) -> np.ndarray:
    """Identities as int64; ``LabelError`` naming ``name`` unless every one is a finite integer.

    Integer arrays pass as they are; float arrays pass when every value is
    integral and below 2^63 in magnitude.
    """
    ids = np.asarray(values)
    if ids.dtype.kind not in "iuf":
        raise LabelError(f"{name} must hold integer identities, got dtype {ids.dtype}")
    if ids.dtype.kind == "f":
        bad = ~(np.abs(ids) < 2.0**63) | (ids != np.trunc(ids))
    else:
        bad = ids > np.iinfo(np.int64).max
    if bad.any():
        raise LabelError(f"{name} must hold integer identities, got {ids[bad].flat[0].item()!r}")
    return ids.astype(np.int64, copy=False)


def as_vector(values) -> np.ndarray:
    """Coerce to a finite 1-D float64 array."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionError(f"expected a 1-D vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise NumericError("vector contains NaN or Inf")
    return v


def as_matrix(values, stack: bool = False) -> np.ndarray:
    """Coerce to a finite, nonempty 2-D float64 array; with ``stack``, a 3-D stack of them too."""
    m = np.asarray(values, dtype=np.float64)
    if m.ndim != 2 and not (stack and m.ndim == 3):
        kind = "a 2-D matrix or a 3-D stack" if stack else "a 2-D matrix"
        raise DimensionError(f"expected {kind}, got shape {m.shape}")
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


def _euclid(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclid distances from each row of ``a`` to each row of ``b``, over stacked leading axes.

    Entry ``[..., i, j]`` reduces ``a[..., i, :] - b[..., j, :]``, which
    swapping ``a`` and ``b`` negates exactly, so the result transposes bitwise.
    """
    diff = a[..., :, None, :] - b[..., None, :, :]
    return np.sqrt(np.einsum("...ijk,...ijk->...ij", diff, diff))


def _cosine(x: np.ndarray) -> np.ndarray:
    """Cosine distances between the rows of ``x``, over stacked leading axes; exactly symmetric.

    Each similarity is computed once per unordered pair and mirrored.
    """
    norms = np.sqrt(np.einsum("...ij,...ij->...i", x, x))
    if (norms <= NORM_EPS).any():
        raise NumericError("cosine distance undefined for (near-)zero-norm rows")
    xn = x / norms[..., None]
    s = xn @ xn.swapaxes(-1, -2)
    i, j = np.triu_indices(x.shape[-2], 1)
    s.swapaxes(-1, -2)[..., i, j] = s[..., i, j]
    return 1.0 - s


def _gallery_terms(b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``b`` side of :func:`_matmul_form`: ``((-2 b)^T, |b_j|^2, max_j |b_j|)``.

    A caller that forms many row blocks against one ``b`` computes these once.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        b2 = np.einsum("ij,ij->i", b, b)
        return (-2.0 * b).T, b2, np.sqrt(b2.max())


def _matmul_form(a: np.ndarray, terms) -> tuple[np.ndarray, np.ndarray]:
    """Matmul-form squared euclid distances less ``|a_i|^2``, and each row's squared scale.

    ``terms`` are :func:`_gallery_terms` of the rows ``b``.
    ``m[i, j] = fl(fl(a_i . (-2 b_j)) + fl(|b_j|^2))``, from one BLAS call;
    ``|a_i|^2`` is left out because it shifts the whole row.
    ``scale[i] = (|a_i| + max_j |b_j|)^2``. Overflow is not reported:
    :func:`_certified` proves nothing for a row it reaches.
    """
    neg2_bt, b2, b_max = terms
    with np.errstate(over="ignore", invalid="ignore"):
        scale = (np.sqrt(np.einsum("ij,ij->i", a, a)) + b_max) ** 2
        m = a @ neg2_bt
        m += b2
    return m, scale


def _certified(gap: np.ndarray, scale: np.ndarray, d: int) -> np.ndarray:
    """Per row, whether a gap in its matmul form proves a strict difference-form order.

    Row i of ``m`` (:func:`_matmul_form`) stands for the difference-form
    distances ``D_j = fl(sqrt(s_j))``, ``s_j = fl(sum_k fl(fl(a_ik - b_jk)^2))``
    in any summation order (:func:`_euclid`). Let ``gap[i]`` be a computed
    ``fl(m_ib - m_ia)``. If it exceeds ``tau = c(d) * R^2``, with
    ``R^2 = scale[i]`` inside ``_SCALE_RANGE``, ``c(d) = (8d + 24) u`` and
    ``u = 2^-53``, then ``D_a < D_b``. So a row whose every adjacent gap of
    its sorted ``m`` passes is strictly increasing in ``D`` along its ``m``
    order (``evalkit.rank``); a row whose runner-up passes against its
    smallest entry has that entry as its unique smallest ``D``, since every
    other entry is at least the runner-up (the batch-hard miner in
    ``losses``). Callers send every other row to the difference form.

    Derivation (Higham, *Accuracy and Stability of Numerical Algorithms*,
    2nd ed., section 3.1; ``gamma_k = k u / (1 - k u)``). Write ``q = a_i``.
    Let ``S_j = |q - b_j|^2`` and ``T_j = S_j - |q|^2``, so
    ``T_b - T_a = S_b - S_a``, ``S_j <= R^2`` and
    ``2 |q| |b_j| + |b_j|^2 <= R^2``. Scaling by -2 is exact, and a length-d
    dot product in any summation order, fused multiply-adds included, is off
    by at most ``gamma_d`` times the dot product of the absolute values; so
    are ``q . (-2 b_j)`` and ``|b_j|^2``. With one more rounding for the add,

    (1) ``|m_j - T_j| <= gamma_{d+1} (2 |q| |b_j| + |b_j|^2) <= gamma_{d+1} R^2``.

    ``s_j`` sums d nonnegative terms, each rounded at most d + 1 times (the
    difference, the square, the additions):

    (2) ``|s_j - S_j| <= gamma_{d+2} S_j <= gamma_{d+2} R^2``.

    The root is correctly rounded, so ``fl(sqrt(s_a)) < fl(sqrt(s_b))`` when
    ``sqrt(s_b) (1 - u) > sqrt(s_a) (1 + u)``, which holds when

    (3) ``s_b - s_a > u (sqrt(s_a) + sqrt(s_b))^2``, and
    ``(sqrt(s_a) + sqrt(s_b))^2 <= 4 (1 + gamma_{d+2}) R^2``.

    Rounding is monotone, so a computed gap ``fl(m_b - m_a)`` above the
    computed ``tau`` means ``m_b - m_a > tau``; by (1)
    ``S_b - S_a > tau - 2 gamma_{d+1} R^2``, by (2)
    ``s_b - s_a > tau - (2 gamma_{d+1} + 2 gamma_{d+2}) R^2``, and by (3)
    ``D_a < D_b`` once
    ``tau >= (2 gamma_{d+1} + 2 gamma_{d+2} + 4 u (1 + gamma_{d+2})) R^2``.
    For ``(d + 2) u <= 0.01`` that factor is below ``1.011 (4d + 10) u``.
    ``c(d)`` is twice ``(4d + 12) u``. The margin of more than
    ``(3.9d + 13) u R^2`` covers computing ``tau`` itself (relative error
    below ``(2d + 8) u``) and underflow: each of the at most ``8d`` products
    behind one comparison and its ``tau`` loses at most ``2^-1075``, together
    under ``d 2^-111 R^2`` once ``R^2 >= 2^-960``. With ``R^2 <= 2^1020``
    no intermediate (``m``, its gaps, ``s_j``, ``tau``) overflows. A NaN gap
    or scale proves nothing.
    """
    lo, hi = _SCALE_RANGE
    return (gap > (8 * d + 24) * _U * scale) & (scale >= lo) & (scale <= hi)


def pairwise_distances(batch) -> np.ndarray:
    """All-pairs euclid distance matrix over the rows of ``batch``.

    The result is exactly symmetric: entries are built from coordinate
    differences, which negate exactly under row swap.

    Entries come from :func:`_euclid`, row block ``[a, a + _BLOCK)`` against
    rows ``[a, n)`` only, in increasing ``a``; the block's columns ``[0, a)``
    are mirrored from the blocks above it, and a batch of at most ``_BLOCK``
    rows is one block. So the matrix is bitwise equal to the one-shot
    n x n x d form while the largest temporary shrinks from n*n*d to
    _BLOCK*n*d floats.
    """
    x = as_matrix(batch)
    n = x.shape[0]
    out = np.empty((n, n))
    for a in range(0, n, _BLOCK):
        b = min(a + _BLOCK, n)
        out[a:b, a:] = _euclid(x[a:b], x[a:])
        out[a:b, :a] = out[:a, a:b].T
    return out


def cross_distances(a, b) -> np.ndarray:
    """Rectangular euclid distance matrix between rows of ``a`` and rows of ``b``.

    Built from :func:`_euclid` in ``_BLOCK``-row blocks of ``a``, each entry
    from its own d-vector, so it is bitwise equal to the one-shot form while
    the largest temporary is a _BLOCK x m x d difference tensor.
    """
    xa, xb = as_matrix(a), as_matrix(b)
    if xa.shape[1] != xb.shape[1]:
        raise DimensionError(f"dimension mismatch: {xa.shape[1]} vs {xb.shape[1]}")
    if xa.shape[0] <= _BLOCK:  # one block: no output buffer beside it
        return _euclid(xa, xb)
    out = np.empty((xa.shape[0], xb.shape[0]))
    for i in range(0, xa.shape[0], _BLOCK):
        out[i : i + _BLOCK] = _euclid(xa[i : i + _BLOCK], xb)
    return out


def _checked_path(path) -> tuple[int, ...]:
    """``path`` as a tuple of ints; ``ConfigError`` unless each component is an integer >= 0."""
    for p in path:
        check_int("path", p)
        if p < 0:
            raise ConfigError("stream path components must be non-negative")
    return tuple(int(p) for p in path)


class RngStream:
    """Seeded PCG64 stream with deterministic, spawnable child streams.

    A stream is identified by ``(seed, path)``: the same identity yields the
    same draw sequence on every run. ``child(i, j, ...)`` derives an
    independent substream keyed by the path suffix, so per-epoch or per-batch
    streams never depend on how many draws the parent made.
    """

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        check_int("seed", seed)
        if seed < 0:
            raise ConfigError("seed must be non-negative")
        self._start(int(seed), _checked_path(path))

    def _start(self, seed: int, path: tuple[int, ...]) -> None:
        self.seed, self.path = seed, path
        seq = np.random.SeedSequence(seed, spawn_key=path)
        self._gen = np.random.Generator(np.random.PCG64(seq))

    def child(self, *path: int) -> "RngStream":
        """Deterministic substream at the given path suffix: ``RngStream(seed, self.path + path)``.

        Only the suffix is checked; the seed and this stream's path were
        checked when it was made.
        """
        stream = object.__new__(RngStream)
        stream._start(self.seed, self.path + _checked_path(path))
        return stream

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


def subsets(streams, pops, k: int) -> np.ndarray:
    """``out[s, i]``: ``choice(row[i], size=k, replace=False)`` on ``streams[s]``, bit for bit,
    where ``row = pops(streams[s])``.

    ``streams`` is an iterable, consumed once. ``pops`` is a function that
    returns a stream's row of populations when given the stream, called just
    before the stream's own draws (so the row may come from draws already
    made on it); every row has the same length. Each stream makes its draws
    when its turn comes and is then dropped; one vectorised pass
    (:func:`_floyd`) then turns every stream's draws into its picks.

    Each stream ends where one ``choice`` per population, in row order,
    leaves it. For a population of at most ``_TAIL_POP`` rows, or with
    k <= pop // 50, numpy's no-replacement ``choice`` runs Floyd's
    algorithm: draws in [0, j] for j = pop - k ... pop - 1, a drawn value
    already taken replaced by j, then a Fisher-Yates pass over the k picks,
    draws in [0, i] for i = k - 1 ... 1; each a bounded draw as ``integers``
    makes it, with every bound known before the first. So a stream makes
    one ``integers`` call for its whole row, and one numpy step per pick
    serves every population of every stream. A row holding another
    population (numpy shuffles instead) is drawn by ``choice`` itself.

    ``tests/test_core.py`` checks the equality against ``Generator.choice``
    on both branches, so a numpy that draws otherwise fails there by name.
    """
    check_int("k", k, minimum=1)
    step = np.arange(2 * k - 1)
    # exclusive bounds: pop - k + 1 ... pop for Floyd's draws, k ... 2 for the shuffle's
    floyd_step = (step < k).astype(np.int64)
    shift = np.where(floyd_step, 1 - k + step, 2 * k - step)
    rows, draws, shuffled = [], [], {}
    for s, stream in enumerate(streams):
        row = np.asarray(pops(stream), dtype=np.int64)
        if row.size and row.min() < k:
            raise ConfigError(f"cannot draw {k} of {row.min()} without replacement")
        if row.size and row.max() > _TAIL_POP and (k > row[row > _TAIL_POP] // 50).any():
            shuffled[s] = [stream._gen.choice(p, size=k, replace=False) for p in row]
        else:
            draws.append(stream._gen.integers(0, row[:, None] * floyd_step + shift))
        rows.append(row)
    m = len(rows[0]) if rows else 0
    out = np.empty((len(rows), m, k), dtype=np.int64)
    floyd = [s for s in range(len(rows)) if s not in shuffled]
    if floyd and m:
        pops_floyd = np.concatenate([rows[s] for s in floyd])
        out[floyd] = _floyd(np.concatenate(draws), pops_floyd, k).reshape(-1, m, k)
    for s, picks in shuffled.items():
        out[s] = picks
    return out


def _floyd(draws: np.ndarray, pops: np.ndarray, k: int) -> np.ndarray:
    """Floyd's k picks then their Fisher-Yates shuffle, per row of ``draws``, a step per pick.

    ``draws`` holds the 2k - 1 draws (:func:`subsets`) of each population
    in ``pops``, so Floyd's step t replaces a value drawn before by its
    bound less one, ``pops - k + t``.
    """
    n, d = len(draws), draws.T
    out = d[:k].copy()
    for t in range(1, k):
        np.copyto(out[t], pops - k + t, where=np.logical_or.reduce(out[:t] == d[t]))
    flat, at = out.reshape(-1), d[k:] * n + np.arange(n)
    for s, i in enumerate(range(k - 1, 0, -1)):  # swap pick i with pick d[k + s]
        held = flat.take(at[s])
        flat.put(at[s], out[i])
        out[i] = held
    return out.T
