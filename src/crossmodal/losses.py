"""Metric-learning losses with hand-derived analytic gradients.

All losses consume a :class:`~crossmodal.batch.LabeledBatch` whose ``features``
are the current (pre-normalization) embeddings, and return the scalar value
together with its gradient d(value)/d(features). Conventions shared by every
loss in this module:

* hinge terms contribute zero value and zero gradient when their argument is
  exactly zero (the subgradient at the kink is taken as 0);
* hardest-pair selection breaks ties toward the lowest row index;
* the gradient of a euclidean distance between coincident points is taken
  as 0 in every direction.

Every euclidean-distance gradient goes through one kernel,
``_pair_weight_grad``. It takes the coefficient matrix g = s / dist of a
loss's symmetric pair weights s, already divided, with g = 0 wherever dist
is 0, and returns ``g.sum(-1) * x - g @ x``. Each loss fills g only where its
weights can be non-zero:

* the batch-hard triplet at each anchor's two mined pairs and their mirrors,
  inside an n x n matrix of zeros;
* euclid ``msel`` inside each identity's 2K x 2K block, stacked P deep, on
  the block rows (``RowLayout.pairs.blocks``); it builds only within-block
  distances and scatters its gradient back to the batch rows. A stage-2
  objective builds these block distances once (:func:`_block_distances`)
  and hands them to ``msel`` and to the global triplet's miner;
* ``dcl`` in the two rows x centers blocks of the rows stacked with their
  centers, from one centers x rows divide.

The conventions hold there: an inactive hinge places no weight, mining picks
the lowest index before weights are placed, and a pair at distance 0 gets
coefficient 0. The pair masks, identity blocks and block pairs these losses
read come from the batch's row layout (``BatchStructure.layout``), in the
layout's own identity order: derived once per validated batch, and shared as
they are by every sampled batch of one stage and shape
(``batch.sample_batch``). So are the two constants that depend only on
the layout: ``msel``'s pair weights ``intra / (k - 1) - cross / k``
(``RowLayout.block_weights``, and ``batch_weights`` for the cosine metric)
and the hardest-negative miner's own-identity columns ``blocks[id_codes]``
(``PairMasks.own_rows``), each the per-call expression byte for byte.
Every kernel that reads the blocks treats each block on its own, so their
order changes no bit. Only the center statistics
(``compute_centers``, ``dcl``) sum over identities; they read the
memberships, which come in identity code order (sorted labels). The n x n
pair masks are derived only when read.

The batch-hard triplet mines on the dense difference-form matrix up to
``core._BLOCK`` rows. Above that it builds no n x n distance matrix: hardest
positives come exactly from the identity blocks, and hardest negatives from
the matmul form of the squared distances, built ``_ROWS`` rows at a time,
wherever one ``core._certified`` call over all rows (the bound
``evalkit.rank`` uses) proves a row's choice. Every other row is mined on
its difference-form distances, which keeps exact ties, zeros and the
lowest-index rule, so both routes choose the same pairs bit for bit.

At n rows, P identities of 2K rows and d dimensions, the stage-2 kernels
stream their large temporaries in blocks of ``_ROWS`` rows, so a 64-row
batch is one block. The largest are: the miner's ``_ROWS`` x n matmul form
(and a ``_BLOCK`` x n x d difference tensor for rows the certificate leaves
to the difference form); the identity-block distances' difference tensor
over ``_ROWS // 2K`` whole identities (at least one), ``_ROWS`` x 2K x d;
the center distances' P x ``_ROWS`` x d one. Each result is the one-shot
one bit for bit: a ``_euclid`` entry reduces only its own d-vector, and the
certificate proves each mined index whatever rounding the matmul form had.
Two n x n-sized matrices remain, both BLAS operands: the batch-hard
triplet's pair-weight matrix (n x n) and ``dcl``'s rows stacked with their
centers ((n + P) x (n + P)). Splitting their rows can move OpenBLAS onto
another kernel for small products and change the gradient's bits, so they
stay whole.

Each loss built on euclidean distances returns a :class:`Mining` record of its
decisions, made of references to arrays it built anyway (the batch-hard
triplet keeps its input rows, and its record builds the distances from them
when read); a stage objective merges its terms' records. :meth:`Mining.gap`
is the smallest distance from the inputs to a kink: a coincident pair, a
zero hinge, a hardest pair tied with its runner-up, or a ``dcl`` dyn
candidate on its threshold (the dyn empty-set fallback is not tracked).
Training never calls it; the gradient checker does, to reject instances near
a tie.

Both stage objectives run one body, :func:`_objective`, on their stage's
list of embedding terms ``(name, weight, loss, args)`` in summation order:
stage 1 has ``intra``; stage 2 has ``global``, then ``msel`` at lambda1 and
``dcl`` at lambda2, sharing one build of the identity-block distances. The
body adds the identity term last when it is on (always in stage 1, with
``include_id_stage2`` in stage 2) and merges the terms' mining records.

Every public loss, ``compute_centers`` and both stage objectives also take
stacks: a batch whose features are ``(S, n, d)``, one matrix per slice over
the batch's one structure (:class:`~crossmodal.batch.LabeledBatch`), and
logits ``(S, n, c)``. An output is stacked when an input it depends on is:
its value is then an ``(S,)`` array, its gradient a stack, and slice s of
each equals the 2-D call on slice s bit for bit. The kernels run over the
leading axes (batched ``@`` and reductions along one slice's axes give each
slice the 2-D result); each slice's hinge sum is one row of a packed array
(:func:`_masked_sum`); the batch-hard triplet mines a stack above ``_BLOCK``
rows one slice at a time, through its certified route. A stacked call
returns no :class:`Mining` record: instances are judged regular in 2-D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .batch import LabeledBatch, PairMasks, Stage
from .core import (
    _BLOCK,
    _certified,
    _cosine,
    _euclid,
    _gallery_terms,
    _matmul_form,
    as_ids,
    as_matrix,
    pairwise_distances,
)
from .errors import (
    ConfigError,
    DegenerateError,
    DimensionError,
    LabelError,
    NumericError,
    SamplingError,
    StageError,
)

MSEL_METRICS = ("euclid", "cosine")
DCL_MODES = ("hard", "all", "dyn")
#: The triplet margin and center-loss mode that ``LossConfig`` and the losses default to.
DEFAULT_MARGIN = 0.1
DEFAULT_DCL_MODE = "dyn"

#: The batch-hard pair weights of an anchor's hardest positive and hardest negative.
_SIGNS = np.array([[1.0], [-1.0]])

#: Denominator threshold below which the center-loss ratio is considered degenerate.
DCL_EPS = 1e-12

#: Rows per block of the hardest-negative miner, the identity-block distances
#: (whole identities, at least one) and the center distances.
_ROWS = 64


@dataclass(eq=False)
class Mining:
    """A loss's discrete decisions, as references to arrays it built; read by :meth:`gap`.

    ``dist``: distances; ``feats``: rows whose ``pairwise_distances`` stand in
    for ``dist``, built only when :meth:`gap` is called (the batch-hard
    triplet mines without the dense matrix); ``off``: the entries that pair
    distinct points (``None``: all); ``hinge``: hinge arguments; ``pos`` /
    ``neg``: the masks each row's largest / smallest entry was mined from;
    ``pairs``: :class:`PairMasks` whose ``off`` / ``pos`` / ``neg`` stand in
    for those three, read only when :meth:`gap` is called; ``pool``: entries
    compared with their row's ``threshold``; ``parts``: merged records. A 2-D
    call that returns no record (``None``) made no mining decision; a stacked
    call returns none.
    """

    dist: np.ndarray | None = None
    feats: np.ndarray | None = None
    off: np.ndarray | None = None
    hinge: np.ndarray | None = None
    pos: np.ndarray | None = None
    neg: np.ndarray | None = None
    pairs: PairMasks | None = None
    pool: np.ndarray | None = None
    threshold: np.ndarray | None = None
    parts: tuple["Mining", ...] = ()

    def gap(self) -> float:
        """Smallest distance from the inputs to a kink of the loss (inf if none)."""
        gaps = [part.gap() for part in self.parts if part is not None]
        dist = self.dist if self.feats is None else pairwise_distances(self.feats)
        off, pos, neg = self.off, self.pos, self.neg
        if self.pairs is not None:
            off, pos, neg = self.pairs.off, self.pairs.pos, self.pairs.neg
        if dist is not None:
            gaps.append((dist if off is None else dist[off]).min())
        if self.hinge is not None:
            gaps.append(np.abs(self.hinge).min())
        for mask, sign in ((pos, -1.0), (neg, 1.0)):  # hardest vs runner-up
            if mask is not None:
                two = np.sort(np.where(mask, sign * dist, np.inf), axis=1)[:, :2]
                gaps.append((two[:, 1] - two[:, 0]).min())
        if self.threshold is not None:
            slack = np.where(self.pool, dist, np.inf) - self.threshold[:, None]
            gaps.append(np.abs(slack).min())
        return float(np.min(gaps, initial=np.inf))


@dataclass(eq=False)
class LossOutput:
    """Loss value (``(S,)`` for a stack) and its gradient with respect to the direct input rows."""

    value: float | np.ndarray
    grad: np.ndarray
    mining: Mining | None = None


@dataclass(eq=False)
class ObjectiveOutput:
    """A stage objective: total value plus gradients per consumed tensor.

    ``grad_embeddings`` matches the batch embedding matrix, ``grad_logits`` the
    classifier logits (None when the objective was given none to read).
    ``terms`` holds each component's value for logging,
    ``mining`` the merged :class:`Mining` records of the terms.
    """

    value: float | np.ndarray
    grad_embeddings: np.ndarray
    grad_logits: np.ndarray | None
    terms: dict[str, float | np.ndarray] = field(default_factory=dict)
    mining: Mining | None = None


@dataclass
class LossConfig:
    """Weights and switches for the staged objectives."""

    margin: float = DEFAULT_MARGIN
    lambda1: float = 0.5
    lambda2: float = 0.5
    dcl_mode: str = DEFAULT_DCL_MODE
    include_id_stage2: bool = False

    def validate(self) -> "LossConfig":
        """margin, lambda1 and lambda2 finite and >= 0 (NaN fails); known center-loss mode."""
        for name in ("margin", "lambda1", "lambda2"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be finite and >= 0")
        if self.dcl_mode not in DCL_MODES:
            raise ConfigError(f"dcl_mode must be one of {DCL_MODES}")
        return self


@dataclass(eq=False)
class CenterStats:
    """Per-identity center vectors and the mean distance of other-identity rows."""

    centers: np.ndarray
    neg_margins: np.ndarray
    #: P x n: whether batch row r belongs to identity c, and its distance to center c.
    members: np.ndarray
    distances: np.ndarray


def _value(v) -> float | np.ndarray:
    """A 2-D call's value as a float, a stacked call's as its ``(S,)`` array."""
    return float(v) if np.ndim(v) == 0 else v


def _masked_sum(values: np.ndarray, mask: np.ndarray) -> float | np.ndarray:
    """``values[mask].sum()``, per row of a stacked ``(S, n)`` ``values``.

    numpy sums a 1-D array pairwise. The rows with c selected entries are
    packed into one ``(G, c)`` array and summed along its rows, the same
    reduction, so each row's sum equals its 1-D sum bit for bit.
    """
    if values.ndim == 1:
        return float(values[mask].sum())
    counts = mask.sum(axis=-1)
    out = np.empty(len(values))
    for c in np.unique(counts):
        group = counts == c
        out[group] = values[group][mask[group]].reshape(np.count_nonzero(group), c).sum(axis=-1)
    return out


def identity_loss(logits, labels) -> LossOutput:
    """Mean softmax cross-entropy over the batch; gradient is w.r.t. the logits."""
    z = as_matrix(logits, stack=True)
    y = as_ids(labels, "labels")
    n, c = z.shape[-2:]
    if y.shape != (n,):
        raise DimensionError(f"labels shape {y.shape} does not match {n} logit rows")
    if (y < 0).any() or (y >= c).any():
        raise LabelError(f"labels must lie in [0, {c})")
    shifted = z - z.max(axis=-1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - logsumexp
    rows = np.arange(n)
    # a stack's picks come out column-major; its mean must run along each slice's row
    value = _value(-np.ascontiguousarray(logp[..., rows, y]).mean(axis=-1))
    grad = np.exp(logp)
    grad[..., rows, y] -= 1.0
    grad /= n
    return LossOutput(value, grad)


def _pair_weight_grad(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row gradient of sum_{i<j} s_ij * ||x_i - x_j||, given g = s / dist (0 where dist is 0).

    ``g`` is symmetric, so row i's gradient is sum_j g_ij * (x_i - x_j). Leading
    axes are stacked matrices (one per identity block in :func:`msel`).
    """
    return g.sum(axis=-1)[..., None] * x - g @ x


def _batch_hard(
    feats: np.ndarray, margin: float, masks: PairMasks, block_dist: np.ndarray | None = None
) -> LossOutput:
    """Summed hinge over anchors, each mined against its hardest positive/negative.

    ``masks`` are the pair masks of the rows' identities. Up to ``_BLOCK``
    rows, mining reads the dense difference-form matrix (one ``_euclid``
    call). Above that, :func:`_hardest_positives` and the certified
    :func:`_hardest_negatives` mine without it, and the 2n mined distances
    are recomputed in the difference form. Both routes make the same
    choices and read the same distances, bit for bit.

    Each anchor's pair weights are +1 at its hardest positive and -1 at its
    hardest negative when its hinge is active, and 0 otherwise, so the
    symmetric weights and their quotients by distance are written at those
    2n entries and their mirrors only; every other entry of the dense
    quotient matrix is 0.

    A stack of up to ``_BLOCK`` rows per slice is mined in one pass over
    its ``(S, n, n)`` distances; a larger stack goes one slice at a time.
    ``block_dist``, when given, is :func:`_block_distances` of ``feats``
    and ``masks.blocks``, for the miner above ``_BLOCK`` rows to read.
    """
    feats = as_matrix(feats, stack=True)
    if not masks.every_pos:
        raise SamplingError("every anchor needs at least one other row of its identity")
    if not masks.every_neg:
        raise SamplingError("batch needs at least two identities")
    n = feats.shape[-2]
    if feats.ndim == 3 and n > _BLOCK:
        dists = [None] * len(feats) if block_dist is None else block_dist
        parts = [_batch_hard(f, margin, masks, d) for f, d in zip(feats, dists)]
        return LossOutput(np.array([p.value for p in parts]), np.stack([p.grad for p in parts]))
    rows = np.arange(n)
    # mined, 2 x (S x) n: each anchor's hardest positive and hardest negative
    if n <= _BLOCK:
        dist = _euclid(feats, feats)
        mined = np.array(
            (
                np.where(masks.pos, dist, -np.inf).argmax(axis=-1),
                np.where(masks.neg, dist, np.inf).argmin(axis=-1),
            )
        )
    else:
        mined = np.array(
            (
                _hardest_positives(feats, masks.blocks, block_dist),
                _hardest_negatives(feats, masks),
            )
        )
    there, back = rows * n + mined, mined * n + rows  # flat indices of (a, j) and (j, a)
    signs = _SIGNS
    if feats.ndim == 3:  # slice s's entries lie in block s of the stacked matrices
        base = (np.arange(len(feats)) * n * n)[:, None]
        there, back, signs = there + base, back + base, _SIGNS[..., None]
    # d: the mined distances
    d = dist.take(there) if n <= _BLOCK else _euclid(feats[:, None], feats[mined.T])[:, 0].T
    hinge = d[0] - d[1] + margin
    active = hinge > 0
    g = np.zeros(feats.shape[:-1] + (n,))
    w = signs * active
    g.put(there, w)
    sym = w + g.take(back)
    g.put(there, np.divide(sym, d, out=np.zeros_like(sym), where=d > 0))
    g.put(back, g.take(there))
    mining = Mining(feats=feats, hinge=hinge, pairs=masks) if feats.ndim == 2 else None
    return LossOutput(_masked_sum(hinge, active), _pair_weight_grad(g, feats), mining)


def _hardest_positives(
    feats: np.ndarray, blocks: np.ndarray, block_dist: np.ndarray | None = None
) -> np.ndarray:
    """Each row's farthest other row of its identity, lowest row index on ties.

    ``blocks`` hold each identity's rows in ascending order, so the first
    largest entry of a block row is the lowest row index. ``block_dist``,
    when given, is :func:`_block_distances` of the two; it is read, not
    written.
    """
    if block_dist is None:
        dist = _block_distances(feats, blocks)
    else:
        dist = block_dist.copy()  # its diagonal is masked below
    diag = np.arange(blocks.shape[1])
    dist[:, diag, diag] = -np.inf
    far = np.empty(len(feats), dtype=np.intp)
    far[blocks] = np.take_along_axis(blocks, dist.argmax(axis=2), axis=1)
    return far


def _hardest_negatives(feats: np.ndarray, masks: PairMasks) -> np.ndarray:
    """Each row's nearest row of another identity, lowest row index on ties.

    Rows go in blocks of ``_ROWS``. A block's matmul form (``_ROWS`` x n),
    with each row's same-identity entries at +inf, gives each of its rows
    its smallest entry and, with that entry masked, its runner-up. One
    ``core._certified`` call over all rows then keeps a row's smallest entry
    wherever it proves it the unique nearest negative in the difference
    form, whatever rounding the block's product had. Every other row (exact
    ties, duplicated rows, ulp-close pairs, scales outside ``_SCALE_RANGE``)
    is mined on its difference-form distances, ``_BLOCK`` rows at a time.
    So no n x n matrix is built: the largest temporary is one block's
    matmul form, or a fallback block's ``_BLOCK`` x n x d difference tensor.
    """
    n = len(feats)
    near = np.empty(n, dtype=np.intp)
    gap, scale = np.empty(n), np.empty(n)
    terms = _gallery_terms(feats)
    for a in range(0, n, _ROWS):
        part = slice(a, a + _ROWS)
        m, scale[part] = _matmul_form(feats[part], terms)
        at = np.arange(len(m))
        m[at[:, None], masks.own_rows[part]] = np.inf  # each row's own identity
        near[part] = j = m.argmin(axis=1)
        first = m[at, j]
        m[at, j] = np.inf
        with np.errstate(invalid="ignore"):
            gap[part] = m.min(axis=1) - first
    bad = np.flatnonzero(~_certified(gap, scale, feats.shape[1]))
    for a in range(0, bad.size, _BLOCK):
        part = bad[a : a + _BLOCK]
        dist = _euclid(feats[part], feats)
        near[part] = np.where(masks.neg_rows(part), dist, np.inf).argmin(axis=1)
    return near


def _block_distances(feats: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Euclid distances inside each identity block: ``(P, 2K, 2K)``, or ``(S, P, 2K, 2K)``.

    ``blocks`` are the block rows (``PairMasks.blocks``). Non-finite
    features raise ``NumericError``, as in every loss.
    """
    return _within_blocks(as_matrix(feats, stack=True).take(blocks, axis=-2))


def _within_blocks(x: np.ndarray) -> np.ndarray:
    """``_euclid(x, x)`` of block rows ``x`` ``(..., P, 2K, d)``, about ``_ROWS`` rows at a time.

    Each chunk holds ``max(1, _ROWS // 2K)`` whole blocks. Each entry
    reduces only its own d-vector, so the chunks equal the one-shot form
    bit for bit; the largest temporary is one chunk's difference tensor,
    at most ``max(_ROWS, 2K)`` x 2K x d floats per slice.
    """
    out = np.empty(x.shape[:-1] + x.shape[-2:-1])
    step = max(1, _ROWS // x.shape[-2])
    for a in range(0, x.shape[-3], step):
        part = x[..., a : a + step, :, :]
        out[..., a : a + step, :, :] = _euclid(part, part)
    return out


def hard_triplet_global(
    batch: LabeledBatch, margin: float = DEFAULT_MARGIN, block_dist: np.ndarray | None = None
) -> LossOutput:
    """Batch-hard triplet loss mined over all rows, ignoring modality tags.

    ``block_dist``, when given, is the batch's identity-block distances
    (:func:`_block_distances`); above ``_BLOCK`` rows the hardest positives
    are mined from them. It is read, not written.
    """
    return _batch_hard(batch.features, margin, batch.structure.layout.pairs, block_dist)


def hard_triplet_intra(batch: LabeledBatch, margin: float = DEFAULT_MARGIN) -> LossOutput:
    """Batch-hard triplet loss mined separately inside each of the two modalities."""
    feats = batch.features
    value = 0.0
    grad = np.zeros_like(feats)
    parts = []
    for idx, masks in batch.structure.layout.modality_pairs:
        part = _batch_hard(feats.take(idx, axis=-2), margin, masks)
        value += part.value
        grad[..., idx, :] += part.grad
        parts.append(part.mining)
    return LossOutput(value, grad, Mining(parts=tuple(parts)) if feats.ndim == 2 else None)


def msel(
    batch: LabeledBatch, metric: str = "euclid", block_dist: np.ndarray | None = None
) -> LossOutput:
    """Mean squared gap between within-modality and cross-modality positive distances.

    For each anchor, the mean distance to its same-identity same-modality rows
    (K-1 of them) is compared with the mean distance to its same-identity
    other-modality rows (K of them); the loss is the mean squared difference
    over all 2PK anchors. Driving it to zero makes positive pairs look the
    same whether or not they cross the modality boundary.

    Every pair it reads lies inside one identity, so the euclid metric works
    on the P identity blocks of 2K rows (``RowLayout.pairs.blocks``), builds
    only their within-block distances, and scatters the gradient back to the
    rows. Its anchor sums then run over a block row instead of a batch row
    that is zero outside the block. numpy sums a row pairwise, in 8
    interleaved partial sums, so the two agree bit for bit when 2K is a
    multiple of 8 and each block starts at a multiple of 2K in the batch
    (``sample_batch``'s layout, in any identity order); otherwise they can
    differ in the last bits. The cosine metric runs the same body on one
    block holding the whole batch in row order, which is the dense n x n form
    bit for bit: its identity-block form moved the gradient checker's pinned
    cosine error, whose batches have 2K = 6.

    ``block_dist``, when given, is the batch's identity-block distances
    (:func:`_block_distances`), which the euclid metric then reads instead
    of building them; the cosine metric does not read it.
    """
    if metric not in MSEL_METRICS:
        raise ConfigError(f"msel metric must be one of {MSEL_METRICS}")
    s = batch.structure
    k = s.k
    if k < 2:
        raise ConfigError("msel needs k >= 2 rows per (identity, modality) cell")
    feats = batch.features
    n = len(batch)
    if metric == "euclid":
        blocks, (intra, cross) = s.layout.pairs.blocks, s.layout.block_pairs
        weights = s.layout.block_weights
    else:
        blocks, (intra, cross) = np.arange(n)[None], s.layout.batch_pairs
        weights = s.layout.batch_weights
    x = feats.take(blocks, axis=-2)  # C order, as the reductions below need
    if metric == "euclid":
        dist = _within_blocks(x) if block_dist is None else block_dist
    else:
        dist = _cosine(as_matrix(feats, stack=True))[..., None, :, :]
    diff = (dist * intra).sum(axis=-1) / (k - 1) - (dist * cross).sum(axis=-1) / k
    by_row = np.empty(feats.shape[:-1])
    by_row[..., blocks] = diff  # the mean sums in row order
    value = _value((by_row**2).mean(axis=-1))

    # d(value)/d(dist[a, i]) for each anchor a and partner i, then chain through
    # the metric. Each unordered pair appears twice in the anchor sum, once per
    # role, so the per-pair weight is symmetrized before the chain rule.
    w = (2.0 * diff / n)[..., None] * weights
    sym = w + w.swapaxes(-1, -2)
    grad = np.empty_like(feats)
    if metric == "euclid":
        g = np.divide(sym, dist, out=np.zeros_like(sym), where=dist > 0)
        grad[..., blocks, :] = _pair_weight_grad(g, x)
        mining = Mining(dist=dist, off=intra | cross) if feats.ndim == 2 else None
        return LossOutput(value, grad, mining)
    norms = np.sqrt(np.einsum("...ij,...ij->...i", x, x))
    coef = (sym * (1.0 - dist)).sum(axis=-1) / norms**2
    outer = norms[..., None] * norms[..., None, :]
    grad[..., blocks, :] = coef[..., None] * x - (sym / outer) @ x
    return LossOutput(value, grad)


def compute_centers(batch: LabeledBatch) -> CenterStats:
    """Identity centers (mean of all 2K rows) and mean other-identity distances.

    The P x n center distances are filled ``_ROWS`` batch rows at a time,
    each entry from its own d-vector as in the one-shot ``_euclid``, so the
    largest temporary is a P x ``_ROWS`` x d difference tensor per slice.
    """
    s = batch.structure
    if len(s.identities) < 2:
        raise ConfigError("center statistics need at least two identities")
    feats = as_matrix(batch.features, stack=True)
    own, count = s.members
    centers = (own @ feats) / count[:, None]
    n = feats.shape[-2]
    dist = np.empty(centers.shape[:-1] + (n,))
    for a in range(0, n, _ROWS):
        dist[..., a : a + _ROWS] = _euclid(centers, feats[..., a : a + _ROWS, :])
    neg_margins = (dist * ~own).sum(axis=-1) / (n - count)
    return CenterStats(centers, neg_margins, own, dist)


def dcl(batch: LabeledBatch, mode: str = DEFAULT_DCL_MODE) -> LossOutput:
    """Ratio of within-identity compactness to selected negative-to-center spread.

    The numerator sums, per identity, the mean distance of its rows to its
    center. The denominator sums the mean distance of selected other-identity
    rows to that center: all of them (``all``), only the single closest
    (``hard``), or those strictly closer than the identity's mean negative
    distance (``dyn``, falling back to the closest negative when that set is
    empty). Centers are treated as functions of the embeddings, so the
    gradient includes the chain-rule path through every center. The
    empty-set fallback is taken per (slice, center).
    """
    if mode not in DCL_MODES:
        raise ConfigError(f"dcl mode must be one of {DCL_MODES}")
    stats = compute_centers(batch)
    feats = batch.features
    own, dist = stats.members, stats.distances
    other = ~own
    if mode == "all":
        sel, mining = other, Mining(dist=dist)
    elif mode == "dyn":
        sel = other & (dist < stats.neg_margins[..., None])
        mining = Mining(dist=dist, pool=other, threshold=stats.neg_margins)
    else:
        sel, mining = np.zeros(dist.shape, dtype=bool), Mining(dist=dist, neg=other)
    if mode != "all":
        empty = np.nonzero(~sel.any(axis=-1))
        sel[(*empty, np.where(other, dist, np.inf)[empty].argmin(axis=-1))] = True
    own_w = own / batch.structure.members[1][:, None]
    sel_w = sel / sel.sum(axis=-1, keepdims=True)
    stacked = feats.ndim == 3
    if stacked:  # each slice's P x n products summed whole, as a 2-D call sums them
        num = (own_w * dist).reshape(len(feats), -1).sum(axis=-1)
        den = (sel_w * dist).reshape(len(feats), -1).sum(axis=-1)
    else:
        num, den = float((own_w * dist).sum()), float((sel_w * dist).sum())
    if (den.min() if stacked else den) < DCL_EPS:
        raise DegenerateError("all selected negatives coincide with their centers")
    if stacked:
        # slice by slice in floats: a float's ``**`` is the C library's pow, an array's is not
        ratio = np.array([a / b**2 for a, b in zip(num.tolist(), den.tolist())])
        w = own_w / den[:, None, None] - ratio[:, None, None] * sel_w
    else:
        w = own_w / den - (num / den**2) * sel_w
    # d(num/den)/d(dist[c, r]) goes through the pair kernel over the rows
    # stacked with the centers; the centers' gradient is then pushed back
    # through own_w, the averaging matrix that produced them.
    n, p = dist.shape[-1], dist.shape[-2]
    g = np.zeros(feats.shape[:-2] + (n + p,) * 2)
    g[..., n:, :n] = np.divide(w, dist, out=np.zeros_like(w), where=dist > 0)
    g[..., :n, n:] = g[..., n:, :n].swapaxes(-1, -2)
    g = _pair_weight_grad(g, np.concatenate([feats, stats.centers], axis=-2))
    grad = g[..., :n, :] + own_w.T @ g[..., n:, :]
    return LossOutput(num / den, grad, None if stacked else mining)


def _named(term: str, fn, *args):
    """``fn(*args)``; a ``NumericError`` it raises (a non-finite input) is raised again
    naming ``term``, with its own message after it.
    """
    try:
        return fn(*args)
    except NumericError as exc:
        raise NumericError(f"non-finite {term} loss term: {exc}") from exc


def _finite(term: str, loss, *args) -> LossOutput:
    """``loss(*args)`` if its value and gradient are finite, else ``NumericError`` naming ``term``.

    A ``NumericError`` that ``loss`` raises itself is named by :func:`_named`.
    """
    part = _named(term, loss, *args)
    value = part.value
    finite = math.isfinite(value) if isinstance(value, float) else np.isfinite(value).all()
    if not (finite and np.isfinite(part.grad).all()):
        raise NumericError(f"non-finite {term} loss term")
    return part


def reads_logits(stage: Stage, cfg: LossConfig) -> bool:
    """Whether ``stage``'s objective under ``cfg`` has the identity term, its one reader of logits.

    Always in stage 1; in stage 2 only with ``cfg.include_id_stage2``.
    """
    return stage is Stage.STAGE1 or cfg.include_id_stage2


def _objective(
    stage: Stage, batch: LabeledBatch, logits, labels, cfg: LossConfig
) -> ObjectiveOutput:
    """The staged total: ``stage``'s embedding terms in order, then the identity term if on.

    The first term counts at weight 1 and each later one as ``value + w * v``,
    its gradient as ``grad += w * g``; a term at weight 0 is not computed. The
    identity term (:func:`reads_logits`) adds its value last; off, its logits
    gradient is zeros, or None when ``logits`` is None (no head ran), and
    ``labels`` is not read.
    """
    cfg.validate()
    s = batch.structure
    if set(s.modalities) != set(stage.modality_pair):
        raise StageError(
            f"{stage.name} objective expects modalities {sorted(stage.modality_pair)}, "
            f"batch has {sorted(s.modalities)}"
        )
    if stage is Stage.STAGE1:
        embedding_terms = [("intra", 1.0, hard_triplet_intra, (batch, cfg.margin))]
    else:
        block_dist = None
        if cfg.lambda1 > 0:
            block_dist = _named("global", _block_distances, batch.features, s.layout.pairs.blocks)
        embedding_terms = [
            ("global", 1.0, hard_triplet_global, (batch, cfg.margin, block_dist)),
            ("msel", cfg.lambda1, msel, (batch, "euclid", block_dist)),
            ("dcl", cfg.lambda2, dcl, (batch, cfg.dcl_mode)),
        ]
    terms, mined, grad = {}, [], None
    for name, weight, loss, args in embedding_terms:
        if weight == 0:
            continue
        part = _finite(name, loss, *args)
        if grad is None:  # a stack's value array is also its term: never added to in place
            value, grad = part.value, part.grad.copy()
        else:
            value = value + weight * part.value
            grad += weight * part.grad
        terms[name] = part.value
        mined.append(part.mining)
    grad_logits = None if logits is None else np.zeros(np.shape(logits))
    if reads_logits(stage, cfg):
        ce = _finite("id", identity_loss, logits, labels)
        value, grad_logits, terms["id"] = value + ce.value, ce.grad, ce.value
    mining = Mining(parts=tuple(mined)) if np.ndim(batch.features) == 2 else None
    return ObjectiveOutput(value, grad, grad_logits, terms, mining)


def stage1_objective(
    batch: LabeledBatch, logits, labels, cfg: LossConfig
) -> ObjectiveOutput:
    """Stage-1 total: within-modality hard triplet plus identity cross-entropy.

    A term whose input, value or gradient is not finite raises ``NumericError`` naming it.
    """
    return _objective(Stage.STAGE1, batch, logits, labels, cfg)


def stage2_objective(
    batch: LabeledBatch, logits, labels, cfg: LossConfig
) -> ObjectiveOutput:
    """Stage-2 total: global hard triplet, plus weighted enhancement/center terms.

    The identity term is off by default here and can be re-enabled through
    ``cfg.include_id_stage2``; with both lambdas at zero the result equals
    the global hard-triplet loss exactly. A term whose input, value or
    gradient is not finite raises ``NumericError`` naming it.

    With ``msel`` on, the identity-block distances are built once and read
    by ``msel`` and, above ``_BLOCK`` rows, by the global triplet's miner.
    """
    return _objective(Stage.STAGE2, batch, logits, labels, cfg)
