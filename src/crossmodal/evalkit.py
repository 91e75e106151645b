"""Retrieval evaluation: ranking, CMC / mAP / mINP, and similarity diagnostics.

Ranking is by euclidean distance. Equal distances (duplicated rows, exact
zeros) rank by ascending gallery index. ``rank`` orders each query row by the
matmul form of the squared distances and keeps that order only where a
rounding-error bound proves it is the strict order of the difference-form
distances. Every other row is sorted on ``cross_distances`` with one stable
sort.

``evaluate`` never builds a gallery order for a certified row. It needs only
where each relevant gallery row lands: it sorts the row's matmul-form values,
and in a certified row (every value distinct) the position of a relevant row
is the ``searchsorted`` index of its own value. Rows that fail the
certificate read their positions off ``_exact_order``. A certified block
holds its _BLOCK x m values, sorted in place, and a _BLOCK x m row of
precisions; fallback rows keep the difference form, whose largest
temporary is ``cross_distances``' 32 x m x d block.

The similarity histograms hold one _BLOCK x m block of similarities, its
same-identity mask and a _BLOCK x m array of lookup cells that every block
reuses. The gap ratio stacks identities of up to 32 rows into at most about
1 MB of difference tensor (``_STACK_BYTES``) per call; a larger identity adds
``pairwise_distances``' 32 x n_i x d blocks and its n_i^2 matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .core import (
    NORM_EPS,
    _BLOCK as _PAIRWISE_BLOCK,
    _certified,
    _euclid,
    _gallery_terms,
    _matmul_form,
    as_ids,
    as_matrix,
    check_int,
    cross_distances,
    pairwise_distances,
)
from .errors import ConfigError, DegenerateError, DimensionError, NumericError

RANK_KS = (1, 5, 10, 20)
#: Rows per ranking and similarity block: the live matmul-form and similarity
#: blocks are _BLOCK x m.
_BLOCK = 64
#: Lookup cells per unit of similarity: the histogram table has 2 * _CELLS + 1.
_CELLS = 4096
#: Difference-tensor bytes per stacked ``_euclid`` call of the gap ratio.
_STACK_BYTES = 2**20


@dataclass(eq=False)
class RankingResult:
    """Per-query gallery orderings with relevance flags aligned to each ordering.

    Queries without a single relevant gallery row are dropped; ``dropped``
    counts them so reports can surface the warning.
    """

    order: np.ndarray
    relevant: np.ndarray
    query_ids: np.ndarray
    gallery_ids: np.ndarray
    dropped: int


@dataclass(eq=False)
class EvalReport:
    """Retrieval metrics plus cross-modality similarity diagnostics."""

    rank1: float
    rank5: float
    rank10: float
    rank20: float
    mean_ap: float
    minp: float
    gap_ratio: float
    pos_sim_mean: float
    neg_sim_mean: float
    pos_hist: np.ndarray
    neg_hist: np.ndarray
    bin_edges: np.ndarray
    dropped_queries: int
    n_queries: int
    n_gallery: int


#: ``report_text`` format per scalar field annotation (strings under ``annotations``).
_SCALAR_FORMATS = {"float": ".6f", "int": ""}


def _exact_order(qf: np.ndarray, gf: np.ndarray) -> np.ndarray:
    """Order on ``cross_distances``: one stable sort, so equal distances keep gallery order."""
    return np.argsort(cross_distances(qf, gf), axis=1, kind="stable")


def _sort_certified(m: np.ndarray, scale: np.ndarray, d: int) -> np.ndarray:
    """Sort the matmul form ``m`` along its rows in place; whether each row's order is proved."""
    m.sort(axis=1)
    with np.errstate(invalid="ignore"):
        gaps = np.diff(m, axis=1).min(axis=1, initial=np.inf)
    return _certified(gaps, scale, d)


def _ranking_inputs(query_feats, gallery_feats, query_ids, gallery_ids):
    """Checked ``(qf, gf, qid, gid)`` for ranking a gallery per query."""
    qf, gf = as_matrix(query_feats), as_matrix(gallery_feats)
    qid, gid = as_ids(query_ids, "query_ids"), as_ids(gallery_ids, "gallery_ids")
    if qid.shape != (qf.shape[0],) or gid.shape != (gf.shape[0],):
        raise DimensionError("id arrays must match the feature row counts")
    if qf.shape[1] != gf.shape[1]:
        raise DimensionError(f"dimension mismatch: {qf.shape[1]} vs {gf.shape[1]}")
    return qf, gf, qid, gid


def rank(query_feats, gallery_feats, query_ids, gallery_ids) -> RankingResult:
    """Sort the gallery per query by ascending euclidean distance.

    Equal distances rank by ascending gallery index. Queries whose identity
    never occurs in the gallery are dropped and counted.

    The order is the one the difference-form distances
    ``D_j = fl(sqrt(s_j))``, ``s_j = fl(sum_k fl(fl(q_k - g_jk)^2))`` give
    under one stable sort: equal values (``==``, so 0.0 and -0.0 tie) keep
    ascending gallery index. A row without a tie has a single ascending
    order, which any sort returns.

    Rows are first ordered by the matmul form of the squared distances,
    one BLAS call per query block (``core._matmul_form``). A row keeps that
    order when every adjacent gap of its sorted values passes
    ``core._certified``: that proves the row strictly increasing in the
    difference-form distances, so it holds no tie and the difference form
    sorts it the same way. Every other row goes through the difference form
    above, so exact ties, duplicated rows, exact zeros and ulp-close pairs
    keep its values and its tie rule.
    """
    qf, gf, qid, gid = _ranking_inputs(query_feats, gallery_feats, query_ids, gallery_ids)
    m, scale = _matmul_form(qf, _gallery_terms(gf))
    order = np.argsort(m, axis=1)
    certified = _sort_certified(m, scale, qf.shape[1])
    if not certified.all():
        order[~certified] = _exact_order(qf[~certified], gf)
    relevant = gid[order] == qid[:, None]
    keep = relevant.any(axis=1)
    dropped = int((~keep).sum())
    if not keep.any():
        raise DegenerateError("no query has a relevant gallery row")
    return RankingResult(
        order=order[keep],
        relevant=relevant[keep],
        query_ids=qid[keep],
        gallery_ids=gid,
        dropped=dropped,
    )


def cmc(result: RankingResult, max_k: int) -> np.ndarray:
    """cmc[k-1] = fraction of queries whose first relevant row sits at rank <= k."""
    if max_k < 1:
        raise ConfigError("max_k must be >= 1")
    first = result.relevant.argmax(axis=1) + 1
    ks = np.arange(1, max_k + 1)
    return (first[:, None] <= ks[None, :]).mean(axis=0)


def _hit_scores(
    rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-query first-hit rank, average precision and inverse negative penalty.

    ``(rows, cols)`` are the hit positions of a ``shape`` relevance matrix in
    row-major order, every row holding at least one. The k-th hit of a row,
    at column c, has precision k / (c + 1). Each row's precisions are written
    into a row of zeros and summed, the same array and sum a cumulative count
    over the whole row gives, so the scores are the same bit for bit.
    """
    count = np.bincount(rows, minlength=shape[0])
    end = np.cumsum(count)
    start = end - count
    prec = np.zeros(shape)
    prec[rows, cols] = (np.arange(1, rows.size + 1) - np.repeat(start, count)) / (cols + 1)
    return cols[start] + 1, prec.sum(axis=1) / count, count / (cols[end - 1] + 1)


def _query_scores(relevant: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_hit_scores`` of a relevance matrix; ``rank`` leaves every row a hit."""
    return _hit_scores(*np.nonzero(relevant), relevant.shape)


def mean_ap(result: RankingResult) -> float:
    """Mean over queries of the average precision at each relevant position."""
    return float(_query_scores(result.relevant)[1].mean())


def minp(result: RankingResult) -> float:
    """Mean inverse negative penalty: relevant count over the rank of the last hit."""
    return float(_query_scores(result.relevant)[2].mean())


class _SimilarityBins:
    """Counts of values in [-1, 1] per ``np.histogram`` bin, through an exact lookup table.

    ``np.histogram(v, bins, range=(-1, 1))`` puts v in bin i when
    ``edges[i] <= v < edges[i + 1]``, the last bin closed: bin
    ``inner.searchsorted(v, "right")`` for the interior edges ``inner``.
    A value lands in cell ``trunc(fl(v * _CELLS + _CELLS))`` of
    2 * _CELLS + 1. ``v * _CELLS`` is exact and the add rounds to nearest, so
    every value in cell k has ``v * _CELLS + _CELLS`` in (k - 1, k + 1). A
    cell whose span lies inside one bin is counted per cell and folded into
    that bin by :meth:`counts`; the values in every other cell (unresolved,
    about 0.7% of them at 30 bins) take the ``searchsorted``.
    """

    def __init__(self, bins: int):
        self.inner = np.linspace(-1.0, 1.0, bins + 1)[1:-1]
        ends = self.inner.searchsorted((np.arange(-1, 2 * _CELLS + 2) - _CELLS) / _CELLS, "right")
        self.bin_of, self.unresolved = ends[:-2], ends[:-2] != ends[2:]
        self.per_cell = np.zeros((2, 2 * _CELLS + 1), dtype=np.int64)
        self.searched = np.zeros((2, bins), dtype=np.int64)
        self._cell = np.empty(0, dtype=np.intp)

    def add(self, values: np.ndarray, same: np.ndarray) -> None:
        """Count ``values``, in row 0 only where ``same`` holds; ``values`` may be left scaled."""
        if self._cell.size < values.size:
            self._cell = np.empty(values.size, dtype=np.intp)
        values, same, cell = values.reshape(-1), same.reshape(-1), self._cell[: values.size]
        values *= _CELLS
        np.add(values, _CELLS, out=cell, casting="unsafe")
        for row, keys in enumerate((cell[same], cell)):
            self.per_cell[row] += np.bincount(keys, minlength=self.per_cell.shape[1])
        unresolved = self.unresolved[cell]
        found = self.inner.searchsorted(values[unresolved] / _CELLS, "right")
        for row, keys in enumerate((found[same[unresolved]], found)):
            self.searched[row] += np.bincount(keys, minlength=self.searched.shape[1])

    def counts(self) -> np.ndarray:
        """Per bin, the values added where ``same`` held (row 0), and all of them (row 1)."""
        counts, resolved = self.searched.copy(), ~self.unresolved
        for row in (0, 1):
            np.add.at(counts[row], self.bin_of[resolved], self.per_cell[row, resolved])
        return counts


def _labeled_rows(feats, ids, tags) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Checked ``(x, ids, tags)``: a feature matrix with one id and one string tag per row."""
    x, ids, tags = as_matrix(feats), as_ids(ids, "ids"), np.asarray(tags, dtype=np.str_)
    if ids.shape != (x.shape[0],) or tags.shape != (x.shape[0],):
        raise DimensionError("ids/tags must match the feature row count")
    return x, ids, tags


def _similarity_stats(feats, ids, tags, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Clipped cosine counts and sums over cross-tag pairs: row 0 same identity, row 1 not.

    Each ``_BLOCK`` rows of one tag meet every row of the later tags in one
    product; the block's values are summed as ``sims[same]`` and
    ``sims[~same]``, then binned into ``np.histogram``'s bins by
    :class:`_SimilarityBins`.
    """
    x, ids, tags = _labeled_rows(feats, ids, tags)
    check_int("bins", bins, minimum=2)
    norms = np.sqrt(np.einsum("ij,ij->i", x, x))
    if (norms <= NORM_EPS).any():
        raise NumericError("cosine similarity undefined for (near-)zero-norm rows")
    xn = x / norms[:, None]
    binned, sums = _SimilarityBins(int(bins)), np.zeros(2)
    for tag in np.unique(tags)[:-1]:
        a, b = np.flatnonzero(tags == tag), tags > tag
        xb, idb = xn[b], ids[b]
        for rows in np.split(a, range(_BLOCK, a.size, _BLOCK)):
            sims = xn[rows] @ xb.T
            np.clip(sims, -1.0, 1.0, out=sims)
            same = ids[rows][:, None] == idb
            sums += sims[same].sum(), sims[~same].sum()
            binned.add(sims, same)
    counts = binned.counts()
    counts[1] -= counts[0]
    return counts, sums


def similarity_histogram(
    feats, ids, tags, bins: int = 30
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Histograms of cosine similarity over cross-modality positive/negative pairs.

    Returns ``(pos_counts, neg_counts, bin_edges)`` with fixed [-1, 1] support;
    counts sum to the respective pair counts.
    """
    counts, _ = _similarity_stats(feats, ids, tags, bins)
    return counts[0], counts[1], np.linspace(-1.0, 1.0, counts.shape[1] + 1)


def modality_gap_ratio(feats, ids, tags) -> float:
    """Mean cross-modality over mean within-modality same-identity distance, per identity group.

    The pairs run by ascending identity, each group's in ``triu`` order. A
    group of at most ``core._BLOCK`` rows is one ``_euclid`` call in
    ``pairwise_distances``, so equal-size groups that small are measured
    stacked, in ``_euclid`` calls of at most ``_STACK_BYTES`` of difference
    tensor (or one group), bit for bit; larger groups keep
    ``pairwise_distances``. Each group's distances go to its offset in the
    pair order, so both means are the same bit for bit.
    """
    x, ids, tags = _labeled_rows(feats, ids, tags)
    modality = np.unique(tags, return_inverse=True)[1]
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    start = np.flatnonzero(np.r_[True, sorted_ids[1:] != sorted_ids[:-1]])
    size = np.diff(start, append=ids.size)
    n_pairs = size * (size - 1) // 2
    offset = np.cumsum(n_pairs) - n_pairs
    dist, crossed = np.empty(n_pairs.sum()), np.empty(n_pairs.sum(), dtype=bool)
    for s in np.unique(size[size > 1]):
        i, j = np.triu_indices(s, 1)
        groups = np.flatnonzero(size == s)
        stacked = s <= _PAIRWISE_BLOCK
        per_call = max(1, _STACK_BYTES // (s * s * x.shape[1] * 8)) if stacked else 1
        for a in range(0, groups.size, per_call):
            g = groups[a : a + per_call]
            rows = order[start[g][:, None] + np.arange(s)]
            at = offset[g][:, None] + np.arange(i.size)
            crossed[at] = modality[rows[:, i]] != modality[rows[:, j]]
            xs = x[rows]
            dist[at] = (_euclid(xs, xs) if stacked else pairwise_distances(xs[0])[None])[:, i, j]
    if crossed.all() or not crossed.any():
        raise DegenerateError("need both cross- and within-modality positive pairs")
    denom = float(dist[~crossed].mean())
    if denom <= 0:
        raise DegenerateError("within-modality positives coincide; ratio undefined")
    return float(dist[crossed].mean()) / denom


def _hit_positions(
    qf: np.ndarray, gf: np.ndarray, terms, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Positions of the relevant gallery rows ``cols`` of queries ``rows`` in ``rank``'s order.

    ``terms`` are ``gf``'s :func:`_gallery_terms`, computed once per evaluation.
    ``rows`` is ascending; the positions come back ascending within each row,
    paired with ``rows`` as ``np.nonzero`` of ``rank``'s relevance would pair
    them. A certified row's values are distinct, so a hit's position is the
    ``searchsorted`` index of its own value in the sorted row; every other
    row reads its positions off ``_exact_order``, the rows and call ``rank``
    uses.
    """
    m, scale = _matmul_form(qf, terms)
    values = m[rows, cols]
    certified = _sort_certified(m, scale, qf.shape[1])
    if not certified.all():
        exact = _exact_order(qf[~certified], gf)
        slot = np.cumsum(~certified) - 1
    count = np.bincount(rows, minlength=qf.shape[0])
    end = np.cumsum(count)
    pos = np.empty_like(cols)
    for r, (a, b) in enumerate(zip(end - count, end)):
        if certified[r]:
            pos[a:b] = np.searchsorted(m[r], values[a:b])
        else:
            pos[a:b] = np.flatnonzero(np.isin(exact[slot[r]], cols[a:b]))
    key = rows * gf.shape[0]
    return np.sort(key + pos) - key


def evaluate(
    query_feats,
    query_ids,
    gallery_feats,
    gallery_ids,
    query_tag: str = "ir",
    gallery_tag: str = "vis",
    bins: int = 30,
) -> EvalReport:
    """Score the gallery per query, ``_BLOCK`` query rows at a time, and report.

    The metrics equal ``rank`` then ``cmc`` / ``mean_ap`` / ``minp`` bit for
    bit, block by block, but are scored from the positions of each query's
    relevant gallery rows (``_hit_positions``) without building any order a
    certificate proves. Histograms and similarity means cover every
    query-gallery pair, dropped queries included; the gap ratio covers the
    union of query and gallery rows.
    """
    qf, gf, qid, gid = _ranking_inputs(query_feats, gallery_feats, query_ids, gallery_ids)
    if str(query_tag) == str(gallery_tag):
        raise DegenerateError(
            f"query_tag and gallery_tag are both {query_tag!r}: no cross-modality pairs to compare"
        )
    feats, ids = np.concatenate([qf, gf]), np.concatenate([qid, gid])
    tags = np.repeat([query_tag, gallery_tag], [qf.shape[0], gf.shape[0]])
    counts, sums = _similarity_stats(feats, ids, tags, bins)
    kept = np.flatnonzero(np.isin(qid, gid))
    if kept.size == 0:
        raise DegenerateError("no query has a relevant gallery row")
    if not counts[1].any():
        raise DegenerateError("no query-gallery pair crosses identities: no negative similarity")
    by_id = np.argsort(gid, kind="stable")
    grouped = gid[by_id]
    first_of = np.searchsorted(grouped, qid[kept])
    count = np.searchsorted(grouped, qid[kept], side="right") - first_of
    terms, scores = _gallery_terms(gf), []
    for a in range(0, kept.size, _BLOCK):
        n = count[a : a + _BLOCK]
        rows = np.repeat(np.arange(n.size), n)
        starts = np.cumsum(n) - n
        cols = by_id[np.arange(rows.size) + np.repeat(first_of[a : a + _BLOCK] - starts, n)]
        pos = _hit_positions(qf[kept[a : a + _BLOCK]], gf, terms, rows, cols)
        scores.append(_hit_scores(rows, pos, (n.size, gf.shape[0])))
    first, ap, inp = map(np.concatenate, zip(*scores))
    return EvalReport(
        **{f"rank{k}": float((first <= k).mean()) for k in RANK_KS},
        mean_ap=float(ap.mean()),
        minp=float(inp.mean()),
        gap_ratio=modality_gap_ratio(feats, ids, tags),
        pos_sim_mean=float(sums[0] / counts[0].sum()),
        neg_sim_mean=float(sums[1] / counts[1].sum()),
        pos_hist=counts[0],
        neg_hist=counts[1],
        bin_edges=np.linspace(-1.0, 1.0, counts.shape[1] + 1),
        dropped_queries=qid.size - kept.size,
        n_queries=first.size,
        n_gallery=gf.shape[0],
    )


def report_text(report: EvalReport) -> str:
    """``name=value`` per scalar field in declaration order; arrays are left out."""
    lines = [
        f"{f.name}={getattr(report, f.name):{_SCALAR_FORMATS[f.type]}}"
        for f in fields(EvalReport)
        if f.type in _SCALAR_FORMATS
    ]
    return "\n".join(lines) + "\n"


def report_table(report: EvalReport) -> str:
    """Delimiter-separated per-bin histogram table for plotting."""
    lines = ["bin_left,bin_right,pos_count,neg_count"]
    for i in range(report.pos_hist.size):
        lines.append(
            f"{report.bin_edges[i]:.6f},{report.bin_edges[i + 1]:.6f},"
            f"{int(report.pos_hist[i])},{int(report.neg_hist[i])}"
        )
    return "\n".join(lines) + "\n"
