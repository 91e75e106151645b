"""Retrieval evaluation: ranking, CMC / mAP / mINP, and similarity diagnostics.

Ranking is by euclidean distance. Equal distances (duplicated rows, exact
zeros) rank by ascending gallery index. ``rank`` orders each query row by the
matmul form of the squared distances and keeps that order only where a
rounding-error bound proves it is the strict order of the difference-form
distances. Every other row is sorted on ``cross_distances`` with the default
sort, and stable-sorted again if it holds an exact tie.
``evaluate`` memory is O(_BLOCK * m) on certified blocks; fallback rows keep
the O(rows * m * d) difference form. The gap ratio adds the largest identity's
n_i^2 * d.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .core import (
    NORM_EPS,
    _certified,
    _matmul_form,
    as_matrix,
    cross_distances,
    pairwise_distances,
)
from .errors import ConfigError, DegenerateError, DimensionError, NumericError

RANK_KS = (1, 5, 10, 20)
#: Rows per ranking and similarity block: the live matmul-form and similarity
#: blocks are _BLOCK x m.
_BLOCK = 64


@dataclass
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

    @property
    def n_queries(self) -> int:
        return self.order.shape[0]

    @property
    def n_gallery(self) -> int:
        return self.order.shape[1]


@dataclass
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
    """Order on ``cross_distances``: default sort, stable re-sort of rows with an exact tie."""
    dist = cross_distances(qf, gf)
    order = np.argsort(dist, axis=1)
    sorted_dist = np.take_along_axis(dist, order, axis=1)
    tied = (sorted_dist[:, 1:] == sorted_dist[:, :-1]).any(axis=1)
    order[tied] = np.argsort(dist[tied], axis=1, kind="stable")
    return order


def _certified_order(qf: np.ndarray, gf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Matmul-form euclid order per query row, and whether each row's order is proved."""
    m, scale = _matmul_form(qf, gf)
    order = np.argsort(m, axis=1)
    m.sort(axis=1)
    with np.errstate(invalid="ignore"):
        gaps = np.diff(m, axis=1).min(axis=1, initial=np.inf)
    return order, _certified(gaps, scale, qf.shape[1])


def rank(query_feats, gallery_feats, query_ids, gallery_ids) -> RankingResult:
    """Sort the gallery per query by ascending euclidean distance.

    Equal distances rank by ascending gallery index. Queries whose identity
    never occurs in the gallery are dropped and counted.

    The order is the one the difference-form distances
    ``D_j = fl(sqrt(s_j))``, ``s_j = fl(sum_k fl(fl(q_k - g_jk)^2))`` give:
    sorted with the default (unstable) sort, and sorted again with a stable
    sort where two sorted neighbours are equal (``==``, so 0.0 and -0.0 tie).
    A row without such a tie has a single ascending order, which any sort
    returns.

    Rows are first ordered by the matmul form of the squared distances,
    one BLAS call per query block (``core._matmul_form``). A row keeps that
    order when every adjacent gap of its sorted values passes
    ``core._certified``: that proves the row strictly increasing in the
    difference-form distances, so it holds no tie and the difference form
    sorts it the same way. Every other row goes through the difference form
    above, so exact ties, duplicated rows, exact zeros and ulp-close pairs
    keep its values and its tie rule.
    """
    qf = as_matrix(query_feats)
    gf = as_matrix(gallery_feats)
    qid = np.asarray(query_ids, dtype=np.int64)
    gid = np.asarray(gallery_ids, dtype=np.int64)
    if qid.shape != (qf.shape[0],) or gid.shape != (gf.shape[0],):
        raise DimensionError("id arrays must match the feature row counts")
    if qf.shape[1] != gf.shape[1]:
        raise DimensionError(f"dimension mismatch: {qf.shape[1]} vs {gf.shape[1]}")
    order, certified = _certified_order(qf, gf)
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


def _query_scores(relevant: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-query first-hit rank, average precision and inverse negative penalty."""
    hits = np.cumsum(relevant, axis=1)
    ap = np.where(relevant, hits / np.arange(1, relevant.shape[1] + 1), 0.0).sum(axis=1)
    last = relevant.shape[1] - relevant[:, ::-1].argmax(axis=1)
    return relevant.argmax(axis=1) + 1, ap / hits[:, -1], hits[:, -1] / last


def mean_ap(result: RankingResult) -> float:
    """Mean over queries of the average precision at each relevant position."""
    return float(_query_scores(result.relevant)[1].mean())


def minp(result: RankingResult) -> float:
    """Mean inverse negative penalty: relevant count over the rank of the last hit."""
    return float(_query_scores(result.relevant)[2].mean())


def _similarity_stats(feats, ids, tags, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Clipped cosine counts and sums over cross-tag pairs: row 0 same identity, row 1 not."""
    x = as_matrix(feats)
    ids = np.asarray(ids, dtype=np.int64)
    tags = np.asarray(tags, dtype=np.str_)
    if bins < 2:
        raise ConfigError("bins must be >= 2")
    if ids.shape != (x.shape[0],) or tags.shape != (x.shape[0],):
        raise DimensionError("ids/tags must match the feature row count")
    norms = np.sqrt(np.einsum("ij,ij->i", x, x))
    if (norms <= NORM_EPS).any():
        raise NumericError("cosine similarity undefined for (near-)zero-norm rows")
    xn = x / norms[:, None]
    counts, sums = np.zeros((2, bins), dtype=np.int64), np.zeros(2)
    for tag in np.unique(tags)[:-1]:
        a, b = np.flatnonzero(tags == tag), tags > tag
        for rows in np.split(a, range(_BLOCK, a.size, _BLOCK)):
            sims = np.clip(xn[rows] @ xn[b].T, -1.0, 1.0)
            same = ids[rows][:, None] == ids[b][None, :]
            for row, vals in enumerate((sims[same], sims[~same])):
                counts[row] += np.histogram(vals, bins=bins, range=(-1.0, 1.0))[0]
                sums[row] += vals.sum()
    return counts, sums


def similarity_histogram(
    feats, ids, tags, bins: int = 30
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Histograms of cosine similarity over cross-modality positive/negative pairs.

    Returns ``(pos_counts, neg_counts, bin_edges)`` with fixed [-1, 1] support;
    counts sum to the respective pair counts.
    """
    counts, _ = _similarity_stats(feats, ids, tags, bins)
    return counts[0], counts[1], np.linspace(-1.0, 1.0, bins + 1)


def modality_gap_ratio(feats, ids, tags) -> float:
    """Mean cross-modality over mean within-modality same-identity distance, per identity group."""
    x = as_matrix(feats)
    ids = np.asarray(ids, dtype=np.int64)
    tags = np.asarray(tags, dtype=np.str_)
    if ids.shape != (x.shape[0],) or tags.shape != (x.shape[0],):
        raise DimensionError("ids/tags must match the feature row count")
    order = np.argsort(ids, kind="stable")
    pairs = []
    for rows in np.split(order, np.flatnonzero(np.diff(ids[order])) + 1):
        i, j = np.triu_indices(rows.size, 1)
        pairs.append((pairwise_distances(x[rows])[i, j], tags[rows[i]] != tags[rows[j]]))
    dist, crossed = map(np.concatenate, zip(*pairs))
    if crossed.all() or not crossed.any():
        raise DegenerateError("need both cross- and within-modality positive pairs")
    denom = float(dist[~crossed].mean())
    if denom <= 0:
        raise DegenerateError("within-modality positives coincide; ratio undefined")
    return float(dist[crossed].mean()) / denom


def evaluate(
    query_feats,
    query_ids,
    gallery_feats,
    gallery_ids,
    query_tag: str = "ir",
    gallery_tag: str = "vis",
    bins: int = 30,
) -> EvalReport:
    """Rank the gallery per query, ``_BLOCK`` query rows at a time, and report.

    Histograms and similarity means cover every query-gallery pair, dropped
    queries included; the gap ratio covers the union of query and gallery rows.
    """
    qf, gf = as_matrix(query_feats), as_matrix(gallery_feats)
    qid = np.asarray(query_ids, dtype=np.int64)
    gid = np.asarray(gallery_ids, dtype=np.int64)
    if qid.shape != (qf.shape[0],) or gid.shape != (gf.shape[0],):
        raise DimensionError("id arrays must match the feature row counts")
    kept = np.flatnonzero(np.isin(qid, gid))
    if kept.size == 0:
        raise DegenerateError("no query has a relevant gallery row")
    blocks = np.split(kept, range(_BLOCK, kept.size, _BLOCK))
    scores = [_query_scores(rank(qf[r], gf, qid[r], gid).relevant) for r in blocks]
    first, ap, inp = map(np.concatenate, zip(*scores))
    feats, ids = np.concatenate([qf, gf]), np.concatenate([qid, gid])
    tags = np.repeat([query_tag, gallery_tag], [qf.shape[0], gf.shape[0]])
    counts, sums = _similarity_stats(feats, ids, tags, bins)
    return EvalReport(
        **{f"rank{k}": float((first <= k).mean()) for k in RANK_KS},
        mean_ap=float(ap.mean()),
        minp=float(inp.mean()),
        gap_ratio=modality_gap_ratio(feats, ids, tags),
        pos_sim_mean=float(sums[0] / counts[0].sum()),
        neg_sim_mean=float(sums[1] / counts[1].sum()),
        pos_hist=counts[0],
        neg_hist=counts[1],
        bin_edges=np.linspace(-1.0, 1.0, bins + 1),
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
