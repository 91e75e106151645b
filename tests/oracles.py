"""Brute-force reference implementations used to cross-check the library.

Everything here is written with explicit Python loops and scalar arithmetic:
deliberately slow, and deliberately sharing no code with the vectorized
library paths it checks. Tie-breaking conventions match the library on
purpose (strict comparisons keep the first/lowest index), so equality holds
exactly rather than just in distribution. The exceptions are
``ranked_block_scores``, which rebuilds ``evaluate``'s retrieval metrics from
the library's own ``rank`` so they can be compared bit for bit, and
``similarity_stats`` and ``gap_ratio``, the library's former vectorized
similarity diagnostics, ``per_cell_rows``, the former PK sampler's
draws, and ``per_identity_dataset`` and ``row_index``, the former dataset
generator and cell index, kept verbatim as bitwise references.
"""

import math

import numpy as np


def euclid(a, b):
    total = 0.0
    for x, y in zip(a, b):
        total += (x - y) ** 2
    return math.sqrt(total)


def pairwise_euclid_single(x):
    """Euclid distance matrix as one n x n x d difference tensor.

    The one exception to the loop style above: this is the library's former
    one-shot form, kept as the bitwise reference for its blocked kernel.
    """
    x = np.asarray(x, dtype=np.float64)
    diff = x[:, None, :] - x[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def cosine_dist(a, b):
    dot = na = nb = 0.0
    for x, y in zip(a, b):
        dot += x * y
        na += x * x
        nb += y * y
    return 1.0 - dot / (math.sqrt(na) * math.sqrt(nb))


def identity_loss(logits, labels):
    total = 0.0
    for row, y in zip(logits, labels):
        mx = max(row)
        denom = 0.0
        for v in row:
            denom += math.exp(v - mx)
        total += -(row[y] - mx - math.log(denom))
    return total / len(labels)


def batch_hard_triplet(feats, labels, margin):
    """Sum of active hinges, hardest positive/negative per anchor."""
    n = len(feats)
    total = 0.0
    for i in range(n):
        hardest_pos = None
        for j in range(n):
            if j != i and labels[j] == labels[i]:
                d = euclid(feats[i], feats[j])
                if hardest_pos is None or d > hardest_pos:
                    hardest_pos = d
        hardest_neg = None
        for j in range(n):
            if labels[j] != labels[i]:
                d = euclid(feats[i], feats[j])
                if hardest_neg is None or d < hardest_neg:
                    hardest_neg = d
        hinge = hardest_pos - hardest_neg + margin
        if hinge > 0:
            total += hinge
    return total


def batch_hard_triplet_grad(feats, labels, margin):
    """Gradient of :func:`batch_hard_triplet`, accumulated anchor by anchor.

    Each active anchor adds the unit vector to its hardest positive and
    subtracts the one to its hardest negative, mirrored onto the partner; a
    partner at distance 0 adds nothing.
    """
    n, dim = len(feats), len(feats[0])
    grad = [[0.0] * dim for _ in range(n)]
    for i in range(n):
        pos = neg = None
        for j in range(n):
            d = euclid(feats[i], feats[j])
            if j != i and labels[j] == labels[i] and (pos is None or d > pos[1]):
                pos = (j, d)
            if labels[j] != labels[i] and (neg is None or d < neg[1]):
                neg = (j, d)
        if not pos[1] - neg[1] + margin > 0:
            continue
        for (j, d), sign in ((pos, 1.0), (neg, -1.0)):
            if d > 0:
                for c in range(dim):
                    u = sign * (feats[i][c] - feats[j][c]) / d
                    grad[i][c] += u
                    grad[j][c] -= u
    return grad


def dense_batch_hard(feats, labels, margin):
    """Batch-hard ``(value, grad)`` mined on the whole ``pairwise_distances`` matrix.

    Another exception to the loop style: the library's former dense form, kept
    as the bitwise reference for its certified miner. It mines on the n x n
    difference-form matrix and places the pair weights as the library does.
    """
    from crossmodal.core import pairwise_distances

    x = np.asarray(feats, dtype=np.float64)
    labels = np.asarray(labels)
    n = len(x)
    dist = pairwise_distances(x)
    same = labels[:, None] == labels[None, :]
    pos, neg = same & ~np.eye(n, dtype=bool), ~same
    mined = np.array(
        (np.where(pos, dist, -np.inf).argmax(axis=1), np.where(neg, dist, np.inf).argmin(axis=1))
    )
    rows = np.arange(n)
    there, back = rows * n + mined, mined * n + rows
    d = dist.take(there)
    hinge = d[0] - d[1] + margin
    active = hinge > 0
    g = np.zeros((n, n))
    w = np.array([[1.0], [-1.0]]) * active
    g.put(there, w)
    sym = w + g.take(back)
    g.put(there, np.divide(sym, d, out=np.zeros_like(sym), where=d > 0))
    g.put(back, g.take(there))
    return float(hinge[active].sum()), g.sum(axis=-1)[:, None] * x - g @ x


def _runner_up_margin(values):
    """Distance from the smallest value to the next one (inf with fewer than two)."""
    best = second = math.inf
    for v in values:
        if v < best:
            best, second = v, best
        elif v < second:
            second = v
    return second - best


def batch_hard_gap(feats, labels, margin):
    """Distance from the inputs to the nearest kink of :func:`batch_hard_triplet`.

    Per anchor: its nearest other row (coincident points), its hinge, and the
    margins of its hardest positive and hardest negative over their runners-up.
    """
    n = len(feats)
    gap = math.inf
    for i in range(n):
        pos, neg, others = [], [], []
        for j in range(n):
            if j == i:
                continue
            d = euclid(feats[i], feats[j])
            others.append(d)
            if labels[j] == labels[i]:
                pos.append(-d)  # the hardest positive is the largest distance
            else:
                neg.append(d)
        hinge = -min(pos) - min(neg) + margin
        for g in (min(others), abs(hinge), _runner_up_margin(pos), _runner_up_margin(neg)):
            gap = min(gap, g)
    return gap


def intra_triplet(feats, labels, mods, margin):
    """Per-modality batch-hard sums."""
    total = 0.0
    for mod in sorted(set(mods)):
        rows = [i for i in range(len(feats)) if mods[i] == mod]
        total += batch_hard_triplet(
            [feats[i] for i in rows], [labels[i] for i in rows], margin
        )
    return total


def msel(feats, labels, mods, metric="euclid"):
    """Mean over anchors of (mean intra-positive - mean cross-positive) squared."""
    dfun = euclid if metric == "euclid" else cosine_dist
    n = len(feats)
    total = 0.0
    for i in range(n):
        intra = []
        cross = []
        for j in range(n):
            if labels[j] != labels[i]:
                continue
            if j != i and mods[j] == mods[i]:
                intra.append(dfun(feats[i], feats[j]))
            elif mods[j] != mods[i]:
                cross.append(dfun(feats[i], feats[j]))
        d_in = sum(intra) / len(intra)
        d_x = sum(cross) / len(cross)
        total += (d_in - d_x) ** 2
    return total / n


def msel_grad(feats, labels, mods):
    """Gradient of euclid :func:`msel`, accumulated anchor by anchor.

    Each anchor's squared gap weighs the unit vectors to its partners by
    2 * gap / n over the partner count, positive for same-modality partners
    and negative for the others, mirrored onto the partner; a partner at
    distance 0 adds nothing.
    """
    n, dim = len(feats), len(feats[0])
    grad = [[0.0] * dim for _ in range(n)]
    for i in range(n):
        intra = [j for j in range(n) if j != i and labels[j] == labels[i] and mods[j] == mods[i]]
        cross = [j for j in range(n) if labels[j] == labels[i] and mods[j] != mods[i]]
        gap = sum(euclid(feats[i], feats[j]) for j in intra) / len(intra)
        gap -= sum(euclid(feats[i], feats[j]) for j in cross) / len(cross)
        for partners, sign in ((intra, 1.0), (cross, -1.0)):
            coef = sign * 2.0 * gap / n / len(partners)
            for j in partners:
                d = euclid(feats[i], feats[j])
                if d > 0:
                    for c in range(dim):
                        u = coef * (feats[i][c] - feats[j][c]) / d
                        grad[i][c] += u
                        grad[j][c] -= u
    return grad


def msel_gap(feats, labels):
    """Distance from the inputs to the nearest kink of euclid :func:`msel`.

    Its only kink is a coincident pair, and it reads only pairs of distinct
    rows of one identity: the smallest such distance.
    """
    gap = math.inf
    for i in range(len(feats)):
        for j in range(len(feats)):
            if j != i and labels[j] == labels[i]:
                gap = min(gap, euclid(feats[i], feats[j]))
    return gap


def centers_of(feats, labels):
    """Per-identity mean rows, identities in ascending order."""
    out = {}
    for ident in sorted(set(labels)):
        rows = [feats[i] for i in range(len(feats)) if labels[i] == ident]
        dim = len(rows[0])
        out[ident] = [sum(r[d] for r in rows) / len(rows) for d in range(dim)]
    return out


def dcl(feats, labels, mode="dyn"):
    """Own-compactness sum over selected-negative-spread sum."""
    centers = centers_of(feats, labels)
    num = 0.0
    den = 0.0
    for ident, center in centers.items():
        own = [euclid(feats[i], center) for i in range(len(feats)) if labels[i] == ident]
        neg = [euclid(feats[i], center) for i in range(len(feats)) if labels[i] != ident]
        num += sum(own) / len(own)
        margin = sum(neg) / len(neg)
        if mode == "all":
            sel = neg
        elif mode == "hard":
            best = neg[0]
            for d in neg[1:]:
                if d < best:
                    best = d
            sel = [best]
        else:
            sel = [d for d in neg if d < margin]
            if not sel:
                best = neg[0]
                for d in neg[1:]:
                    if d < best:
                        best = d
                sel = [best]
        den += sum(sel) / len(sel)
    return num / den


def dcl_gap(feats, labels, mode="dyn"):
    """Distance from the inputs to the nearest kink of :func:`dcl`.

    Per identity: every row's distance to its center (a row on a center), and
    for ``dyn`` each negative's distance from the mean negative distance, or
    for ``hard`` the nearest negative's margin over the next. The ``dyn``
    fallback to the nearest negative is not counted.
    """
    gap = math.inf
    for ident, center in centers_of(feats, labels).items():
        neg = []
        for i in range(len(feats)):
            d = euclid(feats[i], center)
            gap = min(gap, d)
            if labels[i] != ident:
                neg.append(d)
        if mode == "dyn":
            margin = sum(neg) / len(neg)
            for d in neg:
                gap = min(gap, abs(d - margin))
        elif mode == "hard":
            gap = min(gap, _runner_up_margin(neg))
    return gap


def dcl_grad(feats, labels, mode="dyn"):
    """Gradient of :func:`dcl`, accumulated identity by identity.

    Each identity's center is the mean of its rows, so every row-to-center
    unit vector also flows back, averaged, onto the identity's own rows. A row
    at distance 0 from a center adds nothing.
    """
    n, dim = len(feats), len(feats[0])
    num = den = 0.0
    dnum = [[0.0] * dim for _ in range(n)]
    dden = [[0.0] * dim for _ in range(n)]
    for ident, center in centers_of(feats, labels).items():
        own = [i for i in range(n) if labels[i] == ident]
        neg = [i for i in range(n) if labels[i] != ident]
        unit = {}
        for i in range(n):
            d = euclid(feats[i], center)
            unit[i] = (d, [(feats[i][c] - center[c]) / d if d > 0 else 0.0 for c in range(dim)])
        m = len(own)
        num += sum(unit[i][0] for i in own) / m
        for i in own:
            for j in own:
                for c in range(dim):
                    dnum[j][c] += unit[i][1][c] * ((1.0 if i == j else 0.0) - 1.0 / m) / m
        margin = sum(unit[i][0] for i in neg) / len(neg)
        nearest = neg[0]
        for i in neg[1:]:
            if unit[i][0] < unit[nearest][0]:
                nearest = i
        if mode == "all":
            sel = neg
        elif mode == "hard":
            sel = [nearest]
        else:
            sel = [i for i in neg if unit[i][0] < margin] or [nearest]
        den += sum(unit[i][0] for i in sel) / len(sel)
        for i in sel:
            for c in range(dim):
                dden[i][c] += unit[i][1][c] / len(sel)
                for j in own:
                    dden[j][c] -= unit[i][1][c] / (m * len(sel))
    return [
        [dnum[i][c] / den - num / den**2 * dden[i][c] for c in range(dim)] for i in range(n)
    ]


def rank_gallery(query, gallery):
    """Gallery indices by ascending euclidean distance, ties toward lower index."""
    dists = [(euclid(query, g), j) for j, g in enumerate(gallery)]
    return [j for _, j in sorted(dists)]


def rank_gallery_by_count(query, gallery, distance=euclid):
    """Gallery indices placed by counting who precedes them, with no sort at all.

    Row j lands at position #{j' : d(j') < d(j), or d(j') == d(j) and j' < j}:
    the tie rule written out as a definition rather than inherited from a
    sort's stability.
    """
    dists = [distance(query, g) for g in gallery]
    order = [None] * len(gallery)
    for j, d in enumerate(dists):
        ahead = 0
        for k, e in enumerate(dists):
            if e < d or (e == d and k < j):
                ahead += 1
        order[ahead] = j
    return order


def first_hit_rank(order, gallery_ids, query_id):
    for pos, j in enumerate(order, start=1):
        if gallery_ids[j] == query_id:
            return pos
    return None


def average_precision(order, gallery_ids, query_id):
    hits = 0
    total = 0.0
    for pos, j in enumerate(order, start=1):
        if gallery_ids[j] == query_id:
            hits += 1
            total += hits / pos
    return total / hits


def inverse_negative_penalty(order, gallery_ids, query_id):
    last = None
    count = 0
    for pos, j in enumerate(order, start=1):
        if gallery_ids[j] == query_id:
            count += 1
            last = pos
    return count / last


def dense_query_scores(relevant):
    """``evalkit._query_scores`` as one cumulative count over every whole row."""
    hits = np.cumsum(relevant, axis=1)
    ap = np.where(relevant, hits / np.arange(1, relevant.shape[1] + 1), 0.0).sum(axis=1)
    last = relevant.shape[1] - relevant[:, ::-1].argmax(axis=1)
    return relevant.argmax(axis=1) + 1, ap / hits[:, -1], hits[:, -1] / last


def ranked_block_scores(qf, qid, gf, gid):
    """``evaluate``'s retrieval fields: ``rank`` + ``_query_scores`` per ``_BLOCK`` kept queries."""
    from crossmodal import evalkit

    qid, gid = np.asarray(qid), np.asarray(gid)
    kept = np.flatnonzero(np.isin(qid, gid))
    scores = []
    for a in range(0, kept.size, evalkit._BLOCK):
        rows = kept[a : a + evalkit._BLOCK]
        scores.append(evalkit._query_scores(evalkit.rank(qf[rows], gf, qid[rows], gid).relevant))
    first, ap, inp = map(np.concatenate, zip(*scores))
    return {
        **{f"rank{k}": float((first <= k).mean()) for k in evalkit.RANK_KS},
        "mean_ap": float(ap.mean()),
        "minp": float(inp.mean()),
        "dropped_queries": qid.size - kept.size,
        "n_queries": first.size,
    }


def similarity_stats(feats, ids, tags, bins):
    """``evalkit._similarity_stats`` in its former form: ``np.histogram`` per block.

    The per-block product, row split and sums are the library's, at the
    current ``evalkit._BLOCK``, so counts and sums compare bit for bit.
    """
    from crossmodal.core import NORM_EPS, as_matrix
    from crossmodal.errors import ConfigError, DimensionError, NumericError
    from crossmodal.core import as_ids
    from crossmodal import evalkit

    x = as_matrix(feats)
    ids = as_ids(ids, "ids")
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
        for rows in np.split(a, range(evalkit._BLOCK, a.size, evalkit._BLOCK)):
            sims = np.clip(xn[rows] @ xn[b].T, -1.0, 1.0)
            same = ids[rows][:, None] == ids[b][None, :]
            for row, vals in enumerate((sims[same], sims[~same])):
                counts[row] += np.histogram(vals, bins=bins, range=(-1.0, 1.0))[0]
                sums[row] += vals.sum()
    return counts, sums


def gap_ratio(feats, ids, tags):
    """``evalkit.modality_gap_ratio`` in its former form: ``pairwise_distances`` per identity."""
    from crossmodal.core import as_matrix, pairwise_distances
    from crossmodal.errors import DegenerateError, DimensionError
    from crossmodal.core import as_ids

    x = as_matrix(feats)
    ids = as_ids(ids, "ids")
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


def adamw_step(param, grad, m, v, t, lr, beta1, beta2, eps, weight_decay):
    """One update on flat scalar lists; returns new (param, m, v)."""
    new_p, new_m, new_v = [], [], []
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    for p, g, mi, vi in zip(param, grad, m, v):
        mi = beta1 * mi + (1.0 - beta1) * g
        vi = beta2 * vi + (1.0 - beta2) * g * g
        p = p - lr * (mi / c1) / (math.sqrt(vi / c2) + eps)
        p = p - lr * weight_decay * p
        new_p.append(p)
        new_m.append(mi)
        new_v.append(vi)
    return new_p, new_m, new_v


def per_cell_rows(dataset, spec, stage, rng):
    """``sample_batch``'s draws as the library used to make them: ``(chosen, rows)``.

    One ``choice`` for the P identities, then one per (identity, modality)
    cell, in draw order and the stage's tag order; ``rows`` concatenates the
    K dataset rows picked from each cell.
    """
    ids = dataset.identities
    chosen = rng.choice(len(ids), size=spec.p, replace=False)
    picks = []
    for i in chosen:
        for mod in stage.modality_pair:
            rows = dataset.rows_of(ids[i], mod)
            picks.append(rows[rng.choice(len(rows), size=spec.k, replace=False)])
    return chosen, np.concatenate(picks)


def per_identity_dataset(n_ids, per_modality, layout, gap_strength, noise_sigma, rng):
    """``generate``'s arrays as the library used to draw them, identity by identity.

    Returns ``(features, labels, tags, prototypes)``. Per identity, four
    normal draws (visible shared, visible color, infrared shared, infrared
    modality); each grayscale row is its visible row with the color block
    replaced by its mean, one row at a time.
    """
    proto_rng = rng.child(0)
    sample_rng = rng.child(1)
    shared = proto_rng.normal(size=(n_ids, layout.shared_dims))
    color = proto_rng.normal(size=(n_ids, layout.color_dims))
    modality = proto_rng.normal(size=(n_ids, layout.modality_dims))
    d = layout.total_dims
    rows, labels, tags = [], [], []
    for ident in range(n_ids):
        vis = np.zeros((per_modality, d))
        vis[:, layout.shared_slice] = shared[ident] + noise_sigma * sample_rng.normal(
            size=(per_modality, layout.shared_dims)
        )
        vis[:, layout.color_slice] = color[ident] + noise_sigma * sample_rng.normal(
            size=(per_modality, layout.color_dims)
        )
        ir = np.zeros((per_modality, d))
        ir[:, layout.shared_slice] = shared[ident] + noise_sigma * sample_rng.normal(
            size=(per_modality, layout.shared_dims)
        )
        ir[:, layout.modality_slice] = gap_strength * (
            modality[ident]
            + noise_sigma * sample_rng.normal(size=(per_modality, layout.modality_dims))
        )
        gray = vis.copy()
        for row in gray:
            row[layout.color_slice] = row[layout.color_slice].mean()
        for block, tag in ((vis, "vis"), (gray, "gray"), (ir, "ir")):
            rows.append(block)
            labels.extend([ident] * per_modality)
            tags.extend([tag] * per_modality)
    return np.concatenate(rows, axis=0), np.asarray(labels), np.asarray(tags), shared


def row_index(labels, tags):
    """``{(identity, tag): rows}`` built row by row, as ``SynthDataset`` used to index cells."""
    index = {}
    for row, (lab, mod) in enumerate(zip(labels, tags)):
        index.setdefault((int(lab), str(mod)), []).append(row)
    return {k: np.asarray(v, dtype=np.int64) for k, v in index.items()}
