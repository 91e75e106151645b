"""PK mini-batches over tagged feature rows, and the grayscale view of visible rows."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from .core import RngStream, as_ids, as_matrix, as_vector, check_int, subsets
from .errors import ConfigError, DimensionError, NumericError, SamplingError

if TYPE_CHECKING:  # pragma: no cover
    from .synthdata import SynthDataset


class Modality(str, Enum):
    """Source modality of a feature row; grayscale rows derive from visible ones."""

    VIS = "vis"
    GRAY = "gray"
    IR = "ir"


MODALITY_CODES = tuple(m.value for m in Modality)


class Stage(Enum):
    """Training phase. STAGE1 batches mix grayscale+infrared, STAGE2 visible+infrared."""

    STAGE1 = 1
    STAGE2 = 2

    @property
    def modality_pair(self) -> tuple[str, str]:
        if self is Stage.STAGE1:
            return (Modality.GRAY.value, Modality.IR.value)
        return (Modality.VIS.value, Modality.IR.value)


@dataclass(frozen=True)
class FeatureLayout:
    """Block structure of synthetic feature vectors: [shared | color | modality]."""

    shared_dims: int
    color_dims: int
    modality_dims: int

    def __post_init__(self):
        for name in ("shared_dims", "color_dims", "modality_dims"):
            check_int(name, getattr(self, name))
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")

    @property
    def total_dims(self) -> int:
        return self.shared_dims + self.color_dims + self.modality_dims

    @property
    def shared_slice(self) -> slice:
        return slice(0, self.shared_dims)

    @property
    def color_slice(self) -> slice:
        return slice(self.shared_dims, self.shared_dims + self.color_dims)

    @property
    def modality_slice(self) -> slice:
        return slice(self.shared_dims + self.color_dims, self.total_dims)


def grayscale_of(visible, layout: FeatureLayout) -> np.ndarray:
    """Replace the color block with its mean; all other coordinates pass through.

    ``visible`` is one vector, or rows of them along its last axis (a matrix
    or a 3-D stack); each row is treated alone. This is the feature-level
    analogue of dropping chroma while keeping luminance. A color block that
    already holds one value is kept as it is (its computed mean may round
    away from that value), so applying this twice gives exactly the result
    of applying it once.
    """
    v = as_vector(visible) if np.ndim(visible) == 1 else as_matrix(visible, stack=True)
    if v.shape[-1] != layout.total_dims:
        raise DimensionError(f"vector has {v.shape[-1]} dims, layout expects {layout.total_dims}")
    out = v.copy()
    color = out[..., layout.color_slice]  # a view into out
    uniform = (color == color[..., :1]).all(axis=-1, keepdims=True)
    np.copyto(color, color.mean(axis=-1, keepdims=True), where=~uniform)
    return out


@dataclass(frozen=True)
class BatchSpec:
    """P identities times K rows per modality per identity."""

    p: int
    k: int

    def __post_init__(self):
        check_int("p", self.p)
        check_int("k", self.k)
        if self.p < 2:
            raise ConfigError("batch spec needs p >= 2 identities")
        if self.k < 2:
            raise ConfigError("batch spec needs k >= 2 rows per modality")


def coerce_rows(features, labels, modalities):
    """Coerce to 2-D float64 features with one int64 label and one known tag per row.

    A label that is not an integer raises ``LabelError`` naming ``labels``.
    """
    labels = as_ids(labels, "labels")
    modalities = np.asarray(modalities, dtype=np.str_)
    features = _coerce_features(features, labels, modalities)
    unknown = modalities[~np.logical_or.reduce([modalities == c for c in MODALITY_CODES])]
    if unknown.size:
        raise ConfigError(f"unknown modality tag {np.unique(unknown)[0]!r}")
    return features, labels, modalities


def _coerce_features(
    features, labels: np.ndarray, modalities: np.ndarray, stack: bool = False
) -> np.ndarray:
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 and not (stack and features.ndim == 3):
        kind = "2-D or a 3-D stack" if stack else "2-D"
        raise DimensionError(f"features must be {kind}, got shape {features.shape}")
    n = features.shape[-2]
    if labels.shape != (n,) or modalities.shape != (n,):
        raise DimensionError("features, labels, and modalities disagree on row count")
    return features


def _read_only(*arrays: np.ndarray) -> None:
    for arr in arrays:
        arr.flags.writeable = False


@dataclass(frozen=True, eq=False)
class PairMasks:
    """Pairs over a row set: distinct rows (``off``), same identity (``pos``), other (``neg``).

    ``every_pos`` / ``every_neg``: whether each row has at least one such partner.
    ``blocks``: P x (n / P), each identity code's rows in row order, codes
    ascending; read-only. The three n x n masks are derived from ``id_codes``
    on first read; mining above ``core._BLOCK`` rows reads none of them
    (:meth:`neg_rows` gives the rows it mines on the dense distances).
    """

    every_pos: bool
    every_neg: bool
    blocks: np.ndarray
    id_codes: np.ndarray = field(repr=False)

    @classmethod
    def of(cls, id_codes: np.ndarray) -> "PairMasks":
        """Masks over rows with these identity codes: 0 to P - 1, each on equally many rows."""
        counts = np.bincount(id_codes)
        every_pos = bool(counts[id_codes].min() >= 2)
        blocks = np.argsort(id_codes, kind="stable").reshape(len(counts), -1)
        _read_only(blocks)
        return cls(every_pos, bool(np.count_nonzero(counts) >= 2), blocks, id_codes)

    def neg_rows(self, rows: np.ndarray) -> np.ndarray:
        """``neg[rows]``, without deriving ``neg``."""
        return self.id_codes[rows, None] != self.id_codes

    @cached_property
    def masks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(off, pos, neg)``."""
        same = self.id_codes[:, None] == self.id_codes[None, :]
        off = ~np.eye(len(self.id_codes), dtype=bool)
        pos, neg = same & off, ~same
        _read_only(off, pos, neg)
        return off, pos, neg

    @property
    def off(self) -> np.ndarray:
        return self.masks[0]

    @property
    def pos(self) -> np.ndarray:
        return self.masks[1]

    @property
    def neg(self) -> np.ndarray:
        return self.masks[2]


@dataclass(frozen=True, eq=False)
class RowLayout:
    """Which rows share an identity (codes 0 to P - 1) and each row's modality code.

    Everything here is derived on first use and read-only, with identity
    blocks in this layout's own code order. Every kernel that reads the
    blocks treats each block on its own, so a batch whose identity codes
    relabel ``id_codes`` by a permutation reads the layout as it is. The
    layout holds no memberships: :attr:`BatchStructure.members` derives
    them, in the batch's code order, from the batch's drawn ``order``.
    ``block_pairs`` gives every identity block of a layout shared that way
    one modality pattern.
    """

    id_codes: np.ndarray
    mod_codes: np.ndarray

    @cached_property
    def pairs(self) -> PairMasks:
        """Pair masks over all rows."""
        return PairMasks.of(self.id_codes)

    @cached_property
    def modality_pairs(self) -> tuple[tuple[np.ndarray, PairMasks], ...]:
        """Per modality code: its row indices and the pair masks over those rows."""
        rows = [np.flatnonzero(self.mod_codes == code) for code in (0, 1)]  # two modalities
        _read_only(*rows)
        return tuple((r, PairMasks.of(self.id_codes[r])) for r in rows)

    @cached_property
    def block_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """P x 2k x 2k ``(intra, cross)`` positive pairs inside each identity block."""
        return _positive_pairs(self.mod_codes[self.pairs.blocks])

    @cached_property
    def batch_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """1 x n x n ``(intra, cross)`` positive pairs over all rows as one block, in row order."""
        ids = self.id_codes[None]
        return _positive_pairs(self.mod_codes[None], ids[:, :, None] == ids[:, None, :])


@dataclass(frozen=True, eq=False)
class BatchStructure:
    """Sorted distinct identities and modalities, the batch's row layout, and cell size k.

    ``labels`` and ``tags`` are the (now read-only) arrays it was derived
    from. Code c is ``identities[c]``; its rows are ``layout``'s identity
    ``order[c]``. :meth:`LabeledBatch.validate` builds a layout from the
    batch's own codes (``order`` is the identity); :func:`sample_batch`
    shares one layout among all its batches of one stage and shape.
    """

    labels: np.ndarray
    tags: np.ndarray
    identities: np.ndarray
    modalities: tuple[str, ...]
    k: int
    layout: RowLayout = field(repr=False)
    order: np.ndarray = field(repr=False)

    @cached_property
    def members(self) -> tuple[np.ndarray, np.ndarray]:
        """``(own, count)``: P x n whether row r has identity code c, and each code's row count.

        Derived from ``order``: code c owns the layout rows of identity ``order[c]``.
        """
        own = self.layout.id_codes[None, :] == self.order[:, None]
        count = own.sum(axis=1)
        _read_only(own, count)
        return own, count


def _positive_pairs(mods: np.ndarray, same_id: np.ndarray | None = None):
    """Per block of rows (``mods``: blocks x m modality codes), its positive pairs.

    Returns ``(intra, cross)``, blocks x m x m: distinct rows of one identity
    and one modality, and rows of one identity and the two modalities.
    ``same_id`` says which rows share an identity; when it is None, all do.
    """
    same_mod = mods[:, :, None] == mods[:, None, :]
    intra = same_mod & ~np.eye(mods.shape[1], dtype=bool)
    cross = ~same_mod
    if same_id is not None:
        intra &= same_id
        cross &= same_id
    _read_only(intra, cross)
    return intra, cross


@dataclass(eq=False)
class LabeledBatch:
    """Feature rows with a per-row identity label and modality tag.

    Validation derives a :class:`BatchStructure` once and keeps it;
    :func:`sample_batch` builds its batches with theirs.
    ``dataclasses.replace(batch, features=...)`` carries it over, because the
    labels and tags are the same arrays; a batch given other label or tag
    arrays drops it and is validated again on first use.

    A batch that carries its structure may hold a stack of feature matrices,
    ``(S, n, d)``, one per slice over the same rows; every loss then returns
    one value per slice (see :mod:`crossmodal.losses`).
    """

    features: np.ndarray
    labels: np.ndarray
    modalities: np.ndarray
    _structure: BatchStructure | None = field(default=None, repr=False)

    def __post_init__(self):
        s = self._structure
        if s is not None and s.labels is self.labels and s.tags is self.modalities:
            # the labels and tags were checked when the structure was derived
            self.features = _coerce_features(
                self.features, self.labels, self.modalities, stack=True
            )
            return
        self._structure = None
        self.features, self.labels, self.modalities = coerce_rows(
            self.features, self.labels, self.modalities
        )

    def __len__(self) -> int:
        return self.features.shape[-2]

    @property
    def structure(self) -> BatchStructure:
        """The batch's cell structure, validating the batch on first use."""
        if self._structure is None:
            self.validate()
        return self._structure

    def cell_count(self) -> int:
        """Rows per (identity, modality) cell; raises ConfigError on uneven cells."""
        return self.structure.k

    def validate(self) -> "LabeledBatch":
        """Check batch invariants: finite rows, exactly two modalities, even cells."""
        _check_finite(self.features)
        if self._structure is not None:
            return self
        # One np.unique per column and one bincount over the cells.
        ids, id_codes = np.unique(self.labels, return_inverse=True)
        mods, mod_codes = np.unique(self.modalities, return_inverse=True)
        mods = tuple(mods.tolist())
        if len(mods) != 2:
            raise ConfigError(f"batch must mix exactly two modalities, got {mods}")
        sizes = sorted(set(np.bincount(2 * id_codes + mod_codes, minlength=2 * len(ids)).tolist()))
        if len(sizes) != 1:
            raise ConfigError(f"uneven (identity, modality) cells: sizes {sizes}")
        order = np.arange(len(ids))
        _read_only(self.labels, self.modalities, ids, id_codes, mod_codes, order)
        self._structure = BatchStructure(
            self.labels, self.modalities, ids, mods, sizes[0], RowLayout(id_codes, mod_codes), order
        )
        return self


def _check_finite(features: np.ndarray) -> None:
    if not np.isfinite(features).all():
        raise NumericError("batch features contain NaN or Inf")


@lru_cache(maxsize=None)
def _sampled_layout(stage: Stage, p: int, k: int) -> RowLayout:
    """The layout every :func:`sample_batch` batch of this stage and P x K shares.

    Drawn identity j holds rows ``[2kj, 2k(j + 1))``: k rows of the stage's
    first modality, then k of its second; modality codes follow sorted tags.
    """
    first = int(stage.modality_pair[0] > stage.modality_pair[1])
    layout = RowLayout(
        np.repeat(np.arange(p), 2 * k),
        np.tile(np.repeat(np.array([first, 1 - first]), k), p),
    )
    _read_only(layout.id_codes, layout.mod_codes)
    return layout


def sample_batch(
    dataset: "SynthDataset", spec: BatchSpec, stage: Stage, rng: RngStream
) -> LabeledBatch:
    """Draw P identities, then K rows per stage modality each, without replacement.

    Stage 1 draws grayscale+infrared rows, stage 2 visible+infrared. Identity
    choice is uniform; the same stream always reproduces the same batch.
    This is the first batch of :func:`sample_batches` on ``[rng]``.
    """
    return next(sample_batches(dataset, spec, stage, [rng]))


def sample_batches(
    dataset: "SynthDataset", spec: BatchSpec, stage: Stage, rngs: Sequence[RngStream]
) -> Iterator[LabeledBatch]:
    """Yield the :func:`sample_batch` batch of each stream in ``rngs``, in order.

    Each stream makes two generator calls: one ``choice`` for its P
    identities, then one ``integers`` call in :func:`~crossmodal.core.subsets`
    for its 2P cells, drawn identity by drawn identity, its first tag then
    its second; these draw exactly the rows a ``choice`` per cell would
    (cells of more than 10 000 rows may take ``choice`` itself, see there).
    Every stream draws before the first batch is yielded, and the rows of
    all the batches are gathered at once from the dataset's padded row table
    (:meth:`~crossmodal.synthdata.SynthDataset.row_table`). A batch whose
    features are not all finite raises ``NumericError`` when its turn
    comes, after the batches before it.

    The batch carries its structure: the rows of the j-th drawn identity are
    block j of the layout shared by every batch of this stage and shape
    (``_sampled_layout``), so the only per-batch derivation is the order of
    the P drawn identities. The batch is not validated again.
    """
    pair = stage.modality_pair
    ids = dataset.identities
    if len(ids) < spec.p:
        raise SamplingError(f"dataset has {len(ids)} identities, batch needs {spec.p}")
    rows, counts = dataset.row_table(pair)
    if counts.min() < spec.k:
        m, i = np.argwhere(counts.T < spec.k)[0]  # the first short cell, tag-major
        raise SamplingError(
            f"identity {ids[i]} has {counts[i, m]} {pair[m]!r} rows, batch needs {spec.k}"
        )
    p, k, n = int(spec.p), int(spec.k), len(rngs)
    draws = [rng.choice(len(ids), size=p, replace=False) for rng in rngs]
    chosen = np.array(draws, dtype=np.int64).reshape(n, p)
    cells = rows[chosen].reshape(n, 2 * p, rows.shape[-1])  # each stream's 2P cells, draw order
    picks = subsets(rngs, counts[chosen].reshape(n, 2 * p), k)
    idx = np.take_along_axis(cells, picks, axis=2).reshape(n, 2 * p * k)
    features, labels, tags = dataset.features[idx], dataset.labels[idx], dataset.modalities[idx]
    finite = np.isfinite(features).all(axis=(1, 2))
    layout = _sampled_layout(stage, p, k)
    order = np.argsort(chosen, axis=1)  # identity code c is the drawn identity order[c]
    identities = ids[np.take_along_axis(chosen, order, axis=1)]
    _read_only(labels, tags, identities, order)
    mods = tuple(sorted(pair))
    for i in range(n):
        if not finite[i]:
            _check_finite(features[i])  # raises
        lab, tag = labels[i], tags[i]  # one view each, shared by the batch and its structure
        structure = BatchStructure(lab, tag, identities[i], mods, k, layout, order[i])
        yield LabeledBatch(features[i], lab, tag, structure)
