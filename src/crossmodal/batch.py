"""PK mini-batches over tagged feature rows, and the grayscale view of visible rows."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .core import RngStream, as_vector
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
            if int(getattr(self, name)) < 1:
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

    This is the feature-level analogue of dropping chroma while keeping
    luminance. Applying it twice gives the same result as applying it once.
    """
    v = as_vector(visible)
    if v.shape[0] != layout.total_dims:
        raise DimensionError(
            f"vector has {v.shape[0]} dims, layout expects {layout.total_dims}"
        )
    out = v.copy()
    out[layout.color_slice] = out[layout.color_slice].mean()
    return out


@dataclass(frozen=True)
class BatchSpec:
    """P identities times K rows per modality per identity."""

    p: int
    k: int

    def __post_init__(self):
        if int(self.p) < 2:
            raise ConfigError("batch spec needs p >= 2 identities")
        if int(self.k) < 2:
            raise ConfigError("batch spec needs k >= 2 rows per modality")

    @property
    def rows(self) -> int:
        return 2 * self.p * self.k


def coerce_rows(features, labels, modalities):
    """Coerce to 2-D float64 features with one int64 label and one known tag per row."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    modalities = np.asarray(modalities, dtype=np.str_)
    if features.ndim != 2:
        raise DimensionError(f"features must be 2-D, got shape {features.shape}")
    n = features.shape[0]
    if labels.shape != (n,) or modalities.shape != (n,):
        raise DimensionError("features, labels, and modalities disagree on row count")
    unknown = modalities[~np.logical_or.reduce([modalities == c for c in MODALITY_CODES])]
    if unknown.size:
        raise ConfigError(f"unknown modality tag {np.unique(unknown)[0]!r}")
    return features, labels, modalities


def _read_only(*arrays: np.ndarray) -> None:
    for arr in arrays:
        arr.flags.writeable = False


def _identity_blocks(id_codes: np.ndarray, p: int) -> np.ndarray:
    """p x (n / p): each identity code's rows in row order, codes ascending; read-only."""
    blocks = np.argsort(id_codes, kind="stable").reshape(p, -1)
    _read_only(blocks)
    return blocks


@dataclass(frozen=True)
class PairMasks:
    """Pairs over a row set: distinct rows (``off``), same identity (``pos``), other (``neg``).

    ``every_pos`` / ``every_neg``: whether each row has at least one such partner.
    ``blocks``: the rows of each identity, as in :attr:`BatchStructure.blocks`.
    """

    off: np.ndarray
    pos: np.ndarray
    neg: np.ndarray
    every_pos: bool
    every_neg: bool
    blocks: np.ndarray

    @classmethod
    def of(cls, id_codes: np.ndarray) -> "PairMasks":
        """Masks over rows with these identity codes: 0 to P - 1, each on equally many rows."""
        same = id_codes[:, None] == id_codes[None, :]
        off = ~np.eye(len(id_codes), dtype=bool)
        pos, neg = same & off, ~same
        _read_only(off, pos, neg)
        counts = np.bincount(id_codes)
        every_pos = bool(counts[id_codes].min() >= 2)
        blocks = _identity_blocks(id_codes, len(counts))
        return cls(off, pos, neg, every_pos, np.count_nonzero(counts) >= 2, blocks)


@dataclass(frozen=True)
class BatchStructure:
    """Sorted distinct identities and modalities, per-row codes into them, and cell size k.

    ``labels`` and ``tags`` are the (now read-only) arrays it was derived from.
    The pair masks and identity blocks below are derived from it once, on
    first use, and are read-only.
    """

    labels: np.ndarray
    tags: np.ndarray
    identities: np.ndarray
    id_codes: np.ndarray
    modalities: tuple[str, ...]
    mod_codes: np.ndarray
    k: int

    @cached_property
    def pairs(self) -> PairMasks:
        """Pair masks over all rows."""
        return PairMasks.of(self.id_codes)

    @cached_property
    def modality_pairs(self) -> tuple[tuple[np.ndarray, PairMasks], ...]:
        """Per modality code: its row indices and the pair masks over those rows."""
        out = []
        for code in range(len(self.modalities)):
            rows = np.flatnonzero(self.mod_codes == code)
            _read_only(rows)
            out.append((rows, PairMasks.of(self.id_codes[rows])))
        return tuple(out)

    @cached_property
    def members(self) -> tuple[np.ndarray, np.ndarray]:
        """``(own, count)``: P x n whether row r has identity code c, and each code's row count."""
        own = self.id_codes[None, :] == np.arange(len(self.identities))[:, None]
        count = own.sum(axis=1)
        _read_only(own, count)
        return own, count

    @cached_property
    def blocks(self) -> np.ndarray:
        """P x 2k: each identity's rows in row order, identities in code order."""
        return _identity_blocks(self.id_codes, len(self.identities))

    @cached_property
    def block_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """P x 2k x 2k ``(intra, cross)`` positive pairs inside each identity block."""
        return _positive_pairs(self.mod_codes[self.blocks])

    @cached_property
    def batch_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """1 x n x n ``(intra, cross)`` positive pairs over all rows as one block, in row order."""
        ids = self.id_codes[None]
        return _positive_pairs(self.mod_codes[None], ids[:, :, None] == ids[:, None, :])


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


@dataclass
class LabeledBatch:
    """Feature rows with a per-row identity label and modality tag.

    Validation derives a :class:`BatchStructure` once and keeps it.
    ``dataclasses.replace(batch, features=...)`` carries it over, because the
    labels and tags are the same arrays; a batch given other label or tag
    arrays drops it and is validated again on first use.
    """

    features: np.ndarray
    labels: np.ndarray
    modalities: np.ndarray
    _structure: BatchStructure | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.features, self.labels, self.modalities = coerce_rows(
            self.features, self.labels, self.modalities
        )
        s = self._structure
        if s is not None and (s.labels is not self.labels or s.tags is not self.modalities):
            self._structure = None

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

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
        if not np.isfinite(self.features).all():
            raise NumericError("batch features contain NaN or Inf")
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
        _read_only(self.labels, self.modalities)
        self._structure = BatchStructure(
            self.labels, self.modalities, ids, id_codes, mods, mod_codes, sizes[0]
        )
        return self


def sample_batch(
    dataset: "SynthDataset", spec: BatchSpec, stage: Stage, rng: RngStream
) -> LabeledBatch:
    """Draw P identities, then K rows per stage modality each, without replacement.

    Stage 1 draws grayscale+infrared rows, stage 2 visible+infrared. Identity
    choice is uniform; the same stream always reproduces the same batch.
    """
    pair = stage.modality_pair
    ids = dataset.identities
    if len(ids) < spec.p:
        raise SamplingError(f"dataset has {len(ids)} identities, batch needs {spec.p}")
    for mod in pair:
        if dataset.min_count(mod) < spec.k:
            ident = next(i for i in ids if dataset.count_of(i, mod) < spec.k)
            raise SamplingError(
                f"identity {ident} has {dataset.count_of(ident, mod)} {mod!r} rows, "
                f"batch needs {spec.k}"
            )
    chosen = rng.choice(len(ids), size=spec.p, replace=False)
    picks: list[np.ndarray] = []
    for ci in chosen:
        ident = ids[int(ci)]
        for mod in pair:
            rows = dataset.rows_of(ident, mod)
            picks.append(rows[rng.choice(len(rows), size=spec.k, replace=False)])
    idx = np.concatenate(picks)
    return LabeledBatch(
        dataset.features[idx], dataset.labels[idx], dataset.modalities[idx]
    ).validate()
