"""Synthetic two-modality identity datasets with a planted block structure.

Every feature vector follows a :class:`~crossmodal.batch.FeatureLayout` of
``[shared | color | modality]`` blocks. The shared block carries the identity
signal visible to both modalities. Visible rows additionally carry an
identity-correlated color block (zero for infrared); infrared rows carry an
identity-correlated modality block scaled by ``gap_strength`` (zero for
visible). Grayscale rows are the grayscale view of the visible rows, pairing
by position. The blocks outside ``shared`` are exactly the unreliable,
single-modality features a cross-modality learner has to give up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .batch import MODALITY_CODES, FeatureLayout, Modality, _read_only, coerce_rows, grayscale_of
from .core import RngStream, check_int
from .errors import ConfigError, ParseError

#: Parameters of the bundled desk-scale benchmark (16 train identities and a
#: disjoint 16-identity test split with the same generator settings).
BENCHMARK_N_IDS = 16
BENCHMARK_PER_MODALITY = 8
BENCHMARK_GAP = 1.5
BENCHMARK_NOISE = 0.3
BENCHMARK_LAYOUT = FeatureLayout(shared_dims=6, color_dims=5, modality_dims=5)
_BENCHMARK_SEEDS = {"train": 11, "test": 12}


@dataclass(eq=False)
class SynthDataset:
    """Feature rows with identity labels and modality tags, plus generator settings.

    Construction sorts the rows once by (identity, tag) into a cell table, an
    n_ids x 3 x w array: the cell of each identity (in ``identities`` order)
    and tag (in ``MODALITY_CODES`` order) holds its row indices in dataset
    order, padded to the widest cell with ``len(self)``, an index past the
    last row. An n_ids x 3 array holds the cells' row counts. Both are
    read-only, and every per-cell query reads them.
    """

    features: np.ndarray
    labels: np.ndarray
    modalities: np.ndarray
    layout: FeatureLayout | None = None
    gap_strength: float | None = None
    noise_sigma: float | None = None
    _identities: np.ndarray = field(init=False, repr=False, default=None)
    _rows: np.ndarray = field(init=False, repr=False, default=None)
    _counts: np.ndarray = field(init=False, repr=False, default=None)
    _tables: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        self.features, self.labels, self.modalities = coerce_rows(
            self.features, self.labels, self.modalities
        )
        if (self.labels < 0).any():
            raise ConfigError("identity labels must be non-negative")
        ids, id_codes = np.unique(self.labels, return_inverse=True)
        tags = np.argmax(self.modalities[:, None] == np.array(MODALITY_CODES), axis=1)
        cells = id_codes * len(MODALITY_CODES) + tags  # a row's cell, identity-major
        order = np.argsort(cells, kind="stable")  # rows cell by cell, in dataset order
        counts = np.bincount(cells, minlength=ids.size * len(MODALITY_CODES))
        cells = cells[order]
        rank = np.arange(len(self)) - (np.cumsum(counts) - counts)[cells]  # place in its cell
        rows = np.full((counts.size, counts.max(initial=0)), len(self), dtype=np.int64)
        rows[cells, rank] = order
        self._identities = ids
        self._rows = rows.reshape(ids.size, len(MODALITY_CODES), rows.shape[1])
        self._counts = counts.reshape(ids.size, len(MODALITY_CODES))
        _read_only(self._identities, self._rows, self._counts)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def identities(self) -> np.ndarray:
        return self._identities

    def rows_of(self, identity: int, modality: str | Modality) -> np.ndarray:
        """Row indices of one (identity, modality) cell, in dataset order."""
        ident, col = int(identity), _column(modality)
        i = int(np.searchsorted(self._identities, ident))
        if i == self._identities.size or self._identities[i] != ident:
            return np.empty(0, dtype=np.int64)
        return self._rows[i, col, : self._counts[i, col]]

    def row_table(self, pair: tuple[str, str]) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, counts)``: the cell table's columns for the tags of ``pair``, in its order.

        ``rows`` is n_ids x 2 x w, each cell's rows padded to the widest cell
        of any tag with ``len(self)``; ``counts`` (n_ids x 2) says how many of
        each cell's entries are rows. Built on the first call for a pair and
        kept, read-only: the batch sampler reads it every epoch.
        """
        if pair not in self._tables:
            cols = [_column(m) for m in pair]
            rows, counts = self._rows.take(cols, axis=1), self._counts.take(cols, axis=1)
            _read_only(rows, counts)
            self._tables[pair] = rows, counts
        return self._tables[pair]

    def modality_rows(self, modality: str | Modality) -> np.ndarray:
        """All row indices carrying the given tag."""
        return np.flatnonzero(self.modalities == MODALITY_CODES[_column(modality)])


def _column(modality: str | Modality) -> int:
    """The tag's column in the cell table: its place in ``MODALITY_CODES``."""
    tag = modality.value if isinstance(modality, Modality) else str(modality)
    if tag not in MODALITY_CODES:
        raise ConfigError(f"unknown modality tag {tag!r}")
    return MODALITY_CODES.index(tag)


def generate(
    n_ids: int,
    per_modality: int,
    layout: FeatureLayout,
    gap_strength: float,
    noise_sigma: float,
    rng: RngStream,
) -> SynthDataset:
    """Draw a dataset with ``n_ids * per_modality`` rows in each of vis/gray/ir.

    Identity prototypes are standard Gaussians per block. Each visible row is
    ``[prototype + noise | color prototype + noise | 0]``; each infrared row is
    ``[prototype + noise | 0 | gap_strength * (modality prototype + noise)]``;
    each grayscale row is the grayscale view of the visible row at the same
    position. Rows run identity by identity, each its vis, gray, then ir rows.
    One normal draw holds all the noise, identity by identity: its visible
    shared and color blocks, then its infrared shared and modality blocks.
    """
    check_int("n_ids", n_ids)
    check_int("per_modality", per_modality)
    if n_ids < 2:
        raise ConfigError("need at least 2 identities")
    if per_modality < 2:
        raise ConfigError("need at least 2 samples per modality per identity")
    if not (0 <= gap_strength < np.inf and 0 <= noise_sigma < np.inf):
        raise ConfigError("gap_strength and noise_sigma must be finite and >= 0")
    proto_rng = rng.child(0)
    sample_rng = rng.child(1)
    shared = proto_rng.normal(size=(n_ids, layout.shared_dims))
    color = proto_rng.normal(size=(n_ids, layout.color_dims))
    modality = proto_rng.normal(size=(n_ids, layout.modality_dims))

    cells = np.zeros((n_ids, len(MODALITY_CODES), per_modality, layout.total_dims))
    vis, gray, ir = cells.transpose(1, 0, 2, 3)  # views, in MODALITY_CODES order
    sh, co, mo = layout.shared_slice, layout.color_slice, layout.modality_slice
    blocks = ((vis, sh, shared), (vis, co, color), (ir, sh, shared), (ir, mo, modality))
    widths = [per_modality * proto.shape[1] for _, _, proto in blocks]
    noise = np.split(sample_rng.normal(size=(n_ids, sum(widths))), np.cumsum(widths)[:-1], axis=1)
    for (rows, cols, proto), draw in zip(blocks, noise):  # in noise order
        rows[..., cols] = proto[:, None] + noise_sigma * draw.reshape(n_ids, per_modality, -1)
    ir[..., mo] *= gap_strength
    gray[...] = grayscale_of(vis, layout)
    return SynthDataset(
        features=cells.reshape(-1, layout.total_dims),
        labels=np.repeat(np.arange(n_ids), len(MODALITY_CODES) * per_modality),
        modalities=np.tile(np.repeat(MODALITY_CODES, per_modality), n_ids),
        layout=layout,
        gap_strength=gap_strength,
        noise_sigma=noise_sigma,
    )


def make_benchmark(split: str = "train") -> SynthDataset:
    """The bundled benchmark: fixed generator settings, disjoint split seeds."""
    if split not in _BENCHMARK_SEEDS:
        raise ConfigError(f"split must be one of {tuple(_BENCHMARK_SEEDS)}")
    return generate(
        BENCHMARK_N_IDS,
        BENCHMARK_PER_MODALITY,
        BENCHMARK_LAYOUT,
        BENCHMARK_GAP,
        BENCHMARK_NOISE,
        RngStream(_BENCHMARK_SEEDS[split]),
    )


def save_features(dataset: SynthDataset, path) -> None:
    """Write ``id,modality,f0..f{d-1}`` rows; floats carry 17 significant digits."""
    d = dataset.dim
    header = "id,modality," + ",".join(f"f{i}" for i in range(d))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n")
        for row in range(len(dataset)):
            values = ",".join("%.17g" % x for x in dataset.features[row])
            fh.write(f"{int(dataset.labels[row])},{dataset.modalities[row]},{values}\n")


def read_ascii_lines(path) -> list[str]:
    """The lines of an ASCII text file; a non-ASCII byte raises :class:`ParseError` naming it."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"non-ASCII byte {raw[exc.start]:#04x}", line=line) from None


def load_features(path) -> SynthDataset:
    """Parse a feature file written by :func:`save_features`.

    Raises :class:`ParseError` with a 1-based line number for any malformed
    header, row, token, non-ASCII byte (a byte-order mark included), identity
    outside int64, or non-finite value. Blank lines are skipped.
    """
    lines = read_ascii_lines(path)
    if not lines:
        raise ParseError("empty feature file", line=1)
    header = lines[0].split(",")
    if len(header) < 3 or header[0] != "id" or header[1] != "modality":
        raise ParseError("header must start with 'id,modality,f0,...'", line=1)
    d = len(header) - 2
    for i, name in enumerate(header[2:]):
        if name != f"f{i}":
            raise ParseError(f"feature column {i} must be named 'f{i}', got {name!r}", line=1)
    features: list[list[float]] = []
    labels: list[int] = []
    tags: list[str] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        tokens = line.split(",")
        if len(tokens) != d + 2:
            raise ParseError(f"expected {d + 2} fields, got {len(tokens)}", line=lineno)
        try:
            ident = int(tokens[0])
        except ValueError:
            raise ParseError(f"identity {tokens[0]!r} is not an integer", line=lineno) from None
        if ident < 0:
            raise ParseError("identity must be non-negative", line=lineno)
        if ident >= 2**63:
            raise ParseError(f"identity {ident} does not fit in int64", line=lineno)
        if tokens[1] not in MODALITY_CODES:
            raise ParseError(f"unknown modality tag {tokens[1]!r}", line=lineno)
        try:
            values = [float(t) for t in tokens[2:]]
        except ValueError:
            raise ParseError("non-numeric feature value", line=lineno) from None
        if not np.isfinite(values).all():
            raise ParseError("non-finite feature value", line=lineno)
        labels.append(ident)
        tags.append(tokens[1])
        features.append(values)
    if not features:
        raise ParseError("feature file has a header but no rows", line=2)
    return SynthDataset(
        features=np.asarray(features),
        labels=np.asarray(labels),
        modalities=np.asarray(tags),
    )
