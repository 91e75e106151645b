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

from .batch import MODALITY_CODES, FeatureLayout, Modality, coerce_rows, grayscale_of
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


@dataclass
class SynthDataset:
    """Feature rows with identity labels and modality tags, plus generator settings."""

    features: np.ndarray
    labels: np.ndarray
    modalities: np.ndarray
    layout: FeatureLayout | None = None
    gap_strength: float | None = None
    noise_sigma: float | None = None
    prototypes: np.ndarray | None = None
    _index: dict = field(init=False, repr=False, default_factory=dict)
    _min_count: dict = field(init=False, repr=False, default_factory=dict)
    _identities: np.ndarray = field(init=False, repr=False, default=None)
    _tables: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        self.features, self.labels, self.modalities = coerce_rows(
            self.features, self.labels, self.modalities
        )
        if (self.labels < 0).any():
            raise ConfigError("identity labels must be non-negative")
        self._identities = np.unique(self.labels)
        self._identities.flags.writeable = False
        index: dict[tuple[int, str], list[int]] = {}
        for row, (lab, mod) in enumerate(zip(self.labels, self.modalities)):
            index.setdefault((int(lab), str(mod)), []).append(row)
        self._index = {k: np.asarray(v, dtype=np.int64) for k, v in index.items()}
        self._min_count = {
            mod: min((self.count_of(i, mod) for i in self.identities), default=0)
            for mod in MODALITY_CODES
        }

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
        mod = modality.value if isinstance(modality, Modality) else str(modality)
        return self._index.get((int(identity), mod), np.empty(0, dtype=np.int64))

    def row_table(self, pair: tuple[str, str]) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, counts)``: per identity in ``identities`` order, its :meth:`rows_of` per tag.

        The tags are those of ``pair``, in its order.
        ``rows`` is n_ids x 2 x w, each cell's rows padded to the widest cell
        with ``len(self)``, an index past the last row; ``counts`` (n_ids x 2)
        says how many of each cell's entries are rows. Built on the first
        call for a pair and kept, read-only: the batch sampler reads it every
        epoch.
        """
        if pair not in self._tables:
            cells = [self.rows_of(i, m) for i in self.identities for m in pair]
            counts = np.array([c.size for c in cells], dtype=np.int64)
            rows = np.full((len(cells), counts.max(initial=0)), len(self), dtype=np.int64)
            for row, cell in zip(rows, cells):
                row[: cell.size] = cell
            rows, counts = rows.reshape(-1, 2, rows.shape[1]), counts.reshape(-1, 2)
            rows.flags.writeable = counts.flags.writeable = False
            self._tables[pair] = rows, counts
        return self._tables[pair]

    def count_of(self, identity: int, modality: str | Modality) -> int:
        return int(self.rows_of(identity, modality).size)

    def min_count(self, modality: str | Modality) -> int:
        """Fewest rows any identity has in the modality, computed once at construction."""
        return self._min_count[modality.value if isinstance(modality, Modality) else str(modality)]

    def modality_rows(self, modality: str | Modality) -> np.ndarray:
        """All row indices carrying the given tag."""
        mod = modality.value if isinstance(modality, Modality) else str(modality)
        return np.flatnonzero(self.modalities == mod)


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
    position.
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

    d = layout.total_dims
    rows: list[np.ndarray] = []
    labels: list[int] = []
    tags: list[str] = []
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
        gray = np.stack([grayscale_of(row, layout) for row in vis])
        for block, tag in ((vis, Modality.VIS), (gray, Modality.GRAY), (ir, Modality.IR)):
            rows.append(block)
            labels.extend([ident] * per_modality)
            tags.extend([tag.value] * per_modality)
    return SynthDataset(
        features=np.concatenate(rows, axis=0),
        labels=np.asarray(labels),
        modalities=np.asarray(tags),
        layout=layout,
        gap_strength=gap_strength,
        noise_sigma=noise_sigma,
        prototypes=shared,
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
