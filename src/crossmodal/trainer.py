"""Two-stage training loop: grayscale+infrared warm-up, then visible+infrared.

Epochs ``[0, stage1_epochs)`` sample grayscale+infrared batches and minimize
the within-modality triplet plus identity loss; the remaining epochs sample
visible+infrared batches and minimize the global triplet plus the weighted
enhancement and center terms. ``schedule="rgb_first"`` plays the two phases
in the opposite order (visible+infrared first), which is only useful as an
ablation baseline.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field, replace
from itertools import groupby

import numpy as np

from .batch import BatchSpec, LabeledBatch, Modality, Stage, sample_batches
from .core import RngStream, check_int
from .errors import ConfigError, CrossmodalError, NumericError
from .evalkit import EvalReport, evaluate
from .losses import LossConfig, ObjectiveOutput, stage1_objective, stage2_objective
from .model import (
    ForwardTrace,
    ModelGrads,
    ModelParams,
    backward,
    check_encoder,
    extract_test_features,
    forward,
    init_params,
    update_bn_stats,
)
from .optim import (
    DEFAULT_BASE_LR,
    DEFAULT_WEIGHT_DECAY,
    check_adam,
    cosine_lr,
    init_optim_state,
    step,
)
from .synthdata import SynthDataset

SCHEDULES = ("gray_first", "rgb_first")
#: Evaluation direction -> its (query, gallery) modality tags.
_DIRECTION_TAGS = {"t2v": ("ir", "vis"), "v2t": ("vis", "ir")}
DIRECTIONS = tuple(_DIRECTION_TAGS)
#: Ablation column prefix -> the final-evaluation ``EvalReport`` field it summarizes.
_ABLATION_METRICS = {
    "rank1": "rank1",
    "mean_ap": "mean_ap",
    "minp": "minp",
    "gap_ratio": "gap_ratio",
    "pos_sim": "pos_sim_mean",
}


@dataclass
class TrainConfig:
    """Everything that determines a run, apart from the dataset itself."""

    p: int = 8
    k: int = 4
    hidden_dim: int = 32
    embed_dim: int = 16
    epochs: int = 40
    stage1_epochs: int = 10
    schedule: str = "gray_first"
    loss: LossConfig = field(default_factory=LossConfig)
    base_lr: float = DEFAULT_BASE_LR
    weight_decay: float = DEFAULT_WEIGHT_DECAY
    seed: int = 0
    eval_every: int = 0
    eval_direction: str = "t2v"

    def validate(self) -> "TrainConfig":
        for name in ("epochs", "stage1_epochs", "eval_every"):
            check_int(name, getattr(self, name))
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if not 0 <= self.stage1_epochs <= self.epochs:
            raise ConfigError("need 0 <= stage1_epochs <= epochs")
        if self.schedule not in SCHEDULES:
            raise ConfigError(f"schedule must be one of {SCHEDULES}")
        if self.eval_direction not in DIRECTIONS:
            raise ConfigError(f"eval_direction must be one of {DIRECTIONS}")
        if self.eval_every < 0:
            raise ConfigError("eval_every must be >= 0")
        check_adam(self.base_lr, self.weight_decay)
        check_encoder(hidden_dim=self.hidden_dim, embed_dim=self.embed_dim)
        RngStream(self.seed)  # the stream's own seed check
        BatchSpec(self.p, self.k)
        self.loss.validate()
        return self


@dataclass
class EpochLog:
    """Per-epoch record: stage, mean loss terms over batches, the epoch's lr, optional eval."""

    epoch: int
    stage: int
    lr: float
    terms: dict[str, float]
    eval: EvalReport | None = None


def stage_for_epoch(cfg: TrainConfig, epoch: int) -> Stage:
    """Which stage the schedule assigns to this epoch.

    Stage 1 always receives exactly ``stage1_epochs`` epochs: at the start
    under ``gray_first``, at the end under ``rgb_first``. Both schedules
    therefore spend identical per-stage budgets and differ only in order.
    """
    if cfg.schedule == "gray_first":
        return Stage.STAGE1 if epoch < cfg.stage1_epochs else Stage.STAGE2
    return Stage.STAGE2 if epoch < cfg.epochs - cfg.stage1_epochs else Stage.STAGE1


def _eval_rows(dataset: SynthDataset, direction: str) -> tuple[np.ndarray, np.ndarray]:
    """Query and gallery row indices for ``direction``; ``ConfigError`` if none can be scored.

    A split must hold both modalities, share an identity between its query
    and gallery rows, and hold at least two identities in them: with one,
    no query-gallery pair crosses identities.
    """
    if direction not in DIRECTIONS:
        raise ConfigError(f"direction must be one of {DIRECTIONS}")
    q_rows, g_rows = (dataset.modality_rows(tag) for tag in _DIRECTION_TAGS[direction])
    if q_rows.size == 0 or g_rows.size == 0:
        raise ConfigError("evaluation needs both visible and infrared rows")
    q_ids, g_ids = dataset.labels[q_rows], dataset.labels[g_rows]
    if not np.isin(q_ids, g_ids).any():
        raise ConfigError(f"no {direction} query identity appears in the evaluation gallery")
    if (q_ids == g_ids[0]).all() and (g_ids == g_ids[0]).all():
        raise ConfigError(f"{direction} evaluation needs two identities, its rows hold one")
    return q_rows, g_rows


def evaluate_params(
    params: ModelParams, dataset: SynthDataset, direction: str = "t2v"
) -> EvalReport:
    """Score euclid retrieval on a dataset with the post-norm test features.

    ``t2v`` queries infrared rows against the visible gallery; ``v2t`` swaps
    the roles.
    """
    q_rows, g_rows = _eval_rows(dataset, direction)
    q_tag, g_tag = _DIRECTION_TAGS[direction]
    qf = extract_test_features(params, dataset.features[q_rows])
    gf = extract_test_features(params, dataset.features[g_rows])
    return evaluate(
        qf,
        dataset.labels[q_rows],
        gf,
        dataset.labels[g_rows],
        query_tag=q_tag,
        gallery_tag=g_tag,
    )


def check_dataset(
    dataset: SynthDataset, cfg: TrainConfig, eval_dataset: SynthDataset | None = None
) -> None:
    """``ConfigError`` unless ``cfg`` is valid, every stage the schedule plays can draw
    its P x K batches, and the final epoch can score ``eval_dataset`` (else ``dataset``).

    The one check a run makes before it starts: :func:`train` and
    :func:`check_ablation` call it and do not validate ``cfg`` themselves.
    """
    cfg.validate()
    ids = dataset.identities
    if len(ids) < cfg.p:
        raise ConfigError(f"dataset has {len(ids)} identities, batches need {cfg.p}")
    for stage in dict.fromkeys(stage_for_epoch(cfg, e) for e in range(cfg.epochs)):
        counts = dataset.row_table(stage.modality_pair)[1]
        for mod, count in zip(stage.modality_pair, counts.T):
            short = ids[count < cfg.k]
            if short.size:
                raise ConfigError(
                    f"{stage.name} needs {cfg.k} {mod!r} rows per identity; "
                    f"identities {short[:4].tolist()} fall short"
                )
    _eval_rows(dataset if eval_dataset is None else eval_dataset, cfg.eval_direction)


def steps_per_epoch(dataset: SynthDataset, cfg: TrainConfig) -> int:
    """ceil(visible+infrared row count / batch size); grayscale mirrors visible."""
    n = dataset.modality_rows(Modality.VIS).size + dataset.modality_rows(Modality.IR).size
    return max(1, math.ceil(n / (2 * cfg.p * cfg.k)))


def _forward_objective(
    params: ModelParams,
    batch: LabeledBatch,
    stage: Stage,
    cfg: LossConfig,
    targets: np.ndarray,
) -> tuple[ObjectiveOutput, ForwardTrace]:
    """The half of :func:`loss_and_grads` before ``backward``: the objective and the trace.

    The forward pass and the objective run with numpy's floating-point
    warnings off, because each result is checked next: a non-finite batch
    mean or variance raises ``NumericError`` naming it, and the objective
    names its first non-finite term.
    """
    with np.errstate(all="ignore"):
        emb, _, logits, trace = forward(params, batch.features)
        for name, stat in (("mean", trace.mean), ("variance", trace.var)):
            if not np.isfinite(stat).all():
                raise NumericError(f"non-finite batch-norm {name} in the forward pass")
        objective = stage1_objective if stage is Stage.STAGE1 else stage2_objective
        return objective(replace(batch, features=emb), logits, targets, cfg), trace


def loss_and_grads(
    params: ModelParams,
    batch: LabeledBatch,
    stage: Stage,
    cfg: LossConfig,
    targets: np.ndarray,
) -> tuple[ObjectiveOutput, ModelGrads, ForwardTrace]:
    """One training step short of the update: forward, stage objective, backward.

    ``batch`` holds raw input rows; their embeddings replace its features
    (keeping its validated structure) before the stage objective runs.
    ``targets`` are the rows' classifier indices. Returns the objective, the
    parameter gradients and the forward trace for the batch-norm update.
    Non-finite batch statistics and loss terms raise ``NumericError`` by
    name (:func:`_forward_objective`).
    """
    out, trace = _forward_objective(params, batch, stage, cfg, targets)
    grads = backward(trace, params, d_embeddings=out.grad_embeddings, d_logits=out.grad_logits)
    return out, grads, trace


def train(
    dataset: SynthDataset,
    cfg: TrainConfig,
    eval_dataset: SynthDataset | None = None,
    on_epoch=None,
) -> tuple[ModelParams, list[EpochLog]]:
    """Run the full schedule and return the final parameters plus per-epoch logs.

    Identical ``(dataset, cfg)`` pairs reproduce identical parameters and logs.
    The final epoch always evaluates (on ``eval_dataset`` when given, else on
    the training set); ``eval_every=n`` adds an evaluation after every n-th
    epoch. ``on_epoch(epoch, params, log)`` is called after each epoch when
    provided, e.g. to stream logs or save checkpoints.

    Step b of epoch e trains on the batch of stream ``(seed, 1, e, b)``. No
    batch depends on the parameters, so each stage run (the consecutive
    epochs that play one stage) draws its batches with one
    :func:`~crossmodal.batch.sample_batches` call, from streams built one
    at a time, many batches ahead of their steps. A batch's error (a
    non-finite row) still comes at its own step, named ``epoch e, batch
    b``, after every earlier epoch has been logged.
    """
    check_dataset(dataset, cfg, eval_dataset)
    classes = dataset.identities
    spec = BatchSpec(cfg.p, cfg.k)
    root = RngStream(cfg.seed)
    params = init_params(
        dataset.dim,
        cfg.hidden_dim,
        cfg.embed_dim,
        n_classes=len(classes),
        rng=root.child(0),
    )
    opt = init_optim_state(params, cfg.base_lr, weight_decay=cfg.weight_decay)
    n_steps = steps_per_epoch(dataset, cfg)
    eval_ds = eval_dataset if eval_dataset is not None else dataset
    logs: list[EpochLog] = []
    for stage, run in groupby(range(cfg.epochs), key=lambda e: stage_for_epoch(cfg, e)):
        epochs = list(run)
        streams = (root.child(1, e, b) for e in epochs for b in range(n_steps))
        batches = sample_batches(dataset, spec, stage, streams)
        for epoch in epochs:
            lr = cosine_lr(epoch, cfg.epochs, cfg.base_lr, cfg.base_lr / 100.0)
            sums: dict[str, float] = defaultdict(float)
            for b in range(n_steps):
                try:
                    batch = next(batches)
                    targets = np.searchsorted(classes, batch.labels)
                    out, grads, trace = loss_and_grads(params, batch, stage, cfg.loss, targets)
                    step(opt, params, grads, lr)
                    update_bn_stats(params, trace)
                except CrossmodalError as exc:
                    raise type(exc)(f"epoch {epoch}, batch {b}: {exc}") from exc
                for key, val in out.terms.items():
                    sums[key] += val
                del out  # its mining record holds this step's block and center distances
            terms = {key: val / n_steps for key, val in sums.items()}
            report = None
            last = epoch == cfg.epochs - 1
            if last or (cfg.eval_every > 0 and (epoch + 1) % cfg.eval_every == 0):
                report = evaluate_params(params, eval_ds, cfg.eval_direction)
            log = EpochLog(epoch, stage.value, lr, terms, report)
            logs.append(log)
            if on_epoch is not None:
                on_epoch(epoch, params, log)
    return params, logs


def _mean_std(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std())


def check_ablation(
    dataset: SynthDataset,
    base_cfg: TrainConfig,
    variants: list[tuple[str, dict[str, str]]],
    seeds: list[int],
    eval_dataset: SynthDataset | None = None,
) -> list[tuple[str, TrainConfig]]:
    """Each variant's name and validated config, for :func:`ablate`'s arguments.

    An empty seed list, a negative seed, or a variant whose config is invalid
    or cannot train and score on the datasets (see :func:`check_dataset`)
    raises ``ConfigError``, naming the variant.
    """
    from .config import apply_train_overrides

    if not seeds:
        raise ConfigError("ablation needs at least one seed")
    for seed in seeds:
        RngStream(seed)  # the stream's own seed check, before any variant runs
    configs = []
    for name, delta in variants or [("base", {})]:
        try:
            cfg = apply_train_overrides(base_cfg, delta)
            check_dataset(dataset, cfg, eval_dataset)
        except ConfigError as exc:
            raise ConfigError(f"variant {name!r}: {exc}") from exc
        configs.append((name, cfg))
    return configs


def ablate(
    dataset: SynthDataset,
    base_cfg: TrainConfig,
    variants: list[tuple[str, dict[str, str]]],
    seeds: list[int],
    eval_dataset: SynthDataset | None = None,
) -> list[dict]:
    """Train every config variant over the seed list; summarize final metrics.

    ``variants`` maps a name to dotted config-key overrides (see
    :mod:`crossmodal.config`); an empty list runs the base config alone. A row
    holds ``<key>_mean``, ``_std`` and ``_values`` per ``_ABLATION_METRICS`` key.
    Arguments that :func:`check_ablation` refuses raise its ``ConfigError``
    before any run; a variant that fails while training is recorded as an
    error row and the rest still run.
    """
    configs = check_ablation(dataset, base_cfg, variants, seeds, eval_dataset)
    rows: list[dict] = []
    for name, cfg in configs:
        try:
            metrics: dict[str, list[float]] = {key: [] for key in _ABLATION_METRICS}
            for seed in seeds:
                _, logs = train(dataset, replace(cfg, seed=int(seed)), eval_dataset)
                for key, attr in _ABLATION_METRICS.items():
                    metrics[key].append(getattr(logs[-1].eval, attr))
        except CrossmodalError as exc:
            rows.append({"variant": name, "error": str(exc)})
            continue
        row: dict = {"variant": name, "seeds": len(seeds)}
        for key, values in metrics.items():
            mean, std = _mean_std(values)
            row[f"{key}_mean"] = mean
            row[f"{key}_std"] = std
            row[f"{key}_values"] = values
        rows.append(row)
    return rows


def ablation_table(rows: list[dict]) -> str:
    """Delimiter-separated summary of :func:`ablate` rows."""
    stats = [f"{key}_{s}" for key in _ABLATION_METRICS for s in ("mean", "std")]
    lines = [",".join(["variant", "seeds", *stats])]
    for row in rows:
        if "error" in row:
            lines.append(f"{row['variant']},error: {row['error']}")
            continue
        cells = [str(row["variant"]), str(row["seeds"])] + [f"{row[c]:.6f}" for c in stats]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
