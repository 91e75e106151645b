"""Central finite-difference verification of every analytic gradient.

Each component check draws random "general position" instances: batches are
resampled until every hinge argument, hardest-pair margin, selection
threshold, and rectifier pre-activation sits at least ``TIE_TOL`` away from
its non-smooth point, so a 1e-6 perturbation cannot flip any discrete choice.
The mining decisions are not re-derived here: regularity reads the
:class:`~crossmodal.losses.Mining` record each loss returns, through its
``gap``. Only two tests are local: the rectifier pre-activations of the model
check, and the norm floor that keeps cosine ``msel`` well conditioned.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import losses, model
from .batch import LabeledBatch, Stage
from .core import RngStream
from .errors import ConfigError
from .trainer import loss_and_grads

FD_STEP = 1e-6
TIE_TOL = 1e-4
DEFAULT_TOL = 1e-5
#: Relative-error floor: coordinates where both gradients are below this are
#: compared absolutely (|a - n| <= tol * REL_FLOOR, i.e. 1e-7 at the default
#: tol). Central differences of a value f carry ~ulp(f)/(2h) >= 1e-9 of
#: cancellation noise even for exactly-zero gradients (embedding-space
#: translations, dead rectifier units), so the floor must sit well above
#: noise/tol = 1e-4 for the ratio to measure the analytic formula and not
#: the arithmetic.
REL_FLOOR = 1e-2

COMPONENTS = (
    "l_id",
    "l_intra",
    "l_global",
    "msel_euclid",
    "msel_cosine",
    "dcl_hard",
    "dcl_all",
    "dcl_dyn",
    "l1",
    "l2",
    "model_stage1",
    "model_stage2",
)


@dataclass
class ComponentResult:
    name: str
    max_rel_error: float
    instances: int
    passed: bool


def finite_difference(fn, x: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """Central differences of a scalar function over every entry of ``x``.

    A float64 ``x`` is perturbed in place, one entry at a time, and each entry
    is restored exactly: ``fn`` may read ``x`` through any alias (the model
    check perturbs ``params.flat``), and ``x`` is bitwise unchanged on return.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = fn(x)
        flat[i] = orig - h
        lo = fn(x)
        flat[i] = orig
        out[i] = (hi - lo) / (2.0 * h)
    return grad


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = REL_FLOOR) -> float:
    """Worst per-coordinate |a - n| / max(|a|, |n|, floor)."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float((np.abs(a - n) / denom).max())


def _random_batch(rng: RngStream, p: int, k: int, dim: int, pair: tuple[str, str]) -> LabeledBatch:
    feats = rng.normal(size=(2 * p * k, dim))
    labels = np.repeat(np.arange(p), 2 * k)
    mods = np.tile(np.repeat(list(pair), k), p)
    return LabeledBatch(feats, labels, mods)


def _gap(out) -> float:
    """Distance from ``out``'s inputs to its nearest kink; no record, no decision."""
    return np.inf if out.mining is None else out.mining.gap()


def _general(out, feats: np.ndarray, stage: Stage, cfg: losses.LossConfig) -> bool:
    """A stage objective's output is ``TIE_TOL`` from every kink and conditioned."""
    cosine = stage is Stage.STAGE2 and cfg.msel_metric == "cosine"
    return _gap(out) >= TIE_TOL and (not cosine or _norm_floored(feats))


def _norm_floored(feats: np.ndarray) -> bool:
    """Cosine ``msel`` conditioning guard, not a mining decision: no row near 0."""
    return bool(np.sqrt((feats**2).sum(axis=1)).min() > 1e-2)


def _draw_until(rng: RngStream, make, regular, attempts: int = 200):
    for trial in range(attempts):
        candidate = make(rng.child(trial))
        if regular(candidate):
            return candidate
    raise ConfigError("could not find a general-position instance")


def _check_batch_loss(rng, stage: Stage, loss_fn, instances, regular=None):
    regular = regular or (lambda b: _gap(loss_fn(b)) >= TIE_TOL)
    worst = 0.0
    for t in range(instances):
        batch = _draw_until(
            rng.child(t), lambda r: _random_batch(r, 3, 3, 4, stage.modality_pair), regular
        )
        analytic = loss_fn(batch).grad
        fd = finite_difference(
            lambda f: loss_fn(replace(batch, features=f.copy())).value, batch.features
        )
        worst = max(worst, max_rel_error(analytic, fd))
    return worst


def _check_identity(rng: RngStream, instances: int) -> float:
    worst = 0.0
    for t in range(instances):
        r = rng.child(t)
        n, c = 8, 5
        logits = r.normal(size=(n, c))
        labels = r.integers(0, c, size=n)
        analytic = losses.identity_loss(logits, labels).grad
        fd = finite_difference(lambda z: losses.identity_loss(z, labels).value, logits)
        worst = max(worst, max_rel_error(analytic, fd))
    return worst


def _check_objective(rng: RngStream, stage: Stage, cfg: losses.LossConfig, instances: int) -> float:
    pair = stage.modality_pair
    objective = losses.stage1_objective if stage is Stage.STAGE1 else losses.stage2_objective
    worst = 0.0
    for t in range(instances):
        r = rng.child(t)
        # the batch comes from child streams of r, so these are r's first draws either way
        logits = r.normal(size=(18, 3))
        batch = _draw_until(
            r,
            lambda s: _random_batch(s, 3, 3, 4, pair),
            lambda b: _general(objective(b, logits, b.labels, cfg), b.features, stage, cfg),
        )
        labels = batch.labels
        out = objective(batch, logits, labels, cfg)
        fd_emb = finite_difference(
            lambda f: objective(replace(batch, features=f.copy()), logits, labels, cfg).value,
            batch.features,
        )
        fd_logits = finite_difference(
            lambda z: objective(batch, z, labels, cfg).value, logits
        )
        worst = max(worst, max_rel_error(out.grad_embeddings, fd_emb))
        worst = max(worst, max_rel_error(out.grad_logits, fd_logits))
    return worst


def _check_model(rng: RngStream, stage: Stage, cfg: losses.LossConfig, instances: int) -> float:
    """Checks :func:`~crossmodal.trainer.loss_and_grads`, the step that training runs."""
    pair = stage.modality_pair
    worst = 0.0
    for t in range(instances):
        r = rng.child(t)
        p, k, in_dim, hidden, embed = 3, 2, 5, 6, 4
        raw = _random_batch(r.child(0), p, k, in_dim, pair).validate()
        for attempt in range(200):
            params = model.init_params(in_dim, hidden, embed, p, r.child(1, attempt))
            out, grads, trace = loss_and_grads(params, raw, stage, cfg, raw.labels)
            kinked = params.activation == "relu" and np.abs(trace.z1).min() < TIE_TOL
            if not kinked and _general(out, trace.embeddings, stage, cfg):
                break
        else:
            raise ConfigError("could not find a general-position model instance")
        fd = finite_difference(
            lambda _: loss_and_grads(params, raw, stage, cfg, raw.labels)[0].value, params.flat
        )
        worst = max(worst, max_rel_error(grads.flat, fd))
    return worst


def check_component(name: str, instances: int = 20, seed: int = 0) -> float:
    """Max relative error between analytic and finite-difference gradients."""
    if name not in COMPONENTS:
        raise ConfigError(f"unknown component {name!r}, expected one of {COMPONENTS}")
    if instances < 1:
        raise ConfigError(f"instances must be >= 1, got {instances}")
    rng = RngStream(seed).child(COMPONENTS.index(name))
    base = losses.LossConfig()
    if name == "l_id":
        return _check_identity(rng, instances)
    if name in ("l_intra", "l_global"):
        triplet = losses.hard_triplet_intra if name == "l_intra" else losses.hard_triplet_global
        stage = Stage.STAGE1 if name == "l_intra" else Stage.STAGE2
        return _check_batch_loss(rng, stage, lambda b: triplet(b, base.margin), instances)
    if name.startswith("msel_"):
        metric = name.split("_", 1)[1]
        regular = (
            (lambda b: _gap(losses.msel(b, metric)) > TIE_TOL)  # msel's test is strict
            if metric == "euclid"
            else (lambda b: _norm_floored(b.features))
        )
        return _check_batch_loss(
            rng, Stage.STAGE2, lambda b: losses.msel(b, metric), instances, regular
        )
    if name.startswith("dcl_"):
        mode = name.split("_", 1)[1]
        return _check_batch_loss(rng, Stage.STAGE2, lambda b: losses.dcl(b, mode), instances)
    if name == "l1":
        return _check_objective(rng, Stage.STAGE1, base, instances)
    if name == "l2":
        return _check_objective(rng, Stage.STAGE2, base, instances)
    if name == "model_stage1":
        return _check_model(rng, Stage.STAGE1, base, instances)
    return _check_model(rng, Stage.STAGE2, base, instances)


def run_suite(
    instances: int = 20, seed: int = 0, tol: float = DEFAULT_TOL, components=None
) -> list[ComponentResult]:
    """Check every (or the given) component; results carry pass/fail at ``tol``."""
    if not (np.isfinite(tol) and tol > 0):
        raise ConfigError(f"tol must be finite and > 0, got {tol}")
    results = []
    for name in components or COMPONENTS:
        err = check_component(name, instances=instances, seed=seed)
        results.append(ComponentResult(name, err, instances, err <= tol))
    return results
