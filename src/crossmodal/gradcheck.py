"""Central finite-difference verification of every analytic gradient.

Each component check draws random "general position" instances: batches are
resampled until every hinge argument, hardest-pair margin, selection
threshold, and rectifier input sits at least ``TIE_TOL`` away from
its non-smooth point, so a 1e-6 perturbation cannot flip any discrete choice.
The mining decisions are not re-derived here: one regularity test,
:func:`_regular`, reads the :class:`~crossmodal.losses.Mining` record each
loss returns, through its ``gap``, and every component keeps a candidate
whose gap is at least ``TIE_TOL``. The model checks add one local test, on
the rectifier inputs. The norm floor that keeps cosine ``msel`` well
conditioned is not a regularity test: it lives in that component's loss
function, which returns None for a batch below the floor, and a None
output is never kept. The output that judged the accepted instance is the
one whose gradient is checked; it is not computed a second time.

One table maps each component to a drawer of ``(analytic, value_fn, x)``
triples; :func:`_worst` takes their finite differences and keeps the largest
relative error (NaN if any error is NaN, so a NaN gradient fails). Every
value function takes ``x`` or a stack of copies of it: the losses, the stage
objectives and the train step accept stacked inputs and give each slice the
2-D result bit for bit (see :mod:`crossmodal.losses`). So :func:`_differences`
builds all 2N perturbations of an N-entry instance, entry i at ``x_i + h``
and at ``x_i - h`` exactly as the loop writes them, and evaluates them in
one call. The model checks' value function runs the train step's forward
and objective half (``trainer._forward_objective``) and no backward pass.
:func:`finite_difference`, the public one-coordinate loop, is the oracle
the stacked route equals bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import losses, model
from .batch import LabeledBatch, Stage
from .core import RngStream, check_int
from .errors import ConfigError
from .trainer import _forward_objective, loss_and_grads

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
#: Candidates drawn for one instance before the checker gives up.
ATTEMPTS = 200
#: Instances per component unless a caller asks for another count.
DEFAULT_INSTANCES = 20

#: The loss settings every check uses; its ``msel`` metric is euclid, so the
#: stage objectives need no norm floor.
_BASE = losses.LossConfig()


@dataclass
class ComponentResult:
    name: str
    max_rel_error: float
    instances: int
    passed: bool


def finite_difference(fn, x: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """Central differences of a scalar function over every entry of ``x``.

    The one-coordinate loop: the oracle that :func:`_differences`, which the
    checker runs, equals bit for bit. A float64 ``x`` is perturbed in place,
    one entry at a time, and each entry is restored exactly: ``fn`` may read
    ``x`` through any alias (the model check's value function views
    ``params.flat``), and ``x`` is bitwise unchanged on return.
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


def _differences(value_fn, x: np.ndarray) -> np.ndarray:
    """:func:`finite_difference` of ``value_fn`` over ``x`` at ``FD_STEP``, from one stacked call.

    ``value_fn`` maps an ``(S, *x.shape)`` stack to its ``(S,)`` values (or
    one value that no slice changes). Copy ``2i`` of the ``2N`` copies holds
    entry i at ``x_i + h``, copy ``2i + 1`` at ``x_i - h``; ``x`` is not written.
    """
    h = FD_STEP
    x = np.asarray(x, dtype=np.float64)
    flat = x.reshape(-1)
    idx = np.arange(flat.size)
    stack = np.repeat(flat[None], 2 * flat.size, axis=0)
    stack[2 * idx, idx] = flat + h
    stack[2 * idx + 1, idx] = flat - h
    values = np.broadcast_to(value_fn(stack.reshape(len(stack), *x.shape)), len(stack))
    return ((values[0::2] - values[1::2]) / (2.0 * h)).reshape(x.shape)


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst per-coordinate |a - n| / max(|a|, |n|, ``REL_FLOOR``)."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), REL_FLOOR)
    return float((np.abs(a - n) / denom).max())


def _random_batch(rng: RngStream, p: int, k: int, dim: int, pair: tuple[str, str]) -> LabeledBatch:
    feats = rng.normal(size=(2 * p * k, dim))
    labels = np.repeat(np.arange(p), 2 * k)
    mods = np.tile(np.repeat(list(pair), k), p)
    return LabeledBatch(feats, labels, mods)


def _regular(out) -> bool:
    """Whether ``out``'s inputs sit at least ``TIE_TOL`` from every kink.

    No mining record means no decision; a refused batch (None) is not regular.
    """
    return out is not None and (out.mining is None or out.mining.gap() >= TIE_TOL)


def _msel_cosine(batch: LabeledBatch):
    """Cosine ``msel``, or None for a batch with a row norm at or below 1e-2.

    The floor is a conditioning guard, not a mining decision.
    """
    feats = batch.features
    return losses.msel(batch, "cosine") if np.sqrt((feats**2).sum(axis=-1)).min() > 1e-2 else None


def _draw_until(rng: RngStream, make, regular):
    for trial in range(ATTEMPTS):
        candidate = make(rng.child(trial))
        if regular(candidate):
            return candidate
    raise ConfigError("could not find a general-position instance")


def _worst(rng: RngStream, instances: int, draw) -> float:
    """Max error over ``instances`` draws (NaN if any is NaN).

    Each draw yields ``(analytic, value_fn, x)`` triples.
    """
    errors = [
        max_rel_error(analytic, _differences(value_fn, x))
        for t in range(instances)
        for analytic, value_fn, x in draw(rng.child(t))
    ]
    return float(np.max(errors))


def _batch_loss(stage: Stage, loss_fn):
    """Gradient of a batch loss w.r.t. the features of an 18-row batch."""

    def draw(r: RngStream):
        def make(s: RngStream):
            batch = _random_batch(s, 3, 3, 4, stage.modality_pair)
            return batch, loss_fn(batch)

        batch, out = _draw_until(r, make, lambda c: _regular(c[1]))
        value = lambda f: loss_fn(replace(batch, features=f)).value
        return [(out.grad, value, batch.features)]

    return draw


def _identity(r: RngStream):
    logits = r.normal(size=(8, 5))
    labels = r.integers(0, 5, size=8)
    value = lambda z: losses.identity_loss(z, labels).value
    return [(losses.identity_loss(logits, labels).grad, value, logits)]


def _objective(stage: Stage):
    """A stage objective's gradients w.r.t. the embeddings and the logits."""

    def draw(r: RngStream):
        objective = losses.stage1_objective if stage is Stage.STAGE1 else losses.stage2_objective
        # the batch comes from child streams of r, so these are r's first draws either way
        logits = r.normal(size=(18, 3))

        def make(s: RngStream):
            batch = _random_batch(s, 3, 3, 4, stage.modality_pair)
            return batch, objective(batch, logits, batch.labels, _BASE)

        batch, out = _draw_until(r, make, lambda c: _regular(c[1]))
        labels = batch.labels
        by_emb = lambda f: objective(replace(batch, features=f), logits, labels, _BASE).value
        by_logits = lambda z: objective(batch, z, labels, _BASE).value
        return [(out.grad_embeddings, by_emb, batch.features), (out.grad_logits, by_logits, logits)]

    return draw


def _model(stage: Stage):
    """Checks :func:`~crossmodal.trainer.loss_and_grads`, the step that training runs.

    Its value function runs the step's forward and objective half only.
    """

    def draw(r: RngStream):
        p, k, in_dim, hidden, embed = 3, 2, 5, 6, 4
        raw = _random_batch(r.child(0), p, k, in_dim, stage.modality_pair).validate()

        def make(s: RngStream):
            params = model.init_params(in_dim, hidden, embed, p, s)
            return (params, *loss_and_grads(params, raw, stage, _BASE, raw.labels))

        def regular(candidate) -> bool:
            _, out, _, trace = candidate
            return np.abs(trace.z1).min() >= TIE_TOL and _regular(out)

        params, _, grads, _ = _draw_until(r.child(1), make, regular)
        value = lambda flat: _forward_objective(
            model.ModelParams.adopt(flat, params), raw, stage, _BASE, raw.labels
        )[0].value
        return [(grads.flat, value, params.flat)]

    return draw


#: Component name -> drawer, in report order. Loss functions and
#: ``_random_batch`` are looked up on each call, so a patched module is checked.
_DRAWERS = {
    "l_id": _identity,
    "l_intra": _batch_loss(Stage.STAGE1, lambda b: losses.hard_triplet_intra(b, _BASE.margin)),
    "l_global": _batch_loss(Stage.STAGE2, lambda b: losses.hard_triplet_global(b, _BASE.margin)),
    "msel_euclid": _batch_loss(Stage.STAGE2, lambda b: losses.msel(b, "euclid")),
    "msel_cosine": _batch_loss(Stage.STAGE2, _msel_cosine),
    "dcl_hard": _batch_loss(Stage.STAGE2, lambda b: losses.dcl(b, "hard")),
    "dcl_all": _batch_loss(Stage.STAGE2, lambda b: losses.dcl(b, "all")),
    "dcl_dyn": _batch_loss(Stage.STAGE2, lambda b: losses.dcl(b, "dyn")),
    "l1": _objective(Stage.STAGE1),
    "l2": _objective(Stage.STAGE2),
    "model_stage1": _model(Stage.STAGE1),
    "model_stage2": _model(Stage.STAGE2),
}
COMPONENTS = tuple(_DRAWERS)


def check_component(name: str, instances: int = DEFAULT_INSTANCES, seed: int = 0) -> float:
    """Max relative error between analytic and finite-difference gradients."""
    if name not in COMPONENTS:
        raise ConfigError(f"unknown component {name!r}, expected one of {COMPONENTS}")
    check_int("instances", instances)
    if instances < 1:
        raise ConfigError(f"instances must be >= 1, got {instances}")
    return _worst(RngStream(seed).child(COMPONENTS.index(name)), instances, _DRAWERS[name])


def run_suite(
    instances: int = DEFAULT_INSTANCES, seed: int = 0, tol: float = DEFAULT_TOL, components=None
) -> list[ComponentResult]:
    """Check ``components`` in order (all when None); a result passes at error <= ``tol``."""
    if not (np.isfinite(tol) and tol > 0):
        raise ConfigError(f"tol must be finite and > 0, got {tol}")
    results = []
    for name in COMPONENTS if components is None else components:
        err = check_component(name, instances=instances, seed=seed)
        results.append(ComponentResult(name, err, instances, err <= tol))
    return results
