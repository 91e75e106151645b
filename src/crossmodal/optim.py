"""Decoupled-weight-decay Adam and the cosine learning-rate schedule.

Adam's moment decays and ε are the standard ``BETA1``, ``BETA2`` and ``EPS``;
only the base learning rate and the weight decay are settings, with defaults
``DEFAULT_BASE_LR`` and ``DEFAULT_WEIGHT_DECAY`` (read by ``trainer.TrainConfig``).
:func:`step` updates ``params.flat`` and the moment vectors ``state.m.flat`` and
``state.v.flat`` in one elementwise pass, with no loop over the tensors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .model import TRAINABLE, ModelGrads, ModelParams, check_single

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
DEFAULT_BASE_LR = 3e-4
DEFAULT_WEIGHT_DECAY = 1e-4


@dataclass
class OptimState:
    """First/second moment accumulators plus the step counter and the two settings."""

    base_lr: float
    weight_decay: float
    step_count: int
    m: ModelGrads
    v: ModelGrads


def check_adam(base_lr: float, weight_decay: float) -> None:
    """Finite base_lr and weight_decay, each >= 0; NaN fails."""
    if not (0 <= base_lr < np.inf and 0 <= weight_decay < np.inf):
        raise ConfigError("base_lr/weight_decay must be finite and >= 0")


def init_optim_state(
    params: ModelParams,
    base_lr: float = DEFAULT_BASE_LR,
    weight_decay: float = DEFAULT_WEIGHT_DECAY,
) -> OptimState:
    """Zeroed moments shaped like every trainable tensor."""
    check_adam(base_lr, weight_decay)
    m, v = (ModelGrads.adopt(np.zeros_like(params.flat), params) for _ in "mv")
    return OptimState(base_lr, weight_decay, step_count=0, m=m, v=v)


def step(state: OptimState, params: ModelParams, grads: ModelGrads, lr: float) -> None:
    """One bias-corrected moment update at learning rate ``lr``, weight decay applied to params.

    Gradients are checked before the update: a non-finite entry rejects the
    whole step and leaves state and params untouched. Parameters are checked
    after it, so an update that overflows fails on its own step, with a
    ``NumericError`` naming the tensor and the step count.
    """
    check_single("step", params=params.flat, grads=grads.flat, m=state.m.flat, v=state.v.flat)
    if not 0 <= lr < np.inf:
        raise ConfigError(f"learning rate must be finite and >= 0, got {lr}")
    if not np.isfinite(grads.flat).all():
        raise NumericError(f"non-finite gradient for {_first_nonfinite(grads)}; step rejected")
    state.step_count += 1
    c1 = 1.0 - BETA1**state.step_count
    c2 = 1.0 - BETA2**state.step_count
    g, m, v, p = grads.flat, state.m.flat, state.v.flat, params.flat
    with np.errstate(over="ignore", invalid="ignore"):  # the check below names the tensor
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        p -= lr * (m / c1) / (np.sqrt(v / c2) + EPS)
        if state.weight_decay != 0.0:
            p -= lr * state.weight_decay * p
    if not np.isfinite(p).all():
        name = _first_nonfinite(params)
        raise NumericError(f"non-finite parameter {name} after step {state.step_count}")


def _first_nonfinite(tensors) -> str:
    return next(name for name in TRAINABLE if not np.isfinite(getattr(tensors, name)).all())


def cosine_lr(epoch: float, total_epochs: int, base_lr: float, min_lr: float) -> float:
    """Half-cosine interpolation from base_lr (epoch 0) down to min_lr (final epoch)."""
    if total_epochs <= 0:
        raise ConfigError("total_epochs must be >= 1")
    if not 0 <= epoch <= total_epochs:
        raise ConfigError(f"epoch {epoch} outside [0, {total_epochs}]")
    if not 0 <= min_lr <= base_lr:
        raise ConfigError("need 0 <= min_lr <= base_lr")
    return min_lr + 0.5 * (base_lr - min_lr) * (1.0 + np.cos(np.pi * epoch / total_epochs))
