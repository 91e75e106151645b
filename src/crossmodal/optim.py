"""Decoupled-weight-decay Adam and the cosine learning-rate schedule.

:func:`step` updates ``params.flat`` and the moment vectors ``state.m.flat`` and
``state.v.flat`` in one elementwise pass, with no loop over the tensors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .model import TRAINABLE, ModelGrads, ModelParams, check_single


@dataclass
class OptimState:
    """First/second moment accumulators plus the step counter and hyperparameters."""

    base_lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 1e-4
    step_count: int = 0
    m: ModelGrads | None = None
    v: ModelGrads | None = None


def check_adam(
    base_lr: float, weight_decay: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8
) -> None:
    """Adam's bounds: finite base_lr, weight_decay >= 0, eps > 0, betas in [0, 1); NaN fails."""
    if not (0 <= base_lr < np.inf and eps > 0 and 0 <= weight_decay < np.inf):
        raise ConfigError("base_lr/weight_decay must be finite and >= 0, and eps > 0")
    if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
        raise ConfigError("betas must lie in [0, 1)")


def init_optim_state(
    params: ModelParams,
    base_lr: float = 3e-4,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    weight_decay: float = 1e-4,
) -> OptimState:
    """Zeroed moments shaped like every trainable tensor."""
    check_adam(base_lr, weight_decay, beta1, beta2, eps)
    return OptimState(
        base_lr=base_lr,
        beta1=beta1,
        beta2=beta2,
        eps=eps,
        weight_decay=weight_decay,
        m=ModelGrads.adopt(np.zeros_like(params.flat), params),
        v=ModelGrads.adopt(np.zeros_like(params.flat), params),
    )


def step(state: OptimState, params: ModelParams, grads: ModelGrads, lr: float | None = None) -> None:
    """One bias-corrected moment update with weight decay applied directly to params.

    Gradients are checked before the update: a non-finite entry rejects the
    whole step and leaves state and params untouched. Parameters are checked
    after it, so an update that overflows fails on its own step, with a
    ``NumericError`` naming the tensor and the step count.
    """
    check_single("step", params=params.flat, grads=grads.flat, m=state.m.flat, v=state.v.flat)
    if lr is None:
        lr = state.base_lr
    if lr < 0:
        raise ConfigError("learning rate must be >= 0")
    if not np.isfinite(grads.flat).all():
        raise NumericError(f"non-finite gradient for {_first_nonfinite(grads)}; step rejected")
    state.step_count += 1
    c1 = 1.0 - state.beta1**state.step_count
    c2 = 1.0 - state.beta2**state.step_count
    g, m, v, p = grads.flat, state.m.flat, state.v.flat, params.flat
    with np.errstate(over="ignore", invalid="ignore"):  # the check below names the tensor
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p -= lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
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
