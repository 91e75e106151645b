"""A small weight-shared encoder with a batch-norm neck and identity classifier.

The forward pass is ``x -> linear -> relu -> linear -> embeddings`` followed by
a 1-D batch-norm layer (the "neck") and a linear classifier on the normalized
embeddings. Metric losses consume the raw embeddings; the identity loss
consumes the logits. Training (:func:`forward`) normalizes on batch statistics;
retrieval (:func:`extract_test_features`) uses the post-norm embeddings on the
running statistics, which only an explicit :func:`update_bn_stats` call changes.

The ``TRAINABLE`` tensors of :class:`ModelParams` and :class:`ModelGrads` are
views, in ``TRAINABLE`` order, of one contiguous float64 vector ``flat``; the
batch-norm running statistics stay outside it.

A stack of S models is one ``(S, F)`` buffer: ``ModelParams.adopt`` makes
each tensor a view with a leading S axis. :func:`forward` and
:func:`backward` take such a stack (the input rows may be shared or stacked
too) and give each slice, bit for bit, what the 2-D call on that slice
gives: batched ``@`` runs the 2-D product per slice, and the batch
statistics reduce one slice's row axis in the 2-D order. The functions that
take one model (:func:`update_bn_stats`, :func:`save_checkpoint`,
``optim.step``) refuse a stack by name before writing (:func:`check_single`),
and the constructors refuse a tensor of another rank by name.
"""

from __future__ import annotations

import math
import zipfile
from dataclasses import dataclass

import numpy as np

from .core import RngStream, as_matrix, check_int
from .errors import ConfigError, DimensionError, StateError

BN_EPS = 1e-5
TRAINABLE = ("w1", "b1", "w2", "b2", "bn_gamma", "bn_beta", "wc", "bc")
#: The weight matrices; every other tensor of one model is a vector.
_MATRICES = ("w1", "w2", "wc")
_PARAM_NAMES = (*TRAINABLE, "bn_running_mean", "bn_running_var")

_CHECKPOINT_VERSION = 1
_CHECKPOINT_ACTIVATION = "relu"  # the ``activation`` field: the encoder is always rectified
_OPT_HYPER = ("base_lr", "beta1", "beta2", "eps", "weight_decay")  # the order of ``opt_hyper``


def check_encoder(**sizes: int) -> None:
    """Every given layer size an integer >= 1."""
    for name, val in sizes.items():
        check_int(name, val)
        if val < 1:
            raise ConfigError(f"{name} must be >= 1")


def check_single(fn: str, **arrays: np.ndarray) -> None:
    """Refuse, by name and before ``fn`` writes anything, an argument that is a stack of models.

    Each array is 1-D for one model: a ``flat`` buffer or a traced batch mean.
    """
    for name, arr in arrays.items():
        if arr.ndim != 1:
            raise DimensionError(f"{fn} takes one model, not a stack: {name} has shape {arr.shape}")


def _pack(obj) -> None:
    """Copy ``obj``'s trainable tensors into ``obj.flat`` and rebind each to its view.

    The constructors take one model: a tensor of another rank (a stack, say)
    raises ``DimensionError`` naming it, before anything is bound.
    """
    tensors = [np.asarray(getattr(obj, name)) for name in TRAINABLE]
    for name, t in zip(TRAINABLE, tensors):
        rank = 2 if name in _MATRICES else 1
        if t.ndim != rank:
            cls = type(obj).__name__
            raise DimensionError(
                f"{cls} takes one model: {name} has shape {t.shape}, not {rank}-D "
                f"({cls}.adopt makes a stack)"
            )
    flat = np.concatenate([t.ravel() for t in tensors], dtype=np.float64)
    _bind(obj, flat, [t.shape for t in tensors])


def _bind(obj, flat: np.ndarray, shapes) -> None:
    """Make ``flat`` ``obj``'s buffer and each trainable tensor its view, in ``TRAINABLE`` order.

    A leading stack axis of ``flat`` leads every view.
    """
    obj.flat = flat
    start = 0
    for name, shape in zip(TRAINABLE, shapes):
        size = math.prod(shape)
        setattr(obj, name, flat[..., start : start + size].reshape(flat.shape[:-1] + shape))
        start += size


def _adopt(cls, flat: np.ndarray, like, **fields):
    """A ``cls`` whose trainable tensors, shaped per slice as ``like``'s, are views of ``flat``."""
    obj = cls.__new__(cls)
    for name, value in fields.items():
        setattr(obj, name, value)
    lead = like.flat.ndim - 1
    _bind(obj, flat, [getattr(like, name).shape[lead:] for name in TRAINABLE])
    return obj


@dataclass
class ModelParams:
    """All parameter tensors plus the batch-norm running statistics."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    bn_gamma: np.ndarray
    bn_beta: np.ndarray
    bn_running_mean: np.ndarray
    bn_running_var: np.ndarray
    wc: np.ndarray
    bc: np.ndarray

    def __post_init__(self):
        _pack(self)

    @classmethod
    def adopt(cls, flat: np.ndarray, like: "ModelParams") -> "ModelParams":
        """``like``'s tensors as views of ``flat``, ``(F,)`` or a stack ``(S, F)``.

        The running statistics are ``like``'s own arrays.
        """
        stats = {"bn_running_mean": like.bn_running_mean, "bn_running_var": like.bn_running_var}
        return _adopt(cls, flat, like, **stats)

    @property
    def in_dim(self) -> int:
        return self.w1.shape[-2]

    @property
    def hidden_dim(self) -> int:
        return self.w1.shape[-1]

    @property
    def embed_dim(self) -> int:
        return self.w2.shape[-1]

    @property
    def n_classes(self) -> int:
        return self.wc.shape[-1]

    def copy(self) -> "ModelParams":
        """A deep copy; a stack keeps its ``(S, F)`` layout."""
        mean, var = self.bn_running_mean.copy(), self.bn_running_var.copy()
        return _adopt(ModelParams, self.flat.copy(), self, bn_running_mean=mean, bn_running_var=var)


@dataclass
class ModelGrads:
    """Gradients (or Adam moments) for every trainable tensor, also indexable by name."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    bn_gamma: np.ndarray
    bn_beta: np.ndarray
    wc: np.ndarray
    bc: np.ndarray

    def __post_init__(self):
        _pack(self)

    @classmethod
    def adopt(cls, flat: np.ndarray, like: ModelParams) -> "ModelGrads":
        """Tensors shaped like ``like``'s that are views of ``flat`` itself, not a copy."""
        return _adopt(cls, flat, like)

    def __getitem__(self, name: str) -> np.ndarray:
        return getattr(self, name)


@dataclass
class ForwardTrace:
    """Intermediate tensors cached by forward for the backward pass."""

    x: np.ndarray
    z1: np.ndarray
    a1: np.ndarray
    embeddings: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    istd: np.ndarray
    xhat: np.ndarray
    bn_embeddings: np.ndarray
    logits: np.ndarray


def init_params(
    in_dim: int,
    hidden_dim: int,
    embed_dim: int,
    n_classes: int,
    rng: RngStream,
) -> ModelParams:
    """Gaussian(0, 2/fan_in) weights, zero biases, unit-gain batch norm."""
    check_encoder(in_dim=in_dim, hidden_dim=hidden_dim, embed_dim=embed_dim, n_classes=n_classes)
    return ModelParams(
        w1=rng.normal(scale=np.sqrt(2.0 / in_dim), size=(in_dim, hidden_dim)),
        b1=np.zeros(hidden_dim),
        w2=rng.normal(scale=np.sqrt(2.0 / hidden_dim), size=(hidden_dim, embed_dim)),
        b2=np.zeros(embed_dim),
        bn_gamma=np.ones(embed_dim),
        bn_beta=np.zeros(embed_dim),
        bn_running_mean=np.zeros(embed_dim),
        bn_running_var=np.ones(embed_dim),
        wc=rng.normal(scale=np.sqrt(2.0 / embed_dim), size=(embed_dim, n_classes)),
        bc=np.zeros(n_classes),
    )


def _rows(v: np.ndarray) -> np.ndarray:
    """A per-column vector, or a stack of them, broadcastable over its matrices' rows."""
    return v if v.ndim == 1 else v[..., None, :]


def _t(m: np.ndarray) -> np.ndarray:
    """Transpose of a matrix, or of each matrix of a stack."""
    return m.swapaxes(-1, -2)


def _encode(params: ModelParams, x) -> tuple[np.ndarray, ...]:
    """``x -> linear -> relu -> linear``: the input matrix, ``z1``, ``a1`` and the embeddings."""
    xm = as_matrix(x, stack=True)
    if xm.shape[-1] != params.in_dim:
        raise DimensionError(f"input has {xm.shape[-1]} dims, model expects {params.in_dim}")
    z1 = xm @ params.w1 + _rows(params.b1)
    a1 = np.maximum(z1, 0.0)
    return xm, z1, a1, a1 @ params.w2 + _rows(params.b2)


def _neck(params: ModelParams, emb, mean, var) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batch-norm ``emb`` with the given statistics: ``istd``, ``xhat`` and the output."""
    istd = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (emb - _rows(mean)) * _rows(istd)
    return istd, xhat, _rows(params.bn_gamma) * xhat + _rows(params.bn_beta)


def forward(params: ModelParams, x) -> tuple[np.ndarray, np.ndarray, np.ndarray, ForwardTrace]:
    """Encoder, neck on batch statistics, classifier: ``(emb, bn_emb, logits, trace)``."""
    xm, z1, a1, emb = _encode(params, x)
    if xm.shape[-2] < 2:
        raise ConfigError("batch norm on batch statistics needs at least 2 rows")
    mean, var = emb.mean(axis=-2), emb.var(axis=-2)
    istd, xhat, bn = _neck(params, emb, mean, var)
    logits = bn @ params.wc + _rows(params.bc)
    trace = ForwardTrace(xm, z1, a1, emb, mean, var, istd, xhat, bn, logits)
    return emb, bn, logits, trace


def backward(
    trace: ForwardTrace,
    params: ModelParams,
    d_embeddings: np.ndarray | None = None,
    d_logits: np.ndarray | None = None,
) -> ModelGrads:
    """Merge the two upstream gradient paths and backpropagate to all parameters.

    The optional upstreams are gradients with respect to the raw embeddings
    and the logits; a missing one is treated as zero.
    """
    n = trace.x.shape[-2]
    if d_logits is None:
        d_logits = np.zeros_like(trace.logits)
    else:
        d_logits = np.asarray(d_logits, dtype=np.float64)
        if d_logits.shape != trace.logits.shape:
            raise DimensionError("d_logits shape does not match the traced logits")
    # every gradient is written straight into its slice of one flat buffer
    grads = ModelGrads.adopt(np.empty_like(params.flat), params)
    np.matmul(_t(trace.bn_embeddings), d_logits, out=grads.wc)
    d_logits.sum(axis=-2, out=grads.bc)

    d_bn = d_logits @ _t(params.wc)
    (d_bn * trace.xhat).sum(axis=-2, out=grads.bn_gamma)
    d_bn.sum(axis=-2, out=grads.bn_beta)
    dxhat = d_bn * _rows(params.bn_gamma)
    xmu = trace.embeddings - _rows(trace.mean)
    dvar = (dxhat * xmu).sum(axis=-2) * (-0.5) * trace.istd**3
    dmean = -dxhat.sum(axis=-2) * trace.istd + dvar * (-2.0) * xmu.mean(axis=-2)
    d_emb = dxhat * _rows(trace.istd) + _rows(dvar) * 2.0 * xmu / n + _rows(dmean) / n

    if d_embeddings is not None:
        d_embeddings = np.asarray(d_embeddings, dtype=np.float64)
        if d_embeddings.shape != trace.embeddings.shape:
            raise DimensionError("d_embeddings shape does not match the trace")
        d_emb = d_emb + d_embeddings

    np.matmul(_t(trace.a1), d_emb, out=grads.w2)
    d_emb.sum(axis=-2, out=grads.b2)
    d_a1 = d_emb @ _t(params.w2)
    d_z1 = d_a1 * (trace.z1 > 0)
    np.matmul(_t(trace.x), d_z1, out=grads.w1)
    d_z1.sum(axis=-2, out=grads.b1)
    return grads


def update_bn_stats(params: ModelParams, trace: ForwardTrace, momentum: float = 0.1) -> None:
    """Fold the traced batch statistics into the running statistics, in place.

    Uses the usual convention: biased variance normalizes the batch, the
    unbiased estimate feeds the running average.
    """
    if not 0.0 < momentum <= 1.0:
        raise ConfigError("momentum must lie in (0, 1]")
    check_single("update_bn_stats", params=params.flat, trace=trace.mean)
    n = trace.x.shape[0]
    unbiased = trace.var * n / (n - 1) if n > 1 else trace.var
    params.bn_running_mean *= 1.0 - momentum
    params.bn_running_mean += momentum * trace.mean
    params.bn_running_var *= 1.0 - momentum
    params.bn_running_var += momentum * unbiased


def extract_test_features(params: ModelParams, x) -> np.ndarray:
    """Row-wise post-norm embeddings on the running statistics (``StateError`` if invalid)."""
    _, _, _, emb = _encode(params, x)
    mean, var = params.bn_running_mean, params.bn_running_var
    if not (np.isfinite(mean).all() and np.isfinite(var).all() and (var > 0).all()):
        raise StateError("batch-norm running statistics are invalid")
    return _neck(params, emb, mean, var)[2]


def save_checkpoint(path, params: ModelParams, optim_state=None) -> None:
    """Write a versioned binary dump of all tensors (and optimizer state if given).

    The format is a numpy ``.npz`` archive; float64 arrays round-trip exactly.
    """
    moments = {} if optim_state is None else {"m": optim_state.m.flat, "v": optim_state.v.flat}
    check_single("save_checkpoint", params=params.flat, **moments)
    arrays: dict[str, np.ndarray] = {
        "format_version": np.array(_CHECKPOINT_VERSION),
        "activation": np.array(_CHECKPOINT_ACTIVATION),
    }
    for name in _PARAM_NAMES:
        arrays[f"param_{name}"] = getattr(params, name)
    if optim_state is not None:
        arrays["opt_step_count"] = np.array(optim_state.step_count)
        arrays["opt_hyper"] = np.array([getattr(optim_state, key) for key in _OPT_HYPER])
        for moment in ("m", "v"):
            for name in TRAINABLE:
                arrays[f"opt_{moment}_{name}"] = getattr(optim_state, moment)[name]
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path):
    """Read a checkpoint back into ``(ModelParams, OptimState | None)``.

    A file that is not a readable ``.npz`` archive (truncated, corrupted, a
    bare ``.npy`` array, or something else entirely), that lacks a field, whose
    ``activation`` is not ``relu``, or whose tensors have the wrong shape or
    non-finite values raises ``StateError`` naming the path and, when one is
    at fault, the field.
    """
    try:
        return _read_checkpoint(path)
    except KeyError as exc:  # numpy's message: "<field> is not a file in the archive"
        raise StateError(f"checkpoint {path}: {exc.args[0]}") from exc
    except (zipfile.BadZipFile, ValueError) as exc:
        raise StateError(f"checkpoint {path} is not a readable .npz archive: {exc}") from exc


def _read_checkpoint(path):
    from .optim import OptimState

    data = np.load(path)
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise StateError(f"checkpoint {path} is not a readable .npz archive: it holds a bare array")
    with data:
        version = int(data["format_version"])
        if version != _CHECKPOINT_VERSION:
            raise StateError(f"unsupported checkpoint version {version}")
        activation = str(data["activation"])
        if activation != _CHECKPOINT_ACTIVATION:
            raise StateError(f"checkpoint {path}: activation is {activation!r}, not 'relu'")
        has_optim = "opt_step_count" in data
        shapes = _field_shapes(path, *(data[f"param_{name}"] for name in ("w1", "w2", "wc")))
        arrays = {
            key: _check_tensor(path, key, data[key], shape)
            for key, shape in shapes.items()
            if has_optim or key.startswith("param_")
        }
        params = ModelParams(**{name: arrays[f"param_{name}"] for name in _PARAM_NAMES})
        optim_state = None
        if has_optim:
            optim_state = OptimState(
                **dict(zip(_OPT_HYPER, arrays["opt_hyper"].tolist())),
                step_count=int(data["opt_step_count"]),
                m=ModelGrads(**{name: arrays[f"opt_m_{name}"] for name in TRAINABLE}),
                v=ModelGrads(**{name: arrays[f"opt_v_{name}"] for name in TRAINABLE}),
            )
    return params, optim_state


def _field_shapes(path, w1, w2, wc) -> dict[str, tuple[int, ...]]:
    """Every tensor field's shape as implied by the three weight matrices."""
    for name, arr in (("w1", w1), ("w2", w2), ("wc", wc)):
        if arr.ndim != 2:
            raise StateError(f"checkpoint {path}: param_{name} has shape {arr.shape}, not 2-D")
    (in_dim, hidden), embed, classes = w1.shape, w2.shape[1], wc.shape[1]
    shapes = {
        "w1": (in_dim, hidden),
        "b1": (hidden,),
        "w2": (hidden, embed),
        "b2": (embed,),
        "bn_gamma": (embed,),
        "bn_beta": (embed,),
        "wc": (embed, classes),
        "bc": (classes,),
        "bn_running_mean": (embed,),
        "bn_running_var": (embed,),
    }
    return {
        **{f"param_{name}": shape for name, shape in shapes.items()},
        "opt_hyper": (len(_OPT_HYPER),),
        **{f"opt_{kind}_{name}": shapes[name] for kind in "mv" for name in TRAINABLE},
    }


def _check_tensor(path, field: str, arr: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if arr.shape != shape:
        raise StateError(f"checkpoint {path}: {field} has shape {arr.shape}, expected {shape}")
    if arr.dtype.kind not in "iuf":
        raise StateError(f"checkpoint {path}: {field} has dtype {arr.dtype}, not a real number")
    if not np.isfinite(arr).all():
        raise StateError(f"checkpoint {path}: {field} has non-finite values")
    return arr
