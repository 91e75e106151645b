"""A small weight-shared encoder with a batch-norm neck and identity classifier.

The forward pass is ``x -> linear -> relu -> linear -> embeddings`` followed by
a 1-D batch-norm layer (the "neck") and a linear classifier on the normalized
embeddings. Metric losses consume the raw embeddings; the identity loss
consumes the logits. Training (:func:`forward`) normalizes on batch statistics,
and runs the neck and classifier (the "head") only when asked: a step whose
objective reads no logits takes the batch statistics and skips the head, and
its :func:`backward` leaves the head's gradients at zero. Retrieval
(:func:`extract_test_features`) uses the post-norm embeddings on the running
statistics, which only an explicit :func:`update_bn_stats` call changes, with
the standard momentum ``BN_MOMENTUM``.

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
BN_MOMENTUM = 0.1
#: Each stored tensor's shape, one letter per axis for the layer size it spans
#: (input, hidden, embedding, classes). The trainable tensors come first, in
#: the order they lie in ``flat``; the batch-norm running statistics come last.
_SHAPES = dict(
    w1="ih", b1="h", w2="he", b2="e", bn_gamma="e", bn_beta="e", wc="ec", bc="c",
    bn_running_mean="e", bn_running_var="e",
)
TRAINABLE = tuple(_SHAPES)[:-2]

_CHECKPOINT_VERSION = 1
_CHECKPOINT_ACTIVATION = "relu"  # the ``activation`` field: the encoder is always rectified
#: The dtype kinds a checkpoint field may have, by what it holds.
_KINDS = {"a real number": "iuf", "an integer": "iu", "a string": "U"}


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
        rank = len(_SHAPES[name])
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


@dataclass(eq=False)
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


@dataclass(eq=False)
class ModelGrads:
    """Gradients (or Adam moments) for every trainable tensor."""

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


@dataclass(eq=False)
class ForwardTrace:
    """Intermediate tensors cached by forward for the backward pass.

    A head-free trace (``forward(..., head=False)``) holds the encoder's
    tensors and the batch statistics; its neck and logits fields are None.
    """

    x: np.ndarray
    z1: np.ndarray
    a1: np.ndarray
    embeddings: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    istd: np.ndarray | None = None
    xhat: np.ndarray | None = None
    bn_embeddings: np.ndarray | None = None
    logits: np.ndarray | None = None


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


def forward(
    params: ModelParams, x, head: bool = True
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None, ForwardTrace]:
    """Encoder, neck on batch statistics, classifier: ``(emb, bn_emb, logits, trace)``.

    With ``head=False`` the batch statistics are still taken (they feed
    :func:`update_bn_stats`) but the neck and classifier do not run:
    ``bn_emb`` and ``logits`` are None, and the trace is head-free.
    """
    xm, z1, a1, emb = _encode(params, x)
    if xm.shape[-2] < 2:
        raise ConfigError("batch norm on batch statistics needs at least 2 rows")
    mean, var = emb.mean(axis=-2), emb.var(axis=-2)
    if not head:
        return emb, None, None, ForwardTrace(xm, z1, a1, emb, mean, var)
    istd, xhat, bn = _neck(params, emb, mean, var)
    logits = bn @ params.wc + _rows(params.bc)
    trace = ForwardTrace(xm, z1, a1, emb, mean, var, istd, xhat, bn, logits)
    return emb, bn, logits, trace


def backward(
    trace: ForwardTrace, params: ModelParams, d_embeddings: np.ndarray, d_logits: np.ndarray | None
) -> ModelGrads:
    """Merge the two upstream gradient paths and backpropagate to all parameters.

    The upstreams are gradients with respect to the raw embeddings and the
    logits. With ``d_logits`` None there is no logits upstream: the head's
    gradients (``bn_gamma``, ``bn_beta``, ``wc``, ``bc``) are zeros and the
    embeddings' gradient is ``d_embeddings`` alone. A head-free trace takes
    no logits upstream (``DimensionError``).
    """
    d_embeddings = np.asarray(d_embeddings, dtype=np.float64)
    if d_embeddings.shape != trace.embeddings.shape:
        raise DimensionError("d_embeddings shape does not match the trace")
    # every gradient is written straight into its slice of one flat buffer; with
    # no logits upstream the head's slices keep their zeros
    grads = ModelGrads.adopt(np.zeros_like(params.flat), params)
    d_emb = d_embeddings
    if d_logits is not None:
        if trace.logits is None:
            raise DimensionError("d_logits given for a head-free trace, which has no logits")
        d_logits = np.asarray(d_logits, dtype=np.float64)
        if d_logits.shape != trace.logits.shape:
            raise DimensionError("d_logits shape does not match the traced logits")
        n = trace.x.shape[-2]
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
        d_emb = d_emb + d_embeddings

    np.matmul(_t(trace.a1), d_emb, out=grads.w2)
    d_emb.sum(axis=-2, out=grads.b2)
    d_a1 = d_emb @ _t(params.w2)
    d_z1 = d_a1 * (trace.z1 > 0)
    np.matmul(_t(trace.x), d_z1, out=grads.w1)
    d_z1.sum(axis=-2, out=grads.b1)
    return grads


def update_bn_stats(params: ModelParams, trace: ForwardTrace) -> None:
    """Fold the traced batch statistics into the running statistics, in place.

    Uses the usual convention: biased variance normalizes the batch, the
    unbiased estimate feeds the running average, and each average moves by
    ``BN_MOMENTUM``. The trace has at least 2 rows, since :func:`forward`
    refuses fewer.
    """
    check_single("update_bn_stats", params=params.flat, trace=trace.mean)
    n = trace.x.shape[0]
    unbiased = trace.var * n / (n - 1)
    params.bn_running_mean *= 1.0 - BN_MOMENTUM
    params.bn_running_mean += BN_MOMENTUM * trace.mean
    params.bn_running_var *= 1.0 - BN_MOMENTUM
    params.bn_running_var += BN_MOMENTUM * unbiased


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
    The optimizer's ``opt_hyper`` holds ``(base_lr, β1, β2, ε, weight_decay)``,
    the middle three being ``optim``'s constants.
    """
    moments = {} if optim_state is None else {"m": optim_state.m.flat, "v": optim_state.v.flat}
    check_single("save_checkpoint", params=params.flat, **moments)
    arrays: dict[str, np.ndarray] = {
        "format_version": np.array(_CHECKPOINT_VERSION),
        "activation": np.array(_CHECKPOINT_ACTIVATION),
    }
    for name in _SHAPES:
        arrays[f"param_{name}"] = getattr(params, name)
    if optim_state is not None:
        from .optim import BETA1, BETA2, EPS

        arrays["opt_step_count"] = np.array(optim_state.step_count)
        hyper = [optim_state.base_lr, BETA1, BETA2, EPS, optim_state.weight_decay]
        arrays["opt_hyper"] = np.array(hyper)
        for moment in ("m", "v"):
            for name in TRAINABLE:
                arrays[f"opt_{moment}_{name}"] = getattr(getattr(optim_state, moment), name)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path):
    """Read a checkpoint back into ``(ModelParams, OptimState | None)``.

    A file that is not a readable ``.npz`` archive (truncated, corrupted, a
    bare ``.npy`` array, or something else entirely), that lacks a field, or
    whose field fails its check raises ``StateError`` naming the path and,
    when one is at fault, the field. Each field must have its shape, a real
    dtype (``format_version`` and ``opt_step_count`` an integer one,
    ``activation`` a string) and finite values; then ``format_version`` must be
    1, ``activation`` ``relu``, ``opt_step_count`` >= 0, and ``opt_hyper`` must
    hold ``optim``'s constants and a ``base_lr`` and ``weight_decay`` that
    ``optim.check_adam`` accepts. Any ``opt_*`` field makes all of them required.
    """
    try:
        with open(path, "rb") as fh:  # closed even when numpy cannot read the archive
            return _read_checkpoint(path, np.load(fh))
    except KeyError as exc:  # numpy's message: "<field> is not a file in the archive"
        raise StateError(f"checkpoint {path}: {exc.args[0]}") from exc
    except (zipfile.BadZipFile, ValueError) as exc:
        raise StateError(f"checkpoint {path} is not a readable .npz archive: {exc}") from exc


def _read_checkpoint(path, data):
    from .optim import BETA1, BETA2, EPS, OptimState, check_adam

    if not isinstance(data, np.lib.npyio.NpzFile):
        raise StateError(f"checkpoint {path} is not a readable .npz archive: it holds a bare array")
    with data:
        sizes = {"a": 5}  # opt_hyper's slots: base_lr, beta1, beta2, eps, weight_decay

        def field(name: str, dims: str = "", holds: str = "a real number") -> np.ndarray:
            try:
                arr = data[name]
            except (zipfile.BadZipFile, ValueError) as exc:  # e.g. an object array
                raise StateError(f"checkpoint {path}: {name} cannot be read: {exc}") from exc
            return _check_tensor(path, name, arr, dims, sizes, holds)

        version = field("format_version", holds="an integer")
        if version != _CHECKPOINT_VERSION:
            raise StateError(f"checkpoint {path}: unsupported format_version {version}")
        activation = str(field("activation", holds="a string"))
        if activation != _CHECKPOINT_ACTIVATION:
            raise StateError(f"checkpoint {path}: activation is {activation!r}, not 'relu'")
        params = ModelParams(**{name: field(f"param_{name}", _SHAPES[name]) for name in _SHAPES})
        if not any(key.startswith("opt_") for key in data.files):
            return params, None
        step_count = int(field("opt_step_count", holds="an integer"))
        if step_count < 0:
            raise StateError(f"checkpoint {path}: opt_step_count is {step_count}, not >= 0")
        base_lr, *constants, weight_decay = field("opt_hyper", "a").tolist()
        try:
            check_adam(base_lr, weight_decay)
        except ConfigError as exc:
            raise StateError(f"checkpoint {path}: opt_hyper: {exc}") from exc
        if constants != [BETA1, BETA2, EPS]:
            raise StateError(
                f"checkpoint {path}: opt_hyper holds beta1, beta2, eps = {constants}, "
                f"not Adam's constants {[BETA1, BETA2, EPS]}"
            )
        m, v = (
            ModelGrads(**{name: field(f"opt_{kind}_{name}", _SHAPES[name]) for name in TRAINABLE})
            for kind in "mv"
        )
    return params, OptimState(base_lr, weight_decay, step_count=step_count, m=m, v=v)


def _check_tensor(
    path, field: str, arr: np.ndarray, dims: str, sizes: dict, holds: str
) -> np.ndarray:
    """``arr`` if its shape, dtype and values suit ``field``; else ``StateError`` naming it.

    ``dims`` has one letter per axis (see ``_SHAPES``; none for a scalar). A
    letter not yet in ``sizes`` takes ``arr``'s length on that axis, which
    the fields read after it must match.
    """
    if arr.ndim != len(dims):
        raise StateError(f"checkpoint {path}: {field} has shape {arr.shape}, not {len(dims)}-D")
    for dim, n in zip(dims, arr.shape):
        sizes.setdefault(dim, n)
    shape = tuple(sizes[dim] for dim in dims)
    if arr.shape != shape:
        raise StateError(f"checkpoint {path}: {field} has shape {arr.shape}, expected {shape}")
    if arr.dtype.kind not in _KINDS[holds]:
        raise StateError(f"checkpoint {path}: {field} has dtype {arr.dtype}, not {holds}")
    if arr.dtype.kind == "f" and not np.isfinite(arr).all():
        raise StateError(f"checkpoint {path}: {field} has non-finite values")
    return arr
