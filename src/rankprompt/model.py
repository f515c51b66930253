"""Toy trainable encoder pair.

A two-layer tanh MLP maps raw feature vectors to D-dimensional image
embeddings; the text side is a free K x D matrix of class embeddings.
Backward chains the loss gradient through the frozen per-row calibration
map, the inner product, optional unit-normalization, and the MLP, all by
hand.  Parameters and gradients are flat vectors with named views; SGD and
Adam update the parameter vector in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import losses as L
from . import sms
from .core import InputError, require_finite, similarity_matrix

PARAM_FIELDS = ("w1", "b1", "w2", "b2", "text")

# Guard for unit-normalizing a (theoretically possible) zero embedding.
NORM_FLOOR = 1e-12

# Longer inference inputs run in row tiles of at least half this; 256-row tiles changed last bits.
FORWARD_TILE_ROWS = 4096


def param_shapes(f: int, h: int, e: int, k: int) -> dict[str, tuple]:
    """Every tensor's shape, in ``PARAM_FIELDS`` order: their order in the flat vector."""
    return {"w1": (f, h), "b1": (h,), "w2": (h, e), "b2": (e,), "text": (k, e)}


@dataclass(frozen=True)
class ModelParams:
    """Every tensor in one contiguous float64 vector, ``flat``, in
    ``PARAM_FIELDS`` order; ``w1`` ... ``text`` are views of it, so writing
    ``flat`` writes them.  A gradient is held the same way.

    Frozen means the fields stay bound to the same arrays, not that the
    values are fixed: ``optimizer_step`` overwrites ``flat`` in place, so
    take a snapshot with ``with_values({})`` before stepping."""

    flat: np.ndarray
    feature_dim: int
    hidden_dim: int
    embed_dim: int
    classes: int
    w1: np.ndarray = field(init=False, repr=False)
    b1: np.ndarray = field(init=False, repr=False)
    w2: np.ndarray = field(init=False, repr=False)
    b2: np.ndarray = field(init=False, repr=False)
    text: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        shapes = param_shapes(self.feature_dim, self.hidden_dim, self.embed_dim, self.classes)
        sizes = [shape[0] * (shape[1] if len(shape) == 2 else 1) for shape in shapes.values()]
        if self.flat.shape != (sum(sizes),) or self.flat.dtype != np.float64:
            raise InputError(f"parameters need {sum(sizes)} float64 entries, got {self.flat.dtype} {self.flat.shape}")
        start = 0
        for (name, shape), n in zip(shapes.items(), sizes):
            object.__setattr__(self, name, self.flat[start : start + n].reshape(shape))
            start += n

    def like(self, flat: np.ndarray) -> ModelParams:
        """Another vector, ``flat``, with this layout: a gradient, or a copy."""
        return ModelParams(flat, self.feature_dim, self.hidden_dim, self.embed_dim, self.classes)

    def as_dict(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_FIELDS}

    def with_values(self, values: dict[str, np.ndarray]) -> ModelParams:
        """A copy with the named tensors replaced; each keeps its shape."""
        out = self.like(self.flat.copy())
        for name, value in values.items():
            if np.shape(value) != getattr(out, name).shape:
                raise InputError(f"{name} must keep shape {getattr(out, name).shape}, got {np.shape(value)}")
            getattr(out, name)[...] = value
        return out


def init_params(feature_dim: int, hidden_dim: int, embed_dim: int, classes: int, seed: int) -> ModelParams:
    """Seeded uniform init in (-1/sqrt(fan_in), 1/sqrt(fan_in)) per tensor."""
    dims = {"feature_dim": feature_dim, "hidden_dim": hidden_dim, "embed_dim": embed_dim, "classes": classes}
    for name, v in dims.items():
        if v < 1:
            raise InputError(f"{name} must be >= 1, got {v}")
    rng = np.random.default_rng(seed)
    bounds = [1.0 / np.sqrt(fan_in) for fan_in in (feature_dim, feature_dim, hidden_dim, hidden_dim, embed_dim)]
    shapes = param_shapes(feature_dim, hidden_dim, embed_dim, classes).values()
    flat = np.concatenate([rng.uniform(-b, b, size=shape).ravel() for b, shape in zip(bounds, shapes)])
    return ModelParams(flat, feature_dim, hidden_dim, embed_dim, classes)


def _unit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    norms = np.maximum(np.linalg.norm(x, axis=1, keepdims=True), NORM_FLOOR)
    return x / norms, norms


def _checked_features(params: ModelParams, features: np.ndarray) -> np.ndarray:
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != params.feature_dim:
        raise InputError(f"features must be M x {params.feature_dim}, got shape {features.shape}")
    return features


def _forward(params: ModelParams, features: np.ndarray, normalize: bool) -> tuple:
    """The forward pass up to the inner product, for training and inference:
    (checked features, tanh activations, image rows, text rows, and the row
    norms divided out when ``normalize``, else None).  Bias adds and tanh
    run in place."""
    features = _checked_features(params, features)
    hidden = features @ params.w1
    hidden += params.b1
    np.tanh(hidden, out=hidden)
    x = hidden @ params.w2
    x += params.b2
    t, x_norms, t_norms = params.text, None, None
    if normalize:
        x, x_norms = _unit_rows(x)
        t, t_norms = _unit_rows(t)
    return features, hidden, x, t, x_norms, t_norms


def forward_similarity(
    params: ModelParams, features: np.ndarray, normalize: bool = False, rows: np.ndarray | None = None
) -> np.ndarray:
    """Raw (uncalibrated) image-text inner products, as a training step computes
    them: the image rows are X = tanh(features @ w1 + b1) @ w2 + b2, unit-normalized
    with the text rows when ``normalize``.  Over ``FORWARD_TILE_ROWS`` rows run in
    balanced row tiles of at least half that many, so the M x H activations never
    exist whole; every score matches the single pass bit for bit.

    ``rows`` (M row indices) scores ``features[rows]`` without copying it whole:
    each tile is gathered through its slice of the indices, as ``batch_iter`` does."""
    features = _checked_features(params, features)
    m = features.shape[0] if rows is None else len(rows)

    def tile(lo: int, hi: int) -> np.ndarray:
        return features[lo:hi] if rows is None else features[rows[lo:hi]]

    if m <= FORWARD_TILE_ROWS:
        return similarity_matrix(*_forward(params, tile(0, m), normalize)[2:4])
    tiles = m // (FORWARD_TILE_ROWS // 2)
    out = np.empty((m, params.classes))
    bounds = [m * i // tiles for i in range(tiles + 1)]
    for lo, hi in zip(bounds, bounds[1:]):
        out[lo:hi] = similarity_matrix(*_forward(params, tile(lo, hi), normalize)[2:4])
    return out


@dataclass(frozen=True)
class BackwardResult:
    grads: ModelParams  # the gradient, in the parameters' layout
    report: L.LossReport
    similarity_raw: np.ndarray


def model_backward(
    params: ModelParams,
    features: np.ndarray,
    labels: np.ndarray,
    stats: sms.ClassStats | None,
    cfg: L.LossConfig,
    normalize: bool = False,
) -> BackwardResult:
    """Forward encode -> similarity -> calibrate -> loss, then hand backward.

    ``labels`` are M class indices in [0, K), checked here with one
    min/max; the other step functions trust them.  ``stats=None``
    skips calibration entirely.  Committed statistics are treated as
    constants: the gradient passes through the per-row affine map via its
    frozen scale only.  Only two M x H arrays live: ``w2``'s gradient is taken
    first, then the activations' buffer becomes the tanh derivative in place.
    Each weight gradient stays one whole-batch matmul, so every bit matches the
    unfused order; ``features`` is only read.
    """
    if len(labels) and (labels.min() < 0 or labels.max() >= params.classes):
        raise InputError(f"labels must lie in [0, {params.classes}), got {labels.min()}..{labels.max()}")
    features, pre, x, t, x_norms, t_norms = _forward(params, features, normalize)
    s_raw = similarity_matrix(x, t)
    if stats is not None:
        scale, offset = sms.calibration_map(s_raw, labels, stats)
        s_cal = require_finite(scale * s_raw + offset)
    else:
        s_cal = s_raw

    report = L.total_loss(s_cal, labels, cfg)
    # Through the frozen affine calibration: d(cal)/d(raw) is its scale.
    g_s = report.grad_similarity * scale if stats is not None else report.grad_similarity

    g_x = g_s @ t
    g_t = g_s.T @ x
    if normalize:
        # d(x/|x|) pulls out the radial component and rescales by the norm
        g_x = (g_x - (g_x * x).sum(axis=1, keepdims=True) * x) / x_norms
        g_t = (g_t - (g_t * t).sum(axis=1, keepdims=True) * t) / t_norms

    grads = params.like(np.empty_like(params.flat))
    np.matmul(pre.T, g_x, out=grads.w2)
    g_x.sum(axis=0, out=grads.b2)
    g_pre = g_x @ params.w2.T
    g_pre *= np.subtract(1.0, np.multiply(pre, pre, out=pre), out=pre)  # (1 - pre * pre), in pre
    np.matmul(features.T, g_pre, out=grads.w1)
    g_pre.sum(axis=0, out=grads.b1)
    grads.text[...] = g_t
    return BackwardResult(grads=grads, report=report, similarity_raw=s_raw)


@dataclass
class OptimizerState:
    kind: str
    learning_rate: float
    step: int = 0
    m: np.ndarray | None = None  # Adam's moments, flat like the parameters
    v: np.ndarray | None = None


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def init_optimizer(kind: str, learning_rate: float, params: ModelParams) -> OptimizerState:
    if kind not in ("sgd", "adam"):
        raise InputError(f"optimizer must be 'sgd' or 'adam', got {kind!r}")
    if not learning_rate > 0:
        raise InputError(f"learning_rate must be positive, got {learning_rate}")
    if kind == "sgd":
        return OptimizerState(kind=kind, learning_rate=learning_rate)
    return OptimizerState(kind, learning_rate, m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


def optimizer_step(params: ModelParams, grads: ModelParams, state: OptimizerState) -> None:
    """Update ``params.flat``, Adam's moments and ``state.step`` in place
    from a gradient of the same layout; like ``list.sort``, returns None."""
    if any(getattr(grads, name).shape != getattr(params, name).shape for name in PARAM_FIELDS):
        raise InputError("gradient layout does not match the parameters")
    state.step += 1
    flat, g = params.flat, grads.flat
    if state.kind == "sgd":
        flat -= state.learning_rate * g
        return
    t, m, v = state.step, state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * g * g
    flat -= state.learning_rate * (m / (1.0 - ADAM_BETA1**t)) / (np.sqrt(v / (1.0 - ADAM_BETA2**t)) + ADAM_EPS)


def params_to_dict(params: ModelParams) -> dict:
    out = {name: view.tolist() for name, view in params.as_dict().items()}
    out["hyper"] = {
        "feature_dim": params.feature_dim,
        "hidden_dim": params.hidden_dim,
        "embed_dim": params.embed_dim,
        "classes": params.classes,
    }
    return out


def params_from_dict(d: dict) -> ModelParams:
    """Rebuild parameters, rejecting ``hyper`` sizes that are not integers
    >= 1 and any tensor whose shape disagrees with them or that holds a
    non-finite value."""
    hyper = d["hyper"]
    f, h, e, k = dims = [hyper[name] for name in ("feature_dim", "hidden_dim", "embed_dim", "classes")]
    if not all(type(n) is int and n >= 1 for n in dims):
        raise InputError(f"hyper sizes must be integers >= 1, got {dims!r}")
    parts = []
    for name, shape in param_shapes(f, h, e, k).items():
        try:
            value = np.asarray(d[name], dtype=np.float64)
        except OverflowError:
            raise InputError(f"parameter {name} holds an integer beyond float64") from None
        if value.shape != shape:
            raise InputError(f"parameter {name} has shape {value.shape}, hyper expects {shape}")
        if not np.isfinite(value).all():
            raise InputError(f"parameter {name} has non-finite entries")
        parts.append(value.ravel())
    return ModelParams(np.concatenate(parts), f, h, e, k)
