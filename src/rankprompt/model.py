"""Toy trainable encoder pair.

A two-layer tanh MLP maps raw feature vectors to D-dimensional image
embeddings; the text side is a free K x D matrix of class embeddings.
Backward chains the loss gradient through the frozen per-row calibration
map, the inner product, optional unit-normalization, and the MLP, all by
hand.  SGD and Adam updates included.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import losses as L
from . import sms
from .core import EmbeddingMatrix, InputError, LabelVector, SimilarityMatrix, similarity_matrix

PARAM_FIELDS = ("w1", "b1", "w2", "b2", "text")

# Guard for unit-normalizing a (theoretically possible) zero embedding.
NORM_FLOOR = 1e-12


@dataclass(frozen=True)
class ModelParams:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    text: np.ndarray
    feature_dim: int
    hidden_dim: int
    embed_dim: int
    classes: int

    def as_dict(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_FIELDS}

    def with_values(self, values: dict[str, np.ndarray]) -> "ModelParams":
        return replace(self, **values)


def init_params(feature_dim: int, hidden_dim: int, embed_dim: int, classes: int, seed: int) -> ModelParams:
    """Seeded uniform init in (-1/sqrt(fan_in), 1/sqrt(fan_in)) per tensor."""
    for name, v in (
        ("feature_dim", feature_dim),
        ("hidden_dim", hidden_dim),
        ("embed_dim", embed_dim),
        ("classes", classes),
    ):
        if v < 1:
            raise InputError(f"{name} must be >= 1, got {v}")
    rng = np.random.default_rng(seed)

    def uniform(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    return ModelParams(
        w1=uniform((feature_dim, hidden_dim), feature_dim),
        b1=uniform((hidden_dim,), feature_dim),
        w2=uniform((hidden_dim, embed_dim), hidden_dim),
        b2=uniform((embed_dim,), hidden_dim),
        text=uniform((classes, embed_dim), embed_dim),
        feature_dim=feature_dim,
        hidden_dim=hidden_dim,
        embed_dim=embed_dim,
        classes=classes,
    )


def _check_features(params: ModelParams, features: np.ndarray) -> np.ndarray:
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != params.feature_dim:
        raise InputError(
            f"features must be M x {params.feature_dim}, got shape {features.shape}"
        )
    return features


def _unit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    norms = np.maximum(np.linalg.norm(x, axis=1, keepdims=True), NORM_FLOOR)
    return x / norms, norms


def _mlp_forward(params: ModelParams, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(embeddings, hidden activations), with the bias adds and tanh in place."""
    hidden = features @ params.w1
    hidden += params.b1
    np.tanh(hidden, out=hidden)
    x = hidden @ params.w2
    x += params.b2
    return x, hidden


def encode_images(params: ModelParams, features: np.ndarray, normalize: bool = False) -> EmbeddingMatrix:
    """X = tanh(features @ w1 + b1) @ w2 + b2, optionally unit-normalized rows."""
    x, _ = _mlp_forward(params, _check_features(params, features))
    if normalize:
        x, _ = _unit_rows(x)
    return EmbeddingMatrix(x)


def text_embeddings(params: ModelParams, normalize: bool = False) -> EmbeddingMatrix:
    t = params.text
    if normalize:
        t, _ = _unit_rows(t)
    return EmbeddingMatrix(t)


def forward_similarity(params: ModelParams, features: np.ndarray, normalize: bool = False) -> SimilarityMatrix:
    """Raw (uncalibrated) image-text inner products."""
    return similarity_matrix(encode_images(params, features, normalize), text_embeddings(params, normalize))


@dataclass(frozen=True)
class BackwardResult:
    grads: dict[str, np.ndarray]
    report: L.LossReport
    similarity_raw: SimilarityMatrix


def model_backward(
    params: ModelParams,
    features: np.ndarray,
    labels: LabelVector,
    stats: sms.ClassStats | None,
    cfg: L.LossConfig,
    normalize: bool = False,
    include_main: bool = True,
) -> BackwardResult:
    """Forward encode -> similarity -> calibrate -> loss, then hand backward.

    ``stats=None`` skips calibration entirely.  Committed statistics are
    treated as constants: the gradient passes through the per-row affine
    map via its frozen scale only.  ``include_main=False`` optimizes the
    rank term alone (the report still shows every term).
    """
    features = _check_features(params, features)
    x_raw, pre = _mlp_forward(params, features)
    if normalize:
        x, x_norms = _unit_rows(x_raw)
        t, t_norms = _unit_rows(params.text)
    else:
        x, t = x_raw, params.text
    s_raw = SimilarityMatrix(x @ t.T)
    if stats is not None:
        scale, offset = sms.calibration_map(s_raw, labels, stats)
        s_cal = SimilarityMatrix(scale * s_raw.data + offset)
    else:
        s_cal = s_raw

    report = L.total_loss(s_cal, labels, cfg, include_main)
    # Through the frozen affine calibration: d(cal)/d(raw) is its scale.
    g_s = report.grad_similarity * scale if stats is not None else report.grad_similarity

    g_x = g_s @ t
    g_t = g_s.T @ x
    if normalize:
        # d(x/|x|) pulls out the radial component and rescales by the norm
        g_x = (g_x - (g_x * x).sum(axis=1, keepdims=True) * x) / x_norms
        g_t = (g_t - (g_t * t).sum(axis=1, keepdims=True) * t) / t_norms

    g_pre = (g_x @ params.w2.T) * (1.0 - pre * pre)
    grads = {
        "w1": features.T @ g_pre,
        "b1": g_pre.sum(axis=0),
        "w2": pre.T @ g_x,
        "b2": g_x.sum(axis=0),
        "text": g_t,
    }
    return BackwardResult(grads=grads, report=report, similarity_raw=s_raw)


@dataclass
class OptimizerState:
    kind: str
    learning_rate: float
    step: int = 0
    m: dict[str, np.ndarray] | None = None
    v: dict[str, np.ndarray] | None = None


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def init_optimizer(kind: str, learning_rate: float, params: ModelParams) -> OptimizerState:
    if kind not in ("sgd", "adam"):
        raise InputError(f"optimizer must be 'sgd' or 'adam', got {kind!r}")
    if not learning_rate > 0:
        raise InputError(f"learning_rate must be positive, got {learning_rate}")
    state = OptimizerState(kind=kind, learning_rate=learning_rate)
    if kind == "adam":
        state.m = {k: np.zeros_like(v) for k, v in params.as_dict().items()}
        state.v = {k: np.zeros_like(v) for k, v in params.as_dict().items()}
    return state


def optimizer_step(
    params: ModelParams, grads: dict[str, np.ndarray], state: OptimizerState
) -> tuple[ModelParams, OptimizerState]:
    """One in-place-style update; returns new params and advanced state."""
    values = params.as_dict()
    for name, g in grads.items():
        if name not in values or g.shape != values[name].shape:
            raise InputError(f"gradient for {name!r} does not match parameter shapes")
    state.step += 1
    updated = {}
    if state.kind == "sgd":
        for name in PARAM_FIELDS:
            updated[name] = values[name] - state.learning_rate * grads[name]
    else:
        t = state.step
        for name in PARAM_FIELDS:
            g = grads[name]
            state.m[name] = ADAM_BETA1 * state.m[name] + (1.0 - ADAM_BETA1) * g
            state.v[name] = ADAM_BETA2 * state.v[name] + (1.0 - ADAM_BETA2) * g * g
            mhat = state.m[name] / (1.0 - ADAM_BETA1**t)
            vhat = state.v[name] / (1.0 - ADAM_BETA2**t)
            updated[name] = values[name] - state.learning_rate * mhat / (np.sqrt(vhat) + ADAM_EPS)
    return params.with_values(updated), state


def params_to_dict(params: ModelParams) -> dict:
    out = {name: getattr(params, name).tolist() for name in PARAM_FIELDS}
    out["hyper"] = {
        "feature_dim": params.feature_dim,
        "hidden_dim": params.hidden_dim,
        "embed_dim": params.embed_dim,
        "classes": params.classes,
    }
    return out


def params_from_dict(d: dict) -> ModelParams:
    """Rebuild parameters, rejecting any tensor whose shape disagrees with
    ``hyper`` or that holds a non-finite value."""
    hyper = d["hyper"]
    f, h, e, k = (int(hyper[name]) for name in ("feature_dim", "hidden_dim", "embed_dim", "classes"))
    expected = {"w1": (f, h), "b1": (h,), "w2": (h, e), "b2": (e,), "text": (k, e)}
    values = {}
    for name in PARAM_FIELDS:
        values[name] = np.asarray(d[name], dtype=np.float64)
        if values[name].shape != expected[name]:
            raise InputError(
                f"parameter {name} has shape {values[name].shape}, hyper expects {expected[name]}"
            )
        if not np.isfinite(values[name]).all():
            raise InputError(f"parameter {name} has non-finite entries")
    return ModelParams(**values, feature_dim=f, hidden_dim=h, embed_dim=e, classes=k)


def optimizer_to_dict(state: OptimizerState) -> dict:
    return {
        "kind": state.kind,
        "learning_rate": state.learning_rate,
        "step": state.step,
        "m": None if state.m is None else {k: v.tolist() for k, v in state.m.items()},
        "v": None if state.v is None else {k: v.tolist() for k, v in state.v.items()},
    }


def optimizer_from_dict(d: dict) -> OptimizerState:
    return OptimizerState(
        kind=d["kind"],
        learning_rate=float(d["learning_rate"]),
        step=int(d["step"]),
        m=None if d["m"] is None else {k: np.asarray(v, dtype=np.float64) for k, v in d["m"].items()},
        v=None if d["v"] is None else {k: np.asarray(v, dtype=np.float64) for k, v in d["v"].items()},
    )
