"""Toy trainable encoder pair.

A two-layer tanh MLP maps raw feature vectors to D-dimensional image
embeddings; the text side is a free K x D matrix of class embeddings.
Backward chains the loss gradient through the frozen per-row calibration
map, the inner product, optional unit-normalization, and the MLP, all by
hand.  Parameters and gradients are flat vectors with named views; SGD and
Adam update the parameter vector in place.

Training and inference share one forward pass, ``_forward``; inference runs
it on row chunks of at most ``CHUNK_ROWS``.  From ``FORWARD_TILE_ROWS`` rows
on, it encodes in two row halves, and a training step takes its rank term
beside its two alignment terms, its weight gradients in two halves of the
hidden units and its hidden gradient in two halves of the rows: parts that
the row count and the layer widths fix.  With two or more usable CPUs,
``model_backward`` and ``forward_similarity`` each start one worker thread
for the whole call (``_worker``: a ``core._Worker``, the primitive ``data``
shares) and hand it the second part of each pair in turn.  It calls only
numpy and private helpers, writes its results into arrays the calling thread
allocated, and is joined before the call returns; with one CPU, the parts
run in turn.  The bytes are the same either way.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from . import losses as L
from . import sms
from .config import RunConfig
from .core import InputError, _usable_cpus, _Worker, check_labels, similarity_matrix

PARAM_FIELDS = ("w1", "b1", "w2", "b2", "text")

# Guard for unit-normalizing a (theoretically possible) zero embedding.
NORM_FLOOR = 1e-12

# Inputs of at least this many rows do their MLP work in two fixed parts (see ``_in_parts``), an
# epoch's short last batch and an inference chunk too.  A cut between rows keeps every bit at some
# layer widths (64 -> 256, 16 -> 64) and changes last bits at others (63 -> 255); 256-row tiles
# changed last bits at 64 -> 256 too.
FORWARD_TILE_ROWS = 2048

# Inference cuts M rows into ceil(M / CHUNK_ROWS) balanced chunks, one forward pass each; from
# CHUNK_ROWS rows on a chunk holds CHUNK_ROWS / 2 to CHUNK_ROWS rows, two halves of 1,536 to 3,072.
CHUNK_ROWS = 6144

# A split step forms the hidden gradient in balanced chunks of at most this many whole rows, in the
# activations' buffer, floor(n / 2) chunks in one part and the rest in the other; a one-row tail
# chunk changed the last bits of w1's and b1's gradients.  On a column half of a 512-row chunk, a
# view with the stride of whole rows, one np.multiply took 166 us against 22 us on a contiguous copy.
GRAD_CHUNK_ROWS = 512


def _bounds(m: int, n: int) -> list[int]:
    """The edges of ``n`` balanced parts of ``m`` rows."""
    return [m * i // n for i in range(n + 1)]


def _worker(m: int):
    """The worker of one public call on ``m`` rows, to enter with ``with``: a ``_Worker`` from
    ``FORWARD_TILE_ROWS`` rows on when two CPUs are usable, else a context that gives None."""
    return _Worker() if m >= FORWARD_TILE_ROWS and _usable_cpus() >= 2 else nullcontext()


def _in_parts(worker: _Worker | None, work, first, second) -> None:
    """``work(first)`` and ``work(second)``: the second on ``worker``, else after the first.  The
    caller fixes the parts, the CPU count does not, and each part writes its own slice of buffers
    the caller allocated, so the bytes are the same either way.  The second part is done before this
    returns, and an exception raised in it is raised here."""
    if worker is None:
        work(first)
        work(second)
        return
    worker.start(work, second)
    work(first)
    worker.result()


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


def _row_norms(x: np.ndarray) -> np.ndarray:
    return np.maximum(np.linalg.norm(x, axis=1, keepdims=True), NORM_FLOOR)


def _checked_features(params: ModelParams, features: np.ndarray) -> np.ndarray:
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != params.feature_dim:
        raise InputError(f"features must be M x {params.feature_dim}, got shape {features.shape}")
    return features


def _encode(params: ModelParams, features: np.ndarray, hidden: np.ndarray, x: np.ndarray) -> None:
    """Write tanh(features @ w1 + b1) into ``hidden`` and hidden @ w2 + b2 into ``x``;
    the bias adds and tanh run in place."""
    np.matmul(features, params.w1, out=hidden)
    hidden += params.b1
    np.tanh(hidden, out=hidden)
    np.matmul(hidden, params.w2, out=x)
    x += params.b2


def _forward(
    params: ModelParams, features: np.ndarray, hidden: np.ndarray, x: np.ndarray, normalize: bool, worker: _Worker | None
) -> tuple:
    """The one forward pass up to the inner product, for training and inference: write
    tanh(features @ w1 + b1) into ``hidden`` and the image rows into ``x``, buffers the caller
    allocated, and return (text rows, and the row norms divided out when ``normalize``, else
    None).  From ``FORWARD_TILE_ROWS`` rows on, the two row halves encode in parts, the second on
    the call's ``worker`` when it has one.  Here the worker only encodes: the rest, and public
    callables such as ``similarity_matrix``, stay on the calling thread, where a tracer that wraps them
    (perfbench's) keeps one span stack."""
    m = features.shape[0]
    if m < FORWARD_TILE_ROWS:
        _encode(params, features, hidden, x)
    else:
        halves = slice(0, m // 2), slice(m // 2, m)
        _in_parts(worker, lambda rows: _encode(params, features[rows], hidden[rows], x[rows]), *halves)
    t, x_norms, t_norms = params.text, None, None
    if normalize:
        x_norms, t_norms = _row_norms(x), _row_norms(t)
        x /= x_norms
        t = t / t_norms
    return t, x_norms, t_norms


def forward_similarity(params: ModelParams, features: np.ndarray, normalize: bool = False) -> np.ndarray:
    """Raw (uncalibrated) image-text inner products, as a training step computes
    them: the image rows are X = tanh(features @ w1 + b1) @ w2 + b2, unit-normalized
    with the text rows when ``normalize``.  The rows are cut into ceil(M / ``CHUNK_ROWS``)
    balanced chunks (7,996 rows make two of 3,998), each run through the training step's
    forward pass, ``_forward``, which encodes it in two row halves from ``FORWARD_TILE_ROWS``
    rows on, on one worker for the whole call; the calling thread scores each chunk with
    ``similarity_matrix``, so the M x H activations never exist whole.  A chunk of at most
    ``CHUNK_ROWS`` rows gives the bytes of a training step on the same rows, on one CPU or two."""
    features = _checked_features(params, features)
    m, h, e = features.shape[0], params.hidden_dim, params.embed_dim
    chunks = max(1, -(-m // CHUNK_ROWS))
    bounds, longest = _bounds(m, chunks), -(-m // chunks)
    out = np.empty((m, params.classes))

    # Every chunk reuses one allocation of activations and image rows.  glibc malloc maps a block afresh,
    # and unmaps it when it is freed, only from a threshold that freeing a mapped block raises to that
    # block's size (8.4 MB after a 4,096-row train_large step); smaller blocks come from the heap, which
    # keeps their pages.  Allocated per chunk, as two arrays or as one block, they raised train_large's
    # peak RSS from 90.2-90.5 MB to 97.8 and 91.2-91.4 MB (2-vCPU x86-64 Linux).
    buffer = np.empty(longest * (h + e))
    with _worker(m) as worker:
        for lo, hi in zip(bounds, bounds[1:]):
            n = hi - lo
            hidden, x = buffer[: n * h].reshape(n, h), buffer[longest * h : longest * h + n * e].reshape(n, e)
            t = _forward(params, features[lo:hi], hidden, x, normalize, worker)[0]
            out[lo:hi] = similarity_matrix(x, t)
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
    cfg: RunConfig,
) -> BackwardResult:
    """Forward encode -> similarity -> calibrate -> loss, then hand backward,
    with the loss weights, temperature and ``normalize_embeddings`` of ``cfg``.

    ``labels`` are M class indices in [0, K), checked here by
    ``check_labels``; the other step functions trust them.  ``stats=None``
    skips calibration; otherwise ``sms.calibrate`` maps a copy of the raw
    rows, and the gradient passes through that frozen affine map via the
    scale it returns.  Only two M x H arrays live: ``w2``'s gradient is taken
    first, then the activations' buffer becomes the hidden gradient in place;
    ``features`` is only read.  From ``FORWARD_TILE_ROWS`` rows on, the step
    runs in parts, the second on one worker for the whole call when two CPUs
    are usable: the forward pass in two row halves (see ``_forward``), the rank
    term beside the alignment terms (see ``losses.total_loss``), then three
    rounds, each done before the next starts.  The ``w2`` gradient runs in two
    halves of the hidden units; the hidden gradient in two halves of the rows,
    each a run of whole-row chunks of at most ``GRAD_CHUNK_ROWS`` rows, so
    one M x H array lives; the ``w1`` gradient in two halves of the hidden
    units again.  Each weight gradient still sums over the whole batch in one
    matmul.  The bits match the unsplit step at 64 -> 256 and change at 63 -> 255.
    """
    check_labels(labels, params.classes)
    features = _checked_features(params, features)
    m, h, w2 = features.shape[0], params.hidden_dim, params.w2
    with _worker(m) as worker:
        pre, x = np.empty((m, h)), np.empty((m, params.embed_dim))
        t, x_norms, t_norms = _forward(params, features, pre, x, cfg.normalize_embeddings, worker)
        s_raw = similarity_matrix(x, t)
        s_cal = s_raw
        if stats is not None:
            s_cal = s_raw.copy()  # the raw rows go to the epoch's buffer
            scale = sms.calibrate(s_cal, labels, stats)

        report = L.total_loss(s_cal, labels, cfg, worker=worker)
        # Through the frozen affine calibration: d(cal)/d(raw) is its scale.
        g_s = report.grad_similarity * scale if stats is not None else report.grad_similarity

        g_x = g_s @ t
        g_t = g_s.T @ x
        if cfg.normalize_embeddings:
            # d(x/|x|) pulls out the radial component and rescales by the norm
            g_x = (g_x - (g_x * x).sum(axis=1, keepdims=True) * x) / x_norms
            g_t = (g_t - (g_t * t).sum(axis=1, keepdims=True) * t) / t_norms

        grads = params.like(np.empty_like(params.flat))

        def w2_gradient(cols: slice) -> None:
            np.matmul(pre[:, cols].T, g_x, out=grads.w2[cols])

        def hidden_gradient(part: tuple) -> None:
            # a chunk of whole rows at a time, the activations become g_pre * (1 - act * act)
            edges, g_chunk = part
            for lo, hi in zip(edges, edges[1:]):
                act = pre[lo:hi]
                g_pre = np.matmul(g_x[lo:hi], w2.T, out=g_chunk[: hi - lo])
                np.multiply(g_pre, np.subtract(1.0, np.multiply(act, act, out=act), out=act), out=act)

        def w1_gradient(cols: slice) -> None:
            np.matmul(features.T, pre[:, cols], out=grads.w1[:, cols])

        if m < FORWARD_TILE_ROWS:
            w2_gradient(slice(None))
            hidden_gradient(([0, m], np.empty((m, h))))
            w1_gradient(slice(None))
        else:
            cols = slice(0, h // 2), slice(h // 2, h)
            chunks = -(-m // GRAD_CHUNK_ROWS)
            edges, longest = _bounds(m, chunks), -(-m // chunks)
            rows = [(part, np.empty((longest, h))) for part in (edges[: chunks // 2 + 1], edges[chunks // 2 :])]
            _in_parts(worker, w2_gradient, *cols)
            _in_parts(worker, hidden_gradient, *rows)
            _in_parts(worker, w1_gradient, *cols)
    g_x.sum(axis=0, out=grads.b2)
    pre.sum(axis=0, out=grads.b1)
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


def init_optimizer(cfg: RunConfig, params: ModelParams) -> OptimizerState:
    if cfg.optimizer == "sgd":
        return OptimizerState(kind="sgd", learning_rate=cfg.learning_rate)
    return OptimizerState("adam", cfg.learning_rate, m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


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
