"""Loss oracles, synthetic problems, and dataset ingestion.

An oracle maps (round t, point x, seeded source) to (loss, subgradient).
Draws inside an oracle depend only on (seed, t) — never on evaluation order —
so a round can be replayed at a different point (e.g. the fixed comparator)
with the identical realization.  Returned gradient arrays may be shared;
callers must not mutate them.  The two spike streams of Reddi et al. (2018)
share one base that turns each stream's spike rule into both ``evaluate``
and ``gradients``; ``linear_loss`` is their one loss, which the runner's
array path and ``regret`` also use.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import numpy.random  # numpy loads it lazily; load it with the package, not in a run

from .errors import (
    LabelOutOfRange,
    MagicMismatch,
    NonFiniteInput,
    ParseError,
    ShapeMismatch,
)
from .numerics import as_vector

_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801
# logits (8 MB of float64) per chunk of a stacked full-batch loss
_FULL_LOSS_LOGITS = 1 << 20


class RoundRng:
    """Counter-based random source.

    ``uniforms(T)`` returns the first T values of a fixed Philox stream
    keyed by the seed, served from a lazily grown cache, so round t's value
    ``uniforms(T)[t - 1]`` (any T >= t) is a pure function of (seed, t).
    ``child(k)`` derives an independent generator keyed by (seed, k) for
    bulk draws, and ``permutation(k, n)`` caches its last permutation of
    range(n), an epoch's batch order, so oracles hold no per-run state.
    """

    def __init__(self, seed: int):
        seed = int(seed)
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        self.seed = seed
        self._uniforms = np.empty(0)
        self._perm_key = self._perm = None

    def uniforms(self, T: int) -> np.ndarray:
        """The stream's first T values as one (shared, read-only) array."""
        if T > self._uniforms.size:
            n = 1 << (T - 1).bit_length()  # the next power of two >= T
            gen = np.random.Generator(np.random.Philox(np.random.SeedSequence([self.seed, 0])))
            self._uniforms = gen.random(n)
            self._uniforms.flags.writeable = False
        return self._uniforms[:T]

    def child(self, k: int) -> np.random.Generator:
        return np.random.Generator(
            np.random.Philox(np.random.SeedSequence([self.seed, 1, int(k)]))
        )

    def permutation(self, k: int, n: int) -> np.ndarray:
        if (k, n) != self._perm_key:
            self._perm = self.child(k).permutation(n)
            self._perm.flags.writeable = False
            self._perm_key = (k, n)
        return self._perm


class LossOracle:
    """Base class.  Subclasses set:

    dim             parameter dimension
    stochastic      draws randomness through the per-round source
    linear          round-t loss is g_t . x with g_t independent of x
    time_invariant  the same deterministic loss every round
    known_optimum   fixed comparator x* when one is known, else None

    Linear oracles also provide ``gradients(T, rng)``: the whole stream
    g_1, ..., g_T as a (T, dim) array, row t-1 equal to the gradient
    ``evaluate(t, x, rng)`` returns at any x; their loss is ``linear_loss``.
    Every other oracle's ``evaluate`` also takes a (C, dim) stack of points,
    one row per run, and returns C losses and a (C, dim) gradient, each row
    bit-identical to that row's own call.  Every row uses the one ``rng``
    passed in, so an oracle that draws is called once per seed, on that
    seed's rows.  Any per-run state lives on the ``rng``, not the oracle.
    """

    dim: int = 0
    stochastic = False
    linear = False
    time_invariant = False
    known_optimum: np.ndarray | None = None

    def evaluate(self, t: int, x: np.ndarray, rng: RoundRng | None = None):
        raise NotImplementedError

    def gradients(self, T: int, rng: RoundRng | None = None) -> np.ndarray:
        raise NotImplementedError


def linear_loss(g: np.ndarray, x: np.ndarray):
    """The linear loss g . x at one point x (d,), or the losses at the rows
    of a stack (C, d).  The sum starts from +0.0, so a -0.0 product, as at
    x = 0, gives 0.0 whatever the number of rows."""
    return np.add.reduce(g * x, axis=-1)


class _SpikeStream(LossOracle):
    """Linear losses on [-1, 1]: slope 1010 on the rounds where the
    subclass's ``spikes(t, last, rng)`` holds, else -10; x* = -1.  The rule
    takes a round t, or an array of rounds with ``last`` the largest, and
    returns a bool of t's shape, so ``evaluate`` and ``gradients`` share it.
    """

    dim = 1
    linear = True

    def __init__(self):
        self.known_optimum = np.array([-1.0])
        self._g_hi = np.array([1010.0])
        self._g_lo = np.array([-10.0])

    def evaluate(self, t, x, rng=None):
        g = self._g_hi if self.spikes(t, t, rng) else self._g_lo
        return linear_loss(g, x), g

    def gradients(self, T, rng=None):
        return np.where(self.spikes(np.arange(1, T + 1), T, rng)[:, None], self._g_hi, self._g_lo)


class ReddiStochastic(_SpikeStream):
    """Slope 1010 with probability 1/100, else -10.

    The expected subgradient is 0.01 * 1010 - 0.99 * 10 = 0.2 > 0, so the
    expected loss is minimized at the left endpoint x* = -1, even though 99%
    of rounds push toward +1.
    """

    stochastic = True

    def spikes(self, t, last, rng):
        return rng.uniforms(last)[t - 1] < 0.01


class ReddiOnline(_SpikeStream):
    """Deterministic variant: slope 1010 when t % 101 == 1, else -10.

    Any 101 consecutive rounds accumulate slope 1010 - 100 * 10 = 10 > 0,
    so x* = -1 again minimizes the cumulative loss.
    """

    def spikes(self, t, last, rng):
        return t % 101 == 1


class Quadratic(LossOracle):
    """f(x) = 0.5 * sum_i a_i (x_i - x*_i)^2 with a_i > 0, identical every round.

    ``x`` may be one point (d,) or a stack of points (C, d).  ``vecdot``
    runs the same dot loop per row as a 1-d ``g @ diff``, so a stacked
    row's loss is bit-identical to its own call's.
    """

    time_invariant = True

    def __init__(self, a_diag, x_star):
        a = as_vector(a_diag)
        xs = as_vector(x_star)
        if a.shape != xs.shape:
            raise ShapeMismatch(f"curvature {a.shape} vs optimum {xs.shape}")
        if (a <= 0.0).any():
            raise ValueError("quadratic curvatures must be strictly positive")
        self.a = a
        self.known_optimum = xs
        self.dim = a.shape[0]

    def evaluate(self, t, x, rng=None):
        diff = x - self.known_optimum
        g = self.a * diff
        return 0.5 * np.vecdot(g, diff), g


# ---------------------------------------------------------------------------
# datasets


@dataclass
class Dataset:
    features: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) int64 in [0, num_classes)
    num_classes: int

    def __post_init__(self):
        X = np.asarray(self.features, dtype=np.float64)
        y = np.asarray(self.labels)
        if X.ndim != 2:
            raise ShapeMismatch(f"features must be 2-d, got shape {X.shape}")
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise ShapeMismatch(f"labels shape {y.shape} does not match {X.shape[0]} rows")
        if not np.isfinite(X).all():
            raise NonFiniteInput("features contain NaN or Inf")
        if y.size and (not np.issubdtype(y.dtype, np.integer)):
            raise LabelOutOfRange("labels must be integers")
        if y.size and (y.min() < 0 or y.max() >= self.num_classes):
            raise LabelOutOfRange(
                f"labels must lie in [0, {self.num_classes}), got range "
                f"[{y.min()}, {y.max()}]"
            )
        self.features = X
        self.labels = y.astype(np.int64)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


def gaussian_blobs(n: int, d: int, k: int, seed: int, spread: float = 1.0,
                   center_scale: float = 1.0) -> Dataset:
    """Synthetic k-class dataset: class centers ~ N(0, center_scale^2 I),
    points = center + spread * N(0, I), labels balanced (round-robin, then
    shuffled)."""
    if n < k:
        raise ValueError(f"need at least one point per class: n={n}, k={k}")
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence([int(seed), 2])))
    centers = center_scale * gen.standard_normal((k, d))
    labels = gen.permutation(np.arange(n) % k)
    X = centers[labels] + spread * gen.standard_normal((n, d))
    return Dataset(X, labels, k)


def _read_idx_labels(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < 8:
        raise ParseError(f"{path}: truncated IDX header")
    magic, n = struct.unpack(">II", raw[:8])
    if magic != _IDX_LABELS_MAGIC:
        raise MagicMismatch(
            f"{path}: magic 0x{magic:08x}, expected 0x{_IDX_LABELS_MAGIC:08x}"
        )
    if len(raw) < 8 + n:
        raise ParseError(f"{path}: expected {n} labels, file holds {len(raw) - 8}")
    return np.frombuffer(raw, dtype=np.uint8, count=n, offset=8).astype(np.int64)


def _read_idx_images(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < 16:
        raise ParseError(f"{path}: truncated IDX header")
    magic, n, rows, cols = struct.unpack(">IIII", raw[:16])
    if magic != _IDX_IMAGES_MAGIC:
        raise MagicMismatch(
            f"{path}: magic 0x{magic:08x}, expected 0x{_IDX_IMAGES_MAGIC:08x}"
        )
    need = n * rows * cols
    if len(raw) < 16 + need:
        raise ParseError(f"{path}: expected {need} pixels, file holds {len(raw) - 16}")
    pixels = np.frombuffer(raw, dtype=np.uint8, count=need, offset=16)
    return pixels.reshape(n, rows * cols).astype(np.float64) / 255.0


def load_dataset(path: str, format: str = "csv") -> Dataset:
    """Load a labeled dataset.

    ``csv``: one sample per row, features then an integer class label in the
    last column; the class count is inferred as max label + 1.
    ``idx``: standard big-endian IDX pair given as "images_file,labels_file";
    pixel bytes are rescaled to [0, 1].
    """
    if format == "csv":
        return _load_csv(path)
    if format == "idx":
        parts = str(path).split(",")
        if len(parts) != 2:
            raise ParseError(
                'idx format expects "images_file,labels_file", got ' + repr(path)
            )
        X = _read_idx_images(parts[0])
        y = _read_idx_labels(parts[1])
        if y.shape[0] != X.shape[0]:
            raise ParseError(
                f"images hold {X.shape[0]} samples but labels hold {y.shape[0]}"
            )
        return Dataset(X, y, int(y.max()) + 1 if y.size else 1)
    raise ValueError(f"unknown dataset format {format!r}")


def _load_csv(path) -> Dataset:
    rows = []
    labels = []
    width = None
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if width is None:
                width = len(parts)
                if width < 2:
                    raise ParseError(f"{path}:{lineno}: need features plus a label column")
            elif len(parts) != width:
                raise ParseError(
                    f"{path}:{lineno}: expected {width} columns, got {len(parts)}"
                )
            try:
                vals = [float(p) for p in parts[:-1]]
                lab = float(parts[-1])
            except ValueError as e:
                raise ParseError(f"{path}:{lineno}: {e}") from None
            if not lab.is_integer():
                raise ParseError(f"{path}:{lineno}: label {parts[-1]!r} is not an integer")
            rows.append(vals)
            labels.append(int(lab))
    if not rows:
        raise ParseError(f"{path}: no data rows")
    y = np.array(labels, dtype=np.int64)
    if y.min() < 0:
        raise LabelOutOfRange(f"{path}: negative class label {y.min()}")
    return Dataset(np.array(rows, dtype=np.float64), y, int(y.max()) + 1)


# ---------------------------------------------------------------------------
# softmax regression


def _softmax_core(W, b, X, y, reg, grads):
    """Losses of the multinomial logistic loss on (X, y) plus reg * sum(W**2)
    at C points at once, W (C, k, d) and b (C, k); each mean is over the given
    rows.  Each point's gradient is written into its row of ``grads``
    (C, k*d + k), flat as [dW rows..., db].

    One point is the C = 1 case.  Every row's values are bit-identical to
    that row's own call: ``matmul`` runs one gemm per point, and every
    reduction runs over one point's values in the same order whatever C is.
    Logits are laid out (C, k, m), classes by rows, so the max and the sum
    over classes run down contiguous rows.
    """
    C, k, d = W.shape
    m = X.shape[0]
    cols = np.arange(m)
    Z = np.matmul(W, X.T)
    Z += b[:, :, None]
    Z -= Z.max(axis=1, keepdims=True)
    z_y = np.take(Z.reshape(C, k * m), y * m + cols, axis=1)  # each label's logit
    P = np.exp(Z, out=Z)
    denom = np.add.reduce(P, axis=1)
    # cross-entropy: mean of log(denom) - z_y  (after max shift)
    lse = np.log(denom)
    lse -= z_y
    losses = np.add.reduce(lse, axis=1) / m
    P /= denom[:, None, :]
    one_hot = np.zeros((k, m))
    one_hot[y, cols] = 1.0
    P -= one_hot  # p - 0.0 is p: only the label entries change
    P /= m
    dW = grads[:, : k * d].reshape(C, k, d)
    np.matmul(P, X, out=dW)
    np.add.reduce(P, axis=2, out=grads[:, k * d :])
    if reg:
        losses += reg * np.add.reduce((W * W).reshape(C, k * d), axis=1)
        dW += (2.0 * reg) * W
    return losses


def softmax_objective(W: np.ndarray, b: np.ndarray, data: Dataset, reg: float):
    """Full-batch softmax regression objective.

    loss = mean cross-entropy + reg * sum_k ||w_k||^2 (biases unpenalized);
    returns (loss, gradient) with the gradient flattened as [dW rows..., db].
    """
    W = np.asarray(W, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    K = data.num_classes
    if W.shape != (K, data.d) or b.shape != (K,):
        raise ShapeMismatch(
            f"want W ({K}, {data.d}) and b ({K},), got {W.shape} and {b.shape}"
        )
    if not (np.isfinite(W).all() and np.isfinite(b).all()):
        raise NonFiniteInput("parameters contain NaN or Inf")
    grads = np.empty((1, K * (data.d + 1)))
    losses = _softmax_core(W[None], b[None], data.features, data.labels, reg, grads)
    return float(losses[0]), grads[0]


def pack_params(W: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.concatenate([np.asarray(W).ravel(), np.asarray(b)])


def unpack_params(x: np.ndarray, k: int, d: int):
    if x.shape != (k * d + k,):
        raise ShapeMismatch(f"flat parameters must have shape ({k * d + k},), got {x.shape}")
    return x[: k * d].reshape(k, d), x[k * d :]


class SoftmaxObjective(LossOracle):
    """Full-batch softmax regression as a deterministic oracle over the
    flattened parameter vector [w_1 ... w_K, b]."""

    time_invariant = True

    def __init__(self, data: Dataset, reg: float = 0.0):
        if reg < 0.0:
            raise ValueError(f"reg must be >= 0, got {reg}")
        self.data = data
        self.reg = reg
        self.dim = data.num_classes * (data.d + 1)

    def loss_and_grad(self, x: np.ndarray, idx: np.ndarray | None = None):
        """(loss, gradient) at one point x (dim,), or (C losses, (C, dim)
        gradients) at a stack of points, each row bit-identical to that
        row's own call; over the rows ``idx`` of the data when given."""
        X = self.data.features
        y = self.data.labels
        if idx is not None:
            X = X.take(idx, axis=0)
            y = y.take(idx)
        if x.ndim not in (1, 2) or x.shape[-1] != self.dim:
            raise ShapeMismatch(
                f"points must have shape ({self.dim},) or (C, {self.dim}), got {x.shape}"
            )
        k, d = self.data.num_classes, self.data.d
        points = x.reshape(-1, self.dim)
        grads = np.empty(points.shape)
        W = points[:, : k * d].reshape(-1, k, d)
        losses = _softmax_core(W, points[:, k * d :], X, y, self.reg, grads)
        if x.ndim == 1:
            return float(losses[0]), grads[0]
        return losses, grads

    def evaluate(self, t, x, rng=None):
        return self.loss_and_grad(x)


class MinibatchOracle(LossOracle):
    """Minibatch view of a finite-sum objective.

    Round t maps to (epoch, slot) with batches_per_epoch = ceil(n / batch);
    each epoch draws a fresh permutation from the run's seeded source and
    slices it without replacement, so batch contents are a pure function of
    (seed, t).  The final slot of an epoch may be smaller than ``batch``.
    The rows of a stack share the round's batch; the run's ``RoundRng``
    caches the epoch's permutation.
    """

    stochastic = True

    def __init__(self, objective: SoftmaxObjective, batch_size: int):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.objective = objective
        self.batch_size = min(batch_size, objective.data.n)
        self.batches_per_epoch = math.ceil(objective.data.n / self.batch_size)
        self.dim = objective.dim

    def evaluate(self, t, x, rng):
        epoch, slot = divmod(t - 1, self.batches_per_epoch)
        perm = rng.permutation(epoch, self.objective.data.n)
        idx = perm[slot * self.batch_size : (slot + 1) * self.batch_size]
        return self.objective.loss_and_grad(x, idx)

    def full_loss(self, x):
        """The full-batch loss at x (dim,), or the C losses at the rows of a
        (C, dim) stack, evaluated in chunks of at most ``_FULL_LOSS_LOGITS``
        logits so that the temporaries stay bounded."""
        if x.ndim == 1:
            return self.objective.loss_and_grad(x)[0]
        data = self.objective.data
        rows = max(1, _FULL_LOSS_LOGITS // (data.num_classes * data.n))
        chunks = (x[lo : lo + rows] for lo in range(0, x.shape[0], rows))
        return np.concatenate([self.objective.loss_and_grad(chunk)[0] for chunk in chunks])
