"""Reverse-mode differentiable tensor core.

Everything is dense numpy, and every primitive keeps its inputs' dtype:
models train and serve in float32, and gradient checks run in float64
(central differences at epsilon = 1e-5 mean nothing in float32). Each
``ParameterStore`` fixes the dtype of its parameters, gradients and Adam
state. Gradients flow through an explicit Tape:
operations executed while a Tape is active record a backward rule, and
``Tape.backward`` replays the rules in exact reverse execution order,
accumulating (never overwriting) into input gradients. Tapes are created per
forward pass, discarded after backward, and never shared across threads.

Only the primitives the recommendation models need are provided; this is not
a general-purpose autodiff system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class Tensor:
    """A dense array with an optional gradient slot.

    ``data`` keeps a floating-point array's dtype; anything else becomes
    float64. ``grad`` has the same shape and dtype as ``data``. A
    parameter's is a fixed view into its store's gradient vector; any other
    tensor's is allocated on first accumulation. A Tensor may be read from
    many threads, but must not take part in a backward pass concurrently.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype.kind == "f" else data.astype(np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


_TAPE_STACK: list["Tape"] = []


def _active_tape() -> "Tape | None":
    return _TAPE_STACK[-1] if _TAPE_STACK else None


class Tape:
    """Ordered record of executed primitives for one forward pass.

    Use as a context manager around the forward computation, then call
    ``backward(loss, params)`` once. Replaying visits records in exact
    reverse execution order; each backward rule adds into its input grads.
    """

    def __init__(self) -> None:
        self._records: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []
        self._replayed = False
        # (output, table, rows read) of each embedding lookup and bag layer
        self._lookups: list[tuple[Tensor, Tensor, np.ndarray]] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not _TAPE_STACK or _TAPE_STACK[-1] is not self:
            raise RuntimeError("tapes must be exited in the reverse order of entry")
        _TAPE_STACK.pop()

    def record(self, out: Tensor, backward: Callable[[np.ndarray], None]) -> None:
        self._records.append((out, backward))

    def __len__(self) -> int:
        return len(self._records)

    def backward(self, loss: Tensor, params: "ParameterStore") -> None:
        """Populate grads of everything reachable from ``loss``.

        ``loss`` must be scalar. The gradient vector of ``params`` is zeroed
        in one call before the replay, so parameters the loss does not reach
        read zero. The rows of ``params``' tables that the replayed lookups
        and bag layers read are handed to it after the replay, for
        ``adam_step``. A second call raises ``RuntimeError`` before it zeroes
        anything: it would add to the sums the first left in every
        intermediate's ``grad``.
        """
        if self._replayed:
            raise RuntimeError("backward already ran on this tape; record a new one")
        if loss.data.size != 1:
            raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
        if loss.requires_grad and not any(out is loss for out, _ in self._records):
            raise ValueError("loss tensor was not produced on this tape")
        self._replayed = True
        params._zero_grads()
        if loss.requires_grad:
            loss.grad = np.ones_like(loss.data)
            for out, rule in reversed(self._records):
                if out.grad is not None:
                    rule(out.grad)
        # a lookup's or bag layer's rule ran when its output got a gradient
        params._read_rows([(table, ids) for out, table, ids in self._lookups
                           if out.grad is not None])


def _trace(out: Tensor, inputs: Sequence[Tensor], backward: Callable[[np.ndarray], None]) -> Tensor:
    tape = _active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.record(out, backward)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g, b.shape))

    return _trace(out, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data - b.data)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(-g, b.shape))

    return _trace(out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g * a.data, b.shape))

    return _trace(out, (a, b), backward)


def scale(t: Tensor, c: float) -> Tensor:
    out = Tensor(t.data * c)

    def backward(g: np.ndarray) -> None:
        if t.requires_grad:
            t.accumulate_grad(g * c)

    return _trace(out, (t,), backward)


def add_const(t: Tensor, c: float) -> Tensor:
    out = Tensor(t.data + c)

    def backward(g: np.ndarray) -> None:
        if t.requires_grad:
            t.accumulate_grad(g)

    return _trace(out, (t,), backward)


def one_minus(t: Tensor) -> Tensor:
    return add_const(scale(t, -1.0), 1.0)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    out = Tensor(a.data @ b.data)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(g @ b.data.T)
        if b.requires_grad:
            b.accumulate_grad(a.data.T @ g)

    return _trace(out, (a, b), backward)


def linear(x: Tensor, w: Tensor, b: Tensor, tanh: bool = False) -> Tensor:
    """Dense layer y = xW + b, bias broadcast over the batch, or tanh(xW + b)
    with ``tanh``; one tape record. Backward repeats the arithmetic of the
    ``matmul``, ``add`` (, ``tanh``) chain: each link's gradient started as
    zeros plus the incoming one, which turns -0.0 into +0.0, hence the
    ``+ 0.0``s."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"linear shape mismatch: x {x.shape} vs W {w.shape}")
    if b.data.shape != (w.shape[1],):
        raise ShapeError(f"linear bias shape {b.shape} does not match W {w.shape}")
    y = x.data @ w.data + b.data
    out = Tensor(np.tanh(y) if tanh else y)

    def backward(g: np.ndarray) -> None:
        if tanh:
            g = g * (1.0 - out.data * out.data) + 0.0
        if b.requires_grad:
            b.accumulate_grad(g.sum(axis=0))
        if x.requires_grad or w.requires_grad:
            g = g + 0.0
            if x.requires_grad:
                x.accumulate_grad(g @ w.data.T)
            if w.requires_grad:
                w.accumulate_grad(x.data.T @ g)

    return _trace(out, (x, w, b), backward)


def bag_linear(bags: Tensor, w: Tensor, b: Tensor, tanh: bool = False) -> Tensor:
    """``linear`` on multi-hot ``bags`` with the same bytes and tape record;
    the tape also keeps the bags' nonzero columns, the only rows of ``w``
    the product reads, so that a table ``w`` takes Adam steps on those rows
    alone."""
    out = linear(bags, w, b, tanh)
    if out.requires_grad:
        _active_tape()._lookups.append((out, w, np.flatnonzero(bags.data.any(axis=0))))
    return out


def exp(t: Tensor) -> Tensor:
    out = Tensor(np.exp(t.data))

    def backward(g: np.ndarray) -> None:
        if t.requires_grad:
            t.accumulate_grad(g * out.data)

    return _trace(out, (t,), backward)


def tanh(t: Tensor) -> Tensor:
    out = Tensor(np.tanh(t.data))

    def backward(g: np.ndarray) -> None:
        if t.requires_grad:
            t.accumulate_grad(g * (1.0 - out.data * out.data))

    return _trace(out, (t,), backward)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below: exp(-|x|) never
    # overflows, so no warnings for large |x|
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (1.0 + e)


def sigmoid(t: Tensor) -> Tensor:
    out = Tensor(_sigmoid(t.data))

    def backward(g: np.ndarray) -> None:
        if t.requires_grad:
            t.accumulate_grad(g * out.data * (1.0 - out.data))

    return _trace(out, (t,), backward)


def softplus(t: Tensor) -> Tensor:
    """log(1 + exp(x)), the stable form of -log sigmoid(-x)."""
    out = Tensor(np.logaddexp(0.0, t.data))

    def backward(g: np.ndarray) -> None:
        if t.requires_grad:
            t.accumulate_grad(g * _sigmoid(t.data))

    return _trace(out, (t,), backward)


def _segment_sums(x: np.ndarray, segments: Sequence[int]) -> np.ndarray:
    """[len(segments)] sums of the runs of ``segments[i]`` consecutive rows
    of ``x``, which must add up to its rows; each run's is ``np.sum`` of its
    slice, so a single run rounds as ``np.sum(x)`` does."""
    ends = np.cumsum(segments)
    if ends.size == 0 or ends[-1] != x.shape[0] or np.any(np.asarray(segments) < 0):
        raise ShapeError(f"segments {list(segments)} do not cover the {x.shape[0]} rows")
    return np.array([np.sum(x[hi - n : hi]) for n, hi in zip(segments, ends)], x.dtype)


def _per_row(g: np.ndarray, segments: Sequence[int], ndim: int) -> np.ndarray:
    """Each segment's entry of ``g`` repeated over its rows, shaped to
    broadcast against an ``ndim``-dimensional array of those rows."""
    return np.repeat(g, segments).reshape((-1,) + (1,) * (ndim - 1))


def sum_all(t: Tensor, segments: Sequence[int] | None = None) -> Tensor:
    """The sum of every entry of ``t``; given ``segments``, counts of
    consecutive rows that add up to ``t``'s first axis, the [len(segments)]
    sums of those runs of rows, one record either way."""
    if segments is None:
        out = Tensor(np.sum(t.data))
    else:
        out = Tensor(_segment_sums(t.data, segments))

    def backward(g: np.ndarray) -> None:
        if t.requires_grad:
            if segments is not None:
                g = _per_row(g, segments, t.data.ndim)
            t.accumulate_grad(np.broadcast_to(g, t.shape).copy())

    return _trace(out, (t,), backward)


def weighted_sum(t: Tensor, weights) -> Tensor:
    """``sum(weights * t)`` over a [B] ``t``, in one record: a batch's mean
    of per-row losses, each with its own normalizer. ``weights`` is a
    constant, cast to ``t``'s dtype."""
    w = np.asarray(weights, dtype=t.data.dtype)
    if t.data.ndim != 1 or w.shape != t.shape:
        raise ShapeError(f"weighted_sum expects [B] values and weights, got {t.shape} "
                         f"and {w.shape}")
    out = Tensor(np.sum(t.data * w))

    def backward(g: np.ndarray) -> None:
        if t.requires_grad:
            t.accumulate_grad(g * w)

    return _trace(out, (t,), backward)


def take_rows(t: Tensor, rows) -> Tensor:
    """``t[rows]`` for distinct row indices ``rows``, in one record; backward
    places each row's gradient back in a zeroed array of ``t``'s shape."""
    idx = np.asarray(rows, dtype=np.int64)
    out = Tensor(t.data[idx])

    def backward(g: np.ndarray) -> None:
        if t.requires_grad:
            full = np.zeros_like(t.data)
            full[idx] = g
            t.accumulate_grad(full)

    return _trace(out, (t,), backward)


def sub_halves(t: Tensor) -> Tensor:
    """``t[n:] - t[:n]`` for the two n-row halves of ``t``, in one record:
    one subtraction per row, so exact in the sense of ``sub``."""
    if t.data.ndim == 0 or t.shape[0] % 2:
        raise ShapeError(f"sub_halves needs an even number of rows, got shape {t.shape}")
    n = t.shape[0] // 2
    out = Tensor(t.data[n:] - t.data[:n])

    def backward(g: np.ndarray) -> None:
        if t.requires_grad:
            t.accumulate_grad(np.concatenate([-g, g]))

    return _trace(out, (t,), backward)


def _log_sum_exp(x: np.ndarray) -> np.ndarray:
    """[R, 1] log sum exp of each row of a [R, N] array; subtracting the
    row max keeps it finite for any finite input."""
    m = np.max(x, axis=1, keepdims=True)
    return m + np.log(np.sum(np.exp(x - m), axis=1, keepdims=True))


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log softmax of a [batch, N] array, off the tape: scoring
    reads it, and training goes through ``log_softmax_at``. exp of the
    result sums to 1 per row to machine precision."""
    if logits.ndim != 2 or logits.shape[1] < 1:
        raise ShapeError(f"log_softmax expects [batch, N], got {logits.shape}")
    return logits - _log_sum_exp(logits)


def log_softmax_at(logits: Tensor, rows, cols) -> Tensor:
    """``log_softmax(logits)[rows, cols]`` for index arrays of any shape that
    broadcast together; the result has their broadcast shape. Only each
    row's log-sum-exp is kept, and the op records one tape entry: backward
    scatters the incoming gradient into a zeroed [R, N] array, pairs that
    repeat adding up, and subtracts the softmax times each row's sum."""
    if logits.data.ndim != 2 or logits.shape[1] < 1:
        raise ShapeError(f"log_softmax_at expects [batch, N] logits, got {logits.shape}")
    r = np.asarray(rows, dtype=np.int64)
    c = np.asarray(cols, dtype=np.int64)
    x = logits.data
    lse = _log_sum_exp(x)
    out = Tensor(x[r, c] - lse[r, 0])

    def backward(g: np.ndarray) -> None:
        if logits.requires_grad:
            dense = np.zeros(x.shape, x.dtype)  # C-ordered, whatever x is
            # a two-array np.add.at's scalar additions, in its order, on the
            # faster 1-D index path; "wrap" reads negative indices as x[r, c]
            cells = np.ravel_multi_index((r, c), x.shape, mode="wrap")
            np.add.at(dense.reshape(-1), cells, g)
            dense -= np.exp(x - lse) * dense.sum(axis=1, keepdims=True)
            logits.accumulate_grad(dense)

    return _trace(out, (logits,), backward)


def logsumexp_rows(t: Tensor) -> Tensor:
    """log sum exp over the last axis, one value per row; -inf entries take
    no part, and every row needs at least one finite entry."""
    x = t.data
    m = np.max(x, axis=-1, keepdims=True)
    out = Tensor(m[..., 0] + np.log(np.sum(np.exp(x - m), axis=-1)))

    def backward(g: np.ndarray) -> None:
        if t.requires_grad:
            t.accumulate_grad(g[..., None] * np.exp(x - out.data[..., None]))

    return _trace(out, (t,), backward)


def embedding_lookup(table: Tensor, ids: Sequence[int]) -> Tensor:
    """Gather rows of ``table``: [B] ids give the [B, d] rows, and [B, k]
    ids the [B, k * d] rows with each id's k rows side by side. Backward
    scatters gradients additively; the tape keeps the ids, so that its
    backward can tell the store which table rows the replay reached."""
    idx = np.asarray(ids, dtype=np.int64)
    n = table.shape[0]
    bad = idx[(idx < 0) | (idx >= n)]
    if bad.size:
        raise IndexError(f"embedding id {bad[0]} out of range [0, {n})")
    width = math.prod(table.shape[1:])
    rows = table.data[idx]
    if idx.ndim == 2:
        rows = rows.reshape(idx.shape[0], idx.shape[1] * width)
    out = Tensor(rows)

    def backward(g: np.ndarray) -> None:
        if table.requires_grad:
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            grad = table.grad
            if not grad.flags.c_contiguous:
                np.add.at(grad, idx, g.reshape(idx.shape + table.shape[1:]))
                return
            # the same scalar additions, in the same order, as np.add.at
            # over rows, on numpy's several times faster 1-D index path
            cells = (idx.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
            np.add.at(grad.reshape(-1), cells, g.reshape(-1))

    _trace(out, (table,), backward)
    if out.requires_grad:
        _active_tape()._lookups.append((out, table, idx))
    return out


# ---------------------------------------------------------------------------
# diagonal Gaussian latents


def reparameterize(mu: Tensor, log_sigma: Tensor, noise: np.ndarray) -> Tensor:
    """z = mu + exp(log_sigma) * noise in one tape record; backward repeats
    the ``exp``, ``mul``, ``add`` chain's arithmetic, zero-started link
    gradients included (see ``linear``). ``noise`` is cast to ``mu``'s
    dtype, so callers draw it in float64 whatever the model's dtype."""
    noise = np.asarray(noise, dtype=mu.data.dtype)
    if noise.shape != mu.shape or log_sigma.shape != mu.shape:
        raise ShapeError(f"noise shape {noise.shape} and log sigma shape {log_sigma.shape} "
                         f"vs mu shape {mu.shape}")
    sigma = np.exp(log_sigma.data)
    out = Tensor(mu.data + sigma * noise)

    def backward(g: np.ndarray) -> None:
        if mu.requires_grad:
            mu.accumulate_grad(g)
        if log_sigma.requires_grad:
            log_sigma.accumulate_grad(((g + 0.0) * noise + 0.0) * sigma)

    return _trace(out, (mu, log_sigma), backward)


def kl_standard_normal(mu: Tensor, log_sigma: Tensor,
                       segments: Sequence[int] | None = None) -> Tensor:
    """KL(N(mu, diag sigma^2) || N(0, I)) summed over every coordinate, in
    one tape record; given ``segments`` (see ``sum_all``), the [len(segments)]
    sums over those runs of rows. Forward and backward repeat the arithmetic
    and order of the chain ``scale(sum_all((exp(2 ls) - 1) + (-2 ls + mu *
    mu)), 0.5)``: ``mu`` takes ``c * mu`` twice, as ``mu * mu`` gave it, and
    ``log_sigma`` the ``-2 ls`` share before the exponential's."""
    if log_sigma.shape != mu.shape:
        raise ShapeError(f"log sigma shape {log_sigma.shape} vs mu shape {mu.shape}")
    var = np.exp(log_sigma.data * 2.0)
    terms = (var + -1.0) + (log_sigma.data * -2.0 + mu.data * mu.data)
    out = Tensor((np.sum(terms) if segments is None else _segment_sums(terms, segments)) * 0.5)

    def backward(g: np.ndarray) -> None:
        c = g * 0.5 + 0.0
        if segments is not None:
            c = _per_row(c, segments, mu.data.ndim)
        if mu.requires_grad:
            d_mu = c * mu.data
            mu.accumulate_grad(d_mu)
            mu.accumulate_grad(d_mu)
        if log_sigma.requires_grad:
            log_sigma.accumulate_grad(c * -2.0)
            log_sigma.accumulate_grad((c * var + 0.0) * 2.0)

    return _trace(out, (mu, log_sigma), backward)


# ---------------------------------------------------------------------------
# GRU cell


@dataclass
class GRUParams:
    """A GRU's weights as the recurrence multiplies them: ``w`` [d, 3H] and
    ``b`` [3H] hold the reset, update and candidate columns side by side,
    ``u_gates`` [H, 2H] the reset and update blocks applied to the state h,
    and ``u_cand`` [H, H] the block applied to r * h."""

    w: Tensor
    b: Tensor
    u_gates: Tensor
    u_cand: Tensor


def gru_cell(x: Tensor, h_prev: Tensor, p: GRUParams) -> Tensor:
    """One GRU step: h' = u * h_prev + (1 - u) * c.

    Each gate reads its columns of the products by a matmul against a
    constant 0/1 selector (columns of an identity), which copies finite
    values exactly. The update gate preserves the previous state, so with
    all-zero parameters the cell halves the hidden state exactly.
    """
    if x.shape[0] != h_prev.shape[0]:
        raise ShapeError(f"gru_cell batch mismatch: x {x.shape} vs h {h_prev.shape}")
    hid = p.u_cand.shape[0]
    sel = np.eye(3 * hid, dtype=p.w.data.dtype)  # column block k selects gate k
    x_part, h_part = add(matmul(x, p.w), p.b), matmul(h_prev, p.u_gates)
    x_r, x_u, x_c = (matmul(x_part, Tensor(sel[:, k * hid : (k + 1) * hid])) for k in range(3))
    h_r, h_u = (matmul(h_part, Tensor(sel[: 2 * hid, k * hid : (k + 1) * hid])) for k in range(2))
    r, u = sigmoid(add(x_r, h_r)), sigmoid(add(x_u, h_u))
    c = tanh(add(x_c, matmul(mul(r, h_prev), p.u_cand)))
    return add(mul(u, h_prev), mul(one_minus(u), c))


def gru_sequence(x_rows: Tensor, h0: Tensor, p: GRUParams) -> Tensor:
    """Run the GRU over T steps of B sequences at once. ``x_rows`` is
    [T * B, d] in step-major order, row t * B + b holding sequence b's input
    at step t; ``h0`` is [B, H]; and row t * B + b of the [T * B, H] result
    is sequence b's state after its steps 0..t. With B = 1 the rows are one
    sequence's steps.

    Computes what T chained ``gru_cell`` calls compute (to rounding) but
    records one tape entry. The recurrence is causal, so sequences of
    different lengths can share a call right-padded: a row's state at its
    last real step does not depend on the padding after it. The weights are
    read in place, stored as the recurrence multiplies them (``GRUParams``;
    a checkpoint of the older nine-tensor layout must be retrained): the
    input projection of all T * B rows, biases included, is one matmul
    against ``w``; a step adds ``h @ u_gates``, one ``(r*h) @ u_cand`` and
    elementwise work, with ``h`` a [B, H] matrix (with B = 1 this rounds
    exactly as the one-row product does), in 12 numpy calls that write into
    the step's slices of the saved buffers: the reset and update gates
    come from one tanh, as sigmoid(z) = tanh(z / 2) / 2 + 1 / 2, and the
    state is h' = c + u (h - c). Backward is hand-written backprop
    through time: the reverse loop carries only the [B, H] state gradient
    and fills a [T, B, 3H] array of gate pre-activation gradients, from
    which the weight, bias, input and ``h0`` gradients come in a few
    matmuls.

    Every buffer and gradient takes the dtype that the inputs and weights
    compute in; an ``h0`` of another dtype is a ``TypeError``.
    """
    w, b, u_gates, u_cand = p.w.data, p.b.data, p.u_gates.data, p.u_cand.data
    d, hid = w.shape[0], u_cand.shape[0]
    x = x_rows.data
    if x.ndim != 2 or x.shape[1] != d:
        raise ShapeError(f"gru_sequence inputs {x_rows.shape} do not match W {p.w.shape}")
    n_rows = h0.shape[0] if h0.data.ndim == 2 and h0.shape[1] == hid else 0
    if n_rows == 0 or x.shape[0] % n_rows:
        raise ShapeError(f"gru_sequence h0 must be [B, {hid}] with B >= 1 dividing the "
                         f"{x.shape[0]} input rows, got {h0.shape}")
    n_steps = x.shape[0] // n_rows
    # input part of every gate pre-activation, [T, B, 3H]
    pre = (x @ w + b).reshape(n_steps, n_rows, 3 * hid)
    dtype = pre.dtype  # every buffer, forward and backward, follows the data
    if h0.data.dtype != dtype:
        raise TypeError(f"gru_sequence h0 is {h0.data.dtype}, but its inputs and weights "
                        f"compute in {dtype}")
    gates = np.empty((n_steps, n_rows, 2 * hid), dtype)  # r | u per step
    cand = np.empty((n_steps, n_rows, hid), dtype)
    reset_h = np.empty((n_steps, n_rows, hid), dtype)  # r * h_prev, the input of U_c
    states = np.empty((n_steps, n_rows, hid), dtype)
    # per-gate views, so that each step indexes only its first axis
    pre_gates, pre_cand = pre[..., : 2 * hid], pre[..., 2 * hid :]
    r_all, u_all = gates[..., :hid], gates[..., hid:]
    # sigmoid(z) = tanh(z / 2) / 2 + 1 / 2: both halvings are exact, so the
    # tanh reads exactly z / 2, and it saturates at +-1 without overflow
    pre_gates *= 0.5
    half_u_gates = u_gates * 0.5
    h = h0.data
    for t in range(n_steps):
        g = gates[t]
        np.dot(h, half_u_gates, out=g)
        g += pre_gates[t]
        np.tanh(g, out=g)
        g *= 0.5
        g += 0.5
        rh, c, h_next = reset_h[t], cand[t], states[t]
        np.multiply(r_all[t], h, out=rh)
        np.dot(rh, u_cand, out=c)
        c += pre_cand[t]
        np.tanh(c, out=c)
        # h' = u h + (1 - u) c = c + u (h - c)
        np.subtract(h, c, out=h_next)
        h_next *= u_all[t]
        h_next += c
        h = h_next
    out = Tensor(states.reshape(n_steps * n_rows, hid))

    def backward(g: np.ndarray) -> None:
        g = g.reshape(n_steps, n_rows, hid)
        r, u = gates[..., :hid], gates[..., hid:]
        h_prev = np.concatenate([h0.data[None], states], axis=0)[:n_steps]
        # per-step factors taking the state gradient to the update and
        # candidate pre-activation gradients, and d(r*h) to the reset one
        uc_factor = np.stack([(h_prev - cand) * u * (1.0 - u),
                              (1.0 - u) * (1.0 - cand * cand)], axis=2)
        r_factor = h_prev * r * (1.0 - r)
        d_pre = np.empty((n_steps, n_rows, 3 * hid), dtype)
        d_pre4 = d_pre.reshape(n_steps, n_rows, 3, hid)
        d_reset, d_uc, d_cand = d_pre4[:, :, 0], d_pre4[:, :, 1:], d_pre4[:, :, 2]
        d_gates = d_pre[..., : 2 * hid]
        u_gates_t, u_cand_t = u_gates.T, u_cand.T
        dh = np.zeros((n_rows, hid), dtype)
        for t in range(n_steps - 1, -1, -1):
            dh += g[t]
            np.multiply(dh[:, None], uc_factor[t], out=d_uc[t])
            d_rh = np.dot(d_cand[t], u_cand_t)
            np.multiply(d_rh, r_factor[t], out=d_reset[t])
            dh = dh * u[t] + d_rh * r[t] + np.dot(d_gates[t], u_gates_t)
        d_pre = d_pre.reshape(n_steps * n_rows, 3 * hid)
        if x_rows.requires_grad:
            x_rows.accumulate_grad(d_pre @ w.T)
        if h0.requires_grad:
            h0.accumulate_grad(dh)
        if p.w.requires_grad:
            p.w.accumulate_grad(x.T @ d_pre)
        if p.b.requires_grad:
            p.b.accumulate_grad(d_pre.sum(axis=0))
        if p.u_gates.requires_grad:
            p.u_gates.accumulate_grad(h_prev.reshape(-1, hid).T @ d_pre[:, : 2 * hid])
        if p.u_cand.requires_grad:
            p.u_cand.accumulate_grad(reset_h.reshape(-1, hid).T @ d_pre[:, 2 * hid :])

    return _trace(out, (x_rows, h0, p.w, p.b, p.u_gates, p.u_cand), backward)


# ---------------------------------------------------------------------------
# parameters and optimization


# Adam updates the arena in slices of this many values, so its temporaries
# stay small (two 128 KiB buffers in float32) whatever the model size; an
# embedding table's rows are gathered in blocks of at most as many values.
_ADAM_CHUNK = 1 << 15
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8
# the dtypes a ParameterStore takes, by name
DTYPES = ("float32", "float64")


def _adam_update(x, g, m, v, a, b, lr, weight_decay, bc1, bc2) -> None:
    """Adam on the values ``x`` in place, from their gradient ``g`` (weight
    decay is added to it in place) and moments ``m`` and ``v``; ``a`` and
    ``b`` are temporaries of the same shape."""
    if weight_decay != 0.0:
        g += np.multiply(weight_decay, x, out=a)
    m *= _BETA1
    m += np.multiply(1.0 - _BETA1, g, out=a)
    v *= _BETA2
    np.multiply(1.0 - _BETA2, g, out=a)
    v += np.multiply(a, g, out=a)
    # lr * (m / bc1) / (sqrt(v / bc2) + eps)
    np.divide(m, bc1, out=a)
    np.multiply(lr, a, out=a)
    np.divide(v, bc2, out=b)
    np.sqrt(b, out=b)
    b += _EPS
    x -= np.divide(a, b, out=a)


class ParameterStore:
    """Named trainable tensors in one flat arena of ``dtype``, plus Adam
    state.

    ``values`` holds every parameter in the order they were added, and each
    parameter's ``data`` is a reshaped view into it. ``grads``, both Adam
    moments and Adam's temporaries are vectors of the same dtype; the
    gradients and moments also share the layout: the first backward allocates
    ``grads`` and makes each parameter's ``grad`` a fixed view into it, and
    the first ``adam_step`` the moments, so a model that only predicts holds
    one vector. The arena is laid out once, after every parameter has been
    added. Names are unique; the step counter is shared across all
    parameters and increases by one per ``adam_step``.

    A parameter added with ``table=True`` is an embedding table, or a
    weight that ``bag_linear`` reads, which Adam updates row by row: only
    the rows that the last backward's lookups and bag layers read take a
    step. Laying out the arena also cuts it into segments: each table is
    one, and the parameters between two tables form one dense segment.
    ``adam_step`` walks them once a step.

    Models train and serve in float32, the default. A float64 store keeps
    the arithmetic of the float64 core exactly; ``gradient_check`` needs one.
    """

    def __init__(self, dtype=np.float32) -> None:
        self.dtype = np.dtype(dtype)
        if self.dtype.name not in DTYPES:
            raise ValueError(f"parameter dtype must be one of {DTYPES}, got {self.dtype}")
        self._params: dict[str, Tensor] = {}
        self._unset: set[str] = set()  # added by shape only; they start at zero
        # each table's name and the sorted rows the last backward read
        self._tables: dict[str, np.ndarray] = {}
        self._values: np.ndarray | None = None  # the arena, once laid out
        self.grads: np.ndarray | None = None
        self._moment1: np.ndarray | None = None
        self._moment2: np.ndarray | None = None
        # the arena's segments in order, as (lo, hi, table name or None)
        self._segments: list[tuple[int, int, str | None]] = []
        self.step_count = 0

    def add(self, name: str, values=None, shape: tuple[int, ...] | None = None,
            table: bool = False) -> Tensor:
        """Add a parameter holding ``values``, or, given only ``shape``, one
        that starts at zero without allocating anything of its own. The
        latter reads as zero but is written only after ``lay_out``. Values
        are cast to the store's dtype. ``table`` marks a [rows, dim] embedding
        table."""
        if self._values is not None:
            raise ValueError(f"cannot add parameter {name}: the arena is already laid out")
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        if values is None:
            values = np.broadcast_to(self.dtype.type(0.0), shape)
            self._unset.add(name)
        t = Tensor(np.asarray(values, dtype=self.dtype), requires_grad=True)
        if table:
            if t.data.ndim != 2:
                raise ValueError(f"table {name} must be [rows, dim], got shape {t.shape}")
            self._tables[name] = np.empty(0, np.int64)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def items(self) -> Iterable[tuple[str, Tensor]]:
        return self._params.items()

    @property
    def tables(self) -> tuple[str, ...]:
        """Names of the embedding tables, in the order they were added."""
        return tuple(self._tables)

    def layout(self) -> list[tuple[str, tuple[int, ...], int]]:
        """``(name, shape, offset)`` of each parameter within ``values``."""
        out = []
        offset = 0
        for name, p in self._params.items():
            out.append((name, p.shape, offset))
            offset += p.data.size
        return out

    def n_values(self) -> int:
        return sum(p.data.size for p in self._params.values())

    @property
    def values(self) -> np.ndarray:
        """Every parameter value in one contiguous vector (see ``layout``)."""
        self.lay_out()
        return self._values

    def lay_out(self, arena: np.ndarray | None = None) -> None:
        """Gather the parameters into the arena and rebind each one's
        ``data`` to its view, and record the arena's segments, which
        ``adam_step`` walks. ``values`` and a backward pass do this on first
        use; after it, ``add`` raises.

        Given ``arena``, a vector of ``n_values()`` entries of the store's
        dtype, the parameters become views into it as it is, with no
        allocation; every parameter must then have been added by shape
        only."""
        if arena is not None:
            if self._values is not None or self._unset != self._params.keys():
                raise ValueError("an arena can only be given to unset, unlaid parameters")
            if arena.dtype != self.dtype or arena.shape != (self.n_values(),):
                raise ValueError(
                    f"arena is {arena.dtype} {arena.shape}, expected {self.dtype} "
                    f"({self.n_values()},)"
                )
        if self._values is not None:
            return
        values = np.zeros(self.n_values(), self.dtype) if arena is None else arena
        for name, shape, offset in self.layout():
            p = self._params[name]
            view = values[offset : offset + p.data.size].reshape(shape)
            if name not in self._unset:
                view[...] = p.data
            p.data = view
            lo, hi, table = offset, offset + view.size, name if name in self._tables else None
            if table is None and self._segments and self._segments[-1][2] is None:
                lo = self._segments.pop()[0]
            self._segments.append((lo, hi, table))
        self._values = values

    def _zero_grads(self) -> None:
        """Zero ``grads`` in one call; the first call allocates it and binds
        each parameter's ``grad`` to its view."""
        if self.grads is not None:
            self.grads.fill(0.0)
            return
        self.grads = np.zeros_like(self.values)
        for name, shape, offset in self.layout():
            p = self._params[name]
            p.grad = self.grads[offset : offset + p.data.size].reshape(shape)

    def _read_rows(self, lookups: Sequence[tuple[Tensor, np.ndarray]]) -> None:
        """Keep, for each table, the sorted distinct rows of the (table, ids)
        pairs in ``lookups``, the lookups one backward pass reached."""
        for name in self._tables:
            table = self._params[name]
            mask = np.zeros(table.shape[0], bool)
            for t, ids in lookups:
                if t is table:
                    mask[ids] = True
            self._tables[name] = np.flatnonzero(mask)

    def adam_step(self, lr: float, weight_decay: float = 0.0) -> None:
        """One Adam update with bias correction, at the usual beta1 = 0.9,
        beta2 = 0.999 and eps = 1e-8.

        It reads ``grads`` as the last backward left it. Weight decay is
        added to the gradient before the moment updates (plain additive
        decay, not the decoupled variant). Each value sees the same
        operations in the same order as a per-tensor update, so the result
        is bit-identical to it.

        Embedding tables are lazy, as TF's LazyAdam and torch's SparseAdam
        are: a row that the last backward's lookups read takes the full
        update once, however often it was read, and every other row keeps
        its value and both moments. The step count, and so the bias
        correction, is the one shared by every parameter.

        It walks the arena's segments once: dense segments, and tables whose
        rows were all read, join one whole-update run, stepped in slices of
        ``_ADAM_CHUNK`` values; any other table ends the run and steps its
        read rows in gathered blocks. Both give a value the same operations.
        """
        if self.grads is None:
            raise ValueError("adam_step before backward: no gradient vector")
        values, grads = self._values, self.grads
        if self._moment1 is None:
            self._moment1 = np.zeros_like(values)
            self._moment2 = np.zeros_like(values)
        m1, m2 = self._moment1, self._moment2
        self.step_count += 1
        t = self.step_count
        step = (lr, weight_decay, 1.0 - _BETA1**t, 1.0 - _BETA2**t)
        tmp_a = np.empty(min(_ADAM_CHUNK, values.size), values.dtype)
        tmp_b = np.empty_like(tmp_a)

        def whole(lo: int, hi: int) -> None:
            for s in range(lo, hi, _ADAM_CHUNK):
                e = s + _ADAM_CHUNK if s + _ADAM_CHUNK < hi else hi
                _adam_update(values[s:e], grads[s:e], m1[s:e], m2[s:e],
                             tmp_a[: e - s], tmp_b[: e - s], *step)

        run = 0  # where the whole-update run that the next partly read table ends starts
        for lo, hi, name in self._segments:
            if name is None:
                continue
            table, rows = self._params[name], self._tables[name]
            shape = table.shape
            if rows.size == shape[0]:
                continue
            whole(run, lo)
            run = hi
            x_rows, g_rows = table.data, table.grad
            m_rows, v_rows = m1[lo:hi].reshape(shape), m2[lo:hi].reshape(shape)
            per_block = max(1, _ADAM_CHUNK // max(shape[1], 1))
            for first in range(0, rows.size, per_block):
                block = rows[first : first + per_block]
                # the gathered gradient is a copy, so it serves as a temporary
                x, g, m, v = x_rows[block], g_rows[block], m_rows[block], v_rows[block]
                _adam_update(x, g, m, v, np.empty_like(x), g, *step)
                x_rows[block], m_rows[block], v_rows[block] = x, m, v
        whole(run, values.size)

    def snapshot(self, out: np.ndarray | None = None) -> np.ndarray:
        """A copy of the arena, written into ``out`` when given (it must have
        the arena's shape) so that repeated snapshots reuse one buffer."""
        if out is None:
            return self.values.copy()
        if out.shape != self.values.shape:
            raise ValueError(
                f"snapshot buffer has shape {out.shape}, arena has {self.values.shape}"
            )
        np.copyto(out, self.values)
        return out

    def restore(self, snap: np.ndarray) -> None:
        self.values[...] = snap


def gradient_check(
    loss_fn: Callable[[], Tensor],
    store: ParameterStore,
    epsilon: float = 1e-5,
) -> float:
    """Compare analytic grads against central finite differences.

    ``loss_fn`` must be deterministic (fix any noise inputs outside). Returns
    the max of |a - n| / max(|a|, |n|, 1e-8) over every coordinate. The
    store must be float64: in float32 a step of ``epsilon`` is lost to
    rounding, and the check would measure that, not the gradients.
    """
    if store.dtype != np.float64:
        raise ValueError(f"gradient_check needs a float64 parameter store, got {store.dtype}")
    with Tape() as tape:
        loss = loss_fn()
    tape.backward(loss, store)
    analytic, values = store.grads.copy(), store.values
    worst = 0.0
    for i in range(values.size):
        orig = values[i]
        values[i] = orig + epsilon
        f_plus = loss_fn().item()
        values[i] = orig - epsilon
        f_minus = loss_fn().item()
        values[i] = orig
        numeric = (f_plus - f_minus) / (2.0 * epsilon)
        err = abs(analytic[i] - numeric) / max(abs(analytic[i]), abs(numeric), 1e-8)
        worst = max(worst, err)
    return worst
