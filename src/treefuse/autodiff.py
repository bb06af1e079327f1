"""Dense float64 tensors with reverse-mode differentiation on a tape.

Every op computes its forward result eagerly with numpy. The tape is the
only tracking rule: an op run inside ``with Tape()`` records a backward
closure, and that closure gives every input its gradient; an op run outside
a tape records nothing. ``backward`` replays the tape in reverse,
accumulating gradients with ``+=`` so shared inputs sum their contributions.

A parameter's gradient buffer is optimizer state: ``AdamState`` makes it
zeroed and points ``grad`` at it, ``zero_grads`` refills it before each
step, and training sets ``grad`` back to None when it ends. Any other
tensor gets a buffer from its first gradient.
"""

from __future__ import annotations

import numpy as np

PROB_EPS = 1e-12

_TAPE_STACK: list["Tape"] = []


class Tensor:
    """Row-major float64 array of rank <= 3, optionally carrying a gradient."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > 3:
            raise ValueError(f"tensor rank {arr.ndim} unsupported (max 3)")
        self.data = arr
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Add ``g`` into the gradient buffer in place.

        A tensor without a buffer, which no optimizer state owns, gets one
        as ``g + 0.0`` (bitwise equal to zeros plus ``g``, signed zeros
        included) in the layout of ``data``.
        """
        if self.grad is None:
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"


class Tape:
    """Ordered record of ops; inputs of a node always precede it."""

    def __init__(self):
        self._nodes: list[tuple[Tensor, object]] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc) -> None:
        popped = _TAPE_STACK.pop()
        assert popped is self, "tape stack corrupted"

    def record(self, out: Tensor, backward_fn) -> None:
        self._nodes.append((out, backward_fn))


def _active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _finish(out: Tensor, backward_fn) -> Tensor:
    tape = _active_tape()
    if tape is not None:
        tape.record(out, backward_fn)
    return out


def backward(tape: Tape, loss: Tensor) -> None:
    """Reverse sweep seeding d(loss)/d(loss) = 1. Single use per tape."""
    if loss.data.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    loss.accumulate_grad(np.ones_like(loss.data))
    for out, backward_fn in reversed(tape._nodes):
        if out.grad is None:
            continue
        backward_fn(out.grad)


# ---------------------------------------------------------------------------
# elementwise helpers


def _sigmoid_arr(x: np.ndarray, out=None, e=None, mask=None) -> np.ndarray:
    """1/(1+exp(-x)) for x >= 0 and exp(x)/(1+exp(x)) otherwise, as one
    formula: exp only ever sees -|x| <= 0, so it never overflows, and since
    e = exp(-|x|) lies in [0, 1] the numerator is ``max(e, x >= 0)``: 1
    where x >= 0, e elsewhere, NaN for NaN. Writes into ``out`` through the
    working arrays ``e`` (float) and ``mask`` (bool), all shaped like ``x``,
    when given; makes all three otherwise.
    """
    if out is None:
        out, e, mask = np.empty_like(x), np.empty_like(x), np.empty(x.shape, dtype=bool)
    np.exp(np.negative(np.abs(x, out=e), out=e), out=e)
    np.copyto(out, np.greater_equal(x, 0.0, out=mask))
    np.maximum(out, e, out=out)
    return np.divide(out, np.add(e, 1.0, out=e), out=out)


# ---------------------------------------------------------------------------
# ops


def matmul(a: Tensor, b: Tensor, *, ta: bool = False, tb: bool = False) -> Tensor:
    """2-D matrix product, with optional transposes applied to the operands."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(f"matmul needs 2-D operands, got {a.data.shape} and {b.data.shape}")
    av = a.data.T if ta else a.data
    bv = b.data.T if tb else b.data
    if av.shape[1] != bv.shape[0]:
        raise ValueError(
            f"matmul inner dimensions differ: {av.shape} x {bv.shape}"
            f" (ta={ta}, tb={tb}, raw {a.data.shape} x {b.data.shape})"
        )
    out = Tensor(av @ bv)

    def bw(g: np.ndarray) -> None:
        da = g @ bv.T
        a.accumulate_grad(da.T if ta else da)
        db = av.T @ g
        b.accumulate_grad(db.T if tb else db)

    return _finish(out, bw)


def matmul_consistent(a: Tensor, b: Tensor) -> Tensor:
    """2-D product whose output columns are bitwise functions of the matching
    input columns.

    The BLAS kernel behind ``matmul`` may round duplicate columns differently
    depending on their position in the matrix; the einsum path accumulates
    every output element in the same order, so duplicated columns of ``b``
    yield bitwise-identical output columns. Used where exact cross-mode
    comparisons depend on that property.
    """
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(f"matmul_consistent needs 2-D operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul_consistent inner dimensions differ: {a.data.shape} x {b.data.shape}")
    out = Tensor(np.einsum("ik,kt->it", a.data, b.data, optimize=False))

    def bw(g: np.ndarray) -> None:
        a.accumulate_grad(g @ b.data.T)
        b.accumulate_grad(a.data.T @ g)

    return _finish(out, bw)


def transpose2d(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ValueError(f"transpose2d needs a matrix, got shape {x.data.shape}")
    out = Tensor(x.data.T.copy())

    def bw(g: np.ndarray) -> None:
        x.accumulate_grad(g.T)

    return _finish(out, bw)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"add shape mismatch: {a.data.shape} vs {b.data.shape}")
    out = Tensor(a.data + b.data)

    def bw(g: np.ndarray) -> None:
        a.accumulate_grad(g)
        b.accumulate_grad(g)

    return _finish(out, bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"mul shape mismatch: {a.data.shape} vs {b.data.shape}")
    out = Tensor(a.data * b.data)

    def bw(g: np.ndarray) -> None:
        a.accumulate_grad(g * b.data)
        b.accumulate_grad(g * a.data)

    return _finish(out, bw)


def sigmoid(x: Tensor) -> Tensor:
    y = _sigmoid_arr(x.data)
    out = Tensor(y)

    def bw(g: np.ndarray) -> None:
        x.accumulate_grad(g * y * (1.0 - y))

    return _finish(out, bw)


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    out = Tensor(y)

    def bw(g: np.ndarray) -> None:
        x.accumulate_grad(g * (1.0 - y * y))

    return _finish(out, bw)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Max-subtracted softmax along ``axis``; rows of equal scores map to an
    exactly uniform distribution."""
    shifted = x.data - np.max(x.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / np.sum(e, axis=axis, keepdims=True)
    out = Tensor(y)

    def bw(g: np.ndarray) -> None:
        inner = np.sum(g * y, axis=axis, keepdims=True)
        x.accumulate_grad(y * (g - inner))

    return _finish(out, bw)


def concat(parts: list[Tensor], axis: int = 0) -> Tensor:
    if not parts:
        raise ValueError("concat of zero tensors")
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bw(g: np.ndarray) -> None:
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            p.accumulate_grad(g[tuple(idx)])

    return _finish(out, bw)


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    n = x.data.shape[axis]
    if not (0 <= start < stop <= n):
        raise ValueError(f"slice [{start}:{stop}] out of bounds for axis {axis} of size {n}")
    idx = [slice(None)] * x.data.ndim
    idx[axis] = slice(start, stop)
    out = Tensor(x.data[tuple(idx)].copy())

    def bw(g: np.ndarray) -> None:
        full = np.zeros_like(x.data)
        full[tuple(idx)] = g
        x.accumulate_grad(full)

    return _finish(out, bw)


def gather(table: Tensor, indices: np.ndarray) -> Tensor:
    """Select rows of a 2-D table; backward scatter-adds straight into the
    table's gradient buffer."""
    if table.data.ndim != 2:
        raise ValueError(f"gather table must be 2-D, got shape {table.data.shape}")
    ids = np.asarray(indices, dtype=np.int64)
    if ids.ndim != 1:
        raise ValueError(f"gather indices must be 1-D, got shape {ids.shape}")
    n = table.data.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise IndexError(f"gather index out of range [0, {n}): {ids}")
    out = Tensor(table.data[ids])

    def bw(g: np.ndarray) -> None:
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        np.add.at(table.grad, ids, g)

    return _finish(out, bw)


def reduce_sum(x: Tensor, axis: int | None = None) -> Tensor:
    out = Tensor(np.sum(x.data, axis=axis))

    def bw(g: np.ndarray) -> None:
        if axis is None:
            x.accumulate_grad(np.broadcast_to(g, x.data.shape).copy())
        else:
            x.accumulate_grad(np.broadcast_to(np.expand_dims(g, axis), x.data.shape).copy())

    return _finish(out, bw)


def mean_cols(x: Tensor) -> Tensor:
    """Mean over the column axis of a matrix, one value per row."""
    if x.data.ndim != 2:
        raise ValueError(f"mean_cols needs a matrix, got shape {x.data.shape}")
    n = x.data.shape[1]
    out = Tensor(np.mean(x.data, axis=1))

    def bw(g: np.ndarray) -> None:
        x.accumulate_grad(np.repeat(g[:, None] / n, n, axis=1))

    return _finish(out, bw)


def maxpool_cols(x: Tensor) -> Tensor:
    """Max over the column axis; backward routes to the argmax column
    (first column on ties)."""
    if x.data.ndim != 2:
        raise ValueError(f"maxpool_cols needs a matrix, got shape {x.data.shape}")
    amax = np.argmax(x.data, axis=1)
    rows = np.arange(x.data.shape[0])
    out = Tensor(x.data[rows, amax])

    def bw(g: np.ndarray) -> None:
        gx = np.zeros_like(x.data)
        gx[rows, amax] = g
        x.accumulate_grad(gx)

    return _finish(out, bw)


def repeat_rows(v: Tensor, n: int) -> Tensor:
    """Stack a vector into n identical rows; backward sums over rows."""
    if v.data.ndim != 1:
        raise ValueError(f"repeat_rows needs a vector, got shape {v.data.shape}")
    out = Tensor(np.tile(v.data, (n, 1)))

    def bw(g: np.ndarray) -> None:
        v.accumulate_grad(g.sum(axis=0))

    return _finish(out, bw)


def binary_cross_entropy(yhat: Tensor, target: np.ndarray) -> Tensor:
    """Summed binary cross-entropy over all labels (no mean reduction).

    Predictions are clamped into [PROB_EPS, 1 - PROB_EPS]; the clamp has zero
    derivative outside that band.
    """
    y = np.asarray(target, dtype=np.float64)
    if yhat.data.shape != y.shape:
        raise ValueError(f"bce shape mismatch: {yhat.data.shape} vs {y.shape}")
    yc = np.clip(yhat.data, PROB_EPS, 1.0 - PROB_EPS)
    loss = np.sum(-y * np.log(yc) - (1.0 - y) * np.log(1.0 - yc))
    out = Tensor(loss)

    def bw(g: np.ndarray) -> None:
        inside = (yhat.data >= PROB_EPS) & (yhat.data <= 1.0 - PROB_EPS)
        d = np.where(inside, (yc - y) / (yc * (1.0 - yc)), 0.0)
        yhat.accumulate_grad(g * d)

    return _finish(out, bw)


def _lstm_step(z, c, gates, c_out, tanh_c_out, h_out, e, mask, ig) -> None:
    """One LSTM step for one state (d) or a batch of states (n x d), written
    into arrays the caller owns.

    ``z`` is the packed pre-activation (... x 4d). Writes the gates into
    ``gates`` (one sigmoid over all of ``z``, with the cell quarter then
    overwritten by tanh), the new cell ``f c + i g`` into ``c_out``, its tanh
    into ``tanh_c_out`` and the new hidden state into ``h_out``. ``e``
    (float) and ``mask`` (bool) are working arrays shaped like ``z``, ``ig``
    one shaped like ``c``. ``c_out`` takes ``f c`` elementwise before ``i g``
    is added from ``ig``, so ``c_out`` may be ``c``, and ``tanh_c_out`` may
    be ``h_out``.
    """
    d = c.shape[-1]
    _sigmoid_arr(z, gates, e, mask)
    i, f, g, o = (gates[..., j * d : (j + 1) * d] for j in range(4))
    np.tanh(z[..., 2 * d : 3 * d], out=g)
    np.multiply(f, c, out=c_out)
    c_out += np.multiply(i, g, out=ig)
    np.tanh(c_out, out=tanh_c_out)
    np.multiply(o, tanh_c_out, out=h_out)


def lstm_sequence(
    emb: Tensor,
    w_input: Tensor,
    w_hidden: Tensor,
    bias: Tensor,
    reverse: bool = False,
) -> Tensor:
    """Run a single LSTM direction over a token-major embedding matrix.

    ``emb`` is N x d_e; gate weights are packed [input, forget, cell, output]
    along the first axis: ``w_input`` 4d x d_e, ``w_hidden`` 4d x d, ``bias``
    4d. Initial hidden and cell states are zero. Output row i is the hidden
    state at token i (for ``reverse`` the recurrence runs from the last token,
    rows stay aligned with the input). Backward is truncated nowhere: full
    backpropagation through time, recorded as one tape node.

    Buffers are indexed by step k, the k-th token visited. ``gates`` is
    N x 4d: one sigmoid over the packed pre-activation per step, with the
    cell slice then overwritten by tanh. ``hs``/``cs`` are (N+1) x d with
    row 0 the zero initial state, so ``hs[:-1]`` holds every step's previous
    hidden state; ``tanh_c`` is N x d. Every buffer is made before the step
    loop: step k computes ``wh @ hs[k]`` into one 4d pre-activation array,
    adds its input projection there, and ``_lstm_step`` writes the gates,
    cell, tanh and hidden state straight into row k of their buffers. The
    forward output is bitwise equal to evaluating the gates one slice at a
    time. Backward runs only the recurrence in the loop: the gate-local
    derivatives are precomputed, each step writes its pre-activation
    gradient into one row of ``dpre``, and the weight, bias and input
    gradients are single products over all of ``dpre`` after the loop.
    Those sums run in a different order from a per-step accumulation, so
    gradients agree with it to rounding.
    """
    E = emb.data
    if E.ndim != 2:
        raise ValueError(f"lstm_sequence needs a 2-D embedding matrix, got {E.shape}")
    wx, wh, b = w_input.data, w_hidden.data, bias.data
    d = wh.shape[1]
    if wx.shape[0] != 4 * d or wh.shape[0] != 4 * d or b.shape != (4 * d,):
        raise ValueError(
            f"lstm weight shapes inconsistent: w_input {wx.shape}, w_hidden {wh.shape}, bias {b.shape}"
        )
    if wx.shape[1] != E.shape[1]:
        raise ValueError(f"lstm input width {wx.shape[1]} != embedding width {E.shape[1]}")

    n = E.shape[0]
    pre = E @ wx.T + b
    if reverse:
        pre = pre[::-1]

    gates = np.empty((n, 4 * d))
    hs = np.zeros((n + 1, d))
    cs = np.zeros((n + 1, d))
    tanh_c = np.empty((n, d))
    z, e = np.empty(4 * d), np.empty(4 * d)
    mask, ig = np.empty(4 * d, dtype=bool), np.empty(d)
    for k in range(n):
        np.matmul(wh, hs[k], out=z)
        z += pre[k]
        _lstm_step(z, cs[k], gates[k], cs[k + 1], tanh_c[k], hs[k + 1], e, mask, ig)

    out = Tensor(hs[:0:-1].copy() if reverse else hs[1:])

    def bw(G: np.ndarray) -> None:
        gi, gf, gc, go = (gates[:, j * d : (j + 1) * d] for j in range(4))
        # d(loss)/dc through h = o * tanh(c)
        o_dtanh = go * (1.0 - tanh_c * tanh_c)
        # dpre = [dc, dc, dc, dh] * local: each gate's partner times the
        # derivative of its own nonlinearity
        local = gates * (1.0 - gates)
        local[:, 2 * d : 3 * d] = 1.0 - gc * gc
        local[:, :d] *= gc
        local[:, d : 2 * d] *= cs[:-1]
        local[:, 2 * d : 3 * d] *= gi
        local[:, 3 * d :] *= tanh_c

        Gs = G[::-1] if reverse else G
        whT = np.ascontiguousarray(wh.T)
        dpre = np.empty((n, 4 * d))
        dpre4 = dpre.reshape(n, 4, d)
        dh_next = np.zeros(d)
        dc_next = np.zeros(d)
        for k in range(n - 1, -1, -1):
            dh = Gs[k] + dh_next
            dc = dh * o_dtanh[k] + dc_next
            dpre4[k, :3] = dc
            dpre4[k, 3] = dh
            dpre[k] *= local[k]
            dc_next = dc * gf[k]
            dh_next = whT @ dpre[k]

        w_hidden.accumulate_grad(dpre.T @ hs[:-1])
        bias.accumulate_grad(dpre.sum(axis=0))
        if reverse:
            dpre = dpre[::-1]
        w_input.accumulate_grad(dpre.T @ E)
        emb.accumulate_grad(dpre @ wx)

    return _finish(out, bw)


def lstm_scan(table, ids, lengths, w_input, w_hidden, bias, out) -> None:
    """One forward-only LSTM direction over a batch of documents, keeping no
    history.

    ``ids`` is L x n and step-major: column j holds the row numbers of
    ``table`` that document j visits, in visiting order from row 0, and
    ``lengths`` (non-increasing) how many it has, so the documents still
    running at step k are the first ``sum(lengths > k)`` columns. Every row
    of ``table`` is projected once, before the step loop, as one GEMM
    (``table @ w_input.T + bias``); pass only the rows the batch uses (its
    distinct tokens), since the projection holds len(table) x 4d floats.

    The pre-activations, gates, cell state and the step's working arrays
    are made once, before the step loop, at the batch's full width n; step
    k works on the running prefix ``[:a]`` of each. It gathers the prefix's
    projected rows with ``np.take`` (an id outside the table raises
    IndexError), adds the recurrent product of the previous hidden states,
    one GEMM written into the gates buffer, and runs ``_lstm_step`` in
    place, writing the new hidden states to ``out[k, :a]``. Apart from the
    copy of its out buffer that ``np.take``'s bounds check fills, a step
    makes no array. ``out`` is L x n x d (it may be a strided view); entries
    past a document's length are left as they were. Takes plain arrays and
    records nothing on a tape.
    """
    n, d = ids.shape[1], w_hidden.shape[1]
    # BLAS runs these few-row products faster on a contiguous transpose
    whT = np.ascontiguousarray(w_hidden.T)
    proj = table @ w_input.T
    proj += bias
    z, gates, e = (np.empty((n, 4 * d)) for _ in range(3))
    mask = np.empty((n, 4 * d), dtype=bool)
    c, ig = np.zeros((n, d)), np.empty((n, d))
    for k in range(ids.shape[0]):
        a = np.count_nonzero(lengths > k)
        np.take(proj, ids[k, :a], axis=0, out=z[:a])
        if k:
            # the gates buffer holds the recurrent product until the step
            # writes the gates over it
            z[:a] += np.matmul(out[k - 1, :a], whT, out=gates[:a])
        h = out[k, :a]
        _lstm_step(z[:a], c[:a], gates[:a], c[:a], h, h, e[:a], mask[:a], ig[:a])


# ---------------------------------------------------------------------------
# optimizers


class AdamState:
    """Bias-corrected adaptive-moment optimizer state over a fixed parameter
    list, made whole at construction.

    ``grads``, ``m`` and ``v`` are zero arrays aligned with ``params`` and
    updated in place; each parameter's ``grad`` points at its buffer in
    ``grads`` until the caller sets it back to None. ``adam_step`` and
    ``clip_gradients`` compute through one scratch pair sized to the
    largest parameter, so a step allocates no parameter-sized array. The
    state is made before the first step: made inside the first step
    instead, among that step's temporaries, it left later steps growing and
    trimming the heap top every time, at several times the minor page
    faults per run.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: list[Tensor], lr: float):
        self.params = params
        self.lr = lr
        self.step_count = 0
        self.grads = [np.zeros_like(p.data) for p in params]
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]
        self.scratch = np.empty((2, max((p.data.size for p in params), default=0)))
        for p, g in zip(params, self.grads):
            p.grad = g

    def scratch_like(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Two views shaped like ``a`` into the scratch pair."""
        return tuple(row[: a.size].reshape(a.shape) for row in self.scratch)


def adam_step(state: AdamState) -> None:
    """One update of every parameter from its gradient buffer.

    Runs in place, in the operation order of
    ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g g`` and
    ``p -= lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps)``.
    """
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.BETA1, state.BETA2
    for p, g, m, v in zip(state.params, state.grads, state.m, state.v):
        a, b = state.scratch_like(p.data)
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=b)
        v *= b2
        np.multiply(g, 1.0 - b2, out=b)
        v += np.multiply(b, g, out=b)
        m_hat = np.divide(m, 1.0 - b1**t, out=a)
        denom = np.sqrt(np.divide(v, 1.0 - b2**t, out=b), out=b)
        denom += state.EPS
        m_hat *= state.lr
        m_hat /= denom
        p.data -= m_hat


def sgd_step(params: list[Tensor], lr: float) -> None:
    for p in params:
        if p.grad is not None:
            p.data -= lr * p.grad


def clip_gradients(state: AdamState, max_norm: float) -> float:
    """Scale the state's gradients so their global L2 norm is at most
    ``max_norm``; a ``max_norm`` <= 0 scales nothing.

    Each gradient is squared into the scratch pair and summed per tensor;
    the gradients are scaled in place. Returns the pre-clip norm.
    """
    total = 0.0
    for g in state.grads:
        out = state.scratch_like(g)[0]
        total += float(np.sum(np.multiply(g, g, out=out)))
    norm = float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for g in state.grads:
            g *= scale
    return norm


def zero_grads(state: AdamState) -> None:
    """Fill the state's gradient buffers with zeros, keeping the arrays."""
    for g in state.grads:
        g.fill(0.0)
