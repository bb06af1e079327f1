"""Dense float64 tensors with reverse-mode differentiation on a tape.

Every op computes its forward result eagerly with numpy and, while a Tape
is active, records a backward closure. ``backward`` replays the tape in
reverse, accumulating gradients with ``+=`` so shared inputs sum their
contributions. Tensors built outside a tape (or from ops on untracked
tensors) run inference-only and carry no gradient machinery.

Tapes are confined to one worker; parameters may be shared read-only
across workers, with updates serialized through a single owner.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PROB_EPS = 1e-12

_TAPE_STACK: list["Tape"] = []


class Tensor:
    """Row-major float64 array of rank <= 3, optionally carrying a gradient."""

    __slots__ = ("data", "requires_grad", "grad", "_tracked")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > 3:
            raise ValueError(f"tensor rank {arr.ndim} unsupported (max 3)")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._tracked = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


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

    def __len__(self) -> int:
        return len(self._nodes)

    def record(self, out: Tensor, backward_fn) -> None:
        out._tracked = True
        self._nodes.append((out, backward_fn))


def _active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _needs_grad(t: Tensor) -> bool:
    return t.requires_grad or t._tracked


def _finish(out: Tensor, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    tape = _active_tape()
    if tape is not None and any(_needs_grad(t) for t in inputs):
        tape.record(out, backward_fn)
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if _needs_grad(t):
        t.accumulate_grad(g)


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


def _sigmoid_arr(x: np.ndarray) -> np.ndarray:
    # 1/(1+exp(-x)) for x >= 0 and exp(x)/(1+exp(x)) otherwise, computed
    # without masks: exp only ever sees -|x| <= 0, so it never overflows
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


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
        if _needs_grad(a):
            da = g @ bv.T
            _accum(a, da.T if ta else da)
        if _needs_grad(b):
            db = av.T @ g
            _accum(b, db.T if tb else db)

    return _finish(out, (a, b), bw)


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
        if _needs_grad(a):
            _accum(a, g @ b.data.T)
        if _needs_grad(b):
            _accum(b, a.data.T @ g)

    return _finish(out, (a, b), bw)


def transpose2d(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ValueError(f"transpose2d needs a matrix, got shape {x.data.shape}")
    out = Tensor(x.data.T.copy())

    def bw(g: np.ndarray) -> None:
        _accum(x, g.T)

    return _finish(out, (x,), bw)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"add shape mismatch: {a.data.shape} vs {b.data.shape}")
    out = Tensor(a.data + b.data)

    def bw(g: np.ndarray) -> None:
        _accum(a, g)
        _accum(b, g)

    return _finish(out, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"mul shape mismatch: {a.data.shape} vs {b.data.shape}")
    out = Tensor(a.data * b.data)

    def bw(g: np.ndarray) -> None:
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return _finish(out, (a, b), bw)


def sigmoid(x: Tensor) -> Tensor:
    y = _sigmoid_arr(x.data)
    out = Tensor(y)

    def bw(g: np.ndarray) -> None:
        _accum(x, g * y * (1.0 - y))

    return _finish(out, (x,), bw)


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    out = Tensor(y)

    def bw(g: np.ndarray) -> None:
        _accum(x, g * (1.0 - y * y))

    return _finish(out, (x,), bw)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Max-subtracted softmax along ``axis``; rows of equal scores map to an
    exactly uniform distribution."""
    shifted = x.data - np.max(x.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / np.sum(e, axis=axis, keepdims=True)
    out = Tensor(y)

    def bw(g: np.ndarray) -> None:
        inner = np.sum(g * y, axis=axis, keepdims=True)
        _accum(x, y * (g - inner))

    return _finish(out, (x,), bw)


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
            _accum(p, g[tuple(idx)])

    return _finish(out, tuple(parts), bw)


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
        _accum(x, full)

    return _finish(out, (x,), bw)


def gather(table: Tensor, indices: np.ndarray) -> Tensor:
    """Select rows of a 2-D table; backward scatter-adds into the table."""
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
        if _needs_grad(table):
            gt = np.zeros_like(table.data)
            np.add.at(gt, ids, g)
            table.accumulate_grad(gt)

    return _finish(out, (table,), bw)


def reduce_sum(x: Tensor, axis: int | None = None) -> Tensor:
    out = Tensor(np.sum(x.data, axis=axis))

    def bw(g: np.ndarray) -> None:
        if axis is None:
            _accum(x, np.broadcast_to(g, x.data.shape).copy())
        else:
            _accum(x, np.broadcast_to(np.expand_dims(g, axis), x.data.shape).copy())

    return _finish(out, (x,), bw)


def mean_cols(x: Tensor) -> Tensor:
    """Mean over the column axis of a matrix, one value per row."""
    if x.data.ndim != 2:
        raise ValueError(f"mean_cols needs a matrix, got shape {x.data.shape}")
    n = x.data.shape[1]
    out = Tensor(np.mean(x.data, axis=1))

    def bw(g: np.ndarray) -> None:
        _accum(x, np.repeat(g[:, None] / n, n, axis=1))

    return _finish(out, (x,), bw)


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
        _accum(x, gx)

    return _finish(out, (x,), bw)


def repeat_rows(v: Tensor, n: int) -> Tensor:
    """Stack a vector into n identical rows; backward sums over rows."""
    if v.data.ndim != 1:
        raise ValueError(f"repeat_rows needs a vector, got shape {v.data.shape}")
    out = Tensor(np.tile(v.data, (n, 1)))

    def bw(g: np.ndarray) -> None:
        _accum(v, g.sum(axis=0))

    return _finish(out, (v,), bw)


def binary_cross_entropy(yhat: Tensor, target) -> Tensor:
    """Summed binary cross-entropy over all labels (no mean reduction).

    Predictions are clamped into [PROB_EPS, 1 - PROB_EPS]; the clamp has zero
    derivative outside that band.
    """
    y = np.asarray(target.data if isinstance(target, Tensor) else target, dtype=np.float64)
    if yhat.data.shape != y.shape:
        raise ValueError(f"bce shape mismatch: {yhat.data.shape} vs {y.shape}")
    yc = np.clip(yhat.data, PROB_EPS, 1.0 - PROB_EPS)
    loss = np.sum(-y * np.log(yc) - (1.0 - y) * np.log(1.0 - yc))
    out = Tensor(loss)

    def bw(g: np.ndarray) -> None:
        inside = (yhat.data >= PROB_EPS) & (yhat.data <= 1.0 - PROB_EPS)
        d = np.where(inside, (yc - y) / (yc * (1.0 - yc)), 0.0)
        _accum(yhat, g * d)

    return _finish(out, (yhat,), bw)


def _lstm_step(z, c, c_out, tanh_c_out, h_out) -> np.ndarray:
    """One LSTM step for one state (d) or a batch of states (n x d).

    ``z`` is the packed pre-activation (... x 4d). Writes the new cell, its
    tanh and the new hidden state into the three out arrays (``c_out`` may
    be ``c``, and ``tanh_c_out`` may be ``h_out``) and returns the gates:
    one sigmoid over all of ``z``, with the cell slice replaced by tanh.
    """
    d = c.shape[-1]
    g = _sigmoid_arr(z)
    np.tanh(z[..., 2 * d : 3 * d], out=g[..., 2 * d : 3 * d])
    c_out[...] = g[..., d : 2 * d] * c + g[..., :d] * g[..., 2 * d : 3 * d]
    np.tanh(c_out, out=tanh_c_out)
    np.multiply(g[..., 3 * d :], tanh_c_out, out=h_out)
    return g


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
    hidden state; ``tanh_c`` is N x d. The forward output is bitwise equal to
    evaluating the gates one slice at a time. Backward runs only the
    recurrence in the loop: the gate-local derivatives are precomputed, each
    step writes its pre-activation gradient into one row of ``dpre``, and
    the weight, bias and input gradients are single products over all of
    ``dpre`` after the loop. Those sums run in a different order from a
    per-step accumulation, so gradients agree with it to rounding.
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
    for k in range(n):
        gates[k] = _lstm_step(pre[k] + wh @ hs[k], cs[k], cs[k + 1], tanh_c[k], hs[k + 1])

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

        _accum(w_hidden, dpre.T @ hs[:-1])
        _accum(bias, dpre.sum(axis=0))
        if reverse:
            dpre = dpre[::-1]
        _accum(w_input, dpre.T @ E)
        _accum(emb, dpre @ wx)

    return _finish(out, (emb, w_input, w_hidden, bias), bw)


def lstm_scan(table, ids, lengths, w_input, w_hidden, bias, out) -> None:
    """One forward-only LSTM direction over a batch of documents, keeping no
    history.

    ``ids`` is L x n and step-major: column j holds the token ids document j
    visits, in visiting order from row 0, and ``lengths`` (non-increasing)
    how many it has, so the documents still running at step k are the first
    ``sum(lengths > k)`` columns. Each step gathers their rows of ``table``,
    projects them (``table[ids[k, :a]] @ w_input.T + bias``), adds the
    recurrent product over the running prefix of the n x d state as one
    GEMM and writes the new hidden states to ``out[k, :a]``. ``out`` is
    L x n x d (it may be a strided view); entries past a document's length
    are left as they were. Takes plain arrays and records nothing on a tape.
    """
    d = w_hidden.shape[1]
    # BLAS runs these few-row products faster on contiguous transposes
    wxT = np.ascontiguousarray(w_input.T)
    whT = np.ascontiguousarray(w_hidden.T)
    c = np.zeros((ids.shape[1], d))
    running = np.count_nonzero(lengths[:, None] > np.arange(ids.shape[0]), axis=0)
    for k, a in enumerate(running):
        z = table[ids[k, :a]] @ wxT
        z += bias
        if k:
            z += out[k - 1, :a] @ whT
        h = out[k, :a]
        _lstm_step(z, c[:a], c[:a], h, h)


# ---------------------------------------------------------------------------
# optimizers


@dataclass
class AdamState:
    """Bias-corrected adaptive-moment optimizer state, one slot per parameter."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: dict[int, np.ndarray] = field(default_factory=dict)
    v: dict[int, np.ndarray] = field(default_factory=dict)


def adam_step(params: list[Tensor], state: AdamState) -> None:
    """One update over all parameters; a missing gradient counts as zero."""
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    for idx, p in enumerate(params):
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if idx not in state.m:
            state.m[idx] = np.zeros_like(p.data)
            state.v[idx] = np.zeros_like(p.data)
        m = state.m[idx]
        v = state.v[idx]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        p.data -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)


def sgd_step(params: list[Tensor], lr: float) -> None:
    for p in params:
        if p.grad is not None:
            p.data -= lr * p.grad


def clip_gradients(params: list[Tensor], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``;
    a ``max_norm`` <= 0 scales nothing.

    Returns the pre-clip norm.
    """
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float(np.sum(p.grad * p.grad))
    norm = float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm


def zero_grads(params: list[Tensor]) -> None:
    for p in params:
        p.zero_grad()
