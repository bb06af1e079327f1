"""Dense float64 tensors with reverse-mode differentiation on a tape.

Every op computes its forward result eagerly with numpy. The tape is the
only tracking rule: an op run inside ``with Tape()`` records a backward
closure, and that closure gives every input its gradient; an op run outside
a tape records nothing. ``backward`` consumes the tape in reverse,
accumulating gradients with ``+=`` so shared inputs sum their contributions.
It drops each node once its closure has run, and with it the gradient of the
tensor that node produced: a tensor's node runs only after every consumer
has added its share, so the sweep frees each op's saved arrays and each
intermediate gradient as it passes them, and an emptied tape holds nothing.

Most ops are single numpy operations. ``lstm_sequence`` is a whole
bidirectional LSTM layer in one node: both directions step through the
document in one loop, and its backward runs full backpropagation through
time for both; ``lstm_scan`` is its forward-only, batched counterpart for
scoring and records nothing.

A parameter's gradient buffer is optimizer state: ``AdamState`` makes it
zeroed and points ``grad`` at it, ``zero_grads`` refills it before each
step, and training sets ``grad`` back to None when it ends. Any other
tensor gets a buffer from its first gradient, which it keeps after
``backward`` only if no op on the tape produced it.
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

        A tensor without a buffer, which no optimizer state owns, takes
        ``g`` itself as its buffer: every backward closure hands over a
        writable array that shares no element with another tensor's buffer.
        """
        if self.grad is None:
            self.grad = g
        else:
            self.grad += g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"


class Tape:
    """Ordered record of ops; inputs of a node always precede it.
    ``backward`` empties it."""

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
    """Reverse sweep seeding d(loss)/d(loss) = 1 that consumes the tape:
    each node is popped, run, and dropped with its output's ``grad``."""
    if loss.data.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    loss.accumulate_grad(np.ones_like(loss.data))
    nodes = tape._nodes
    while nodes:
        out, backward_fn = nodes.pop()
        if out.grad is not None:
            backward_fn(out.grad)
            out.grad = None


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
        del da  # before db exists: a training step peaks in this closure
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
        # a's buffer may be g itself
        b.accumulate_grad(g.copy())

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
    into arrays the caller owns. ``lstm_sequence`` passes a (2, d) pair, one
    state per direction, and ``lstm_scan`` a batch of documents.

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


def lstm_sequence(emb: Tensor, fwd: tuple[Tensor, Tensor, Tensor],
                  bwd: tuple[Tensor, Tensor, Tensor]) -> Tensor:
    """Run both LSTM directions over a token-major embedding matrix, as one
    tape node.

    ``emb`` is N x d_e. ``fwd`` and ``bwd`` are each a ``(w_input,
    w_hidden, bias)`` triple with the gate weights packed [input, forget,
    cell, output] along the first axis: ``w_input`` 4d x d_e, ``w_hidden``
    4d x d, ``bias`` 4d. Initial hidden and cell states are zero. Output row
    i holds the forward direction's hidden state at token i, then the
    reverse direction's, whose recurrence runs from the last token; both
    halves stay aligned with the input rows. Backward is truncated nowhere:
    full backpropagation through time.

    Buffers are indexed by step k, the k-th token each direction visits
    (token k forward, token N-1-k in reverse), with the two directions side
    by side: ``gates`` is N x 2 x 4d, ``hs`` and ``cs`` are (N+1) x 2 x d
    with row 0 the zero initial state, so ``hs[:-1]`` holds every step's
    previous hidden states, and ``tanh_c`` is N x 2 x d. Every buffer is
    made before the step loop. Each direction's input projection is written
    into its own half of ``gates``, which holds it until the step writes the
    gates over it. Step k takes one ``w_hidden @ h`` matvec per direction
    into a (2, 4d) pre-activation, adds both projections in one add, and
    runs one ``_lstm_step`` over the pair. The directions keep separate
    matvecs because a stacked or batched product rounds differently; so the
    states are bitwise equal to running each direction alone, one gate
    slice at a time.

    Backward derives the pre-activation gradients ``dpre`` inside ``gates``
    with one N x 2 x d spare array: each gate quarter's local derivative is
    built in the spare and copied over the quarter once no other quarter
    needs its value. The output quarter goes first, while ``tanh_c``
    becomes ``o (1 - tanh(c)^2)``; the forget gate is copied into
    ``cs[:-1]`` once its derivative has used the previous cells; the spare
    then holds the upstream rows in step order. The loop runs only the
    recurrence, on (2, d) arrays made before it, scaling each step's row of
    ``dpre`` in place. Each direction's weight, bias and input gradients are
    then single products over its half of ``dpre``. Those sums run in a
    different order from a per-step accumulation, so gradients agree with
    it to rounding.
    """
    E = emb.data
    if E.ndim != 2:
        raise ValueError(f"lstm_sequence needs a 2-D embedding matrix, got {E.shape}")
    d = fwd[1].data.shape[1]
    for w_input, w_hidden, bias in (fwd, bwd):
        wx, wh, b = w_input.data, w_hidden.data, bias.data
        if wx.shape[0] != 4 * d or wh.shape != (4 * d, d) or b.shape != (4 * d,):
            raise ValueError(
                f"lstm weight shapes inconsistent: w_input {wx.shape}, w_hidden {wh.shape}, bias {b.shape}"
            )
        if wx.shape[1] != E.shape[1]:
            raise ValueError(f"lstm input width {wx.shape[1]} != embedding width {E.shape[1]}")

    n = E.shape[0]
    gates = np.empty((n, 2, 4 * d))
    # the reverse projection goes in step order, so step k reads row N-1-k
    for pre, (w_input, _, bias) in zip((gates[:, 0], gates[::-1, 1]), (fwd, bwd)):
        np.matmul(E, w_input.data.T, out=pre)
        pre += bias.data
    hs = np.zeros((n + 1, 2, d))
    cs = np.zeros((n + 1, 2, d))
    tanh_c = np.empty((n, 2, d))
    z, e = np.empty((2, 4 * d)), np.empty((2, 4 * d))
    mask, ig = np.empty((2, 4 * d), dtype=bool), np.empty((2, d))
    (z_f, z_b), wh_f, wh_b = z, fwd[1].data, bwd[1].data
    for k in range(n):
        np.matmul(wh_f, hs[k, 0], out=z_f)
        np.matmul(wh_b, hs[k, 1], out=z_b)
        z += gates[k]
        _lstm_step(z, cs[k], gates[k], cs[k + 1], tanh_c[k], hs[k + 1], e, mask, ig)

    out = np.empty((n, 2 * d))
    out[:, :d] = hs[1:, 0]
    out[:, d:] = hs[:0:-1, 1]

    def bw(G: np.ndarray) -> None:
        gi, gf, gc, go = (gates[..., j * d : (j + 1) * d] for j in range(4))
        spare = np.empty((n, 2, d))
        # dpre = [dc, dc, dc, dh] * local, local being each gate's partner
        # times the derivative of its own nonlinearity; each quarter's local
        # is built in the spare before the quarter is overwritten
        np.subtract(1.0, go, out=spare)
        spare *= go
        spare *= tanh_c
        # d(loss)/dc through h = o * tanh(c), kept in tanh_c
        np.multiply(tanh_c, tanh_c, out=tanh_c)
        np.subtract(1.0, tanh_c, out=tanh_c)
        np.multiply(tanh_c, go, out=tanh_c)
        go[...] = spare
        np.subtract(1.0, gi, out=spare)
        spare *= gi
        spare *= gc
        gc *= gc
        np.subtract(1.0, gc, out=gc)
        gc *= gi
        gi[...] = spare
        np.subtract(1.0, gf, out=spare)
        spare *= gf
        spare *= cs[:-1]
        cs[:-1] = gf
        gf[...] = spare
        forget, o_dtanh, upstream = cs, tanh_c, spare
        upstream[:, 0] = G[:, :d]
        upstream[:, 1] = G[::-1, d:]

        whT_f, whT_b = (np.ascontiguousarray(w_hidden.data.T) for _, w_hidden, _ in (fwd, bwd))
        dpre4 = gates.reshape(n, 2, 4, d)
        dh, dc = np.empty((2, d)), np.empty((2, d))
        dh_next, dc_next = np.zeros((2, d)), np.zeros((2, d))
        dh_f, dh_b = dh_next
        dc_cols = dc[:, None]
        for k in range(n - 1, -1, -1):
            np.add(upstream[k], dh_next, out=dh)
            np.multiply(dh, o_dtanh[k], out=dc)
            dc += dc_next
            dpre4[k, :, :3] *= dc_cols
            dpre4[k, :, 3] *= dh
            np.multiply(dc, forget[k], out=dc_next)
            np.matmul(whT_f, gates[k, 0], out=dh_f)
            np.matmul(whT_b, gates[k, 1], out=dh_b)
        # before the gradient products: the backward peaks in the loop
        del upstream, spare, whT_f, whT_b

        for j, (w_input, w_hidden, bias) in enumerate((fwd, bwd)):
            dpre = gates[:, j]
            w_hidden.accumulate_grad(dpre.T @ hs[:-1, j])
            bias.accumulate_grad(dpre.sum(axis=0))
            if j:
                dpre = dpre[::-1]
            w_input.accumulate_grad(dpre.T @ E)
            emb.accumulate_grad(dpre @ w_input.data)

    return _finish(Tensor(out), bw)


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

    An id below 0 or at least ``len(table)`` anywhere in ``ids`` raises
    IndexError before any step runs. The pre-activations, gates, cell state
    and the step's working arrays are made once, before the step loop, at
    the batch's full width n; step k works on the running prefix ``[:a]``
    of each. It gathers the prefix's projected rows with ``np.take``, adds
    the recurrent product of the previous hidden states, one GEMM written
    into the gates buffer, and runs ``_lstm_step`` in place, writing the
    new hidden states to ``out[k, :a]``. A step makes no array. ``out`` is
    L x n x d (it may be a strided view); entries past a document's length
    are left as they were. Takes plain arrays and records nothing on a
    tape.
    """
    if ids.size and (ids.min() < 0 or ids.max() >= len(table)):
        raise IndexError(f"lstm_scan ids must lie in [0, {len(table)}), "
                         f"got {ids.min()}..{ids.max()}")
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
        # the ids were checked above, and "clip" writes straight into the
        # out buffer where the default mode fills a copy of it first
        np.take(proj, ids[k, :a], axis=0, out=z[:a], mode="clip")
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
    ``grads`` until the caller sets it back to None. A parameter is never
    an op's output, so ``backward`` adds into that buffer and leaves it in
    place while it frees the step's tape. ``adam_step`` and
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
        # per parameter, two views shaped like it into the scratch pair
        self.scratch_views = [tuple(row[: p.data.size].reshape(p.data.shape)
                                    for row in self.scratch) for p in params]
        for p, g in zip(params, self.grads):
            p.grad = g


def adam_step(state: AdamState) -> None:
    """One update of every parameter from its gradient buffer.

    Runs in place, in the operation order of
    ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g g`` and
    ``p -= lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps)``.
    """
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.BETA1, state.BETA2
    for p, g, m, v, (a, b) in zip(state.params, state.grads, state.m, state.v,
                                  state.scratch_views):
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
    for g, (out, _) in zip(state.grads, state.scratch_views):
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
