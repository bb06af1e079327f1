"""Independent reference computations used to check the real implementations.

Everything in here is deliberately naive: literal enumeration, central
finite differences, scalar recurrences. None of it shares code with the
package under test.
"""

from __future__ import annotations

import math

import numpy as np

FD_STEP = 1e-5


def finite_difference_grad(f, x: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient of scalar-valued f with respect to x.

    f must recompute from the current contents of x; x is perturbed in place
    and restored.
    """
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        fp = f()
        x[idx] = orig - h
        fm = f()
        x[idx] = orig
        g[idx] = (fp - fm) / (2.0 * h)
    return g


def max_rel_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-6) -> float:
    num = np.abs(a - b)
    den = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(num / den)) if num.size else 0.0


def pairwise_auc(scores, labels) -> float | None:
    """O(n^2) pair enumeration: concordant pairs plus half credit for ties."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if len(pos) == 0 or len(neg) == 0:
        return None
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def scalar_lstm_states(tokens, wx, wh, b):
    """Single-unit LSTM recurrence on scalar inputs.

    wx, wh: 4-vectors of input/recurrent weights, b: 4-vector of biases,
    gate order (input, forget, cell, output). Returns the hidden state at
    each step.
    """

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    h, c = 0.0, 0.0
    states = []
    for x in tokens:
        zi = wx[0] * x + wh[0] * h + b[0]
        zf = wx[1] * x + wh[1] * h + b[1]
        zg = wx[2] * x + wh[2] * h + b[2]
        zo = wx[3] * x + wh[3] * h + b[3]
        i, f, g, o = sig(zi), sig(zf), math.tanh(zg), sig(zo)
        c = f * c + i * g
        h = o * math.tanh(c)
        states.append(h)
    return states


def piecewise_sigmoid(x: np.ndarray) -> np.ndarray:
    """1/(1+exp(-x)) where x >= 0 and exp(x)/(1+exp(x)) elsewhere, by masks."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def stepwise_lstm(emb, wx, wh, b, upstream, reverse=False):
    """One LSTM direction with per-step backpropagation through time.

    Gates are evaluated one slice at a time and every weight gradient is
    accumulated inside the backward loop (one outer product per step).
    ``upstream`` is d(loss)/d(hidden states), same shape as the output.
    Returns (hidden states, d_emb, d_wx, d_wh, d_b).
    """
    n = emb.shape[0]
    d = wh.shape[1]
    order = range(n - 1, -1, -1) if reverse else range(n)
    pre = emb @ wx.T + b
    states = np.empty((n, d))
    gi, gf, gc, go = (np.empty((n, d)) for _ in range(4))
    tanh_cells, h_prev, c_prev = (np.empty((n, d)) for _ in range(3))
    h = np.zeros(d)
    c = np.zeros(d)
    for t in order:
        z = pre[t] + wh @ h
        gi[t] = piecewise_sigmoid(z[:d])
        gf[t] = piecewise_sigmoid(z[d : 2 * d])
        gc[t] = np.tanh(z[2 * d : 3 * d])
        go[t] = piecewise_sigmoid(z[3 * d :])
        h_prev[t] = h
        c_prev[t] = c
        c = gf[t] * c + gi[t] * gc[t]
        tanh_cells[t] = np.tanh(c)
        h = go[t] * tanh_cells[t]
        states[t] = h

    dpre = np.empty((n, 4 * d))
    dwh = np.zeros_like(wh)
    db = np.zeros_like(b)
    dh_next = np.zeros(d)
    dc_next = np.zeros(d)
    for t in reversed(order):
        dh = upstream[t] + dh_next
        do = dh * tanh_cells[t]
        dct = dh * go[t] * (1.0 - tanh_cells[t] ** 2) + dc_next
        dz = np.concatenate(
            [
                dct * gc[t] * gi[t] * (1.0 - gi[t]),
                dct * c_prev[t] * gf[t] * (1.0 - gf[t]),
                dct * gi[t] * (1.0 - gc[t] ** 2),
                do * go[t] * (1.0 - go[t]),
            ]
        )
        dc_next = dct * gf[t]
        dpre[t] = dz
        dwh += np.outer(dz, h_prev[t])
        db += dz
        dh_next = wh.T @ dz
    return states, dpre @ wx, dpre.T @ emb, dwh, db


def enumerate_best_split(
    x: np.ndarray,
    targets: np.ndarray,
    lam: float,
    min_child_rows: int,
):
    """Literal enumeration of every (column, threshold, default side) split.

    x: rows by columns feature matrix with NaN for missing cells; targets in
    {0, 1}. Gradients and hessians follow a half-probability starting point.
    Returns (gain, column, threshold, default_left) of the best candidate
    with positive gain under the tie rule (lowest column, then smallest
    threshold, then default left), or None when no candidate has gain > 0.
    """
    g = 0.5 - targets.astype(np.float64)
    h = np.full(len(targets), 0.25)
    g_total = g.sum()
    h_total = h.sum()
    parent = g_total**2 / (h_total + lam)
    best = None
    for col in range(x.shape[1]):
        vals = x[:, col]
        present = ~np.isnan(vals)
        distinct = np.unique(vals[present])
        if len(distinct) < 2:
            continue
        thresholds = (distinct[:-1] + distinct[1:]) / 2.0
        for thr in thresholds:
            for default_left in (True, False):
                go_left = np.where(present, vals < thr, default_left)
                n_left = int(go_left.sum())
                n_right = len(targets) - n_left
                if n_left < min_child_rows or n_right < min_child_rows:
                    continue
                gl = g[go_left].sum()
                hl = h[go_left].sum()
                gr = g_total - gl
                hr = h_total - hl
                gain = 0.5 * (gl**2 / (hl + lam) + gr**2 / (hr + lam) - parent)
                if gain <= 0.0:
                    continue
                key = (-gain, col, thr, not default_left)
                if best is None or key < best[0]:
                    best = (key, gain, col, thr, default_left)
    if best is None:
        return None
    _, gain, col, thr, default_left = best
    return gain, col, thr, default_left


def aggregate_time_series(series) -> tuple[float, float, float]:
    """Collapse one series to (mean, max, min) with numpy calls on it alone.

    Empty series yields (nan, nan, nan); a non-finite value is rejected.
    """
    vals = np.asarray(list(series), dtype=np.float64)
    if vals.size == 0:
        return (np.nan, np.nan, np.nan)
    if not np.all(np.isfinite(vals)):
        raise ValueError("non-finite value in time series")
    lo, hi = float(np.min(vals)), float(np.max(vals))
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(vals))
        if not np.isfinite(mean):  # the sum overflowed, or met inf - inf
            mean = float(np.sum(vals / vals.size))
    # np.mean can round just outside the range, e.g. one ulp below x for [x, x, x]
    return (min(max(mean, lo), hi), hi, lo)


def featurize_row(rs, schema) -> np.ndarray:
    """One admission's table row, built column by column from its records.

    Each series goes through ``aggregate_time_series`` (so a non-finite value
    raises ValueError); indicators and one-hots read 1 when the record holds
    the column's pair or value and 0 otherwise; numeric singletons are copied,
    absent or None is nan.
    """
    row = np.full(len(schema.columns), np.nan)
    index = {c.name: i for i, c in enumerate(schema.columns)}
    for class_id, points in rs.time_series.items():
        aggregates = aggregate_time_series(v for _, v in points)
        for kind, value in zip(("ts_mean", "ts_max", "ts_min"), aggregates):
            pos = index.get(f"{kind}:{class_id}")
            if pos is not None:
                row[pos] = value
    present = {f"{category}:{item_id}" for category, item_id in rs.multivalued}
    for i, col in enumerate(schema.columns):
        if col.kind == "binary_indicator":
            row[i] = 1.0 if col.source_id in present else 0.0
        elif col.kind == "singleton_numeric":
            value = rs.singletons.get(col.source_id)
            row[i] = float(value) if value is not None else np.nan
        elif col.kind == "singleton_onehot":
            fld, _, expected = col.source_id.partition("=")
            value = rs.singletons.get(fld)
            row[i] = 1.0 if value is not None and str(value) == expected else 0.0
    return row
