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


def route_row(tree, row: np.ndarray):
    """Walk a float64 row array from the root to its leaf node, one numpy
    scalar comparison per node (NaN takes the node's default side)."""
    node = tree.nodes[0]
    while not node.is_leaf:
        v = row[node.column]
        if np.isnan(v):
            node = tree.nodes[node.left if node.default_left else node.right]
        else:
            node = tree.nodes[node.left if v < node.threshold else node.right]
    return node


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
    for class_id, vals in rs.time_series.items():
        aggregates = aggregate_time_series(vals)
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


def assert_bitwise(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def adam_reference(p, g, m, v, t, lr, beta1, beta2, eps):
    """One bias-corrected Adam update of one array, every term a fresh
    array. Returns the new (p, m, v)."""
    m = m * beta1 + (1.0 - beta1) * g
    v = v * beta2 + (1.0 - beta2) * g * g
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    return p - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


def clip_reference(grads, max_norm):
    """Global-L2-norm clipping with fresh arrays.
    Returns (the possibly scaled gradients, the pre-clip norm)."""
    total = 0.0
    for g in grads:
        total += float(np.sum(g * g))
    norm = math.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        grads = [g * scale for g in grads]
    return grads, norm


def _f1_from_counts(tp: float, fp: float, fn: float) -> float:
    denom = 2.0 * tp + fp + fn
    if denom == 0.0:
        return 0.0
    return 2.0 * tp / denom


def _loop_average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks, walking the stable sort: positions i..j (0-based) of
    one tie run share the rank (i + j + 2) / 2."""
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j + 2) / 2.0
        i = j + 1
    return ranks


def _loop_auc(scores, labels) -> float:
    """Rank-formula AUC from the loop ranks; NaN for single-class labels."""
    pos_mask = labels > 0
    n_pos = int(pos_mask.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        return math.nan
    rank_sum = float(_loop_average_ranks(scores)[pos_mask].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def loop_metrics(probs: np.ndarray, gold: np.ndarray, k: int,
                 threshold: float = 0.5) -> dict[str, float]:
    """The metrics report computed one label and one document at a time:
    F1 from per-label confusion counts, AUC from a walk over tie runs and
    precision@k from a per-document lexsort. An undefined AUC is NaN."""
    preds = probs >= threshold
    pos = gold > 0
    tp = float(np.sum(preds & pos))
    fp = float(np.sum(preds & ~pos))
    fn = float(np.sum(~preds & pos))
    per_label_f1 = []
    for lbl in range(probs.shape[1]):
        p, g = preds[:, lbl], pos[:, lbl]
        per_label_f1.append(_f1_from_counts(
            float(np.sum(p & g)), float(np.sum(p & ~g)), float(np.sum(~p & g))))
    aucs = [_loop_auc(probs[:, lbl], gold[:, lbl]) for lbl in range(probs.shape[1])]
    defined = [a for a in aucs if not math.isnan(a)]
    label_idx = np.arange(probs.shape[1])
    fractions = []
    for row, gold_row in zip(probs, gold):
        top = np.lexsort((label_idx, -row))[:k]
        fractions.append(float(np.sum(gold_row[top] > 0)) / k)
    return {
        "macro_auc": float(np.mean(defined)) if defined else math.nan,
        "micro_auc": _loop_auc(probs.ravel(), gold.ravel()),
        "macro_f1": float(np.mean(per_label_f1)),
        "micro_f1": _f1_from_counts(tp, fp, fn),
        f"precision_at_{k}": float(np.mean(fractions)),
    }
