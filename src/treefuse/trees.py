"""Per-label boosted regression trees over the aggregated feature table.

One depth-limited tree is trained per label in one-versus-all fashion, a
single boosting round each, with a second-order logistic objective. The
trees are used downstream only through the identity of the leaf each
admission lands in; leaf weights exist so tree quality can be tested
directly.

Feature matrices are float64 with NaN marking missing cells. Missing rows
are routed to whichever child gives the higher split gain, and that default
direction is stored on the node.

Training sorts each column once, a stable sort with NaN last. A node is,
for every column, its rows in that column's order together with their
values and targets, and nothing else; a child keeps its parent's arrays
filtered to its own rows, which keeps the order, so no node sorts again. A
node's split search scores only the real cuts, between adjacent distinct
present values of a column, with their midpoint as the threshold. With one
boosting round from a constant model every gradient and hessian is fixed
by the row's target, so a leaf's weight comes from its node's row and
positive counts alone.

An ensemble file (format version 2) holds ``format_version``, the training
``config``, ``n_features`` and ``trees``: tree t, the tree of label t, is
its preorder node list. A node is ``{"kind": "split", "column",
"threshold", "default_left", "left", "right"}`` or ``{"kind": "leaf",
"leaf_id", "weight"}``; the leaf ids of a tree are 0 up to its leaf count.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from itertools import count
from typing import Literal

import numpy as np

from .dataset import (FiniteNumber, Integer, as_number, check, check_binary, from_fields,
                      json_sha256, read_json, write_json)

# Boosting starts from a constant half-probability model, so the logistic
# gradient is p0 - y and the hessian p0* (1 - p0).
BASE_PROB = 0.5
HESSIAN = BASE_PROB * (1.0 - BASE_PROB)

FORMAT_VERSION = 2


@dataclass
class TreeTrainConfig:
    max_depth: int = 5
    learning_rate: float = 0.99
    l2_lambda: float = 1.0
    # Minimum number of rows each child of a split must receive.
    min_child_rows: int = 1
    # Labels with fewer positive rows than this get a trivial single-leaf
    # tree so every label still contributes exactly one tree.
    min_positives: int = 10

    def __post_init__(self):
        for name, low, kind in (("max_depth", 0, int), ("learning_rate", 0.0, float),
                                ("l2_lambda", 0.0, float), ("min_child_rows", 1, int),
                                ("min_positives", 0, int)):
            setattr(self, name, as_number(getattr(self, name), name, low, kind))


@dataclass
class TreeNode:
    """One node of a flat preorder node list.

    Internal nodes carry (column, threshold, default_left, left, right);
    leaves carry (leaf_id, weight). left/right are indices into the list.
    """

    column: int = -1
    threshold: float = 0.0
    default_left: bool = True
    left: int = -1
    right: int = -1
    leaf_id: int = -1
    weight: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.leaf_id >= 0


@dataclass
class DecisionTree:
    nodes: list[TreeNode] = field(default_factory=list)

    @property
    def leaf_count(self) -> int:
        return sum(node.leaf_id >= 0 for node in self.nodes)


@dataclass
class TreeEnsemble:
    trees: list[DecisionTree]
    config: TreeTrainConfig
    n_features: int


def _column_order(features: np.ndarray) -> np.ndarray:
    """Each column's row indices in ascending value order, NaN last, as a
    columns x rows array. The sort is stable, so equal values keep row
    order."""
    return np.argsort(features.T, axis=1, kind="stable")


def _best_split(xs: np.ndarray, ys: np.ndarray, config: TreeTrainConfig):
    """Exact greedy search over (column, midpoint threshold, default side)
    at one node, scoring every real cut of every column in one array.

    xs holds each column's values at the node in ascending order, NaN last
    (columns x rows); ys holds the node's 0/1 targets in the same order. A
    real cut lies between adjacent distinct present values of a column, and
    its threshold is their midpoint. Returns (gain, column, threshold,
    default_left) for the best candidate with gain > 0, or None. Ties keep
    the first candidate in scan order: lowest column, then smallest
    threshold, then default left.
    """
    n_cols, n_rows = xs.shape
    flat = xs.ravel()
    # NaN compares false, so only present, strictly rising pairs are cuts
    is_cut = flat[1:] > flat[:-1]
    is_cut[n_rows - 1::n_rows] = False  # pairs that span two columns
    at = np.flatnonzero(is_cut)
    if not len(at):
        return None
    col, n_left = np.divmod(at, n_rows)
    start = at - n_left
    lo = flat[at]
    thr = flat[at + 1]
    with np.errstate(over="ignore"):
        thr += lo
    thr /= 2.0
    # Present rows left of a cut: those up to its lower value, unless the
    # midpoint of adjacent floats rounded onto that value or overflowed to
    # +-inf. Those are counted by the comparison used at inference time.
    n_left += 1
    odd = np.flatnonzero((thr == lo) | np.isinf(thr))
    if len(odd):
        n_left[odd] = np.count_nonzero(xs[col[odd]] < thr[odd, None], axis=1)

    # pos[p] counts the positives among the first p cells of ``flat``; every
    # column holds the node's n_pos positives
    pos = np.zeros(len(flat) + 1)
    np.cumsum(ys.ravel(), out=pos[1:])
    n_pos = pos[n_rows]
    n_present = n_rows - np.isnan(xs).sum(axis=1)
    # columns 0..c hold (c + 1) * n_pos positives; those after column c's
    # present cells are its missing rows'
    pos_missing = n_pos * np.arange(1, n_cols + 1) - pos[np.arange(n_cols) * n_rows + n_present]
    # Candidates by side: row 0 sends the column's missing rows left
    # (default left), row 1 sends them right.
    rows_left = np.empty((2, len(at)))
    rows_left[:] = n_left
    rows_left[0] += (n_rows - n_present)[col]
    pos_left = np.empty_like(rows_left)
    pos_left[:] = pos[start + n_left] - pos[start]
    pos_left[0] += pos_missing[col]
    mcr = config.min_child_rows
    too_small = (rows_left < mcr) | (rows_left > n_rows - mcr)

    # With 0/1 targets every g = BASE_PROB - y and h = HESSIAN, so each g/h
    # sum is a count times a power of two: exact, the float a running sum
    # over the rows would give. The gain
    #   0.5 * (g_l * g_l / (h_l + lam) + g_r * g_r / (h_r + lam) - parent)
    # is then evaluated in place, operation by operation in that order.
    lam = config.l2_lambda
    g_total = BASE_PROB * n_rows - n_pos
    h_total = HESSIAN * n_rows
    parent = g_total * g_total / (h_total + lam)
    g_left = BASE_PROB * rows_left
    g_left -= pos_left
    g_right = np.subtract(g_total, g_left, out=pos_left)
    h_left = np.multiply(HESSIAN, rows_left, out=rows_left)
    h_right = h_total - h_left
    h_left += lam
    h_right += lam
    g_left *= g_left
    g_right *= g_right
    # With l2_lambda = 0 an empty child divides 0 by 0; such candidates are masked below.
    with np.errstate(divide="ignore", invalid="ignore"):
        g_left /= h_left
        g_right /= h_right
    gain = g_left
    gain += g_right
    gain -= parent
    gain *= 0.5
    gain[too_small] = 0.0
    # Each side's first best cut; a tie between them goes to the lower cut,
    # then to default left.
    best = gain.argmax(axis=1)
    side = 0 if (gain[0, best[0]], -best[0]) >= (gain[1, best[1]], -best[1]) else 1
    cut = best[side]
    if gain[side, cut] <= 0.0:
        return None
    return gain[side, cut], int(col[cut]), thr[cut], side == 0


def _feature_table(features) -> np.ndarray:
    """``features`` as a float64 rows x columns array, refused unless it has
    a row and every cell is finite or NaN."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError(f"feature matrix must be 2-D, got shape {features.shape}")
    if features.shape[0] == 0:
        raise ValueError("cannot train a tree on an empty feature table")
    if np.isinf(features).any():
        # a -inf/+inf pair would have a NaN midpoint threshold
        raise ValueError("feature matrix has an infinite cell; only NaN marks missing")
    return features


def train_tree(
    features: np.ndarray,
    targets: np.ndarray,
    config: TreeTrainConfig | None = None,
    *,
    order: np.ndarray | None = None,
) -> DecisionTree:
    """Train one second-order regression tree against a 0/1 target.

    features: rows x columns float64, finite or NaN for missing. A label with
    fewer than config.min_positives positive rows yields a single-leaf tree
    whose weight is fitted on all rows.

    The columns are sorted once: ``order`` is ``_column_order(features)``,
    made here unless the caller passes it. Each node holds every column's
    rows, values and targets in that order; a child keeps its parent's
    order, filtered to its own rows, so no node sorts again.
    """
    if config is None:
        config = TreeTrainConfig()
    features = _feature_table(features)
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != (features.shape[0],):
        raise ValueError(
            f"targets shape {targets.shape} does not match {features.shape[0]} rows"
        )
    check_binary(targets)
    if order is None:
        order = _column_order(features)
    elif order.shape != features.shape[::-1]:
        raise ValueError(f"column order shape {order.shape} does not match features "
                         f"{features.shape}")

    tree = DecisionTree()
    leaf_ids = count()
    n_cols = features.shape[1]
    # a split's side for each row; a node writes its own rows before reading them
    goes_left = np.empty(len(targets), dtype=bool)

    def make_leaf(n_rows: int, n_pos: int) -> None:
        # every g is BASE_PROB - y and every h HESSIAN: each sum is exact
        g_sum = BASE_PROB * n_rows - n_pos
        h_sum = HESSIAN * n_rows
        weight = -config.learning_rate * g_sum / (h_sum + config.l2_lambda)
        tree.nodes.append(TreeNode(leaf_id=next(leaf_ids), weight=weight))

    def build(order, xs, ys, depth: int) -> int:
        idx = len(tree.nodes)
        split = _best_split(xs, ys, config) if depth < config.max_depth else None
        if split is None:
            make_leaf(ys.shape[1], np.count_nonzero(ys[0]))
            return idx
        _, col, thr, default_left = split
        v = xs[col]
        goes_left[order[col]] = np.where(np.isnan(v), default_left, v < thr)
        left = goes_left[order].ravel()
        node = TreeNode(column=col, threshold=thr, default_left=default_left)
        tree.nodes.append(node)

        def child(keep):
            return build(*(np.compress(keep, a.ravel()).reshape(n_cols, -1)
                           for a in (order, xs, ys)), depth + 1)

        node.left = child(left)
        node.right = child(~left)
        return idx

    n_pos = int(targets.sum())
    # with no columns a node's arrays hold no rows to count
    if n_pos < config.min_positives or not n_cols:
        make_leaf(len(targets), n_pos)
    else:
        build(order, np.take_along_axis(features.T, order, axis=1), targets[order], 0)
    return tree


def train_ensemble(
    features: np.ndarray,
    label_matrix: np.ndarray,
    config: TreeTrainConfig | None = None,
) -> TreeEnsemble:
    """Train one tree per label column, one-versus-all, over columns sorted
    once for all of them."""
    if config is None:
        config = TreeTrainConfig()
    features = _feature_table(features)
    label_matrix = np.asarray(label_matrix, dtype=np.float64)
    if label_matrix.ndim != 2 or label_matrix.shape[0] != features.shape[0]:
        raise ValueError(
            f"label matrix shape {label_matrix.shape} does not match "
            f"{features.shape[0]} feature rows"
        )
    check_binary(label_matrix)
    order = _column_order(features)
    trees = [train_tree(features, label_matrix[:, t], config, order=order)
             for t in range(label_matrix.shape[1])]
    return TreeEnsemble(trees=trees, config=config, n_features=features.shape[1])


def route_row(tree: DecisionTree, row) -> TreeNode:
    """Walk a row (any sequence of floats, NaN for missing) from the root to
    its leaf node."""
    nodes = tree.nodes
    node = nodes[0]
    while node.leaf_id < 0:
        v = row[node.column]
        if v != v:  # NaN
            node = nodes[node.left if node.default_left else node.right]
        else:
            node = nodes[node.left if v < node.threshold else node.right]
    return node


def assign_leaves(ensemble: TreeEnsemble, row: np.ndarray) -> np.ndarray:
    """Map one admission row to its activated leaf index in every tree."""
    row = np.asarray(row, dtype=np.float64)
    if row.shape != (ensemble.n_features,):
        raise ValueError(
            f"row has shape {row.shape}, ensemble expects ({ensemble.n_features},)"
        )
    # Python floats: the walk then makes no numpy scalar per node
    values = row.tolist()
    return np.array([route_row(t, values).leaf_id for t in ensemble.trees], dtype=np.int64)


def total_leaves(ensemble: TreeEnsemble) -> int:
    return sum(t.leaf_count for t in ensemble.trees)


# The fields each node kind is saved with, and the type of each.
_NODE_FIELDS = {
    "leaf": {"leaf_id": Integer, "weight": FiniteNumber},
    "split": {"column": Integer, "threshold": FiniteNumber, "default_left": bool,
              "left": Integer, "right": Integer},
}
_ENSEMBLE_SPEC = {"format_version": Literal[FORMAT_VERSION], "config": dict,
                  "n_features": Integer, "trees": list[list[dict]]}


def _node_dict(node: TreeNode) -> dict:
    kind = "leaf" if node.is_leaf else "split"
    return {"kind": kind, **{name: getattr(node, name) for name in _NODE_FIELDS[kind]}}


def _node_from_dict(d: dict, where: str, n_features: int, leaves: range,
                    children: range) -> TreeNode:
    """One node; ``children`` holds the indices after this node's own."""
    check(d, {"kind": str}, f"{where}: node")
    if d["kind"] not in _NODE_FIELDS:
        raise ValueError(f"{where}: unknown node kind {d['kind']!r}")
    check(d, _NODE_FIELDS[d["kind"]], f"{where}: node")
    node = TreeNode(**{name: d[name] for name in _NODE_FIELDS[d["kind"]]})
    bounds = [("leaf id", node.leaf_id, leaves)] if d["kind"] == "leaf" else [
        ("column", node.column, range(n_features)),
        ("child index", node.left, children), ("child index", node.right, children)]
    for what, value, allowed in bounds:
        if value not in allowed:
            raise ValueError(f"{where}: {what} {value} is outside {allowed}")
    return node


def ensemble_to_dict(ensemble: TreeEnsemble) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "config": asdict(ensemble.config),
        "n_features": ensemble.n_features,
        "trees": [[_node_dict(n) for n in t.nodes] for t in ensemble.trees],
    }


def save_ensemble(ensemble: TreeEnsemble, path) -> None:
    """Write a versioned JSON file; float repr round-trips bit-exactly."""
    write_json(ensemble_to_dict(ensemble), path)


def load_ensemble(path) -> TreeEnsemble:
    """``save_ensemble``'s file. Child indices point past their node, every
    node but the root is the child of exactly one split, and each tree's
    leaf ids are exactly 0 up to its leaf count."""
    where = f"ensemble {path}"
    payload = read_json(path)
    check(payload, _ENSEMBLE_SPEC, where)
    config = from_fields(TreeTrainConfig, payload["config"], f"{where} config")
    n_features = payload["n_features"]
    if n_features < 0:
        raise ValueError(f"{where} has negative n_features {n_features}")
    trees = []
    for t, nodes in enumerate(payload["trees"]):
        leaves = range(sum(d.get("kind") == "leaf" for d in nodes))
        tree = DecisionTree([_node_from_dict(d, f"{where} tree {t}, node {i}", n_features,
                                             leaves, range(i + 1, len(nodes)))
                             for i, d in enumerate(nodes)])
        parents = [0] * len(nodes)
        for node in tree.nodes:
            if not node.is_leaf:
                parents[node.left] += 1
                parents[node.right] += 1
        for i, count in enumerate(parents[1:], 1):
            if count != 1:
                raise ValueError(f"{where} tree {t}, node {i}: node is a child of "
                                 f"{count} splits, expected exactly 1")
        leaf_ids = sorted(node.leaf_id for node in tree.nodes if node.is_leaf)
        if not leaf_ids or leaf_ids != list(leaves):
            raise ValueError(f"{where} tree {t}: leaf ids {leaf_ids} are not exactly "
                             f"0..{len(leaves) - 1}")
        trees.append(tree)
    return TreeEnsemble(trees=trees, config=config, n_features=n_features)


def ensemble_sha256(ensemble: TreeEnsemble) -> str:
    """Digest of the canonical serialized form, for checkpoint metadata."""
    return json_sha256(ensemble_to_dict(ensemble))
