"""Per-label boosted regression trees over the aggregated feature table.

One depth-limited tree is trained per label in one-versus-all fashion, a
single boosting round each, with a second-order logistic objective. The
trees are used downstream only through the identity of the leaf each
admission lands in; leaf weights exist so tree quality can be tested
directly.

Feature matrices are float64 with NaN marking missing cells. Missing rows
are routed to whichever child gives the higher split gain, and that default
direction is stored on the node.

An ensemble file (format version 2) holds ``format_version``, the training
``config``, ``n_features`` and ``trees``: tree t, the tree of label t, is
its preorder node list. A node is ``{"kind": "split", "column",
"threshold", "default_left", "left", "right"}`` or ``{"kind": "leaf",
"leaf_id", "weight"}``; the leaf ids of a tree are 0 up to its leaf count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict
from itertools import count
from typing import Literal

import numpy as np

from .dataset import FiniteNumber, Integer, check, json_sha256, read_json, write_json

# Boosting starts from a constant half-probability model, so the logistic
# gradient is p0 - y and the hessian p0* (1 - p0).
BASE_PROB = 0.5

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
        for name, low in (("max_depth", 0), ("min_child_rows", 1), ("min_positives", 0),
                          ("learning_rate", 0.0), ("l2_lambda", 0.0)):
            if not low <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= {low}, got {getattr(self, name)}")


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


def _best_split(
    features: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    rows: np.ndarray,
    config: TreeTrainConfig,
):
    """Exact greedy search over (column, midpoint threshold, default side),
    scoring every candidate of every column in one array.

    Returns (gain, column, threshold, default_left) for the best candidate
    with gain > 0, or None. Ties keep the first candidate in scan order:
    lowest column, then smallest threshold, then default left.
    """
    lam = config.l2_lambda
    g_total = g[rows].sum()
    h_total = h[rows].sum()
    parent = g_total * g_total / (h_total + lam)
    n_rows = len(rows)

    # Each column's rows in value order, NaN last; cg[c, k] sums g over the
    # first k. Candidate (c, i) cuts column c between sorted rows i and i + 1.
    x = features[rows].T
    cols = np.arange(len(x))[:, None]
    order = np.argsort(x, axis=1, kind="stable")
    xs = x[cols, order]
    cg = np.zeros((len(x), n_rows + 1))
    ch = np.zeros((len(x), n_rows + 1))
    np.cumsum(g[rows[order]], axis=1, out=cg[:, 1:])
    np.cumsum(h[rows[order]], axis=1, out=ch[:, 1:])
    n_present = n_rows - np.isnan(x).sum(axis=1, keepdims=True)
    g_missing = g_total - cg[cols, n_present]
    h_missing = h_total - ch[cols, n_present]
    with np.errstate(over="ignore"):
        thr = (xs[:, :-1] + xs[:, 1:]) / 2.0
    is_cut = (xs[:, :-1] != xs[:, 1:]) & (np.arange(1, n_rows) < n_present)
    if not is_cut.any():
        return None
    # Count left rows by the literal comparison used at inference time; for
    # adjacent floats the midpoint can round onto an endpoint.
    k = np.array([v.searchsorted(t) for v, t in zip(xs, thr)])

    gk = cg[cols, k]
    hk = ch[cols, k]
    # Last axis: default left (missing rows join the left child), then right.
    g_left = np.stack([gk + g_missing, gk], axis=-1)
    h_left = np.stack([hk + h_missing, hk], axis=-1)
    n_left = np.stack([k + (n_rows - n_present), k], axis=-1)
    g_right = g_total - g_left
    h_right = h_total - h_left
    # With l2_lambda = 0 an empty child divides 0 by 0; such candidates are masked below.
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = 0.5 * (g_left * g_left / (h_left + lam) + g_right * g_right / (h_right + lam)
                      - parent)
    mcr = config.min_child_rows
    gain[~is_cut[..., None] | (n_left < mcr) | (n_rows - n_left < mcr)] = 0.0
    best = np.unravel_index(np.argmax(gain), gain.shape)
    if gain[best] <= 0.0:
        return None
    col, i, side = best
    return gain[best], int(col), thr[col, i], bool(side == 0)


def train_tree(
    features: np.ndarray,
    targets: np.ndarray,
    config: TreeTrainConfig | None = None,
) -> DecisionTree:
    """Train one second-order regression tree against a binary target.

    features: rows x columns float64, finite or NaN for missing. A label with
    fewer than config.min_positives positive rows yields a single-leaf tree
    whose weight is fitted on all rows.
    """
    if config is None:
        config = TreeTrainConfig()
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError(f"feature matrix must be 2-D, got shape {features.shape}")
    if features.shape[0] == 0:
        raise ValueError("cannot train a tree on an empty feature table")
    if np.isinf(features).any():
        # a -inf/+inf pair would have a NaN midpoint threshold
        raise ValueError("feature matrix has an infinite cell; only NaN marks missing")
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != (features.shape[0],):
        raise ValueError(
            f"targets shape {targets.shape} does not match {features.shape[0]} rows"
        )

    g = BASE_PROB - targets
    h = np.full(len(targets), BASE_PROB * (1.0 - BASE_PROB))
    tree = DecisionTree()
    leaf_ids = count()

    def make_leaf(rows: np.ndarray) -> int:
        idx = len(tree.nodes)
        g_sum = g[rows].sum()
        h_sum = h[rows].sum()
        weight = -config.learning_rate * g_sum / (h_sum + config.l2_lambda)
        tree.nodes.append(TreeNode(leaf_id=next(leaf_ids), weight=weight))
        return idx

    def build(rows: np.ndarray, depth: int) -> int:
        if depth >= config.max_depth:
            return make_leaf(rows)
        split = _best_split(features, g, h, rows, config)
        if split is None:
            return make_leaf(rows)
        _, col, thr, default_left = split
        v = features[rows, col]
        goes_left = np.where(np.isnan(v), default_left, v < thr)
        idx = len(tree.nodes)
        tree.nodes.append(TreeNode())
        left = build(rows[goes_left], depth + 1)
        right = build(rows[~goes_left], depth + 1)
        tree.nodes[idx] = TreeNode(
            column=col, threshold=thr, default_left=default_left,
            left=left, right=right,
        )
        return idx

    all_rows = np.arange(features.shape[0])
    if int(targets.sum()) < config.min_positives:
        make_leaf(all_rows)
    else:
        build(all_rows, 0)
    return tree


def train_ensemble(
    features: np.ndarray,
    label_matrix: np.ndarray,
    config: TreeTrainConfig | None = None,
) -> TreeEnsemble:
    """Train one tree per label column, one-versus-all."""
    if config is None:
        config = TreeTrainConfig()
    features = np.asarray(features, dtype=np.float64)
    label_matrix = np.asarray(label_matrix, dtype=np.float64)
    if label_matrix.ndim != 2 or label_matrix.shape[0] != features.shape[0]:
        raise ValueError(
            f"label matrix shape {label_matrix.shape} does not match "
            f"{features.shape[0]} feature rows"
        )
    trees = [train_tree(features, label_matrix[:, t], config)
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
_CONFIG_SPEC = {"max_depth": Integer, "learning_rate": FiniteNumber, "l2_lambda": FiniteNumber,
                "min_child_rows": Integer, "min_positives": Integer}


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
    unknown = set(payload["config"]) - set(_CONFIG_SPEC)
    if unknown:
        raise ValueError(f"{where} config has unknown keys {sorted(unknown)}")
    check(payload["config"], _CONFIG_SPEC, f"{where} config")
    try:
        config = TreeTrainConfig(**payload["config"])
    except ValueError as exc:
        raise ValueError(f"{where} config: {exc}") from None
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
