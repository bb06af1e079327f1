"""Per-label boosted regression trees over the aggregated feature table.

One depth-limited tree is trained per label in one-versus-all fashion, a
single boosting round each, with a second-order logistic objective. The
trees are used downstream only through the identity of the leaf each
admission lands in; leaf weights exist so tree quality can be tested
directly.

Feature matrices are float64 with NaN marking missing cells. Missing rows
are routed to whichever child gives the higher split gain, and that default
direction is stored on the node.
"""

from __future__ import annotations

import json
import hashlib
from dataclasses import dataclass, field, asdict

import numpy as np

# Boosting starts from a constant half-probability model, so the logistic
# gradient is p0 - y and the hessian p0* (1 - p0).
BASE_PROB = 0.5

FORMAT_VERSION = 1


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
    label_index: int
    n_features: int
    nodes: list[TreeNode] = field(default_factory=list)
    leaf_count: int = 0


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
    """Exact greedy search over (column, midpoint threshold, default side).

    Returns (gain, column, threshold, default_left) for the best candidate
    with gain > 0, or None. Ties keep the first candidate in scan order:
    lowest column, then smallest threshold, then default left.
    """
    lam = config.l2_lambda
    g_sub = g[rows]
    h_sub = h[rows]
    g_total = g_sub.sum()
    h_total = h_sub.sum()
    parent = g_total * g_total / (h_total + lam)
    n_rows = len(rows)

    best = None
    for col in range(features.shape[1]):
        v = features[rows, col]
        present = ~np.isnan(v)
        n_present = int(present.sum())
        if n_present < 2:
            continue
        order = np.argsort(v[present], kind="stable")
        pv = v[present][order]
        cg = np.cumsum(g_sub[present][order])
        ch = np.cumsum(h_sub[present][order])
        g_missing = g_total - cg[-1]
        h_missing = h_total - ch[-1]
        n_missing = n_rows - n_present

        for i in np.nonzero(pv[:-1] != pv[1:])[0]:
            thr = (pv[i] + pv[i + 1]) / 2.0
            # Route by the literal comparison used at inference time; for
            # adjacent floats the midpoint can round onto an endpoint.
            k = int(np.searchsorted(pv, thr, side="left"))
            if k == 0 or k == n_present:
                continue
            for default_left in (True, False):
                if default_left:
                    g_left = cg[k - 1] + g_missing
                    h_left = ch[k - 1] + h_missing
                    n_left = k + n_missing
                else:
                    g_left = cg[k - 1]
                    h_left = ch[k - 1]
                    n_left = k
                n_right = n_rows - n_left
                if n_left < config.min_child_rows or n_right < config.min_child_rows:
                    continue
                g_right = g_total - g_left
                h_right = h_total - h_left
                gain = 0.5 * (
                    g_left * g_left / (h_left + lam)
                    + g_right * g_right / (h_right + lam)
                    - parent
                )
                if gain <= 0.0:
                    continue
                if best is None or gain > best[0]:
                    best = (gain, col, thr, default_left)
    return best


def train_tree(
    features: np.ndarray,
    targets: np.ndarray,
    config: TreeTrainConfig | None = None,
    label_index: int = 0,
) -> DecisionTree:
    """Train one second-order regression tree against a binary target.

    features: rows x columns float64 with NaN for missing. A label with
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
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != (features.shape[0],):
        raise ValueError(
            f"targets shape {targets.shape} does not match {features.shape[0]} rows"
        )

    g = BASE_PROB - targets
    h = np.full(len(targets), BASE_PROB * (1.0 - BASE_PROB))
    tree = DecisionTree(label_index=label_index, n_features=features.shape[1])

    def make_leaf(rows: np.ndarray) -> int:
        idx = len(tree.nodes)
        g_sum = g[rows].sum()
        h_sum = h[rows].sum()
        weight = -config.learning_rate * g_sum / (h_sum + config.l2_lambda)
        tree.nodes.append(TreeNode(leaf_id=tree.leaf_count, weight=weight))
        tree.leaf_count += 1
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
    trees = [
        train_tree(features, label_matrix[:, t], config, label_index=t)
        for t in range(label_matrix.shape[1])
    ]
    return TreeEnsemble(trees=trees, config=config, n_features=features.shape[1])


def route_row(tree: DecisionTree, row: np.ndarray) -> TreeNode:
    """Walk a row from the root to its leaf node."""
    node = tree.nodes[0]
    while not node.is_leaf:
        v = row[node.column]
        if np.isnan(v):
            node = tree.nodes[node.left if node.default_left else node.right]
        else:
            node = tree.nodes[node.left if v < node.threshold else node.right]
    return node


def assign_leaves(ensemble: TreeEnsemble, row: np.ndarray) -> np.ndarray:
    """Map one admission row to its activated leaf index in every tree."""
    row = np.asarray(row, dtype=np.float64)
    if row.shape != (ensemble.n_features,):
        raise ValueError(
            f"row has shape {row.shape}, ensemble expects ({ensemble.n_features},)"
        )
    return np.array([route_row(t, row).leaf_id for t in ensemble.trees], dtype=np.int64)


def total_leaves(ensemble: TreeEnsemble) -> int:
    return sum(t.leaf_count for t in ensemble.trees)


def predict_margin(tree: DecisionTree, row: np.ndarray) -> float:
    """Additive score of the activated leaf (base score is 0)."""
    return float(route_row(tree, np.asarray(row, dtype=np.float64)).weight)


def predict_probability(tree: DecisionTree, row: np.ndarray) -> float:
    """Probability for the tree alone, starting from a half-probability base."""
    m = predict_margin(tree, row)
    return float(1.0 / (1.0 + np.exp(-m)))


def _node_dict(node: TreeNode) -> dict:
    if node.is_leaf:
        return {"kind": "leaf", "leaf_id": node.leaf_id, "weight": node.weight}
    return {
        "kind": "split",
        "column": node.column,
        "threshold": node.threshold,
        "default_left": node.default_left,
        "left": node.left,
        "right": node.right,
    }


def _node_from_dict(d: dict) -> TreeNode:
    if d["kind"] == "leaf":
        return TreeNode(leaf_id=int(d["leaf_id"]), weight=float(d["weight"]))
    return TreeNode(
        column=int(d["column"]),
        threshold=float(d["threshold"]),
        default_left=bool(d["default_left"]),
        left=int(d["left"]),
        right=int(d["right"]),
    )


def ensemble_to_dict(ensemble: TreeEnsemble) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "config": asdict(ensemble.config),
        "n_features": ensemble.n_features,
        "trees": [
            {
                "label_index": t.label_index,
                "n_features": t.n_features,
                "leaf_count": t.leaf_count,
                "nodes": [_node_dict(n) for n in t.nodes],
            }
            for t in ensemble.trees
        ],
    }


def ensemble_from_dict(payload: dict) -> TreeEnsemble:
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported ensemble format version: {version!r}")
    config = TreeTrainConfig(**payload["config"])
    trees = [
        DecisionTree(
            label_index=int(td["label_index"]),
            n_features=int(td["n_features"]),
            nodes=[_node_from_dict(nd) for nd in td["nodes"]],
            leaf_count=int(td["leaf_count"]),
        )
        for td in payload["trees"]
    ]
    return TreeEnsemble(trees=trees, config=config, n_features=int(payload["n_features"]))


def save_ensemble(ensemble: TreeEnsemble, path) -> None:
    """Write a versioned JSON file; float repr round-trips bit-exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ensemble_to_dict(ensemble), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_ensemble(path) -> TreeEnsemble:
    with open(path, "r", encoding="utf-8") as fh:
        return ensemble_from_dict(json.load(fh))


def ensemble_sha256(ensemble: TreeEnsemble) -> str:
    """Digest of the canonical serialized form, for checkpoint metadata."""
    blob = json.dumps(ensemble_to_dict(ensemble), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()
