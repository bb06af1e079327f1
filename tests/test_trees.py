"""Tree training checks: worked examples, structural invariants, an
exhaustive split-enumeration oracle on small random tables, and a reference
trainer that sorts every node afresh."""

import json
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from treefuse import trees as tr
from treefuse.trees import (
    DecisionTree,
    TreeEnsemble,
    TreeNode,
    TreeTrainConfig,
    assign_leaves,
    ensemble_sha256,
    ensemble_to_dict,
    load_ensemble,
    save_ensemble,
    total_leaves,
    train_ensemble,
    train_tree,
)

from oracles import enumerate_best_split, reference_train_tree, route_row as numpy_route_row

RNG = np.random.default_rng(20240818)


def two_row_tree(max_depth=1):
    x = np.array([[0.0], [1.0]])
    y = np.array([0.0, 1.0])
    cfg = TreeTrainConfig(max_depth=max_depth, min_positives=1)
    return train_tree(x, y, cfg)


class TestWorkedExamples:
    def test_constant_zero_targets_single_leaf(self):
        n = 7
        x = RNG.normal(size=(n, 3))
        tree = train_tree(x, np.zeros(n), TreeTrainConfig(min_positives=0))
        assert tree.leaf_count == 1
        assert len(tree.nodes) == 1
        expected = -0.99 * (n * 0.5) / (n * 0.25 + 1.0)
        assert tree.nodes[0].weight == expected

    def test_two_row_split(self):
        tree = two_row_tree()
        assert tree.leaf_count == 2
        root = tree.nodes[0]
        assert not root.is_leaf
        assert root.column == 0
        assert root.threshold == 0.5
        left = tree.nodes[root.left]
        right = tree.nodes[root.right]
        assert left.weight == pytest.approx(-0.396, abs=1e-12)
        assert right.weight == pytest.approx(0.396, abs=1e-12)
        assert left.weight == -0.99 * 0.5 / 1.25
        assert right.weight == -left.weight

    def test_two_row_routing(self):
        tree = two_row_tree()
        assert tr.route_row(tree, np.array([0.0])).leaf_id == 0
        assert tr.route_row(tree, np.array([1.0])).leaf_id == 1
        assert tr.route_row(tree, np.array([1.0])).weight == pytest.approx(0.396, abs=1e-12)

    def test_min_positives_forces_single_leaf(self):
        n = 40
        x = RNG.normal(size=(n, 2))
        y = np.zeros(n)
        y[:8] = 1.0
        # Plant a perfectly separating feature; it must be ignored.
        x[:8, 0] = 100.0
        tree = train_tree(x, y, TreeTrainConfig(min_positives=10))
        assert tree.leaf_count == 1
        tree2 = train_tree(x, y, TreeTrainConfig(min_positives=8))
        assert tree2.leaf_count > 1

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            train_tree(np.zeros((0, 3)), np.zeros(0))

    def test_target_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            train_tree(np.zeros((4, 2)), np.zeros(5))

    def test_zero_column_table_single_leaf(self):
        tree = train_tree(np.zeros((6, 0)), np.array([0.0, 1.0] * 3),
                          TreeTrainConfig(min_positives=0))
        assert tree.leaf_count == 1 and len(tree.nodes) == 1

    def test_one_row_table_single_leaf(self):
        tree = train_tree(np.array([[1.0, np.nan]]), np.array([1.0]),
                          TreeTrainConfig(min_positives=0))
        assert tree.leaf_count == 1 and len(tree.nodes) == 1

    @pytest.mark.parametrize("cell", [np.inf, -np.inf])
    def test_infinite_cell_rejected(self, cell):
        x = np.array([[0.0, 1.0], [2.0, cell], [np.nan, 3.0]])
        with pytest.raises(ValueError, match="infinite"):
            train_tree(x, np.array([0.0, 1.0, 1.0]), TreeTrainConfig(min_positives=0))

    @pytest.mark.parametrize("bad", [2.0, -1.0, 0.5, np.nan])
    def test_non_binary_target_rejected_naming_row(self, bad):
        y = np.array([0.0, 1.0, 0.0, bad, 1.0])
        with pytest.raises(ValueError, match=re.escape(f"row 3: target {bad} is not 0 or 1")):
            train_tree(RNG.normal(size=(5, 2)), y, TreeTrainConfig(min_positives=0))

    def test_column_order_of_another_table_rejected(self):
        with pytest.raises(ValueError, match="column order shape"):
            train_tree(np.zeros((4, 2)), np.array([0.0, 1.0, 0.0, 1.0]),
                       order=tr._column_order(np.zeros((4, 3))))

    def test_min_child_rows_blocks_small_children(self):
        x = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        cfg = TreeTrainConfig(min_positives=0, min_child_rows=3)
        tree = train_tree(x, y, cfg)
        assert tree.leaf_count == 1


def random_table(rng):
    n = int(rng.integers(2, 21))
    d = int(rng.integers(1, 6))
    if rng.uniform() < 0.5:
        # Coarse integer grid: forces duplicate values and gain ties.
        x = rng.integers(0, 3, size=(n, d)).astype(np.float64)
    else:
        x = rng.normal(size=(n, d))
    mask = rng.uniform(size=(n, d)) < 0.25
    x[mask] = np.nan
    y = rng.integers(0, 2, size=n).astype(np.float64)
    return x, y


def node_columns(x, y, rows):
    """Each column's values and targets at the node holding ``rows``, in
    the trainer's order: the table's column order filtered to those rows."""
    order = tr._column_order(x)
    order = order[np.isin(order, rows)].reshape(x.shape[1], -1)
    return np.take_along_axis(x.T, order, axis=1), y[order]


def check_against_oracle(x, y, min_child_rows=1, rows=None):
    """_best_split at the node holding ``rows`` equals the oracle on x[rows]:
    same column, threshold and default side, and a bitwise-equal gain."""
    rows = np.arange(len(y)) if rows is None else rows
    cfg = TreeTrainConfig(min_child_rows=min_child_rows)
    found = tr._best_split(*node_columns(x, y, rows), cfg)
    with np.errstate(over="ignore"):
        expected = enumerate_best_split(x[rows], y[rows], lam=1.0,
                                        min_child_rows=min_child_rows)
    assert (found is None) == (expected is None), (found, expected)
    if found is not None:
        assert found[0] == expected[0], "gain values differ bitwise"
        assert found[1:] == expected[1:]
    return found


class TestSplitOracle:
    def test_adjacent_floats_with_missing_rows(self):
        # The midpoint of 1 and the next float rounds onto 1, so no present
        # row goes left; the best split sends the missing rows left alone.
        a = 1.0
        b = np.nextafter(a, 2.0)
        assert (a + b) / 2.0 == a
        x = np.array([[a], [b], [a], [np.nan], [np.nan]])
        y = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
        found = check_against_oracle(x, y)
        assert found is not None and found[2] == a and found[3]

    def test_adjacent_floats_fuzzed(self):
        rng = np.random.default_rng(31)
        checked = 0
        for _ in range(150):
            n = int(rng.integers(2, 10))
            base = rng.normal()
            grid = [base, np.nextafter(base, np.inf),
                    np.nextafter(np.nextafter(base, np.inf), np.inf)]
            x = rng.choice(grid, size=(n, 2))
            x[rng.uniform(size=x.shape) < 0.3] = np.nan
            y = rng.integers(0, 2, size=n).astype(np.float64)
            checked += check_against_oracle(x, y) is not None
        assert checked > 50

    def test_huge_values_midpoint_overflows(self):
        # Both midpoints overflow: +inf sends every present row left, -inf
        # sends every present row right.
        for sign in (1.0, -1.0):
            x = sign * np.array([[1.7e308], [1.6e308], [np.nan], [np.nan]])
            y = np.array([1.0, 1.0, 0.0, 0.0])
            found = check_against_oracle(x, y)
            assert found is not None and found[2] == sign * np.inf
        rng = np.random.default_rng(37)
        checked = 0
        for _ in range(150):
            n = int(rng.integers(2, 10))
            x = rng.choice([1.7e308, 1.6e308, 0.0, -1.6e308, -1.7e308], size=(n, 2))
            x[rng.uniform(size=x.shape) < 0.3] = np.nan
            y = rng.integers(0, 2, size=n).astype(np.float64)
            checked += check_against_oracle(x, y) is not None
        assert checked > 50

    @pytest.mark.parametrize("min_child_rows", [2, 3])
    def test_min_child_rows_matches_enumeration(self, min_child_rows):
        rng = np.random.default_rng(41 + min_child_rows)
        checked = 0
        for _ in range(100):
            x, y = random_table(rng)
            checked += check_against_oracle(x, y, min_child_rows) is not None
        assert checked > 20

    def test_non_root_node_matches_enumeration(self):
        rng = np.random.default_rng(43)
        checked = 0
        for _ in range(100):
            x, y = random_table(rng)
            n = len(y)
            size = int(rng.integers(1, n))
            rows = np.sort(rng.choice(n, size=size, replace=False))
            checked += check_against_oracle(x, y, rows=rows) is not None
        assert checked > 20

    def test_root_split_matches_enumeration(self):
        rng = np.random.default_rng(7)
        cfg = TreeTrainConfig(max_depth=1, min_positives=0)
        agree_split = 0
        for _ in range(100):
            x, y = random_table(rng)
            tree = train_tree(x, y, cfg)
            expected = enumerate_best_split(x, y, lam=1.0, min_child_rows=1)
            if expected is None:
                assert tree.leaf_count == 1, "trainer split where oracle found no gain"
                continue
            gain, col, thr, default_left = expected
            root = tree.nodes[0]
            assert not root.is_leaf, "trainer refused a positive-gain split"
            assert root.column == col
            assert root.threshold == thr
            assert root.default_left == default_left
            agree_split += 1
        assert agree_split > 30, "oracle trial set was degenerate"

    def test_gain_value_matches_oracle_bitwise(self):
        rng = np.random.default_rng(11)
        cfg = TreeTrainConfig(min_positives=0)
        checked = 0
        for _ in range(60):
            x, y = random_table(rng)
            found = tr._best_split(*node_columns(x, y, np.arange(len(y))), cfg)
            expected = enumerate_best_split(x, y, lam=1.0, min_child_rows=1)
            if found is None or expected is None:
                assert (found is None) == (expected is None)
                continue
            assert found[0] == expected[0], "gain values differ bitwise"
            checked += 1
        assert checked > 20


# Repeated values, adjacent floats (whose midpoints round onto an endpoint),
# signed zeros, values whose midpoints overflow to +-inf, and missing cells.
_ONE_UP = np.nextafter(1.0, 2.0)
TABLE_VALUES = [1.0, _ONE_UP, np.nextafter(_ONE_UP, 2.0), 0.0, -0.0, -2.5,
                1.6e308, 1.7e308, -1.6e308, -1.7e308, np.nan]


@st.composite
def tree_tables(draw):
    """A 1-12 row table of 1-4 columns, each column drawn cell by cell,
    constant, or all missing, and 0/1 targets."""
    n = draw(st.integers(1, 12))
    cell = st.one_of(st.sampled_from(TABLE_VALUES),
                     st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["cells", "constant", "missing"]))
        if kind == "cells":
            columns.append(draw(st.lists(cell, min_size=n, max_size=n)))
        else:
            columns.append([np.nan if kind == "missing" else draw(cell)] * n)
    targets = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n))
    return np.array(columns).T, np.array(targets)


def assert_matches_reference(x, y, cfg):
    got = ensemble_to_dict(TreeEnsemble([train_tree(x, y, cfg)], cfg, x.shape[1]))
    with np.errstate(over="ignore"):
        want = reference_train_tree(x, y, cfg)
    # the JSON text compares every float by its exact repr, signed zeros too
    assert json.dumps(got["trees"][0], sort_keys=True) == json.dumps(want, sort_keys=True)


class TestReferenceTrainer:
    @settings(max_examples=300, deadline=None)
    @given(tree_tables(), st.integers(1, 3), st.integers(0, 6))
    def test_node_lists_match_reference(self, table, min_child_rows, max_depth):
        x, y = table
        assert_matches_reference(x, y, TreeTrainConfig(
            max_depth=max_depth, min_child_rows=min_child_rows, min_positives=0))

    def test_deeper_trees_match_reference(self):
        # up to ten times the rows the property draws, for deeper trees
        rng = np.random.default_rng(53)
        for _ in range(10):
            n = int(rng.integers(30, 120))
            x = np.column_stack([rng.choice(TABLE_VALUES, size=n),
                                 rng.integers(0, 4, size=n).astype(np.float64),
                                 rng.normal(size=n)])
            x[rng.uniform(size=x.shape) < 0.2] = np.nan
            y = rng.integers(0, 2, size=n).astype(np.float64)
            assert_matches_reference(x, y, TreeTrainConfig(max_depth=6, min_positives=0))


def subtree_depth(tree, idx):
    node = tree.nodes[idx]
    if node.is_leaf:
        return 0
    return 1 + max(subtree_depth(tree, node.left), subtree_depth(tree, node.right))


class TestStructure:
    def test_invariants_on_random_deep_trees(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(10, 60))
            d = int(rng.integers(1, 5))
            x = rng.normal(size=(n, d))
            x[rng.uniform(size=(n, d)) < 0.15] = np.nan
            y = rng.integers(0, 2, size=n).astype(np.float64)
            cfg = TreeTrainConfig(max_depth=int(rng.integers(1, 6)), min_positives=0)
            tree = train_tree(x, y, cfg)
            assert subtree_depth(tree, 0) <= cfg.max_depth
            leaf_ids = [nd.leaf_id for nd in tree.nodes if nd.is_leaf]
            assert sorted(leaf_ids) == list(range(tree.leaf_count))
            for nd in tree.nodes:
                if not nd.is_leaf:
                    assert 0 <= nd.column < d
                    assert nd.left != nd.right
                    assert 0 <= nd.left < len(tree.nodes)
                    assert 0 <= nd.right < len(tree.nodes)

    def test_leaf_ids_are_preorder(self):
        # Preorder leaf numbering: walking the node list front to back,
        # leaves appear with increasing ids.
        x = RNG.normal(size=(50, 3))
        y = RNG.integers(0, 2, size=50).astype(np.float64)
        tree = train_tree(x, y, TreeTrainConfig(max_depth=4, min_positives=0))
        seen = [nd.leaf_id for nd in tree.nodes if nd.is_leaf]
        assert seen == sorted(seen)

    def test_separable_data_perfect_accuracy(self):
        x = np.linspace(-2.0, 2.0, 30).reshape(-1, 1)
        y = (x[:, 0] > 0).astype(np.float64)
        tree = train_tree(x, y, TreeTrainConfig(max_depth=1, min_positives=1))
        # probability >= 0.5 from a half-probability base means weight >= 0
        preds = np.array([tr.route_row(tree, r).weight >= 0.0 for r in x])
        assert np.array_equal(preds, y.astype(bool))


class TestEnsemble:
    def test_one_tree_per_label(self):
        x = RNG.normal(size=(30, 4))
        labels = RNG.integers(0, 2, size=(30, 6)).astype(np.float64)
        cfg = TreeTrainConfig(min_positives=0)
        ens = train_ensemble(x, labels, cfg)
        assert len(ens.trees) == 6
        for t, tree in enumerate(ens.trees):
            assert tree.nodes == train_tree(x, labels[:, t], cfg).nodes

    def test_single_label_reduces_to_train_tree(self):
        x = RNG.normal(size=(25, 3))
        y = RNG.integers(0, 2, size=25).astype(np.float64)
        cfg = TreeTrainConfig(min_positives=0)
        ens = train_ensemble(x, y.reshape(-1, 1), cfg)
        solo = train_tree(x, y, cfg)
        assert len(ens.trees) == 1
        assert ensemble_to_dict(ens)["trees"][0] == ensemble_to_dict(
            TreeEnsemble([solo], cfg, 3)
        )["trees"][0]

    def test_all_zero_label_column_single_leaf(self):
        x = RNG.normal(size=(20, 3))
        labels = np.zeros((20, 2))
        labels[:, 1] = RNG.integers(0, 2, size=20)
        ens = train_ensemble(x, labels, TreeTrainConfig(min_positives=0))
        assert ens.trees[0].leaf_count == 1

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            train_ensemble(np.zeros((4, 2)), np.zeros((5, 3)))

    @pytest.mark.parametrize("bad", [2.0, -1.0, 0.5, np.nan])
    def test_non_binary_target_rejected_naming_row_and_label(self, bad):
        labels = RNG.integers(0, 2, size=(6, 3)).astype(np.float64)
        labels[4, 2] = bad
        with pytest.raises(ValueError, match=re.escape(
                f"row 4, label column 2: target {bad} is not 0 or 1")):
            train_ensemble(RNG.normal(size=(6, 2)), labels, TreeTrainConfig(min_positives=0))


class TestLeafPlumbing:
    def make_ensemble(self, n=40, d=4, n_labels=5, seed=5, **cfg_kw):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, d))
        x[rng.uniform(size=(n, d)) < 0.2] = np.nan
        labels = rng.integers(0, 2, size=(n, n_labels)).astype(np.float64)
        cfg = TreeTrainConfig(min_positives=0, **cfg_kw)
        return train_ensemble(x, labels, cfg), x

    def test_assignment_shape_and_range(self):
        ens, x = self.make_ensemble()
        for row in x[:10]:
            a = assign_leaves(ens, row)
            assert a.shape == (len(ens.trees),)
            for t, leaf in zip(ens.trees, a):
                assert 0 <= leaf < t.leaf_count

    def test_single_leaf_trees_assign_zero(self):
        x = RNG.normal(size=(12, 3))
        labels = np.zeros((12, 4))
        ens = train_ensemble(x, labels, TreeTrainConfig())
        np.testing.assert_array_equal(assign_leaves(ens, x[0]), np.zeros(4))

    def test_width_mismatch_rejected(self):
        ens, _ = self.make_ensemble(d=4)
        with pytest.raises(ValueError):
            assign_leaves(ens, np.zeros(5))

    def test_all_missing_row_is_deterministic(self):
        ens, _ = self.make_ensemble()
        row = np.full(4, np.nan)
        a1 = assign_leaves(ens, row)
        a2 = assign_leaves(ens, row)
        np.testing.assert_array_equal(a1, a2)

    def test_total_leaves_sums_counts(self):
        def split(left, right):
            return TreeNode(column=0, left=left, right=right)

        three = DecisionTree([split(1, 2), TreeNode(leaf_id=0), split(3, 4),
                              TreeNode(leaf_id=1), TreeNode(leaf_id=2)])
        ens = TreeEnsemble(
            trees=[two_row_tree(), three, DecisionTree([TreeNode(leaf_id=0)])],
            config=TreeTrainConfig(), n_features=1,
        )
        assert [t.leaf_count for t in ens.trees] == [2, 3, 1]
        assert total_leaves(ens) == 6


def routing_ensemble():
    """Trees whose thresholds include 0.0 (a -1/1 column), a rounded midpoint
    of adjacent floats, an integer grid and normals, with missing cells."""
    rng = np.random.default_rng(77)
    n = 80
    x = np.column_stack([
        rng.choice([-1.0, 1.0], size=n),
        rng.choice([1.0, np.nextafter(1.0, 2.0)], size=n),
        rng.integers(0, 6, size=n).astype(np.float64),
        rng.normal(size=n),
        rng.normal(size=n),
    ])
    x[rng.uniform(size=x.shape) < 0.2] = np.nan
    score = np.nan_to_num(x) @ rng.normal(size=(5, 8)) + rng.normal(size=(n, 8))
    labels = (score > 0.0).astype(np.float64)
    ens = train_ensemble(x, labels, TreeTrainConfig(min_positives=0))
    splits = [node for t in ens.trees for node in t.nodes if not node.is_leaf]
    specials = [np.nan, 0.0, -0.0, np.inf, -np.inf]
    for node in splits:
        thr = float(node.threshold)
        specials += [thr, np.nextafter(thr, -np.inf), np.nextafter(thr, np.inf)]
    return ens, splits, specials


ROUTING = routing_ensemble()


class TestRoutingOracle:
    def test_fixture_covers_edge_thresholds(self):
        ens, splits, _ = ROUTING
        assert all(len(t.nodes) > 1 for t in ens.trees)
        assert {node.column for node in splits} == set(range(5))
        assert 0.0 in {node.threshold for node in splits}

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_float_walk_matches_numpy_walk(self, data):
        # NaN cells, values exactly at thresholds, +-0.0, adjacent floats and
        # arbitrary floats: both walks end in the same leaf of every tree
        ens, _, specials = ROUTING
        cell = st.one_of(st.sampled_from(specials), st.floats())
        row = np.array(data.draw(st.lists(cell, min_size=5, max_size=5)))
        values = row.tolist()
        for tree in ens.trees:
            assert tr.route_row(tree, values) is numpy_route_row(tree, row)
        np.testing.assert_array_equal(
            assign_leaves(ens, row),
            [numpy_route_row(tree, row).leaf_id for tree in ens.trees],
        )


BAD_CONFIG_FIELDS = [
    ("max_depth", -1),
    ("min_child_rows", 0),
    ("min_positives", -1),
    ("learning_rate", -0.5),
    ("learning_rate", np.inf),
    ("learning_rate", np.nan),
    ("l2_lambda", -1.0),
    ("l2_lambda", np.inf),
    ("l2_lambda", np.nan),
]


class TestConfig:
    @pytest.mark.parametrize("name, value", BAD_CONFIG_FIELDS)
    def test_bad_field_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            TreeTrainConfig(**{name: value})

    @pytest.mark.parametrize("name, value", BAD_CONFIG_FIELDS)
    def test_bad_field_in_file_rejected(self, tmp_path, name, value):
        path = corrupt(tmp_path, lambda p: p["config"].update({name: value}))
        with pytest.raises(ValueError, match=re.escape(f"ensemble {path} config") + f".*{name}"):
            load_ensemble(path)

    def test_bounds_accepted(self):
        TreeTrainConfig(max_depth=0, min_child_rows=1, min_positives=0,
                        learning_rate=0.0, l2_lambda=0.0)


def corrupt(tmp_path, edit):
    """File of a one-tree ensemble (split, leaf 0, leaf 1) after ``edit`` of
    its payload."""
    payload = ensemble_to_dict(TreeEnsemble([two_row_tree()], TreeTrainConfig(), 1))
    edit(payload)
    path = tmp_path / "ensemble.json"
    path.write_text(json.dumps(payload))
    return path


def assert_rejected(tmp_path, edit, complaint):
    path = corrupt(tmp_path, edit)
    with pytest.raises(ValueError, match=re.escape(f"ensemble {path} {complaint}")):
        load_ensemble(path)


def set_node(i, key, value):
    def edit(payload):
        payload["trees"][0][i][key] = value
    return edit


def drop_key(i, key):
    def edit(payload):
        del payload["trees"][0][i][key]
    return edit


class TestBadEnsembleFile:
    @pytest.mark.parametrize("edit, complaint", [
        (set_node(0, "left", 0), "tree 0, node 0: child index 0"),
        (set_node(0, "right", 3), "tree 0, node 0: child index 3"),
        (set_node(0, "left", -1), "tree 0, node 0: child index -1"),
        (set_node(0, "column", 1), "tree 0, node 0: column 1"),
        (set_node(0, "column", -1), "tree 0, node 0: column -1"),
        (set_node(0, "kind", "stump"), "tree 0, node 0: unknown node kind 'stump'"),
        (drop_key(0, "threshold"), "tree 0, node 0: node has no 'threshold'"),
        (drop_key(2, "weight"), "tree 0, node 2: node has no 'weight'"),
        (drop_key(1, "kind"), "tree 0, node 1: node has no 'kind'"),
        (set_node(2, "leaf_id", 2), "tree 0, node 2: leaf id 2"),
        (set_node(2, "leaf_id", -1), "tree 0, node 2: leaf id -1"),
        (set_node(2, "leaf_id", 0), "tree 0: leaf ids [0, 0]"),
    ], ids=["self-child", "child-past-end", "negative-child", "column-past-end",
            "negative-column", "unknown-kind", "no-threshold", "no-weight", "no-kind",
            "leaf-id-past-count", "negative-leaf-id", "duplicate-leaf-id"])
    def test_rejected_naming_tree_and_node(self, tmp_path, edit, complaint):
        assert_rejected(tmp_path, edit, complaint)

    def test_empty_tree_rejected(self, tmp_path):
        assert_rejected(tmp_path, lambda p: p["trees"][0].clear(), "tree 0")

    @pytest.mark.parametrize("key", ["config", "n_features", "trees"])
    def test_missing_top_level_key_named(self, tmp_path, key):
        assert_rejected(tmp_path, lambda p: p.pop(key), f"has no '{key}'")

    def test_unknown_config_key_rejected(self, tmp_path):
        assert_rejected(tmp_path, lambda p: p["config"].update(max_leaves=8),
                        "config has unknown keys ['max_leaves']")

    def test_shared_child_rejected(self, tmp_path):
        # both children of the root are node 1: leaf 1 would be unreachable
        # yet still counted in leaf_count
        assert_rejected(tmp_path, set_node(0, "right", 1),
                        "tree 0, node 1: node is a child of 2 splits, expected exactly 1")

    def test_negative_n_features_rejected(self, tmp_path):
        # a single-leaf tree has no column to check n_features against
        def edit(payload):
            payload["n_features"] = -1
            payload["trees"][0] = [{"kind": "leaf", "leaf_id": 0, "weight": 0.5}]
        assert_rejected(tmp_path, edit, "has negative n_features -1")

    def test_intact_payload_loads(self, tmp_path):
        ens = load_ensemble(corrupt(tmp_path, lambda p: None))
        np.testing.assert_array_equal(assign_leaves(ens, np.array([1.0])), [1])


@st.composite
def preorder_trees(draw, n_features=3, max_depth=4):
    """A valid tree as a preorder node list, leaves numbered in preorder."""
    nodes = []
    weights = st.floats(allow_nan=False, allow_infinity=False)

    def grow(depth):
        i = len(nodes)
        nodes.append(None)
        if depth == max_depth or not draw(st.booleans()):
            leaf_id = sum(n is not None and n.is_leaf for n in nodes)
            nodes[i] = TreeNode(leaf_id=leaf_id, weight=draw(weights))
        else:
            left = grow(depth + 1)
            nodes[i] = TreeNode(column=draw(st.integers(0, n_features - 1)),
                                threshold=draw(weights), default_left=draw(st.booleans()),
                                left=left, right=grow(depth + 1))
        return i

    grow(0)
    return DecisionTree(nodes)


class TestGeneratedTrees:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(preorder_trees(), min_size=1, max_size=3))
    def test_valid_trees_round_trip(self, tmp_path_factory, forest):
        ens = TreeEnsemble(forest, TreeTrainConfig(), 3)
        path = tmp_path_factory.mktemp("ens") / "ensemble.json"
        save_ensemble(ens, path)
        loaded = load_ensemble(path)
        assert ensemble_to_dict(loaded) == ensemble_to_dict(ens)
        assert [t.leaf_count for t in loaded.trees] == [t.leaf_count for t in forest]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(preorder_trees(), min_size=1, max_size=3), st.data())
    def test_shared_child_refused_naming_tree_and_node(self, tmp_path_factory, forest, data):
        splits = [(t, i) for t, tree in enumerate(forest)
                  for i, node in enumerate(tree.nodes) if not node.is_leaf]
        assume(splits)
        t, i = data.draw(st.sampled_from(splits))
        node = forest[t].nodes[i]
        child = node.left
        node.right = child
        path = tmp_path_factory.mktemp("ens") / "ensemble.json"
        save_ensemble(TreeEnsemble(forest, TreeTrainConfig(), 3), path)
        with pytest.raises(ValueError, match=re.escape(
                f"ensemble {path} tree {t}, node {child}: node is a child of 2 splits")):
            load_ensemble(path)


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        ens, x = TestLeafPlumbing().make_ensemble(seed=13)
        path = tmp_path / "ensemble.json"
        save_ensemble(ens, path)
        loaded = load_ensemble(path)
        assert ensemble_to_dict(loaded) == ensemble_to_dict(ens)
        for t0, t1 in zip(ens.trees, loaded.trees):
            for n0, n1 in zip(t0.nodes, t1.nodes):
                assert n0.weight == n1.weight
                assert n0.threshold == n1.threshold

    def test_reload_preserves_routing(self, tmp_path):
        ens, x = TestLeafPlumbing().make_ensemble(seed=17)
        path = tmp_path / "ensemble.json"
        save_ensemble(ens, path)
        loaded = load_ensemble(path)
        rng = np.random.default_rng(3)
        probes = rng.normal(size=(25, 4))
        probes[rng.uniform(size=probes.shape) < 0.3] = np.nan
        for row in probes:
            np.testing.assert_array_equal(
                assign_leaves(ens, row), assign_leaves(loaded, row)
            )

    def test_version_guard(self, tmp_path):
        path = corrupt(tmp_path, lambda p: p.update(format_version=99))
        with pytest.raises(ValueError, match=re.escape(f"ensemble {path} 'format_version'")):
            load_ensemble(path)

    def test_digest_stable_and_sensitive(self):
        ens, _ = TestLeafPlumbing().make_ensemble(seed=21)
        d1 = ensemble_sha256(ens)
        d2 = ensemble_sha256(ens)
        assert d1 == d2
        leaf = next(nd for nd in ens.trees[0].nodes if nd.is_leaf)
        leaf.weight += 1e-9
        assert ensemble_sha256(ens) != d1
