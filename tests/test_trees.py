"""Tree training checks: worked examples, structural invariants, and an
exhaustive split-enumeration oracle on small random tables."""

import numpy as np
import pytest

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
    predict_margin,
    predict_probability,
    save_ensemble,
    total_leaves,
    train_ensemble,
    train_tree,
)

from oracles import enumerate_best_split

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
        assert predict_margin(tree, np.array([1.0])) == pytest.approx(0.396, abs=1e-12)

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

    def test_zero_weight_leaf_gives_half_probability(self):
        tree = DecisionTree(
            label_index=0, n_features=1,
            nodes=[TreeNode(leaf_id=0, weight=0.0)], leaf_count=1,
        )
        assert predict_probability(tree, np.array([3.0])) == 0.5

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            train_tree(np.zeros((0, 3)), np.zeros(0))

    def test_target_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            train_tree(np.zeros((4, 2)), np.zeros(5))

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


class TestSplitOracle:
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
            g = tr.BASE_PROB - y
            h = np.full(len(y), tr.BASE_PROB * (1.0 - tr.BASE_PROB))
            found = tr._best_split(x, g, h, np.arange(len(y)), cfg)
            expected = enumerate_best_split(x, y, lam=1.0, min_child_rows=1)
            if found is None or expected is None:
                assert (found is None) == (expected is None)
                continue
            assert found[0] == expected[0], "gain values differ bitwise"
            checked += 1
        assert checked > 20


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
        preds = np.array([predict_probability(tree, r) >= 0.5 for r in x])
        assert np.array_equal(preds, y.astype(bool))


class TestEnsemble:
    def test_one_tree_per_label(self):
        x = RNG.normal(size=(30, 4))
        labels = RNG.integers(0, 2, size=(30, 6)).astype(np.float64)
        ens = train_ensemble(x, labels, TreeTrainConfig(min_positives=0))
        assert len(ens.trees) == 6
        assert [t.label_index for t in ens.trees] == list(range(6))

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
        def fake(leaves, idx):
            return DecisionTree(label_index=idx, n_features=1,
                                nodes=[], leaf_count=leaves)

        ens = TreeEnsemble(
            trees=[fake(2, 0), fake(3, 1), fake(1, 2)],
            config=TreeTrainConfig(), n_features=1,
        )
        assert total_leaves(ens) == 6


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
        ens, _ = TestLeafPlumbing().make_ensemble()
        payload = ensemble_to_dict(ens)
        payload["format_version"] = 99
        with pytest.raises(ValueError):
            tr.ensemble_from_dict(payload)

    def test_digest_stable_and_sensitive(self):
        ens, _ = TestLeafPlumbing().make_ensemble(seed=21)
        d1 = ensemble_sha256(ens)
        d2 = ensemble_sha256(ens)
        assert d1 == d2
        leaf = next(nd for nd in ens.trees[0].nodes if nd.is_leaf)
        leaf.weight += 1e-9
        assert ensemble_sha256(ens) != d1
