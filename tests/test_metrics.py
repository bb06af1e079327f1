"""Metric checks: hand-counted examples, the O(n^2) pairwise AUC oracle,
and the tie/degenerate-case conventions."""

import math

import numpy as np
import pytest

from treefuse.metrics import (
    PredictionBatch,
    auc,
    compute_all,
    macro_auc,
    macro_f1,
    micro_auc,
    micro_f1,
    precision_at_k,
)

from oracles import loop_metrics, pairwise_auc

RNG = np.random.default_rng(20240819)


def batch(probs, gold):
    return PredictionBatch(np.asarray(probs, float), np.asarray(gold, float))


class TestF1:
    def test_perfect(self):
        gold = RNG.integers(0, 2, size=(6, 4)).astype(float)
        b = batch(gold, gold)
        assert micro_f1(b) == 1.0

    def test_pooled_hand_count(self):
        b = batch([[1.0, 0.0, 1.0]], [[1.0, 1.0, 0.0]])
        assert micro_f1(b) == 0.5

    def test_zero_recall(self):
        b = batch([[0.1, 0.2]], [[1.0, 1.0]])
        assert micro_f1(b) == 0.0

    def test_empty_denominator_is_zero(self):
        b = batch([[0.0, 0.0]], [[0.0, 0.0]])
        assert micro_f1(b) == 0.0
        assert macro_f1(b) == 0.0

    def test_threshold_is_inclusive(self):
        b = batch([[0.5]], [[1.0]])
        assert micro_f1(b) == 1.0

    def test_macro_mean_of_extremes(self):
        probs = [[1.0, 0.0], [1.0, 0.0]]
        gold = [[1.0, 1.0], [1.0, 1.0]]
        assert macro_f1(batch(probs, gold)) == 0.5

    def test_macro_equals_micro_on_identical_labels(self):
        col_probs = RNG.uniform(size=(12, 1))
        col_gold = RNG.integers(0, 2, size=(12, 1)).astype(float)
        probs = np.tile(col_probs, (1, 3))
        gold = np.tile(col_gold, (1, 3))
        b = batch(probs, gold)
        assert macro_f1(b) == pytest.approx(micro_f1(b), abs=1e-15)

    def test_three_label_hand_case(self):
        probs = [[0.9, 0.2, 0.6],
                 [0.7, 0.8, 0.6],
                 [0.1, 0.9, 0.6]]
        gold = [[1.0, 0.0, 1.0],
                [0.0, 1.0, 0.0],
                [1.0, 1.0, 1.0]]
        # label 0: tp=1 fp=1 fn=1 -> 1/2; label 1: tp=2 fp=0 fn=0 -> 1;
        # label 2: tp=2 fp=1 fn=0 -> 4/5.
        expected = (0.5 + 1.0 + 0.8) / 3.0
        assert macro_f1(batch(probs, gold)) == pytest.approx(expected, abs=1e-15)
        # pooled: tp=5 fp=2 fn=1.
        assert micro_f1(batch(probs, gold)) == pytest.approx(10.0 / 13.0, abs=1e-15)

    def test_micro_permutation_invariant(self):
        probs = RNG.uniform(size=(8, 5))
        gold = RNG.integers(0, 2, size=(8, 5)).astype(float)
        doc_perm = RNG.permutation(8)
        lbl_perm = RNG.permutation(5)
        v1 = micro_f1(batch(probs, gold))
        v2 = micro_f1(batch(probs[doc_perm][:, lbl_perm], gold[doc_perm][:, lbl_perm]))
        assert v1 == v2

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            batch(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_non_finite_probs_rejected(self):
        with pytest.raises(ValueError):
            batch(np.array([[np.nan]]), np.array([[1.0]]))


class TestAuc:
    def test_perfect_ranking(self):
        assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties_half(self):
        assert auc([0.4, 0.4, 0.4], [0, 1, 1]) == 0.5

    def test_hand_case(self):
        assert auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75

    def test_degenerate_returns_nan(self):
        assert math.isnan(auc([0.1, 0.9], [1, 1]))
        assert math.isnan(auc([0.1, 0.9], [0, 0]))

    def test_matches_pairwise_oracle_exactly(self):
        for _ in range(60):
            n = int(RNG.integers(2, 101))
            # Coarse grid forces plenty of ties.
            scores = RNG.integers(0, 6, size=n) / 5.0
            labels = RNG.integers(0, 2, size=n)
            expected = pairwise_auc(scores, labels)
            got = auc(scores, labels)
            if expected is None:
                assert math.isnan(got)
            else:
                assert got == expected, "rank formulation differs from pair count"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            auc([0.1, bad, bad, 0.8], [0, 1, 0, 1])

    def test_monotone_transform_invariant(self):
        scores = RNG.uniform(size=40)
        labels = RNG.integers(0, 2, size=40)
        labels[0], labels[1] = 0, 1
        v1 = auc(scores, labels)
        v2 = auc(np.exp(3.0 * scores) + 7.0, labels)
        assert v1 == pytest.approx(v2, abs=1e-12)


class TestAucAverages:
    def test_single_label_reduction(self):
        probs = RNG.uniform(size=(10, 1))
        gold = RNG.integers(0, 2, size=(10, 1)).astype(float)
        gold[0, 0], gold[1, 0] = 0.0, 1.0
        b = batch(probs, gold)
        expected = auc(probs[:, 0], gold[:, 0])
        assert micro_auc(b) == expected
        assert macro_auc(b) == expected

    def test_micro_flattens(self):
        probs = np.array([[0.9, 0.8], [0.2, 0.1]])
        gold = np.array([[1.0, 1.0], [0.0, 0.0]])
        assert micro_auc(batch(probs, gold)) == 1.0

    def test_macro_skips_undefined_labels(self):
        probs = np.array([[0.9, 0.4], [0.1, 0.6]])
        gold = np.array([[1.0, 1.0], [0.0, 1.0]])
        b = batch(probs, gold)
        assert macro_auc(b) == 1.0

    def test_all_labels_undefined_is_nan(self):
        b = batch(np.array([[0.5], [0.6]]), np.array([[1.0], [1.0]]))
        assert math.isnan(macro_auc(b))
        assert math.isnan(micro_auc(b))

    def test_two_label_case_vs_oracle(self):
        for _ in range(20):
            probs = RNG.uniform(size=(15, 2))
            gold = RNG.integers(0, 2, size=(15, 2)).astype(float)
            gold[0], gold[1] = [0.0, 0.0], [1.0, 1.0]
            b = batch(probs, gold)
            assert micro_auc(b) == pairwise_auc(probs.ravel(), gold.ravel())
            per_label = [
                pairwise_auc(probs[:, j], gold[:, j]) for j in range(2)
            ]
            assert macro_auc(b) == pytest.approx(np.mean(per_label), abs=1e-15)


class TestPrecisionAtK:
    def test_hand_case(self):
        b = batch([[0.9, 0.8, 0.1]], [[1.0, 0.0, 1.0]])
        assert precision_at_k(b, 2) == 0.5

    def test_perfect_top_k(self):
        b = batch([[0.9, 0.8, 0.7, 0.1]], [[1.0, 1.0, 1.0, 0.0]])
        assert precision_at_k(b, 3) == 1.0

    def test_tie_breaks_toward_lower_index(self):
        b = batch([[0.5, 0.5, 0.5]], [[1.0, 0.0, 0.0]])
        assert precision_at_k(b, 1) == 1.0
        b2 = batch([[0.5, 0.5, 0.5]], [[0.0, 1.0, 0.0]])
        assert precision_at_k(b2, 1) == 0.0

    def test_bounds_and_subset_condition(self):
        for _ in range(20):
            probs = RNG.uniform(size=(6, 8))
            gold = RNG.integers(0, 2, size=(6, 8)).astype(float)
            p = precision_at_k(batch(probs, gold), 3)
            assert 0.0 <= p <= 1.0
            if p == 1.0:
                for row, g in zip(probs, gold):
                    top = np.lexsort((np.arange(8), -row))[:3]
                    assert np.all(g[top] == 1.0)

    def test_k_validation(self):
        b = batch([[0.5, 0.5]], [[1.0, 0.0]])
        with pytest.raises(ValueError):
            precision_at_k(b, 0)
        with pytest.raises(ValueError):
            precision_at_k(b, 3)

    @pytest.mark.parametrize("k", [True, 1.5, np.float64(1.0), "1", 0])
    def test_k_must_be_a_positive_integer(self, k):
        with pytest.raises(ValueError, match="'k'"):
            precision_at_k(batch([[0.5, 0.5]], [[1.0, 0.0]]), k)

    def test_mean_over_documents(self):
        b = batch(
            [[0.9, 0.1], [0.9, 0.1]],
            [[1.0, 0.0], [0.0, 1.0]],
        )
        assert precision_at_k(b, 1) == 0.5


class TestReport:
    def test_compute_all_keys(self):
        probs = RNG.uniform(size=(10, 4))
        gold = RNG.integers(0, 2, size=(10, 4)).astype(float)
        gold[0] = [0, 0, 0, 0]
        gold[1] = [1, 1, 1, 1]
        out = compute_all(batch(probs, gold), k=3)
        assert set(out) == {
            "macro_auc", "micro_auc", "macro_f1", "micro_f1", "precision_at_3",
        }

    def test_compute_all_undefined_auc_is_nan(self):
        out = compute_all(batch(np.array([[0.5, 0.2]]), np.array([[1.0, 0.0]])), k=1)
        assert np.isnan(out["macro_auc"])
        assert out["micro_auc"] == 1.0
        out = compute_all(batch(np.array([[0.5], [0.6]]), np.array([[1.0], [1.0]])), k=1)
        assert np.isnan(out["macro_auc"]) and np.isnan(out["micro_auc"])
        assert out["micro_f1"] == 1.0


    def test_compute_all_matches_loop_oracle_bitwise(self):
        # ties, signed zeros at and away from the threshold, one-row and
        # one-label shapes
        rng = np.random.default_rng(77)
        tied = np.array([0.0, -0.0, 0.25, 0.5, 0.5, 0.75, 1.0])
        for i in range(300):
            rows = 1 if i % 5 == 0 else int(rng.integers(2, 12))
            labels = 1 if i % 7 == 0 else int(rng.integers(2, 7))
            shape = (rows, labels)
            probs = np.where(rng.random(shape) < 0.6, rng.choice(tied, size=shape),
                             rng.random(shape))
            gold = rng.choice(np.array([0.0, -0.0, 1.0]), size=shape)
            k = int(rng.integers(1, labels + 1))
            got = compute_all(batch(probs, gold), k=k)
            want = loop_metrics(probs, gold, k)
            assert {m: repr(v) for m, v in got.items()} == \
                {m: repr(v) for m, v in want.items()}, (i, probs, gold, k)
