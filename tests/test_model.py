"""Network checks: hand-computed fusion and attention arithmetic, exact
mode-equivalence properties, end-to-end gradient fidelity, and the
training loop's contracts."""

import json
import re
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings as run_settings, strategies as st

from treefuse import autodiff as ad
from treefuse import model as tm
from treefuse.autodiff import AdamState, Tape, Tensor, backward
from treefuse.metrics import PredictionBatch, micro_f1, precision_at_k
from treefuse.model import (
    FUSION_MODES,
    LEAF_MODES,
    ModelDims,
    TrainSettings,
    assemble_leaf_matrix,
    document_loss,
    encode_text,
    forward,
    fuse,
    init_params,
    label_attention,
    load_checkpoint,
    predict,
    predict_matrix,
    save_checkpoint,
    train_model,
)

from oracles import assert_bitwise, finite_difference_grad, max_rel_error, scalar_lstm_states

RNG = np.random.default_rng(20240820)

TOY = ModelDims(
    vocab_size=12, n_labels=3, leaf_counts=(3, 4), d_e=4, d_lstm=3, d_t=4, d_l=3
)


def toy_params(dims=TOY, seed=0):
    return init_params(dims, np.random.default_rng(seed))


def toy_doc(n=5, dims=TOY, rng=RNG):
    return rng.integers(0, dims.vocab_size, size=n)


def toy_assignment(dims=TOY, rng=RNG):
    return np.array([int(rng.integers(0, c)) for c in dims.leaf_counts])


class TestDims:
    @pytest.mark.parametrize("name, value, message", [
        ("vocab_size", 0, "vocab_size"), ("d_lstm", -1, "d_lstm"),
        ("leaf_counts", (2, 0), "at least one leaf"),
        # sizes and leaf counts are integers, never floats or bools
        ("vocab_size", 6.0, "vocab_size"), ("n_labels", True, "n_labels"),
        ("d_l", 2.5, "d_l"), ("leaf_counts", (2, 1.5), "leaf_counts"),
        ("leaf_counts", (True, 2), "leaf_counts"),
    ])
    def test_bad_dims_rejected_at_construction(self, name, value, message):
        with pytest.raises(ValueError, match=message):
            ModelDims(**{**asdict(TOY), name: value})


class TestEncode:
    def test_shapes(self):
        params = toy_params()
        H = encode_text(toy_doc(7), params)
        assert H.data.shape == (7, TOY.d_h)

    def test_single_token(self):
        params = toy_params()
        H = encode_text(np.array([3]), params)
        assert H.data.shape == (1, TOY.d_h)
        assert np.all(np.isfinite(H.data))

    def test_records_the_gather_and_one_lstm_node(self):
        # both directions run as one node, whose output is H itself
        with Tape() as tape:
            H = encode_text(toy_doc(5), toy_params())
        assert [fn.__qualname__.split(".")[0] for _, fn in tape._nodes] == [
            "gather", "lstm_sequence"]
        assert tape._nodes[-1][0] is H

    def test_zero_params_zero_states(self):
        params = toy_params()
        for _, t in params.named():
            t.data[...] = 0.0
        H = encode_text(toy_doc(4), params)
        np.testing.assert_array_equal(H.data, np.zeros((4, TOY.d_h)))

    def test_out_of_range_token_rejected(self):
        params = toy_params()
        with pytest.raises(IndexError):
            encode_text(np.array([TOY.vocab_size]), params)

    def test_matches_scalar_recurrence_oracle(self):
        dims = ModelDims(vocab_size=6, n_labels=1, leaf_counts=(1,),
                         d_e=1, d_lstm=1, d_t=2, d_l=2)
        params = toy_params(dims, seed=3)
        ids = np.array([0, 3, 5, 2])
        emb = params.word_emb.data[ids, 0]
        wx = params.lstm_fwd_wx.data[:, 0]
        wh = params.lstm_fwd_wh.data[:, 0]
        b = params.lstm_fwd_b.data
        expected_fwd = scalar_lstm_states(emb, wx, wh, b)
        wxb = params.lstm_bwd_wx.data[:, 0]
        whb = params.lstm_bwd_wh.data[:, 0]
        bb = params.lstm_bwd_b.data
        expected_bwd = scalar_lstm_states(emb[::-1], wxb, whb, bb)[::-1]
        H = encode_text(ids, params)
        np.testing.assert_allclose(H.data[:, 0], expected_fwd, atol=1e-12)
        np.testing.assert_allclose(H.data[:, 1], expected_bwd, atol=1e-12)


class TestLeafMatrix:
    def test_columns_are_activated_rows(self):
        params = toy_params()
        a = np.array([2, 1])
        L = assemble_leaf_matrix(a, params)
        assert L.data.shape == (TOY.d_l, 2)
        # tree 1's rows start after tree 0's three leaves
        np.testing.assert_array_equal(L.data[:, 0], params.leaf_table.data[2])
        np.testing.assert_array_equal(L.data[:, 1], params.leaf_table.data[3 + 1])

    def test_identical_assignments_identical_matrices(self):
        params = toy_params()
        a = toy_assignment()
        np.testing.assert_array_equal(
            assemble_leaf_matrix(a, params).data,
            assemble_leaf_matrix(a.copy(), params).data,
        )

    def test_out_of_range_leaf_rejected(self):
        params = toy_params()
        with pytest.raises(IndexError):
            assemble_leaf_matrix(np.array([0, 99]), params)
        # leaf 3 is a row of the merged table (tree 1's first leaf) but is
        # out of range for tree 0, which has three leaves
        with pytest.raises(IndexError, match="tree 0"):
            assemble_leaf_matrix(np.array([3, 0]), params)
        with pytest.raises(IndexError, match="tree 1"):
            assemble_leaf_matrix(np.array([0, -1]), params)

    def test_wrong_length_rejected(self):
        params = toy_params()
        with pytest.raises(ValueError):
            assemble_leaf_matrix(np.array([0]), params)

    def test_gradient_only_on_activated_rows(self):
        params = toy_params()
        a = np.array([1, 3])
        with Tape() as tape:
            L = assemble_leaf_matrix(a, params)
            loss = __import__("treefuse.autodiff", fromlist=["reduce_sum"]).reduce_sum(L)
        backward(tape, loss)
        g = params.leaf_table.grad
        assert g is not None
        activated = [1, 3 + 3]  # tree 1's rows start after tree 0's three leaves
        np.testing.assert_array_equal(g[activated], np.ones((2, TOY.d_l)))
        rest = np.delete(g, activated, axis=0)
        np.testing.assert_array_equal(rest, np.zeros_like(rest))


def hand_fusion_expected(H, Wq, T_keys, L_mat, Wo, mode):
    """Independent numpy mirror of the fusion arithmetic."""
    if mode == "attention":
        scores = (H @ Wq.T) @ T_keys
        shifted = scores - scores.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        alpha = e / e.sum(axis=1, keepdims=True)
        S = alpha @ L_mat.T
    elif mode == "average":
        S = np.tile(L_mat.mean(axis=1), (H.shape[0], 1))
    elif mode == "maxpool":
        S = np.tile(L_mat.max(axis=1), (H.shape[0], 1))
    return np.hstack([H, S]) @ Wo.T


class TestFuse:
    def setup_method(self):
        dims = ModelDims(vocab_size=6, n_labels=2, leaf_counts=(2, 2),
                         d_e=3, d_lstm=1, d_t=2, d_l=2)
        self.params = toy_params(dims, seed=9)
        self.H = Tensor(np.array([[0.5, -1.0], [2.0, 0.25], [-0.75, 1.5]]))
        self.L = Tensor(np.array([[1.0, -2.0], [0.5, 3.0]]))

    @pytest.mark.parametrize("mode", ["attention", "average", "maxpool"])
    def test_hand_arithmetic(self, mode):
        M = fuse(self.H, self.L, self.params, mode)
        expected = hand_fusion_expected(
            self.H.data, self.params.query_proj.data, self.params.tree_keys.data,
            self.L.data, self.params.fuse_proj.data, mode,
        )
        np.testing.assert_allclose(M.data, expected, atol=1e-12)

    def test_text_only_returns_h_itself(self):
        M = fuse(self.H, None, self.params, "text_only")
        assert M is self.H

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            fuse(self.H, self.L, self.params, "blend")

    def test_missing_leaf_matrix_rejected(self):
        with pytest.raises(ValueError):
            fuse(self.H, None, self.params, "attention")

    def test_single_tree_all_modes_exactly_equal(self):
        dims = ModelDims(vocab_size=6, n_labels=2, leaf_counts=(3,),
                         d_e=3, d_lstm=1, d_t=2, d_l=2)
        params = toy_params(dims, seed=4)
        H = Tensor(RNG.normal(size=(4, 2)))
        L = Tensor(RNG.normal(size=(2, 1)))
        outs = [fuse(H, L, params, m).data for m in ("attention", "average", "maxpool")]
        np.testing.assert_array_equal(outs[0], outs[1])
        np.testing.assert_array_equal(outs[0], outs[2])

    def test_identical_tree_keys_attention_equals_average_exactly(self):
        self.params.tree_keys.data[:, 1] = self.params.tree_keys.data[:, 0]
        att = fuse(self.H, self.L, self.params, "attention").data
        avg = fuse(self.H, self.L, self.params, "average").data
        np.testing.assert_array_equal(att, avg)


class TestLabelAttention:
    def test_hand_case(self):
        M = Tensor(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        U = Tensor(np.eye(2))
        V = label_attention(M, U)
        e = np.e
        z = 2 * e + 1
        expected_v = np.array([[2 * e / z, (1 + e) / z],
                               [(1 + e) / z, 2 * e / z]])
        np.testing.assert_allclose(V.data, expected_v, atol=1e-12)

    def test_single_token(self):
        M = Tensor(np.array([[3.0, -1.0]]))
        U = Tensor(RNG.normal(size=(2, 4)))
        V = label_attention(M, U)
        np.testing.assert_array_equal(V.data, np.tile(M.data, (4, 1)))

    def test_zero_scores_average_rows(self):
        M = Tensor(RNG.normal(size=(5, 3)))
        U = Tensor(np.zeros((3, 2)))
        V = label_attention(M, U)
        expected = np.tile(M.data.mean(axis=0), (2, 1))
        np.testing.assert_allclose(V.data, expected, atol=1e-12)


class TestPredict:
    def test_zero_weights_half(self):
        params = toy_params()
        params.out_weight.data[...] = 0.0
        params.out_bias.data[...] = 0.0
        V = Tensor(RNG.normal(size=(TOY.n_labels, TOY.d_h)))
        yhat = predict(V, params)
        np.testing.assert_array_equal(yhat.data, np.full(TOY.n_labels, 0.5))

    def test_hand_case(self):
        params = toy_params(
            ModelDims(vocab_size=4, n_labels=2, leaf_counts=(1,),
                      d_e=2, d_lstm=1, d_t=2, d_l=2)
        )
        params.out_weight.data[...] = np.array([[1.0, 0.0], [0.0, 1.0]])
        params.out_bias.data[...] = np.array([0.5, -0.5])
        V = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        yhat = predict(V, params)
        expected = 1.0 / (1.0 + np.exp(-np.array([1.5, 3.5])))
        np.testing.assert_allclose(yhat.data, expected, atol=1e-14)

    def test_large_logits_stable(self):
        params = toy_params()
        params.out_bias.data[...] = 500.0
        V = Tensor(np.zeros((TOY.n_labels, TOY.d_h)))
        yhat = predict(V, params)
        assert np.all(np.isfinite(yhat.data))
        assert np.all(yhat.data > 0.99)


class TestEndToEndGradients:
    @pytest.mark.parametrize("mode", ["attention", "text_only"])
    def test_fd_all_params(self, mode):
        rng = np.random.default_rng(31)
        for trial in range(2):
            params = toy_params(seed=100 + trial)
            ids = rng.integers(0, TOY.vocab_size, size=5)
            assignment = np.array([int(rng.integers(0, c)) for c in TOY.leaf_counts])
            target = rng.integers(0, 2, size=TOY.n_labels).astype(float)

            with Tape() as tape:
                loss, _ = document_loss(params, ids, assignment, target, mode)
            backward(tape, loss)

            def f():
                loss, _ = document_loss(params, ids, assignment, target, mode)
                return float(loss.data)

            for name, t in params.named():
                fd = finite_difference_grad(f, t.data)
                grad = t.grad if t.grad is not None else np.zeros_like(t.data)
                err = max_rel_error(grad, fd)
                assert err < 1e-4, f"{mode}:{name} rel err {err:.2e}"


class TestStepMemory:
    """One training step lets go of its tape as backward consumes it."""

    # default d_e, d_lstm, d_t and d_l
    DIMS = ModelDims(vocab_size=1000, n_labels=50, leaf_counts=(6,) * 50)

    def step_inputs(self, mode, seed=3, n_tokens=250):
        rng = np.random.default_rng(seed)
        params = init_params(self.DIMS, rng)
        doc = rng.integers(0, self.DIMS.vocab_size, size=n_tokens)
        assignment = np.array([int(rng.integers(0, c)) for c in self.DIMS.leaf_counts])
        target = (rng.random(self.DIMS.n_labels) < 0.2).astype(float)
        return params, (doc, assignment, target, mode)

    @pytest.mark.parametrize("mode", FUSION_MODES)
    def test_gradients_equal_a_replay_that_keeps_the_tape(self, mode):
        params, args = self.step_inputs(mode, n_tokens=20)
        grads = []
        for consume in (True, False):
            state = AdamState(params.all(), lr=1e-3)
            with Tape() as tape:
                loss, _ = document_loss(params, *args)
            if consume:
                backward(tape, loss)
            else:
                loss.accumulate_grad(np.ones_like(loss.data))
                for out, backward_fn in reversed(tape._nodes):
                    if out.grad is not None:
                        backward_fn(out.grad)
            grads.append(state.grads)
        for got, want in zip(*grads, strict=True):
            assert_bitwise(got, want)

    def test_default_dims_step_keeps_nothing_after_backward(self):
        params, args = self.step_inputs("attention")
        state = AdamState(params.all(), lr=1e-3)
        for _ in range(2):
            ad.zero_grads(state)
            tracemalloc.start()
            try:
                with Tape() as tape:
                    loss, yhat = document_loss(params, *args)
                after_forward = tracemalloc.get_traced_memory()[0]
                backward(tape, loss)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # loss and yhat (50 floats) are all that is left
            assert held < 0.1 * 2**20
            # the sweep frees what it has passed before the next op's
            # temporaries: the tape made 6.3 MiB, the peak reads 7.6
            assert peak <= 1.25 * after_forward
            assert all(p.grad is g for p, g in zip(params.all(), state.grads, strict=True))


class TestTraining:
    def small_data(self, n_docs=4, dims=TOY, seed=5):
        rng = np.random.default_rng(seed)
        docs = [rng.integers(0, dims.vocab_size, size=int(rng.integers(3, 7)))
                for _ in range(n_docs)]
        assignments = [
            np.array([int(rng.integers(0, c)) for c in dims.leaf_counts])
            for _ in range(n_docs)
        ]
        targets = rng.integers(0, 2, size=(n_docs, dims.n_labels)).astype(float)
        targets[:2] = [[1, 0, 1], [0, 1, 0]][:n_docs]
        return docs, assignments, targets

    def test_memorizes_single_example(self):
        params = toy_params(seed=7)
        docs, assignments, targets = self.small_data(1)
        settings = TrainSettings(epochs=200, seed=1, learning_rate=0.02)
        result = train_model(params, docs, assignments, targets,
                             docs, assignments, targets, settings)
        assert result.log_rows[-1]["train_loss"] < 1e-2

    @pytest.mark.parametrize("clip_norm", [0.0, 5.0])
    def test_logs_pre_clip_grad_norm(self, clip_norm):
        params = toy_params(seed=9)
        docs, assignments, targets = self.small_data(4)
        settings = TrainSettings(epochs=1, seed=3, clip_norm=clip_norm)
        result = train_model(params, docs, assignments, targets,
                             docs, assignments, targets, settings)
        norm = result.log_rows[0]["train_grad_norm"]
        assert np.isfinite(norm) and norm > 0.0
        assert "train_grad_norm" in result.log_csv().splitlines()[0].split(",")

    def test_one_document_validation_split(self):
        # every label of a one-document split is single-class, so macro AUC
        # is undefined; training still runs and selects on micro-F1
        params = toy_params(seed=16)
        docs, assignments, targets = self.small_data(4)
        settings = TrainSettings(epochs=2, seed=7)
        result = train_model(params, docs[:3], assignments[:3], targets[:3],
                             docs[3:], assignments[3:], targets[3:], settings)
        assert len(result.log_rows) == 2
        for row in result.log_rows:
            assert np.isnan(row["val_macro_auc"])
            assert 0.0 <= row["val_micro_f1"] <= 1.0
        assert result.best_epoch in (0, 1)

    def test_zero_lr_keeps_params(self):
        params = toy_params(seed=8)
        before = params.snapshot()
        docs, assignments, targets = self.small_data(3)
        settings = TrainSettings(epochs=3, seed=2, learning_rate=0.0)
        result = train_model(params, docs, assignments, targets,
                             docs, assignments, targets, settings)
        after = params.snapshot()
        for name in before:
            np.testing.assert_array_equal(before[name], after[name])
        losses = [row["train_loss"] for row in result.log_rows]
        assert losses[0] == losses[1] == losses[2]

    def test_deterministic_given_seed(self):
        docs, assignments, targets = self.small_data(4)
        outs = []
        for _ in range(2):
            params = toy_params(seed=11)
            settings = TrainSettings(epochs=3, seed=4)
            result = train_model(params, docs, assignments, targets,
                                 docs, assignments, targets, settings)
            outs.append((result.log_csv(), params.snapshot()))
        assert outs[0][0] == outs[1][0]
        for name in outs[0][1]:
            np.testing.assert_array_equal(outs[0][1][name], outs[1][1][name])

    def test_non_finite_loss_aborts(self):
        params = toy_params(seed=12)
        params.out_bias.data[...] = np.nan
        docs, assignments, targets = self.small_data(2)
        settings = TrainSettings(epochs=1, seed=0)
        with pytest.raises(RuntimeError, match="non-finite"):
            train_model(params, docs, assignments, targets,
                        docs, assignments, targets, settings)

    def test_best_checkpoint_restored(self):
        params = toy_params(seed=13)
        docs, assignments, targets = self.small_data(4)
        settings = TrainSettings(epochs=5, seed=3, learning_rate=0.02)
        result = train_model(params, docs, assignments, targets,
                             docs, assignments, targets, settings)
        probs = predict_matrix(params, docs, assignments, "attention")
        restored_f1 = micro_f1(PredictionBatch(probs, targets))
        assert restored_f1 == result.best_val_micro_f1
        best_row = result.log_rows[result.best_epoch]
        assert best_row["val_micro_f1"] == result.best_val_micro_f1

    def test_one_forward_per_document(self, monkeypatch):
        # each training document is scored in its own step, once per epoch;
        # the validation split gets one batched scoring pass per epoch
        forwards, scored = [], []

        def counted_forward(*args, **kwargs):
            forwards.append(1)
            return forward(*args, **kwargs)

        def counted_predict_matrix(params, docs, assignments, mode):
            scored.append((docs, assignments))
            return predict_matrix(params, docs, assignments, mode)

        monkeypatch.setattr(tm, "forward", counted_forward)
        monkeypatch.setattr(tm, "predict_matrix", counted_predict_matrix)
        params = toy_params(seed=14)
        docs, assignments, targets = self.small_data(4)
        settings = TrainSettings(epochs=2, seed=5)
        val_docs, val_assignments = docs[3:], assignments[3:]
        train_model(params, docs[:3], assignments[:3], targets[:3],
                    val_docs, val_assignments, targets[3:], settings)
        assert len(forwards) == 3 * 2
        assert len(scored) == 2
        for got_docs, got_assignments in scored:
            assert got_docs is val_docs and got_assignments is val_assignments

    def test_gradient_buffers_made_once_per_run(self, monkeypatch):
        # every step of every epoch starts on the same zeroed buffers, and
        # the parameters let go of them when training returns
        grads_seen = []

        def spy(params, *args):
            grads_seen.append([t.grad for t in params.all()])
            for t in params.all():
                assert_bitwise(t.grad, np.zeros_like(t.data))
            return document_loss(params, *args)

        monkeypatch.setattr(tm, "document_loss", spy)
        params = toy_params(seed=19)
        docs, assignments, targets = self.small_data(4)
        settings = TrainSettings(epochs=3, seed=5)
        train_model(params, docs[:3], assignments[:3], targets[:3],
                    docs[3:], assignments[3:], targets[3:], settings)
        assert len(grads_seen) == 3 * 3
        for grads in grads_seen[1:]:
            assert all(g is first for g, first in zip(grads, grads_seen[0], strict=True))
        assert all(t.grad is None for t in params.all())

    def test_text_only_leaves_structured_params_unchanged(self):
        # text_only never reaches these, so they step on zero gradients
        params = toy_params(seed=21)
        before = params.snapshot()
        docs, assignments, targets = self.small_data(4)
        settings = TrainSettings(epochs=2, seed=6, fusion_mode="text_only", learning_rate=0.05)
        train_model(params, docs[:3], assignments[:3], targets[:3],
                    docs[3:], assignments[3:], targets[3:], settings)
        after = params.snapshot()
        for name in ("query_proj", "tree_keys", "leaf_table", "fuse_proj"):
            assert_bitwise(after[name], before[name])
        assert not np.array_equal(after["word_emb"], before["word_emb"])

    def test_train_micro_f1_scores_in_step_probabilities(self):
        # at lr 0 no step changes the parameters, so the in-step
        # probabilities are exactly those of a scoring pass
        params = toy_params(seed=17)
        docs, assignments, targets = self.small_data(4)
        settings = TrainSettings(epochs=1, seed=8, learning_rate=0.0)
        result = train_model(params, docs, assignments, targets,
                             docs, assignments, targets, settings)
        probs = predict_matrix(params, docs, assignments, "attention")
        expected = micro_f1(PredictionBatch(probs, targets))
        assert 0.0 < expected < 1.0
        assert result.log_rows[0]["train_micro_f1"] == expected

    @pytest.mark.parametrize("name, value", [
        ("epochs", 0), ("epochs", -2), ("epochs", 2.5), ("epochs", True),
        ("seed", 1.5), ("seed", -1), ("seed", False),
        ("learning_rate", -1.0), ("learning_rate", float("nan")),
        ("learning_rate", float("inf")),
        ("clip_norm", -1.0), ("clip_norm", float("nan")), ("clip_norm", float("inf")),
        ("fusion_mode", "sum"),
    ])
    def test_bad_settings_rejected_at_construction(self, name, value):
        with pytest.raises(ValueError, match=name):
            TrainSettings(**{"epochs": 1, "seed": 0, name: value})

    @pytest.mark.parametrize("split, part, rows", [
        ("train", "targets", 2),      # fewer train targets
        ("train", "assignments", 2),  # fewer train assignments
        ("train", "targets", 4),      # an extra train target
        ("validation", "docs", 2),    # fewer validation documents
    ])
    def test_split_length_mismatch_rejected_before_training(self, split, part, rows):
        params = toy_params(seed=18)
        before = params.snapshot()
        docs, assignments, targets = self.small_data(4)
        data = {"docs": docs, "assignments": assignments, "targets": targets}
        splits = {name: {key: value[:3] for key, value in data.items()}
                  for name in ("train", "validation")}
        splits[split][part] = data[part][:rows]
        args = [splits[name][key] for name in ("train", "validation")
                for key in ("docs", "assignments", "targets")]
        with pytest.raises(ValueError, match=f"{split} split, .* documents, "
                                             ".* assignments, .* target rows"):
            train_model(params, *args, TrainSettings(epochs=1, seed=2))
        after = params.snapshot()
        for name in before:
            np.testing.assert_array_equal(before[name], after[name])

    @pytest.mark.parametrize("split", ["train", "validation"])
    @pytest.mark.parametrize("part, row, value, error, message", [
        ("docs", 1, np.array([1, TOY.vocab_size]), IndexError,
         "document 1: token id out of range [0, 12)"),
        ("docs", 1, np.array([-1, 2]), IndexError, "document 1: token id out of range [0, 12)"),
        ("docs", 1, np.array([], dtype=np.int64), ValueError,
         "document 1: cannot encode an empty document"),
        ("docs", 1, np.array([[1, 2]]), ValueError,
         "document 1: token ids must be 1-D, got shape (1, 2)"),
        ("assignments", 1, np.array([3, 0]), IndexError,
         "document 1: leaf 3 out of range [0, 3) for tree 0"),
        ("assignments", 1, np.array([0]), ValueError,
         "document 1: assignment length (1,) does not match 2 trees"),
        ("assignments", 1, None, ValueError,
         "document 1: fusion mode 'attention' needs a leaf assignment"),
        ("assignments", None, None, ValueError,
         "document 0: fusion mode 'attention' needs a leaf assignment"),
        ("targets", None, np.zeros((3, 2)), ValueError,
         "target rows need 3 labels, got shape (3, 2)"),
    ], ids=["token_high", "token_negative", "empty", "two_d", "leaf_range",
            "assignment_length", "assignment_missing", "no_assignments", "target_width"])
    def test_bad_input_rejected_before_training(self, split, part, row, value, error, message):
        # row None replaces the whole part of the split
        params = toy_params(seed=22)
        before = params.snapshot()
        docs, assignments, targets = self.small_data(3)
        splits = {name: {"docs": list(docs), "assignments": list(assignments),
                         "targets": targets} for name in ("train", "validation")}
        if row is None:
            splits[split][part] = value
        else:
            splits[split][part][row] = value
        args = [splits[name][key] for name in ("train", "validation")
                for key in ("docs", "assignments", "targets")]
        with pytest.raises(error, match=re.escape(f"{split} split, {message}")):
            train_model(params, *args, TrainSettings(epochs=1, seed=2))
        after = params.snapshot()
        for name in before:
            assert_bitwise(after[name], before[name])
        assert all(t.grad is None for t in params.all())

    @pytest.mark.parametrize("split", ["train", "validation"])
    @pytest.mark.parametrize("value", [2.0, -1.0, 0.5, np.nan])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_non_binary_target_rejected_before_training(self, split, value, seed):
        # a NaN target used to train until its document's step reported a
        # non-finite loss, after the steps before it had changed parameters
        params = toy_params(seed=23)
        before = params.snapshot()
        docs, assignments, targets = self.small_data(4)
        bad = targets.copy()
        bad[3, 1] = value
        train, val = (bad, targets) if split == "train" else (targets, bad)
        with pytest.raises(ValueError, match=re.escape(
                f"{split} split, document 3, label column 1: target {value} is not 0 or 1")):
            train_model(params, docs, assignments, train, docs, assignments, val,
                        TrainSettings(epochs=1, seed=seed))
        after = params.snapshot()
        for name in before:
            assert_bitwise(after[name], before[name])
        assert all(t.grad is None for t in params.all())

    def test_default_precision_k_fits_a_small_label_space(self):
        # TOY has 3 labels, fewer than the default k of 5
        params = toy_params(seed=20)
        docs, assignments, targets = self.small_data(4)
        settings = TrainSettings(epochs=1, seed=2)
        result = train_model(params, docs[:3], assignments[:3], targets[:3],
                             docs, assignments, targets, settings)
        probs = predict_matrix(params, docs, assignments, "attention")
        expected = precision_at_k(PredictionBatch(probs, targets), 3)
        assert result.log_rows[0]["val_precision_at_k"] == expected

    def test_empty_validation_split_rejected_before_training(self):
        params = toy_params(seed=18)
        before = params.snapshot()
        docs, assignments, targets = self.small_data(1)
        settings = TrainSettings(epochs=1, seed=2)
        with pytest.raises(ValueError, match="empty validation split"):
            train_model(params, docs, assignments, targets,
                        [], [], np.zeros((0, TOY.n_labels)), settings)
        after = params.snapshot()
        for name in before:
            np.testing.assert_array_equal(before[name], after[name])
        assert all(t.grad is None for t in params.all())

    def test_log_csv_shape(self):
        params = toy_params(seed=15)
        docs, assignments, targets = self.small_data(3)
        settings = TrainSettings(epochs=2, seed=6)
        result = train_model(params, docs, assignments, targets,
                             docs, assignments, targets, settings)
        lines = result.log_csv().strip().splitlines()
        assert lines[0] == ",".join(tm.LOG_COLUMNS)
        assert len(lines) == 3


class TestPredictMatrix:
    def docs_and_assignments(self, lengths, seed=40):
        rng = np.random.default_rng(seed)
        docs = [rng.integers(0, TOY.vocab_size, size=n) for n in lengths]
        return docs, [toy_assignment(rng=rng) for _ in lengths]

    @pytest.mark.parametrize("head_rows", [None, 4])
    @pytest.mark.parametrize("budget", [None, 9])
    @pytest.mark.parametrize("mode", tm.FUSION_MODES)
    def test_matches_per_document_forward(self, mode, budget, head_rows, monkeypatch):
        if budget is not None:
            monkeypatch.setattr(tm, "_SCORE_BATCH_STEPS", budget)
        if head_rows is not None:
            monkeypatch.setattr(tm, "_HEAD_ROWS", head_rows)
        budget = tm._SCORE_BATCH_STEPS
        shapes = []
        scan = tm.ad.lstm_scan

        def spy(table, ids, *args):
            shapes.append(ids.shape)
            return scan(table, ids, *args)

        groups = []
        runs = tm._runs

        def runs_spy(lengths, cap):
            out = list(runs(lengths, cap))
            if cap == tm._HEAD_ROWS:
                groups.extend(lengths[a:b] for a, b in out)
            return out

        monkeypatch.setattr(tm.ad, "lstm_scan", spy)
        monkeypatch.setattr(tm, "_runs", runs_spy)
        # ragged and unsorted, with ties, one-token documents and one
        # document longer than the budget
        lengths = [3, 1, 7, 3, 1, budget + 1, 5, 7, 2, 1]
        docs, assignments = self.docs_and_assignments(lengths)
        params = toy_params(seed=41)
        got = predict_matrix(params, docs, assignments, mode)
        want = np.stack([forward(params, ids, a, mode).data
                         for ids, a in zip(docs, assignments)])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        # the long document is a batch of its own; each batch runs both
        # directions and stays inside the budget otherwise
        assert shapes[0] == shapes[1] == (budget + 1, 1)
        assert all(steps * n <= budget for steps, n in shapes[2:])
        assert sum(n for _, n in shapes) == 2 * len(docs)
        # head groups stay inside the cap, or hold one longer document
        assert all(len(g) == 1 or len(g) * g[0] <= tm._HEAD_ROWS for g in groups)
        if head_rows is not None:
            # groups split inside a batch, and a document longer than the
            # cap is a group of its own
            assert len(groups) > len(shapes) // 2
            assert any(len(g) == 1 and g[0] > head_rows for g in groups)

    @pytest.mark.parametrize("mode", tm.FUSION_MODES)
    def test_records_nothing_on_a_tape(self, mode):
        docs, assignments = self.docs_and_assignments([3, 1, 4])
        with Tape() as tape:
            predict_matrix(toy_params(), docs, assignments, mode)
        assert tape._nodes == []

    def test_identical_tree_keys_attention_equals_average_exactly(self):
        dims = ModelDims(vocab_size=12, n_labels=3, leaf_counts=(3, 4, 2, 5, 3),
                         d_e=4, d_lstm=3, d_t=4, d_l=3)
        params = toy_params(dims, seed=43)
        params.tree_keys.data[:, 1:] = params.tree_keys.data[:, :1]
        rng = np.random.default_rng(44)
        docs = [rng.integers(0, dims.vocab_size, size=n) for n in (3, 1, 7, 4)]
        assignments = [toy_assignment(dims, rng) for _ in docs]
        np.testing.assert_array_equal(
            predict_matrix(params, docs, assignments, "attention"),
            predict_matrix(params, docs, assignments, "average"),
        )

    def test_empty_split(self):
        params = toy_params()
        for mode, assignments in (("text_only", None), ("attention", [])):
            probs = predict_matrix(params, [], assignments, mode)
            assert probs.shape == (0, TOY.n_labels)

    def test_assignment_count_must_match_documents(self):
        params = toy_params()
        docs, assignments = self.docs_and_assignments([3, 2, 4])
        with pytest.raises(ValueError, match="3 documents, 2 assignments"):
            predict_matrix(params, docs, assignments[:2], "attention")
        with pytest.raises(ValueError, match="3 documents, 4 assignments"):
            predict_matrix(params, docs, assignments + assignments[:1], "attention")

    def test_rejections(self):
        params = toy_params()
        docs, assignments = self.docs_and_assignments([3, 2, 4])
        with pytest.raises(ValueError, match="document 1.*empty"):
            predict_matrix(params, [docs[0], np.array([], dtype=np.int64)],
                           assignments[:2], "attention")
        with pytest.raises(ValueError, match="unknown fusion mode"):
            predict_matrix(params, docs, assignments, "sum")
        with pytest.raises(ValueError, match="needs a leaf assignment"):
            predict_matrix(params, docs, None, "maxpool")
        with pytest.raises(ValueError, match="needs a leaf assignment"):
            predict_matrix(params, docs, [assignments[0], None, assignments[2]],
                           "average")
        for bad in (TOY.vocab_size, -1):
            with pytest.raises(IndexError, match="document 2"):
                predict_matrix(params, docs[:2] + [np.array([1, bad])],
                               assignments, "text_only")
        # leaf 3 is in the merged table but out of range for tree 0
        with pytest.raises(IndexError, match="tree 0"):
            predict_matrix(params, docs, assignments[:2] + [np.array([3, 0])],
                           "attention")

    @pytest.mark.parametrize("assignment, error, message", [
        (np.array([3, 0]), IndexError, "leaf 3 out of range [0, 3) for tree 0"),
        (np.array([0]), ValueError, "assignment length (1,) does not match 2 trees"),
        (None, ValueError, "fusion mode 'attention' needs a leaf assignment"),
    ], ids=["out_of_range", "wrong_length", "missing"])
    def test_leaf_error_names_document(self, assignment, error, message):
        params = toy_params()
        docs, assignments = self.docs_and_assignments([3, 2, 4])
        with pytest.raises(error, match=re.escape(f"document 2: {message}")):
            predict_matrix(params, docs, assignments[:2] + [assignment], "attention")

    @pytest.mark.parametrize("token_first", [True, False], ids=["token_first", "leaf_first"])
    @pytest.mark.parametrize("ids, token_error, token_message", [
        (np.array([1, TOY.vocab_size]), IndexError, "token id out of range [0, 12)"),
        (np.array([-1, 2]), IndexError, "token id out of range [0, 12)"),
        (np.array([], dtype=np.int64), ValueError, "cannot encode an empty document"),
        (np.array([[1, 2]]), ValueError, "token ids must be 1-D, got shape (1, 2)"),
    ], ids=["token_high", "token_negative", "empty", "two_d"])
    @pytest.mark.parametrize("assignment, leaf_error, leaf_message", [
        (np.array([0]), ValueError, "assignment length (1,) does not match 2 trees"),
        (None, ValueError, "fusion mode 'attention' needs a leaf assignment"),
        (np.array([3, 0]), IndexError, "leaf 3 out of range [0, 3) for tree 0"),
    ], ids=["ragged", "missing", "out_of_range"])
    def test_first_of_two_faulty_documents_is_named(self, token_first, ids, token_error,
                                                     token_message, assignment, leaf_error,
                                                     leaf_message):
        params = toy_params()
        docs, assignments = self.docs_and_assignments([3, 2, 4, 5, 1])
        token_doc, leaf_doc = (1, 3) if token_first else (3, 1)
        docs[token_doc], assignments[leaf_doc] = ids, assignment
        error, message = ((token_error, token_message) if token_first
                          else (leaf_error, leaf_message))
        with pytest.raises(error, match=re.escape(f"document 1: {message}")):
            predict_matrix(params, docs, assignments, "attention")

    @given(st.data())
    def test_distinct_columns_match_np_unique(self, data):
        n_rows = data.draw(st.integers(1, 4))
        # a few small values make columns repeat and tie in their leading
        # rows; -0.0 and 0.0 are one value
        value = st.one_of(st.sampled_from([-1.5, -0.0, 0.0, 1.0, 3.25]),
                          st.floats(allow_nan=False, allow_infinity=False))
        pool = data.draw(st.lists(st.lists(value, min_size=n_rows, max_size=n_rows),
                                  min_size=1, max_size=5))
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=12))
        a = np.array([pool[i] for i in picks]).T
        keys, inverse = tm._distinct_columns(a)
        want_keys, want_inverse = np.unique(a, axis=1, return_inverse=True)
        np.testing.assert_array_equal(inverse, want_inverse)
        assert keys.shape == want_keys.shape
        np.testing.assert_array_equal(keys, want_keys)
        np.testing.assert_array_equal(keys[:, inverse], a)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        params = toy_params(seed=21)
        meta = {"vocab_sha256": "abc", "fusion_mode": "attention"}
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, params, meta)
        loaded, meta2 = load_checkpoint(path)
        assert meta2["vocab_sha256"] == "abc"
        for (n1, t1), (n2, t2) in zip(params.named(), loaded.named()):
            assert n1 == n2
            np.testing.assert_array_equal(t1.data, t2.data)

    def test_round_trip_preserves_predictions(self, tmp_path):
        params = toy_params(seed=22)
        docs = [toy_doc(6), toy_doc(3)]
        assignments = [toy_assignment(), toy_assignment()]
        before = predict_matrix(params, docs, assignments, "attention")
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, params, {})
        loaded, _ = load_checkpoint(path)
        after = predict_matrix(loaded, docs, assignments, "attention")
        np.testing.assert_array_equal(before, after)

    def test_version_guard(self, tmp_path):
        params = toy_params(seed=23)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, params, {})
        with np.load(path) as archive:
            arrays = {k: archive[k] for k in archive.files}
        meta = json.loads(str(arrays["meta_json"]))
        meta["format_version"] = 99
        arrays["meta_json"] = np.array(json.dumps(meta))
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    @pytest.mark.parametrize("damage", ["missing", "misshaped"])
    def test_bad_array_rejected(self, tmp_path, damage):
        params = toy_params(seed=24)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, params, {})
        with np.load(path) as archive:
            arrays = {k: archive[k] for k in archive.files}
        if damage == "missing":
            del arrays["leaf_table"]
        else:
            arrays["leaf_table"] = arrays["leaf_table"][:-1]
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="ckpt.npz.*leaf_table"):
            load_checkpoint(path)


# a small size, a Python or a numpy integer
SIZES = st.integers(1, 4).flatmap(lambda n: st.sampled_from([n, np.int64(n), np.uint8(n)]))


class TestDimsRoundTrip:
    @run_settings(max_examples=50, deadline=None)
    @given(sizes=st.fixed_dictionaries(dict.fromkeys(
               ("vocab_size", "n_labels", "d_e", "d_lstm", "d_t", "d_l"), SIZES)),
           leaf_counts=st.lists(SIZES, max_size=3))
    def test_every_accepted_dims_round_trip(self, tmp_path_factory, sizes, leaf_counts):
        dims = ModelDims(**sizes, leaf_counts=leaf_counts)
        path = tmp_path_factory.mktemp("ckpt") / "ckpt.npz"
        save_checkpoint(path, init_params(dims, np.random.default_rng(0)), {})
        assert load_checkpoint(path)[0].dims == dims


class TestZeroTrees:
    """Without trees text_only still runs, and a mode that fuses leaves is
    refused, naming the mode, before any work."""

    DIMS = ModelDims(vocab_size=TOY.vocab_size, n_labels=3, d_e=4, d_lstm=3, d_t=4, d_l=3)

    def split(self):
        docs = [toy_doc(5), toy_doc(3)]
        return docs, [np.zeros(0, dtype=np.int64)] * 2, np.array([[1.0, 0, 1], [0, 1, 0]])

    @pytest.mark.parametrize("mode", LEAF_MODES)
    def test_leaf_mode_refused(self, mode):
        params = toy_params(self.DIMS)
        before = params.snapshot()
        docs, assignments, targets = self.split()
        refused = pytest.raises(ValueError, match=f"fusion mode {mode!r} needs .*at least one tree")
        with refused:
            train_model(params, docs, assignments, targets, docs, assignments, targets,
                        TrainSettings(epochs=1, seed=0, fusion_mode=mode))
        with refused:
            predict_matrix(params, docs, assignments, mode)
        with refused:
            forward(params, docs[0], assignments[0], mode)
        for name, value in params.snapshot().items():
            np.testing.assert_array_equal(value, before[name])

    def test_text_only_runs(self):
        params = toy_params(self.DIMS)
        docs, assignments, targets = self.split()
        train_model(params, docs, assignments, targets, docs, assignments, targets,
                    TrainSettings(epochs=1, seed=0, fusion_mode="text_only"))
        probs = predict_matrix(params, docs, assignments, "text_only")
        np.testing.assert_allclose(
            probs[0], forward(params, docs[0], assignments[0], "text_only").data, rtol=1e-12)


class TestBadCheckpoint:
    """Each damaged archive is refused with a ValueError naming the file."""

    def damaged(self, tmp_path, edit):
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, toy_params(seed=25), {})
        with np.load(path) as archive:
            arrays = {k: archive[k] for k in archive.files}
        meta = json.loads(str(arrays["meta_json"]))
        edit(arrays, meta)
        if "meta_json" in arrays:
            arrays["meta_json"] = np.array(json.dumps(meta))
        np.savez(path, **arrays)
        return path

    def test_missing_meta_json(self, tmp_path):
        path = self.damaged(tmp_path, lambda arrays, meta: arrays.pop("meta_json"))
        with pytest.raises(ValueError, match="ckpt.npz.*meta_json"):
            load_checkpoint(path)

    @pytest.mark.parametrize("text", ['{"dims": ', "[" * 100_000 + "]" * 100_000],
                             ids=["cut-short", "nested-past-the-recursion-limit"])
    def test_meta_json_not_json(self, tmp_path, text):
        path = self.damaged(tmp_path, lambda arrays, meta: None)
        with np.load(path) as archive:
            arrays = {k: archive[k] for k in archive.files}
        arrays["meta_json"] = np.array(text)
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="ckpt.npz: entry 'meta_json' is not JSON"):
            load_checkpoint(path)

    def test_missing_dims_key(self, tmp_path):
        path = self.damaged(tmp_path, lambda arrays, meta: meta["dims"].pop("d_l"))
        with pytest.raises(ValueError, match="ckpt.npz dims.*'d_l'"):
            load_checkpoint(path)

    def test_unknown_dims_key_rejected(self, tmp_path):
        path = self.damaged(tmp_path, lambda arrays, meta: meta["dims"].update(d_x=2))
        with pytest.raises(ValueError, match=re.escape(f"{path} dims has unknown keys ['d_x']")):
            load_checkpoint(path)

    def test_invalid_dims(self, tmp_path):
        def no_leaves(arrays, meta):
            meta["dims"]["leaf_counts"] = [3, 0]
            arrays["leaf_table"] = arrays["leaf_table"][:3]

        path = self.damaged(tmp_path, no_leaves)
        with pytest.raises(ValueError, match="ckpt.npz.*at least one leaf"):
            load_checkpoint(path)

    def test_non_finite_array(self, tmp_path):
        def nan_bias(arrays, meta):
            arrays["out_bias"] = arrays["out_bias"].copy()
            arrays["out_bias"][1] = np.nan

        path = self.damaged(tmp_path, nan_bias)
        with pytest.raises(ValueError, match="ckpt.npz.*'out_bias'.*non-finite"):
            load_checkpoint(path)

    @pytest.mark.parametrize("dtype", ["<U1", np.complex128, np.bool_, "datetime64[s]"])
    def test_array_not_float64(self, tmp_path, dtype):
        # save_checkpoint writes float64 only; anything else would load cast
        # (complex parts dropped) or fail inside the finiteness check
        def retyped(arrays, meta):
            arrays["word_emb"] = np.zeros(arrays["word_emb"].shape, dtype=dtype)

        path = self.damaged(tmp_path, retyped)
        with pytest.raises(ValueError, match=r"ckpt.npz.*'word_emb'.*dtype .*expected float64"):
            load_checkpoint(path)


class TestForwardModes:
    def test_probabilities_in_unit_interval(self):
        params = toy_params(seed=30)
        for mode in ("attention", "average", "maxpool", "text_only"):
            y = forward(params, toy_doc(8), toy_assignment(), mode)
            assert y.data.shape == (TOY.n_labels,)
            assert np.all((y.data > 0) & (y.data < 1))

    def test_fusion_modes_change_output(self):
        params = toy_params(seed=31)
        ids = toy_doc(6)
        a = toy_assignment()
        y_att = forward(params, ids, a, "attention").data
        y_text = forward(params, ids, a, "text_only").data
        assert not np.array_equal(y_att, y_text)

    def test_attention_mode_requires_assignment(self):
        params = toy_params(seed=32)
        with pytest.raises(ValueError):
            forward(params, toy_doc(4), None, "attention")
