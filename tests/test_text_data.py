"""Vocabulary and dataset-file checks."""

import json
import re

import numpy as np
import pytest

from treefuse.dataset import (
    DatasetError,
    label_matrix,
    label_space,
    load_labels,
    load_manifest,
    load_notes,
    save_labels,
    save_manifest,
    save_notes,
    split_ids,
)
from treefuse.vocab import (
    UNK_ID,
    UNK_TOKEN,
    Vocabulary,
    build_vocabulary,
    clean_tokens,
    load_vocabulary,
    save_vocabulary,
)


class TestCleaning:
    def test_lowercase_and_alpha_filter(self):
        assert clean_tokens("Chest X-ray 22 shows NAD.") == ["chest", "shows"]

    def test_pure_numbers_dropped(self):
        assert clean_tokens("12 34 alpha 5beta") == ["alpha"]

    def test_empty(self):
        assert clean_tokens("") == []


class TestVocabulary:
    def test_build_lexicographic_dense(self):
        vocab = build_vocabulary(["beta alpha", "gamma alpha"])
        assert vocab.token_to_id == {
            UNK_TOKEN: 0, "alpha": 1, "beta": 2, "gamma": 3,
        }

    def test_encode_known_and_oov(self):
        vocab = build_vocabulary(["alpha beta"])
        ids = vocab.encode("alpha unseen beta", max_len=10)
        np.testing.assert_array_equal(ids, [1, UNK_ID, 2])

    def test_encode_truncates(self):
        vocab = build_vocabulary(["a b c d e"])
        ids = vocab.encode("a b c d e", max_len=2)
        assert len(ids) == 2

    @pytest.mark.parametrize("max_len", [True, 2.5, np.float64(2.0), "2", 0])
    def test_max_len_must_be_a_positive_integer(self, max_len):
        with pytest.raises(ValueError, match="'max_len'"):
            build_vocabulary(["a b c"]).encode("a b c", max_len=max_len)

    def test_numpy_max_len_truncates(self):
        assert len(build_vocabulary(["a b c"]).encode("a b c", max_len=np.int64(2))) == 2

    def test_empty_doc_encodes_to_unk(self):
        vocab = build_vocabulary(["alpha"])
        np.testing.assert_array_equal(vocab.encode("123 !!", max_len=5), [UNK_ID])

    def test_digest_stable_and_distinct(self):
        v1 = build_vocabulary(["a b"])
        v2 = build_vocabulary(["a b"])
        v3 = build_vocabulary(["a c"])
        assert v1.sha256() == v2.sha256()
        assert v1.sha256() != v3.sha256()

    def test_round_trip(self, tmp_path):
        vocab = build_vocabulary(["alpha beta gamma"])
        path = tmp_path / "vocab.json"
        save_vocabulary(vocab, path)
        assert load_vocabulary(path).token_to_id == vocab.token_to_id

    @pytest.mark.parametrize("tokens", [
        {"<unk>": 0, "a": 5},
        {"<unk>": 1, "a": 0},
        {"<unk>": 0, "a": 1, "b": 1},
        {"a": 0, "b": 1},
    ], ids=["gap", "unk-not-zero", "repeated-id", "no-unk"])
    def test_ids_must_be_dense_with_unk_at_zero(self, tmp_path, tokens):
        path = tmp_path / "vocab.json"
        path.write_text(json.dumps({"format_version": 1, "tokens": tokens}))
        with pytest.raises(DatasetError, match=re.escape(f"vocabulary {path}: 'tokens' ids")):
            load_vocabulary(path)


class TestDatasetFiles:
    def test_notes_round_trip(self, tmp_path):
        notes = {"a": "hello world", "b": "second doc"}
        path = tmp_path / "notes.jsonl"
        save_notes(notes, path)
        assert load_notes(path) == notes

    def test_duplicate_note_rejected(self, tmp_path):
        path = tmp_path / "notes.jsonl"
        path.write_text(
            '{"admission_id": "a", "text": "x"}\n'
            '{"admission_id": "a", "text": "y"}\n'
        )
        with pytest.raises(DatasetError):
            load_notes(path)

    @pytest.mark.parametrize("loader, name, line", [
        (load_notes, "notes", '{"admission_id": "a", "text": "y"}'),
        (load_labels, "labels", '{"admission_id": "a", "labels": []}'),
    ])
    def test_duplicate_id_error_names_the_file_kind(self, tmp_path, loader, name, line):
        path = tmp_path / f"{name}.jsonl"
        path.write_text(f"{line}\n{line}\n")
        with pytest.raises(DatasetError, match=f"duplicate admission_id in {name}: a$"):
            loader(path)

    def test_labels_round_trip(self, tmp_path):
        labels = {"a": ["l1", "l2"], "b": []}
        path = tmp_path / "labels.jsonl"
        save_labels(labels, path)
        assert load_labels(path) == labels

    @pytest.mark.parametrize(
        "loader, line, complaint",
        [
            (load_notes, '{"admission_id": "b"}', "'text'"),
            (load_notes, '{"text": "y"}', "'admission_id'"),
            (load_notes, '["b", "y"]', "list, not an object"),
            (load_labels, '{"admission_id": "b"}', "'labels'"),
            (load_labels, '["b", ["l1"]]', "list, not an object"),
            (load_labels, '"b"', "str, not an object"),
            (load_labels, '{"admission_id": "b", "labels": [}', "bad record"),
            (load_labels, '{"admission_id": "b", "labels": "abc"}',
             "'labels' must be a list[str], not \"abc\""),
            (load_labels, '{"admission_id": "b", "labels": [null, 3]}',
             "'labels' must be a list[str], not [null, 3]"),
            (load_notes, '{"admission_id": "b", "text": null}', "'text' must be a str, not null"),
            (load_notes, '{"admission_id": "b", "text": ["y"]}', "'text' must be a str"),
            (load_notes, '{"admission_id": null, "text": "y"}', "'admission_id' must be a Id, not null"),
            (load_labels, '{"admission_id": ["b"], "labels": []}',
             "'admission_id' must be a Id, not [\"b\"]"),
            (load_labels, '{"admission_id": false, "labels": []}',
             "'admission_id' must be a Id, not false"),
        ],
    )
    def test_malformed_record_names_file_and_line(self, tmp_path, loader, line, complaint):
        path = tmp_path / "records.jsonl"
        path.write_text('{"admission_id": "a", "text": "x", "labels": []}\n\n' + line + "\n")
        with pytest.raises(DatasetError, match=f"records.jsonl:3: .*{re.escape(complaint)}"):
            loader(path)

    def test_label_space_sorted_over_subset(self):
        labels = {"a": ["z", "m"], "b": ["a"], "c": ["q"]}
        assert label_space(labels, ["a", "b"]) == ["a", "m", "z"]

    def test_label_matrix(self):
        labels = {"a": ["x"], "b": ["x", "y"], "c": []}
        m = label_matrix(["b", "a", "c"], labels, ["x", "y"])
        np.testing.assert_array_equal(m, [[1, 1], [1, 0], [0, 0]])

    def test_label_matrix_ignores_unseen_names(self):
        labels = {"a": ["x", "mystery"]}
        m = label_matrix(["a"], labels, ["x"])
        np.testing.assert_array_equal(m, [[1.0]])


class TestSplit:
    def test_counts(self):
        ids = [f"d{i}" for i in range(10)]
        parts = split_ids(ids, (0.8, 0.1, 0.1), seed=1)
        assert len(parts["train"]) == 8
        assert len(parts["val"]) == 1
        assert len(parts["test"]) == 1

    def test_disjoint_and_covering(self):
        ids = [f"d{i}" for i in range(23)]
        parts = split_ids(ids, (0.6, 0.2, 0.2), seed=4)
        combined = parts["train"] + parts["val"] + parts["test"]
        assert sorted(combined) == sorted(ids)
        assert len(set(combined)) == len(ids)

    def test_empty_split_rejected(self):
        with pytest.raises(DatasetError):
            split_ids([f"d{i}" for i in range(10)], (1.0, 0.0, 0.0), seed=0)

    def test_bad_ratio_sum_rejected(self):
        with pytest.raises(DatasetError):
            split_ids(["a", "b"], (0.5, 0.2, 0.2), seed=0)

    @pytest.mark.parametrize("ratios", [
        (float("nan"), 0.5, 0.5), (float("inf"), float("-inf"), 1.0),
        (0.6, -0.2, 0.6), (1.2, -0.1, -0.1),
    ], ids=["nan", "infinities", "negative-val", "negative-val-test"])
    def test_non_finite_or_negative_ratio_rejected(self, ratios):
        with pytest.raises(DatasetError, match="split ratios must be finite and non-negative"):
            split_ids([f"d{i}" for i in range(10)], ratios, seed=0)

    def test_repeated_ids_rejected(self):
        # such a split would be written to a manifest that load_manifest refuses
        ids = [f"d{i}" for i in range(10)] + ["d3", "d7", "d3"]
        with pytest.raises(DatasetError, match=re.escape("repeated admission ids ['d3', 'd7']")):
            split_ids(ids, (0.6, 0.2, 0.2), seed=0)

    @pytest.mark.parametrize("seed", [True, 1.5, -1, "1"])
    def test_seed_that_is_not_a_non_negative_integer_refused(self, seed):
        with pytest.raises(ValueError, match="'seed' must be an integer >= 0"):
            split_ids([f"d{i}" for i in range(10)], (0.6, 0.2, 0.2), seed=seed)

    def test_same_seed_identical(self):
        ids = [f"d{i}" for i in range(30)]
        p1 = split_ids(ids, (0.7, 0.15, 0.15), seed=9)
        p2 = split_ids(ids, (0.7, 0.15, 0.15), seed=9)
        assert p1 == p2

    def test_different_seed_differs(self):
        ids = [f"d{i}" for i in range(30)]
        p1 = split_ids(ids, (0.7, 0.15, 0.15), seed=9)
        p2 = split_ids(ids, (0.7, 0.15, 0.15), seed=10)
        assert p1 != p2

    def test_manifest_round_trip(self, tmp_path):
        parts = split_ids([f"d{i}" for i in range(10)], (0.8, 0.1, 0.1), seed=2)
        path = tmp_path / "manifest.json"
        save_manifest(parts, path)
        assert load_manifest(path) == parts

    def test_manifest_missing_split_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('{"train": ["a"], "val": ["b"]}')
        with pytest.raises(DatasetError):
            load_manifest(path)

    @pytest.mark.parametrize("parts, complaint", [
        ({"train": ["a"], "val": ["b"], "test": ["c"], "extra": ["d"]},
         "holds ['extra', 'test', 'train', 'val'], not exactly ['train', 'val', 'test']"),
        ({"train": ["a", "b"], "val": ["b"], "test": ["c"]}, "puts admissions ['b'] in more than one place"),
        ({"train": ["a", "a"], "val": ["b"], "test": ["c"]}, "puts admissions ['a'] in more than one place"),
    ], ids=["extra-split", "shared-id", "repeated-id"])
    def test_manifest_must_be_exactly_three_disjoint_splits(self, tmp_path, parts, complaint):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(parts))
        with pytest.raises(DatasetError, match=re.escape(f"manifest {path} {complaint}")):
            load_manifest(path)
