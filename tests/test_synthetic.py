"""Generator checks: determinism, spec validation, and the promised
relationship between planted signals and labels."""

import numpy as np
import pytest

from treefuse.dataset import load_labels, load_notes
from treefuse.synthetic import (
    SyntheticSpec,
    generate_dataset,
    lift_spec,
    marker_tokens,
    signal_item,
    standard_spec,
    token_name,
)
from treefuse.tabular import load_record_sets


def read_all(paths):
    out = {}
    for name, p in paths.as_dict().items():
        with open(p, "rb") as fh:
            out[name] = fh.read()
    return out


class TestSpecValidation:
    def test_default_sources_fill_in(self):
        spec = SyntheticSpec(n_labels=5, vocab_size=60)
        assert len(spec.sources) == 5
        assert set(spec.sources) <= {"text", "tabular", "both"}

    def test_source_length_mismatch(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_labels=3, sources=("text",), vocab_size=60)

    def test_unknown_source(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_labels=1, sources=("telepathy",), vocab_size=60)

    def test_strength_range(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_labels=1, sources=("text",), strengths=(1.5,), vocab_size=60)

    @pytest.mark.parametrize("fields, name", [
        ({"n_items": -3}, "n_items"),
        ({"n_docs": 2.5}, "n_docs"),
        ({"doc_len_max": 60.5}, "doc_len_max"),
        ({"n_labels": 2, "strengths": (1.0, True)}, "strengths"),
    ])
    def test_bad_number_refused_naming_it(self, fields, name):
        with pytest.raises(ValueError, match=f"'{name}'"):
            SyntheticSpec(**fields)

    def test_vocab_too_small(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_labels=20, vocab_size=40)

    def test_lift_preset_shape(self):
        spec = lift_spec()
        assert spec.n_labels == 8
        assert spec.sources.count("tabular") == 4
        assert spec.sources.count("text") == 3
        assert spec.sources.count("both") == 1

    def test_token_names_alphabetic(self):
        for i in (0, 25, 26, 700, 456975):
            assert token_name(i).isalpha()
        assert token_name(0) == "aaaa"
        assert token_name(1) == "aaab"
        assert token_name(26) == "aaba"


class TestDeterminism:
    def test_same_spec_seed_byte_identical(self, tmp_path):
        spec = lift_spec(n_docs=24)
        p1 = generate_dataset(spec, seed=42, out_dir=tmp_path / "a")
        p2 = generate_dataset(spec, seed=42, out_dir=tmp_path / "b")
        assert read_all(p1) == read_all(p2)

    def test_different_seed_differs(self, tmp_path):
        spec = lift_spec(n_docs=24)
        p1 = generate_dataset(spec, seed=42, out_dir=tmp_path / "a")
        p2 = generate_dataset(spec, seed=43, out_dir=tmp_path / "b")
        assert read_all(p1) != read_all(p2)

    @pytest.mark.parametrize("seed", [True, 1.5, -1, "1"])
    def test_seed_that_is_not_a_non_negative_integer_refused(self, tmp_path, seed):
        with pytest.raises(ValueError, match="'seed' must be an integer >= 0"):
            generate_dataset(lift_spec(n_docs=4), seed=seed, out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()


class TestSignals:
    def test_files_loadable_and_consistent(self, tmp_path):
        spec = lift_spec(n_docs=40)
        paths = generate_dataset(spec, seed=7, out_dir=tmp_path)
        notes = load_notes(paths.notes)
        labels = load_labels(paths.labels)
        assert set(notes) == set(labels)
        assert len(notes) == 40
        for text in notes.values():
            toks = text.split()
            assert spec.doc_len_min <= len(toks) <= spec.doc_len_max
            assert all(t.isalpha() for t in toks)

    def test_indicator_item_tracks_label_at_full_strength(self, tmp_path):
        spec = lift_spec(n_docs=80)
        paths = generate_dataset(spec, seed=11, out_dir=tmp_path)
        labels = load_labels(paths.labels)
        recs = load_record_sets(paths.timeseries, paths.events, paths.singletons)
        by_id = {r.admission_id: r for r in recs}
        # label 0 is the first tabular label: indicator evidence.
        cat, item = signal_item(0, "tabular")
        for aid, gold in labels.items():
            has_item = (cat, item) in by_id[aid].multivalued
            assert has_item == ("label_00" in gold)

    def test_marker_bigram_tracks_text_label_at_full_strength(self, tmp_path):
        spec = lift_spec(n_docs=80)
        paths = generate_dataset(spec, seed=13, out_dir=tmp_path)
        notes = load_notes(paths.notes)
        labels = load_labels(paths.labels)
        # label 4 is the first text label.
        m1, m2 = marker_tokens(4)
        for aid, gold in labels.items():
            toks = notes[aid].split()
            has_bigram = any(
                a == m1 and b == m2 for a, b in zip(toks, toks[1:])
            )
            assert has_bigram == ("label_04" in gold)

    def test_both_label_requires_both_parts(self, tmp_path):
        spec = lift_spec(n_docs=120)
        paths = generate_dataset(spec, seed=17, out_dir=tmp_path)
        notes = load_notes(paths.notes)
        labels = load_labels(paths.labels)
        recs = load_record_sets(paths.timeseries, paths.events, paths.singletons)
        by_id = {r.admission_id: r for r in recs}
        m1, m2 = marker_tokens(7)
        pair = signal_item(7, "both")
        partial_only = 0
        for aid, gold in labels.items():
            toks = notes[aid].split()
            has_text = any(a == m1 and b == m2 for a, b in zip(toks, toks[1:]))
            has_item = pair in by_id[aid].multivalued
            positive = "label_07" in gold
            assert positive == (has_text and has_item)
            if (has_text or has_item) and not positive:
                partial_only += 1
        assert partial_only > 0, "both-source label never showed a partial signal"

    def test_ts_label_shifts_vital_mean(self, tmp_path):
        spec = lift_spec(n_docs=150)
        paths = generate_dataset(spec, seed=19, out_dir=tmp_path)
        labels = load_labels(paths.labels)
        recs = load_record_sets(paths.timeseries, paths.events, paths.singletons)
        by_id = {r.admission_id: r for r in recs}
        # label 1 is the second tabular label: time-series evidence.
        pos_means, neg_means = [], []
        for aid, gold in labels.items():
            series = by_id[aid].time_series.get("vital1")
            assert series, "ts evidence class must always be present"
            mean = np.mean(series)
            (pos_means if "label_01" in gold else neg_means).append(mean)
        assert np.mean(pos_means) > 1.5
        assert abs(np.mean(neg_means)) < 0.5

    def test_strength_zero_plants_nothing(self, tmp_path):
        spec = lift_spec(n_docs=150, strength=0.0)
        paths = generate_dataset(spec, seed=23, out_dir=tmp_path)
        notes = load_notes(paths.notes)
        labels = load_labels(paths.labels)
        recs = load_record_sets(paths.timeseries, paths.events, paths.singletons)
        by_id = {r.admission_id: r for r in recs}

        marker_names = {t for l in range(8) for t in marker_tokens(l)}
        for text in notes.values():
            assert not marker_names & set(text.split())
        for r in recs:
            assert not any(item.startswith("sig") for _, item in r.multivalued)

        # Labels still fire at the prior, but carry no feature information:
        # the time-series mean no longer separates the classes.
        pos_means, neg_means = [], []
        for aid, gold in labels.items():
            series = by_id[aid].time_series.get("vital1")
            mean = np.mean(series)
            (pos_means if "label_01" in gold else neg_means).append(mean)
        assert len(pos_means) > 10
        assert abs(np.mean(pos_means) - np.mean(neg_means)) < 0.2

    def test_standard_spec_label_density(self, tmp_path):
        spec = standard_spec(n_docs=400, n_labels=50)
        paths = generate_dataset(spec, seed=29, out_dir=tmp_path)
        labels = load_labels(paths.labels)
        mean_labels = np.mean([len(v) for v in labels.values()])
        assert 5.7 == pytest.approx(mean_labels, abs=0.6)
