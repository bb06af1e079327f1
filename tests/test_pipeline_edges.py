"""Degenerate inputs through the whole pipeline in memory: notes, labels and
structured records become a vocabulary and a feature table, trees and their
leaves, a trained network, scored splits and metrics. Each case must still
give finite probabilities in [0, 1], and checks its own edge."""

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest

from treefuse import dataset, metrics, model, tabular, trees, vocab
from treefuse.tabular import StructuredRecordSet

WORDS = ("fever", "cough", "rash", "pain", "stable", "chest", "renal", "sepsis")
SPLITS = {"train": range(0, 8), "val": range(8, 12), "test": range(12, 16)}
TREE_CONFIG = trees.TreeTrainConfig(max_depth=2, min_positives=2)
MAX_TOKENS = 16


@dataclass
class Admission:
    note: str
    labels: list[str]
    records: StructuredRecordSet


def admission(i: int) -> Admission:
    note = " ".join(WORDS[(i * k + 1) % len(WORDS)] for k in range(1, 3 + i % 4))
    labels = [name for name, has in (("a", i % 2 == 0), ("b", i % 3 == 0),
                                     ("c", i % 4 in (1, 2))) if has]
    records = StructuredRecordSet(
        f"adm{i}",
        time_series={"hr": [60.0 + i, 75.0 - i, 70.0]},
        multivalued=[("drug", str(i % 3))],
        singletons={"age": 30 + i, "kind": "ER" if i % 2 else "ELECTIVE"},
    )
    return Admission(note, labels, records)


def run_pipeline(splits: dict[str, list[Admission]]):
    """Every stage, as the benchmark runs them, on in-memory admissions."""
    ids = {k: [a.records.admission_id for a in adms] for k, adms in splits.items()}
    labels = {a.records.admission_id: a.labels for adms in splits.values() for a in adms}
    voc = vocab.build_vocabulary(a.note for a in splits["train"])
    docs = {k: [voc.encode(a.note, MAX_TOKENS) for a in adms] for k, adms in splits.items()}
    label_names = dataset.label_space(labels, ids["train"])
    targets = {k: dataset.label_matrix(ids[k], labels, label_names) for k in splits}

    train_table, schema = tabular.build_feature_table(a.records for a in splits["train"])
    tables = {"train": train_table}
    for k in ("val", "test"):
        tables[k] = tabular.apply_schema((a.records for a in splits[k]), schema)
    ensemble = trees.train_ensemble(train_table.values, targets["train"], TREE_CONFIG)
    assign = {k: np.stack([trees.assign_leaves(ensemble, row) for row in t.values])
              for k, t in tables.items()}

    dims = model.ModelDims(vocab_size=len(voc), n_labels=len(label_names),
                           leaf_counts=tuple(t.leaf_count for t in ensemble.trees),
                           d_e=4, d_lstm=3, d_t=3, d_l=2)
    params = model.init_params(dims, np.random.default_rng(0))
    result = model.train_model(params, docs["train"], assign["train"], targets["train"],
                               docs["val"], assign["val"], targets["val"],
                               model.TrainSettings(epochs=2, seed=0))
    probs = {k: model.predict_matrix(params, docs[k], assign[k], "attention")
             for k in ("val", "test")}
    k = min(model.PRECISION_K, len(label_names))
    reports = {s: metrics.compute_all(metrics.PredictionBatch(probs[s], targets[s]), k=k)
               for s in probs}
    return SimpleNamespace(docs=docs, label_names=label_names, targets=targets,
                           tables=tables, ensemble=ensemble, result=result,
                           probs=probs, reports=reports)


def one_class_val_label(splits):
    for a in splits["val"]:
        a.labels = [name for name in a.labels if name != "b"]

    def check(out):
        b = out.label_names.index("b")
        probs, gold = out.probs["val"], out.targets["val"]
        assert not gold[:, b].any()
        assert math.isnan(metrics.auc(probs[:, b], gold[:, b]))
        defined = [metrics.auc(probs[:, j], gold[:, j])
                   for j in range(len(out.label_names)) if j != b]
        assert out.reports["val"]["macro_auc"] == np.mean(defined)
        assert all(math.isfinite(row["val_macro_auc"]) for row in out.result.log_rows)
    return check


def one_document_train_and_val(splits):
    splits["train"] = splits["train"][:1]
    splits["val"] = splits["val"][:1]

    def check(out):
        assert len(out.docs["train"]) == len(out.docs["val"]) == 1
        assert out.probs["val"].shape == (1, len(out.label_names))
        assert all(t.leaf_count == 1 for t in out.ensemble.trees)
        assert len(out.result.log_rows) == 2 and out.result.best_epoch in (0, 1)
    return check


def constant_time_series(splits):
    for adms in splits.values():
        for a in adms:
            a.records.time_series["hr"] = [0.1, 0.1, 0.1]

    def check(out):
        names = [c.name for c in out.tables["train"].schema.columns]
        hr = [names.index(f"{kind}:hr") for kind in tabular.TS_KINDS]
        for table in out.tables.values():
            mean, hi, lo = table.values[:, hr].T
            assert np.array_equal(mean, hi) and np.array_equal(hi, lo)
        split_columns = {n.column for t in out.ensemble.trees for n in t.nodes if not n.is_leaf}
        assert split_columns and split_columns.isdisjoint(hr)
    return check


def note_without_tokens(splits):
    for adms in splits.values():
        adms[0].note = "123 4.5 !! x1"

    def check(out):
        for docs in out.docs.values():
            assert np.array_equal(docs[0], [vocab.UNK_ID])
    return check


def label_below_min_positives(splits):
    splits["train"][1].labels.append("rare")

    def check(out):
        counts = dict(zip(out.label_names, (t.leaf_count for t in out.ensemble.trees),
                          strict=True))
        assert counts.pop("rare") == 1
        assert max(counts.values()) > 1
    return check


@pytest.mark.parametrize("case", [one_class_val_label, one_document_train_and_val,
                                  constant_time_series, note_without_tokens,
                                  label_below_min_positives],
                         ids=lambda case: case.__name__)
def test_degenerate_input_scores_finite_probabilities(case):
    splits = {k: [admission(i) for i in rows] for k, rows in SPLITS.items()}
    check = case(splits)
    out = run_pipeline(splits)
    for s, probs in out.probs.items():
        assert probs.shape == out.targets[s].shape
        assert np.all(np.isfinite(probs)) and probs.min() >= 0.0 and probs.max() <= 1.0
    check(out)
