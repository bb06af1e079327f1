"""The paper's multimodal lift at shrunk dims: on ``lift_spec``, whose first
four labels carry evidence only in the structured records, attention over
the trees must beat the text-only model on those labels."""

import numpy as np
import pytest

from treefuse import dataset, metrics, model, synthetic, tabular, trees, vocab

# the benchmark's lift workload: split ratios, epochs and learning rate
SPLIT = (0.55, 0.10, 0.35)
EPOCHS = 5
LEARNING_RATE = 3e-3
MAX_TOKENS = 512
TABULAR_LABELS = [f"label_{i:02d}" for i, source in enumerate(synthetic.lift_spec().sources)
                  if source == "tabular"]
MARGIN = 0.2


def tabular_label_f1(tmp_path, seed: int, mode: str) -> float:
    """Test micro-F1 on the tabular-only labels after training in ``mode``."""
    paths = synthetic.generate_dataset(synthetic.lift_spec(n_docs=100), seed, tmp_path)
    notes = dataset.load_notes(paths.notes)
    labels = dataset.load_labels(paths.labels)
    by_id = {r.admission_id: r for r in tabular.load_record_sets(
        paths.timeseries, paths.events, paths.singletons)}
    parts = dataset.split_ids(list(notes), SPLIT, seed)
    voc = vocab.build_vocabulary(notes[a] for a in parts["train"])
    docs = {k: [voc.encode(notes[a], MAX_TOKENS) for a in ids] for k, ids in parts.items()}
    records = {k: [by_id.get(a) or tabular.StructuredRecordSet(admission_id=a) for a in ids]
               for k, ids in parts.items()}
    train_table, schema = tabular.build_feature_table(records["train"])
    rows = {"train": train_table.values}
    for k in ("val", "test"):
        rows[k] = tabular.apply_schema(records[k], schema).values
    names = dataset.label_space(labels, parts["train"])
    targets = {k: dataset.label_matrix(ids, labels, names) for k, ids in parts.items()}

    ensemble = trees.train_ensemble(rows["train"], targets["train"])
    assign = {k: np.stack([trees.assign_leaves(ensemble, r) for r in v]) for k, v in rows.items()}
    dims = model.ModelDims(vocab_size=len(voc), n_labels=len(names),
                           leaf_counts=tuple(t.leaf_count for t in ensemble.trees),
                           d_e=16, d_lstm=16, d_t=16, d_l=8)
    params = model.init_params(dims, np.random.default_rng(seed))
    model.train_model(params, docs["train"], assign["train"], targets["train"],
                      docs["val"], assign["val"], targets["val"],
                      model.TrainSettings(epochs=EPOCHS, seed=seed, fusion_mode=mode,
                                          learning_rate=LEARNING_RATE))
    probs = model.predict_matrix(params, docs["test"], assign["test"], mode)
    cols = [names.index(name) for name in TABULAR_LABELS]
    return metrics.micro_f1(metrics.PredictionBatch(probs[:, cols], targets["test"][:, cols]))


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_attention_beats_text_only_on_tabular_labels(tmp_path, seed):
    # text_only never sees the records, so on these labels it can only
    # guess from label frequency in the text
    attention = tabular_label_f1(tmp_path / "attention", seed, "attention")
    text_only = tabular_label_f1(tmp_path / "text_only", seed, "text_only")
    assert attention >= text_only + MARGIN, (attention, text_only)
