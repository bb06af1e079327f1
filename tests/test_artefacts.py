"""Every JSON artefact through the shared layer: saves are byte-stable,
loads round-trip, and a wrong-typed value is refused naming the artefact
(or its file) and the key."""

import json
import re

import numpy as np
import pytest

from treefuse import dataset, model, tabular, trees, vocab
from treefuse.tabular import StructuredRecordSet


def make_vocabulary():
    return vocab.build_vocabulary(["alpha beta", "gamma alpha"])


def make_schema():
    return tabular.build_schema([
        StructuredRecordSet("a", {"hr": [(0.0, 70.0)]}, [("drug", "7")], {"age": 40, "kind": "ER"}),
        StructuredRecordSet("b", {}, [], {"age": 51.5, "kind": "ELECTIVE"}),
    ])


def make_ensemble():
    x = np.random.default_rng(0).normal(size=(40, 3))
    labels = np.stack([x[:, 0] > 0, x[:, 1] > 0.5], axis=1)
    return trees.train_ensemble(x, labels, trees.TreeTrainConfig(max_depth=1, min_positives=1))


def make_manifest():
    return dataset.split_ids([f"d{i}" for i in range(10)], (0.6, 0.2, 0.2), seed=3)


def make_checkpoint():
    dims = model.ModelDims(vocab_size=6, n_labels=2, leaf_counts=(2, 3), d_e=3, d_lstm=2,
                           d_t=2, d_l=2)
    return model.init_params(dims, np.random.default_rng(1))


def checkpoint_canonical(params):
    return params.dims, {name: t.data.tolist() for name, t in params.named()}


def save_checkpoint(params, path):
    model.save_checkpoint(path, params, {"vocab_sha256": "abc"})


def load_checkpoint(path):
    return model.load_checkpoint(path)[0]


def read_payload(name, path):
    if name != "checkpoint":
        return json.loads(path.read_text())
    with np.load(path) as archive:
        return json.loads(str(archive["meta_json"]))


def write_payload(name, path, payload):
    if name != "checkpoint":
        path.write_text(json.dumps(payload))
        return
    with np.load(path) as archive:
        arrays = {k: archive[k] for k in archive.files}
    arrays["meta_json"] = np.array(json.dumps(payload))
    np.savez(path, **arrays)


# name -> (build, save, load, canonical form, file name)
ARTEFACTS = {
    "vocabulary": (make_vocabulary, vocab.save_vocabulary, vocab.load_vocabulary,
                   lambda v: v.token_to_id, "vocab.json"),
    "schema": (make_schema, tabular.save_schema, tabular.load_schema,
               tabular.schema_to_dict, "schema.json"),
    "ensemble": (make_ensemble, trees.save_ensemble, trees.load_ensemble,
                 trees.ensemble_to_dict, "ensemble.json"),
    "manifest": (make_manifest, dataset.save_manifest, dataset.load_manifest,
                 lambda parts: parts, "manifest.json"),
    "checkpoint": (make_checkpoint, save_checkpoint, load_checkpoint,
                   checkpoint_canonical, "ckpt.npz"),
}


def saved(tmp_path, name):
    build, save, _, _, filename = ARTEFACTS[name]
    path = tmp_path / filename
    save(build(), path)
    return path


@pytest.mark.parametrize("name", ARTEFACTS)
def test_round_trip(tmp_path, name):
    build, save, load, canonical, _ = ARTEFACTS[name]
    original = build()
    path = saved(tmp_path, name)
    assert canonical(load(path)) == canonical(original)


@pytest.mark.parametrize("name", ARTEFACTS)
def test_equal_inputs_give_identical_bytes(tmp_path, name):
    first = saved(tmp_path, name).read_bytes()
    assert saved(tmp_path, name).read_bytes() == first


def test_in_memory_round_trips():
    ens = make_ensemble()
    assert trees.ensemble_to_dict(trees.ensemble_from_dict(trees.ensemble_to_dict(ens))) == \
        trees.ensemble_to_dict(ens)
    schema = make_schema()
    assert tabular.schema_to_dict(tabular.schema_from_dict(tabular.schema_to_dict(schema))) == \
        tabular.schema_to_dict(schema)


NAN, INF = float("nan"), float("inf")

# (artefact, path to the value replaced, wrong-typed value, text naming the
# artefact or file, the key named)
WRONG_TYPED = [
    ("vocabulary", ("format_version",), "1", "vocab.json", "format_version"),
    ("vocabulary", ("tokens", "alpha"), "1", "vocab.json", "tokens"),
    ("vocabulary", ("tokens", "alpha"), 1.7, "vocab.json", "tokens"),
    ("vocabulary", ("tokens", "alpha"), True, "vocab.json", "tokens"),
    ("vocabulary", ("tokens",), ["alpha"], "vocab.json", "tokens"),
    ("schema", ("format_version",), 1.0, "schema", "format_version"),
    ("schema", ("columns",), {"0": "ts_max:hr"}, "schema", "columns"),
    ("schema", ("columns", 0, "source_id"), 7, "schema column 0", "source_id"),
    ("schema", ("categorical_maps", "kind", "ER"), "0", "schema", "categorical_maps"),
    ("schema", ("categorical_maps", "kind", "ER"), 1.7, "schema", "categorical_maps"),
    ("ensemble", ("n_features",), "3", "ensemble", "n_features"),
    ("ensemble", ("n_features",), 1.7, "ensemble", "n_features"),
    ("ensemble", ("trees",), {"0": {}}, "ensemble", "trees"),
    ("ensemble", ("config", "max_depth"), 1.7, "ensemble config", "max_depth"),
    ("ensemble", ("config", "learning_rate"), NAN, "ensemble config", "learning_rate"),
    ("ensemble", ("config", "l2_lambda"), INF, "ensemble config", "l2_lambda"),
    ("ensemble", ("trees", 0, "leaf_count"), "2", "tree 0", "leaf_count"),
    ("ensemble", ("trees", 0, "nodes"), {"0": {}}, "tree 0", "nodes"),
    ("ensemble", ("trees", 0, "nodes", 0, "default_left"), "false", "tree 0, node 0",
     "default_left"),
    ("ensemble", ("trees", 0, "nodes", 0, "column"), 1.7, "tree 0, node 0", "column"),
    ("ensemble", ("trees", 0, "nodes", 0, "threshold"), -INF, "tree 0, node 0", "threshold"),
    ("ensemble", ("trees", 0, "nodes", 1, "weight"), NAN, "tree 0, node 1", "weight"),
    ("ensemble", ("trees", 0, "nodes", 1, "leaf_id"), "0", "tree 0, node 1", "leaf_id"),
    ("manifest", ("train",), "abc", "manifest.json", "train"),
    ("manifest", ("val",), {"d1": 1}, "manifest.json", "val"),
    ("manifest", ("test", 0), 3, "manifest.json", "test"),
    ("checkpoint", ("format_version",), "2", "ckpt.npz", "format_version"),
    ("checkpoint", ("dims",), [6, 2], "ckpt.npz", "dims"),
    ("checkpoint", ("dims", "vocab_size"), 5.9, "ckpt.npz", "vocab_size"),
    ("checkpoint", ("dims", "n_labels"), "2", "ckpt.npz", "n_labels"),
    ("checkpoint", ("dims", "d_lstm"), False, "ckpt.npz", "d_lstm"),
    ("checkpoint", ("dims", "leaf_counts"), {"0": 2}, "ckpt.npz", "leaf_counts"),
    ("checkpoint", ("dims", "leaf_counts", 0), 2.0, "ckpt.npz", "leaf_counts"),
]


@pytest.mark.parametrize("name, where, value, names, key", WRONG_TYPED, ids=[
    f"{row[0]}-{'.'.join(map(str, row[1]))}-{json.dumps(row[2])}" for row in WRONG_TYPED])
def test_wrong_typed_value_names_artefact_and_key(tmp_path, name, where, value, names, key):
    path = saved(tmp_path, name)
    payload = read_payload(name, path)
    parent = payload
    for step in where[:-1]:
        parent = parent[step]
    assert where[-1] in parent if isinstance(parent, dict) else where[-1] < len(parent)
    parent[where[-1]] = value
    write_payload(name, path, payload)
    with pytest.raises(ValueError, match=f"{re.escape(names)}.*'{key}'"):
        ARTEFACTS[name][2](path)


@pytest.mark.parametrize("name", ["vocabulary", "schema", "ensemble", "manifest"])
def test_unparsable_file_named(tmp_path, name):
    path = saved(tmp_path, name)
    path.write_text(path.read_text()[:-3])
    with pytest.raises(dataset.DatasetError, match=re.escape(f"{path}: not a JSON file")):
        ARTEFACTS[name][2](path)
